"""Orientations of multigraphs with prescribed clockwise parities on even circuits."""

from .circuits import (
    Circuit,
    Parity,
    circuit_from_edges,
    clockwise_parity,
    enumerate_circuits,
    even_circuits,
    is_even_circuit_connected,
)
from .graphs import (
    Edge,
    Multigraph,
    Orientation,
    find_isomorphism,
    is_bipartite,
    isomorphic,
)
from .solver import (
    IntractableCertificate,
    ParityAssignment,
    build_system,
    decide,
    is_intractable_set,
    solve_circuits,
    verify_orientation,
)

__all__ = [
    "Circuit",
    "Edge",
    "IntractableCertificate",
    "Multigraph",
    "Orientation",
    "Parity",
    "ParityAssignment",
    "build_system",
    "circuit_from_edges",
    "clockwise_parity",
    "decide",
    "enumerate_circuits",
    "even_circuits",
    "find_isomorphism",
    "is_bipartite",
    "is_even_circuit_connected",
    "is_intractable_set",
    "isomorphic",
    "solve_circuits",
    "verify_orientation",
]
