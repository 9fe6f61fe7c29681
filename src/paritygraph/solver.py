"""Decide whether a multigraph can be oriented so every even circuit gets
its prescribed clockwise parity, producing an orientation or a certificate.

The decision reduces to a GF(2) linear system: one variable per edge lying
on an even circuit, one equation per even circuit whose right-hand side
says whether the reference orientation already gives the prescribed
parity.  Reorienting the edges of any solution fixes every even circuit at
once; an inconsistency names a dependent set of circuits that no
orientation can satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

from . import gf2
from .circuits import (
    DEFAULT_CIRCUIT_CAP,
    Circuit,
    Parity,
    circuit_from_edges,
    clockwise_parity,
    even_circuits,
)
from .errors import ContractError, InputError
from .graphs import Multigraph, Orientation


@dataclass(frozen=True)
class ParityAssignment:
    """The map from even circuits to target clockwise parities.

    ``kind`` is "all-odd", "all-even" or "explicit".  Explicit assignments
    map circuit edge-id sets to parities and must cover every even circuit
    of the graph they are solved against, unless a default parity is set.
    """

    kind: str
    explicit: Optional[Mapping[frozenset[int], Parity]] = None
    default: Optional[Parity] = None

    @staticmethod
    def all_odd() -> "ParityAssignment":
        return ParityAssignment("all-odd")

    @staticmethod
    def all_even() -> "ParityAssignment":
        return ParityAssignment("all-even")

    @staticmethod
    def from_map(
        mapping: Mapping[frozenset[int], Parity], default: Optional[Parity] = None
    ) -> "ParityAssignment":
        for key in mapping:
            if len(key) % 2:
                raise InputError(f"assignment key {sorted(key)} has odd cardinality")
        return ParityAssignment("explicit", dict(mapping), default)

    def parity_for(self, circuit: Circuit) -> Parity:
        if self.kind == "all-odd":
            return Parity.ODD
        if self.kind == "all-even":
            return Parity.EVEN
        if self.explicit is None:
            raise ContractError(f"assignment of kind {self.kind!r} has no explicit map")
        value = self.explicit.get(circuit.edge_set)
        if value is None:
            value = self.default
        if value is None:
            raise InputError(
                f"assignment does not cover even circuit {list(circuit.edge_ids)}"
            )
        return value


@dataclass(frozen=True)
class IntractableCertificate:
    """Even circuits with empty symmetric difference whose observed
    clockwise-even count parity differs from the prescribed one."""

    circuits: tuple[Circuit, ...]
    observed_even_count_parity: Parity
    prescribed_even_count_parity: Parity


def circuit_matrix(
    circuits: Sequence[Circuit],
) -> tuple[gf2.Gf2Matrix, tuple[int, ...]]:
    """Incidence rows of ``circuits`` over the sorted edges they use.

    Returns (matrix, columns): row i packs circuits[i] over ``columns``.
    """
    cols = sorted({eid for c in circuits for eid in c.edge_ids})
    index = {eid: i for i, eid in enumerate(cols)}
    masks = [gf2.indices_to_bits(index[eid] for eid in c.edge_ids) for c in circuits]
    return gf2.Gf2Matrix.from_bitmasks(masks, len(cols)), tuple(cols)


def _rhs(circuits: Sequence[Circuit], j: ParityAssignment, base: Orientation) -> tuple[int, ...]:
    """1 where the base orientation disagrees with the assignment."""
    return tuple(1 if clockwise_parity(base, c) != j.parity_for(c) else 0 for c in circuits)


def build_system(
    g: Multigraph,
    j: ParityAssignment,
    base: Orientation,
    cap: int = DEFAULT_CIRCUIT_CAP,
) -> tuple[gf2.Gf2Matrix, tuple[int, ...], tuple[Circuit, ...], tuple[int, ...]]:
    """The even-circuit constraint system.

    Returns (matrix, rhs, circuits, columns): row i is the incidence vector
    of circuits[i] over ``columns`` (the edges lying on even circuits), and
    rhs[i] is 1 iff the base orientation disagrees with the assignment.
    """
    circs = even_circuits(g, cap)
    a, cols = circuit_matrix(circs)
    return a, _rhs(circs, j, base), circs, cols


def _minimal_odd_combination(
    basis: Sequence[frozenset[int]], rhs: tuple[int, ...], seed: frozenset[int]
) -> frozenset[int]:
    """Smallest row set summing to zero with odd rhs sum, best effort.

    ``basis`` is the matrix's ``gf2.left_nullspace_basis``.  With few
    independent dependencies the search is exhaustive, so the result is a
    true minimum, ties going to the lexicographically least sorted row
    list; otherwise a greedy descent from the seed.
    """
    if len(basis) <= gf2.EXHAUSTIVE_NULLSPACE_DIM:
        odd_rows = gf2.indices_to_bits(i for i, bit in enumerate(rhs) if bit)
        best = 0
        for bits in gf2.combination_walk([gf2.indices_to_bits(s) for s in basis]):
            if not (bits & odd_rows).bit_count() & 1:
                continue
            size, best_size = bits.bit_count(), best.bit_count()
            # of two equal-size sets, the one holding the lowest row of
            # their symmetric difference has the smaller sorted list
            diff = bits ^ best
            if not best or size < best_size or (size == best_size and bits & diff & -diff):
                best = bits
        # the seed is an odd dependency, so the walk always finds one
        return frozenset(gf2.bits_to_indices(best))

    current = set(seed)
    improved = True
    while improved:
        improved = False
        for s in basis:
            cand = current ^ s
            if cand and sum(rhs[i] for i in cand) % 2 == 1 and len(cand) < len(current):
                current = cand
                improved = True
    return frozenset(current)


def _even_count_parities(
    circuits: Iterable[Circuit], j: ParityAssignment, base: Orientation
) -> tuple[Parity, Parity]:
    """(observed, prescribed) parity of the number of clockwise-even circuits."""
    observed = prescribed = 0
    for c in circuits:
        observed ^= clockwise_parity(base, c) == Parity.EVEN
        prescribed ^= j.parity_for(c) == Parity.EVEN
    return Parity(observed), Parity(prescribed)


def solve_circuits(
    g: Multigraph, circuits: Sequence[Circuit], j: ParityAssignment
) -> Union[Orientation, IntractableCertificate]:
    """An orientation giving each of ``circuits`` its parity under ``j``,
    or a certificate, drawn from ``circuits``, that none exists.

    Edges on none of the circuits keep the reference direction.
    Certificates are shrunk to the smallest dependent circuit set the
    solver can find.
    """
    base = Orientation.reference(g)
    if not circuits:
        return base  # nothing to satisfy
    a, cols = circuit_matrix(circuits)
    rhs = _rhs(circuits, j, base)
    result = gf2.solve(a, rhs)
    if isinstance(result, gf2.Inconsistency):
        rows = _minimal_odd_combination(result.nullspace, rhs, result.row_combination)
        chosen = tuple(circuits[i] for i in sorted(rows))
        return IntractableCertificate(chosen, *_even_count_parities(chosen, j, base))
    return base.with_flipped([cols[i] for i, bit in enumerate(result) if bit])


def decide(
    g: Multigraph, j: ParityAssignment, cap: int = DEFAULT_CIRCUIT_CAP
) -> Union[Orientation, IntractableCertificate]:
    """A compatible orientation, or a certificate that none exists.

    The constraint rows are the even circuits of ``g``; see solve_circuits.
    """
    return solve_circuits(g, even_circuits(g, cap), j)


def verify_orientation(
    g: Multigraph,
    j: ParityAssignment,
    o: Orientation,
    cap: int = DEFAULT_CIRCUIT_CAP,
) -> Optional[Circuit]:
    """None when every even circuit has its prescribed parity, else the
    first violating circuit in enumeration order."""
    o.validate_for(g)
    for c in even_circuits(g, cap):
        if clockwise_parity(o, c) != j.parity_for(c):
            return c
    return None


def is_intractable_set(
    g: Multigraph, j: ParityAssignment, circuits: Iterable[frozenset[int] | Circuit]
) -> bool:
    """Empty symmetric difference plus a parity mismatch against ``j``.

    The observed count parity is evaluated under the reference orientation;
    for a dependent set it does not depend on that choice, because
    reorienting one edge flips the parity of an even number of members.
    """
    circs: list[Circuit] = []
    for item in circuits:
        edge_ids = item.edge_set if isinstance(item, Circuit) else frozenset(item)
        c = circuit_from_edges(g, edge_ids)  # raises InputError if not a circuit
        if not c.is_even:
            raise InputError(f"circuit {sorted(edge_ids)} is odd")
        circs.append(c)
    if not circs:
        return False
    sym: set[int] = set()
    for c in circs:
        sym ^= c.edge_set
    if sym:
        return False
    observed, prescribed = _even_count_parities(circs, j, Orientation.reference(g))
    return observed != prescribed


def certificate_is_valid(
    g: Multigraph, j: ParityAssignment, cert: IntractableCertificate
) -> bool:
    """Re-check a certificate's invariants from scratch; a forgery is False."""
    try:
        if not is_intractable_set(g, j, cert.circuits):
            return False
    except InputError:
        return False
    return _even_count_parities(cert.circuits, j, Orientation.reference(g)) == (
        cert.observed_even_count_parity,
        cert.prescribed_even_count_parity,
    )
