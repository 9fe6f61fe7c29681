"""Arc decompositions of even-circuit-connected graphs.

A decomposition grows from one even circuit to the whole graph by
adjoining even circuits contributing one or two arcs, every stage staying
even-circuit-connected, with every even circuit of a stage that meets the
new edges containing all of them.  Bipartite graphs decompose with 1-arc
adjunctions only; non-bipartite ones need exactly one 2-arc adjunction,
placed at stage 1.

An arc of a circuit over a stage is a maximal run of the circuit's edges
outside the stage whose interior vertices avoid the stage: walking the
circuit from the end of its first run of stage edges, every stage vertex
ends the arc in progress.  One walk, ``_adjunctions``, lists the even
circuits that adjoin a given number of arcs to a stage; ``find_adjunction``
and both phases of ``decompose`` read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .circuits import (
    DEFAULT_CIRCUIT_CAP,
    Circuit,
    circuit_from_edges,
    even_circuit_connectivity_witness,
    even_circuits,
    is_even_circuit_connected,
)
from .errors import ContractError, InputError
from .graphs import Multigraph, is_bipartite


@dataclass(frozen=True)
class Arc:
    edge_ids: tuple[int, ...]


@dataclass(frozen=True)
class Adjunction:
    circuit: Circuit
    arcs: tuple[Arc, ...]


@dataclass(frozen=True)
class ArcDecomposition:
    stages: tuple[frozenset[int], ...]
    adjunctions: tuple[Adjunction, ...]


def circuit_arcs(g: Multigraph, c: Circuit, h_edges: frozenset[int]) -> tuple[Arc, ...]:
    """The arcs of ``c`` over the stage ``h_edges``, in the circuit's sense
    from the end of its first run of stage edges."""
    unknown = h_edges - g.edge_id_set
    if unknown:
        raise InputError(f"unknown edge ids in stage: {sorted(unknown)}")
    stage_edges = [g.by_id[eid] for eid in h_edges]
    stage_vertices = {e.u for e in stage_edges} | {e.v for e in stage_edges}
    in_h = [eid in h_edges for _, eid in c.sense]
    if all(in_h):
        return ()
    if not any(in_h):
        raise InputError("circuit does not meet the stage")
    n = len(in_h)
    start = next(i for i in range(n) if in_h[i] and not in_h[(i + 1) % n]) + 1
    arcs, run = [], []
    for v, eid in c.sense[start:] + c.sense[:start]:
        if run and v in stage_vertices:
            arcs.append(Arc(tuple(run)))
            run = []
        if eid not in h_edges:
            run.append(eid)
    return tuple(arcs)


def _containment_ok(
    new_edges: frozenset[int],
    stage_mask_edges: frozenset[int],
    evens: Sequence[Circuit],
) -> bool:
    """Every even circuit inside the grown stage that meets the new edges
    must contain all of them."""
    for c in evens:
        if not c.edge_set <= stage_mask_edges:
            continue
        hit = c.edge_set & new_edges
        if hit and hit != new_edges:
            return False
    return True


def _adjunctions(
    g: Multigraph, stage: frozenset[int], evens: Sequence[Circuit], n_arcs: int
) -> Iterator[tuple[Circuit, tuple[Arc, ...]]]:
    """Each circuit of ``evens``, in order, that meets the stage, adds
    edges to it and has ``n_arcs`` arcs over it.  A 2-arc circuit that
    breaks containment leaves a 1-arc adjunction inside the stage plus
    one arc, which ``find_adjunction`` takes first; at ``decompose``'s
    start it leaves a bipartite stage that the 1-arc greedy cannot grow
    into ``g``."""
    for c in evens:
        new = c.edge_set - stage
        if new and new != c.edge_set:
            arcs = circuit_arcs(g, c, stage)
            if len(arcs) == n_arcs:
                yield c, arcs


def find_adjunction(
    g: Multigraph, h_edges: frozenset[int], cap: int = DEFAULT_CIRCUIT_CAP
) -> tuple[Circuit, tuple[Arc, ...]]:
    """The first even circuit, in increasing length, that adjoins one arc
    to the stage, else the first that adjoins two."""
    h_edges = frozenset(h_edges)
    if not h_edges or not h_edges < g.edge_id_set:
        raise ContractError("stage must be a nonempty proper edge subset")
    evens = even_circuits(g, cap)
    for n_arcs in (1, 2):
        for found in _adjunctions(g, h_edges, evens, n_arcs):
            return found
    raise ContractError("no 1- or 2-arc adjunction extends the stage")


def decompose(g: Multigraph, cap: int = DEFAULT_CIRCUIT_CAP) -> ArcDecomposition:
    """An arc decomposition with any 2-arc adjunction at stage 1 only: the
    first 1-arc adjunction at every other stage, after, for a non-bipartite
    graph, the first start circuit and 2-arc adjunction that lead there."""
    witness = even_circuit_connectivity_witness(g, cap)
    if witness is not None:
        side1, side2 = witness
        raise InputError(
            "graph is not even-circuit-connected: no even circuit crosses "
            f"the bipartition {sorted(side1)} | {sorted(side2)}"
        )
    evens = even_circuits(g, cap)

    def greedy(stages, adjunctions):
        while stages[-1] != g.edge_id_set:
            c, arcs = next(_adjunctions(g, stages[-1], evens, 1), (None, None))
            if c is None:
                raise ContractError("no 1-arc adjunction extends the stage")
            stages.append(stages[-1] | c.edge_set)
            adjunctions.append(Adjunction(c, arcs))
        return ArcDecomposition(tuple(stages), tuple(adjunctions))

    if is_bipartite(g):
        return greedy([evens[0].edge_set], [])
    for c0 in evens:
        for d, arcs in _adjunctions(g, c0.edge_set, evens, 2):
            try:
                return greedy([c0.edge_set, c0.edge_set | d.edge_set], [Adjunction(d, arcs)])
            except ContractError:
                continue
    raise ContractError("no valid starting 2-arc adjunction found")


def validate(g: Multigraph, d: ArcDecomposition, cap: int = DEFAULT_CIRCUIT_CAP) -> Optional[str]:
    """Recheck every decomposition invariant; None when all hold."""
    if not d.stages:
        return "no stages"
    try:
        c0 = circuit_from_edges(g, d.stages[0])
    except InputError:
        return "stage 0 is not a circuit"
    if not c0.is_even:
        return "stage 0 is not an even circuit"
    if d.stages[-1] != g.edge_id_set:
        return "last stage is not the whole edge set"
    if len(d.adjunctions) != len(d.stages) - 1:
        return "adjunction count does not match stage count"
    two_arc_stages = []
    for i, adj in enumerate(d.adjunctions, start=1):
        prev, cur = d.stages[i - 1], d.stages[i]
        if not prev < cur:
            return f"stage {i} does not strictly grow"
        diff = cur - prev
        c = adj.circuit
        try:
            circuit_from_edges(g, c.edge_set)
        except InputError:
            return f"adjunction {i} circuit is not a circuit"
        if not c.is_even:
            return f"adjunction {i} circuit is odd"
        if not diff <= c.edge_set:
            return f"adjunction {i} circuit does not include the new edges"
        if not c.edge_set & prev:
            return f"adjunction {i} circuit does not meet the previous stage"
        arcs = circuit_arcs(g, c, prev)
        if len(arcs) not in (1, 2):
            return f"adjunction {i} has {len(arcs)} arcs"
        if len(arcs) != len(adj.arcs):
            return f"adjunction {i} arc count mismatch"
        if frozenset().union(*(set(a.edge_ids) for a in arcs)) != diff:
            return f"adjunction {i} arcs do not cover the new edges"
        if len(arcs) == 2:
            two_arc_stages.append(i)
        if not _containment_ok(diff, cur, even_circuits(g, cap)):
            return f"stage {i}: an even circuit meets but does not contain the new edges"
        sub = g.subgraph(cur)
        if not is_even_circuit_connected(sub, cap):
            return f"stage {i} is not even-circuit-connected"
    if len(two_arc_stages) > 1:
        return "more than one 2-arc adjunction"
    if two_arc_stages and two_arc_stages != [1]:
        return "a 2-arc adjunction occurs after stage 1"
    sub0 = g.subgraph(d.stages[0])
    if not is_even_circuit_connected(sub0, cap):
        return "stage 0 is not even-circuit-connected"
    return None
