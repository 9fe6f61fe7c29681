"""Arc decompositions of even-circuit-connected graphs.

A decomposition grows from one even circuit to the whole graph by
adjoining even circuits contributing one or two arcs, every stage staying
even-circuit-connected, with every even circuit of a stage that meets the
new edges containing all of them.  Bipartite graphs decompose with 1-arc
adjunctions only; non-bipartite ones need exactly one 2-arc adjunction,
placed at stage 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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
    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]


@dataclass(frozen=True)
class Adjunction:
    circuit: Circuit
    arcs: tuple[Arc, ...]


@dataclass(frozen=True)
class ArcDecomposition:
    stages: tuple[frozenset[int], ...]
    adjunctions: tuple[Adjunction, ...]


# -- arcs of a circuit relative to a stage ------------------------------


def circuit_arcs(g: Multigraph, c: Circuit, h_edges: frozenset[int]) -> tuple[Arc, ...]:
    """Maximal subpaths of ``c`` outside ``h_edges`` whose interiors avoid
    the stage's vertices."""
    vh = set()
    for eid in h_edges:
        e = g.by_id[eid]
        vh.add(e.u)
        vh.add(e.v)
    n = len(c.sense)
    in_h = [c.sense[i][1] in h_edges for i in range(n)]
    if all(in_h):
        return ()
    if not any(in_h):
        raise InputError("circuit does not meet the stage")
    start = next(i for i in range(n) if in_h[i] and not in_h[(i + 1) % n])
    arcs = []
    i = (start + 1) % n
    cur_vertices: list[int] = []
    cur_edges: list[int] = []
    while True:
        v, eid = c.sense[i]
        if eid in h_edges:
            if cur_edges:
                arcs.append(Arc(tuple(cur_vertices + [v]), tuple(cur_edges)))
                cur_vertices, cur_edges = [], []
        else:
            if cur_edges and v in vh:
                # interior vertex on the stage splits the run
                arcs.append(Arc(tuple(cur_vertices + [v]), tuple(cur_edges)))
                cur_vertices, cur_edges = [], []
            cur_vertices.append(v)
            cur_edges.append(eid)
        i = (i + 1) % n
        if i == (start + 1) % n:
            break
    if cur_edges:
        arcs.append(Arc(tuple(cur_vertices + [c.sense[(start + 1) % n][0]]), tuple(cur_edges)))
    return tuple(arcs)


# -- decomposition ------------------------------------------------------


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


def find_adjunction(
    g: Multigraph,
    h_edges: frozenset[int],
    cap: int = DEFAULT_CIRCUIT_CAP,
    _evens: Optional[Sequence[Circuit]] = None,
) -> tuple[Circuit, tuple[Arc, ...]]:
    """The next adjunction circuit for the stage, preferring one arc.

    Candidates are even circuits in increasing length; a candidate is
    accepted when it meets the stage, contributes one or two arcs, and the
    grown stage keeps the whole-new-edge-set containment property.
    """
    h_edges = frozenset(h_edges)
    if not h_edges or not h_edges < g.edge_id_set:
        raise ContractError("stage must be a nonempty proper edge subset")
    evens = _evens if _evens is not None else even_circuits(g, cap)
    best_two: Optional[tuple[Circuit, tuple[Arc, ...]]] = None
    for c in evens:
        new = c.edge_set - h_edges
        if not new or not (c.edge_set & h_edges):
            continue
        arcs = circuit_arcs(g, c, h_edges)
        if len(arcs) == 1:
            return c, arcs
        if len(arcs) == 2 and best_two is None:
            if _containment_ok(new, h_edges | c.edge_set, evens):
                best_two = (c, arcs)
    if best_two is not None:
        return best_two
    raise ContractError("no 1- or 2-arc adjunction extends the stage")


def decompose(g: Multigraph, cap: int = DEFAULT_CIRCUIT_CAP) -> ArcDecomposition:
    """An arc decomposition with any 2-arc adjunction at stage 1 only."""
    witness = even_circuit_connectivity_witness(g, cap)
    if witness is not None:
        side1, side2 = witness
        raise InputError(
            "graph is not even-circuit-connected: no even circuit crosses "
            f"the bipartition {sorted(side1)} | {sorted(side2)}"
        )
    evens = even_circuits(g, cap)
    all_edges = g.edge_id_set

    def greedy(stages, adjunctions):
        while stages[-1] != all_edges:
            h = stages[-1]
            c, arcs = find_adjunction(g, h, cap, _evens=evens)
            if len(arcs) == 2:
                raise ContractError("needed a second 2-arc adjunction")
            stages.append(h | c.edge_set)
            adjunctions.append(Adjunction(c, arcs))
        return ArcDecomposition(tuple(stages), tuple(adjunctions))

    if is_bipartite(g):
        return greedy([evens[0].edge_set], [])

    # non-bipartite: the single 2-arc adjunction must come first
    for c0 in evens:
        for d in evens:
            if d.edge_set == c0.edge_set:
                continue
            new = d.edge_set - c0.edge_set
            if not new or not (d.edge_set & c0.edge_set):
                continue
            arcs = circuit_arcs(g, d, c0.edge_set)
            if len(arcs) != 2:
                continue
            grown = c0.edge_set | d.edge_set
            if not _containment_ok(new, grown, evens):
                continue
            stages = [c0.edge_set, grown]
            adjunctions = [Adjunction(d, arcs)]
            try:
                return greedy(stages, adjunctions)
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
