"""Even vertex splitting machinery: degree-2 contractions, edge
subdivision, splitting detection, circuit lifting, induced assignments.

Contracting the two edges at a degree-2 vertex is the inverse of an even
vertex splitting.  A step applies only at a vertex with two non-loop
edges to distinct neighbours, so it drops two edges and two vertices and
never folds a digon away.  ``splitting_traces`` is the one matcher for
chains of steps: the chain walk ``subdivision_trace`` for the bases of
maximum degree three it leaves as they are (inputs with no degree-1
vertex), else a breadth-first search, which SPLITTING_VERTEX_LIMIT bounds.

Even circuits lift uniquely backwards through both this contraction and
the contraction of an odd circuit, which is what makes parity
assignments transportable.  One rule covers both: undoing the step
leaves an even circuit's edges with odd degree at two vertices the step
merged, or at none, and the lift adds the even path between those two
inside the contracted edges (the pair at the degree-2 vertex, or the
even side of the odd circuit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .circuits import (
    DEFAULT_CIRCUIT_CAP,
    Circuit,
    circuit_from_edges,
    even_circuits,
)
from .errors import CapabilityError, InputError
from .graphs import ContractionMap, Multigraph, canonical_key
from .solver import ParityAssignment

SPLITTING_VERTEX_LIMIT = 14


@dataclass(frozen=True)
class Degree2Contraction:
    vertex: int
    edge_pair: tuple[int, int]


@dataclass(frozen=True)
class OddCircuitContraction:
    edge_ids: tuple[int, ...]


Step = Union[Degree2Contraction, OddCircuitContraction]


@dataclass(frozen=True)
class SplittingTrace:
    """A replayable chain of contractions from one graph to another."""

    from_graph: Multigraph
    to_graph: Multigraph
    steps: tuple[Step, ...]

    def replay_states(self) -> list[Multigraph]:
        """All intermediate graphs, from from_graph to to_graph inclusive."""
        states = [self.from_graph]
        for step in self.steps:
            states.append(apply_step(states[-1], step))
        return states

    def replay(self) -> Multigraph:
        return self.replay_states()[-1]


def apply_step(g: Multigraph, step: Step) -> Multigraph:
    if isinstance(step, Degree2Contraction):
        h, _ = contract_degree2_pair(g, step.vertex)
        if h.edge_id_set != g.edge_id_set - set(step.edge_pair):
            raise InputError(f"the edges at vertex {step.vertex} are not {step.edge_pair}")
        return h
    h, _ = contract_odd_circuit(g, frozenset(step.edge_ids))
    return h


def _contractible(g: Multigraph, v: int) -> bool:
    """``v`` has two non-loop edges, to two distinct neighbours."""
    ends = [e.other(v) for e in g.incidence[v]]
    return len(ends) == 2 and v not in ends and ends[0] != ends[1]


def contract_degree2_pair(g: Multigraph, v: int) -> tuple[Multigraph, ContractionMap]:
    """Contract the two edges at a degree-2 vertex (inverse of splitting)."""
    if v not in g.incidence:
        raise InputError(f"unknown vertex {v}")
    if not _contractible(g, v):
        raise InputError(f"vertex {v} does not have two non-loop edges to distinct neighbours")
    e, f = g.incidence[v]
    return g.contract_edges({e.id, f.id})


def degree2_options(g: Multigraph) -> list[int]:
    """Vertices where contract_degree2_pair applies, ascending."""
    return [v for v in g.vertex_ids if _contractible(g, v)]


def contract_odd_circuit(
    g: Multigraph, edge_ids: frozenset[int]
) -> tuple[Multigraph, ContractionMap]:
    c = circuit_from_edges(g, edge_ids)
    if c.is_even:
        raise InputError("expected an odd circuit to contract")
    return g.contract_edges(edge_ids)


def subdivide_edge(g: Multigraph, eid: int, length: int) -> Multigraph:
    """Replace one edge by a path of ``length`` edges through fresh
    vertices; new vertex and edge ids count on from the largest ones."""
    if eid not in g.edge_id_set:
        raise InputError(f"unknown edge id {eid}")
    if length < 1:
        raise InputError(f"a path needs at least one edge, not {length}")
    e = g.by_id[eid]
    fresh = max(g.vertex_ids) + 1
    m = max(x.id for x in g.edges)
    path = [e.u, *range(fresh, fresh + length - 1), e.v]
    edges = [(x.id, x.u, x.v) for x in g.edges if x.id != eid]
    edges += [(m + 1 + i, a, b) for i, (a, b) in enumerate(zip(path, path[1:]))]
    return Multigraph.build(list(g.vertex_ids) + path[1:-1], edges)


def splitting_traces(
    h: Multigraph, bases: Sequence[Multigraph]
) -> list[Optional[SplittingTrace]]:
    """Per base, the lexicographically least chain of degree-2
    contractions from ``h`` to a graph isomorphic to it, or None.

    A base of maximum degree three that the chain walk leaves as it is
    matches by ``subdivision_trace(h)`` when ``h`` has no vertex of
    degree one.  Then no step lowers a degree, and a step between two
    vertices of degree three makes one of degree four, so every chain to
    the base shortens degree-2 chains only.  All such chains end in one
    graph up to isomorphism, so the walk, which takes the smallest useful
    vertex each time, finds the least one.

    The other bases share one breadth-first search, children in ascending
    vertex order, so the first trace found per base is its least.  A
    state is dropped when an earlier one, at the same depth, has its
    ``canonical_key``, and matches a base with the same key.  When this
    search must run on an input over SPLITTING_VERTEX_LIMIT vertices it
    raises CapabilityError before any work.
    """
    found: list[Optional[SplittingTrace]] = [None] * len(bases)
    walked: list[int] = []
    by_size: dict[int, list[int]] = {}
    pendant = any(h.degree(v) == 1 for v in h.vertex_ids)
    for i, b in enumerate(bases):
        diff = h.n_edges - b.n_edges
        # each contraction drops two edges and two vertices
        if diff < 0 or diff % 2 or diff != h.n_vertices - b.n_vertices:
            continue
        if not pendant and all(b.degree(v) <= 3 for v in b.vertex_ids) and not _walk_vertices(b):
            walked.append(i)
        else:
            by_size.setdefault(b.n_edges, []).append(i)
    if by_size and h.n_vertices > SPLITTING_VERTEX_LIMIT:
        raise CapabilityError(
            f"splitting search supported up to {SPLITTING_VERTEX_LIMIT} vertices"
        )
    walk = subdivision_trace(h) if walked else None
    for i in walked:
        end = walk.to_graph
        if end.n_edges == bases[i].n_edges and canonical_key(end) == canonical_key(bases[i]):
            found[i] = walk
    if not by_size:
        return found
    todo = sum(len(ids) for ids in by_size.values())
    min_edges = min(by_size)
    seen = {canonical_key(h)}
    frontier: list[tuple[Multigraph, tuple[Step, ...]]] = [(h, ())]
    while frontier:
        next_frontier = []
        for g, steps in frontier:
            for i in by_size.get(g.n_edges, ()):
                if found[i] is None and canonical_key(g) == canonical_key(bases[i]):
                    found[i] = SplittingTrace(h, g, steps)
                    todo -= 1
            if not todo:
                return found
            if g.n_edges - 2 < min_edges:
                continue
            for v in degree2_options(g):
                child, _ = contract_degree2_pair(g, v)
                key = canonical_key(child)
                if key not in seen:
                    seen.add(key)
                    inc = g.incidence[v]
                    step = Degree2Contraction(v, (inc[0].id, inc[1].id))
                    next_frontier.append((child, steps + (step,)))
        frontier = next_frontier
    return found


def is_even_splitting_of(h: Multigraph, b: Multigraph) -> Optional[SplittingTrace]:
    """``splitting_traces(h, [b])[0]``."""
    return splitting_traces(h, [b])[0]


def _walk_vertices(g: Multigraph) -> list[int]:
    """The vertices of ``degree2_options`` with a degree-2 neighbour."""
    return [v for v in degree2_options(g)
            if any(g.degree(e.other(v)) == 2 for e in g.incidence[v])]


def subdivision_trace(h: Multigraph) -> SplittingTrace:
    """Shorten every chain of degree-2 vertices by two edges at a time
    until it has one or two, by contracting the smallest vertex of
    ``_walk_vertices``, while one exists.

    ``to_graph`` keeps each chain's length parity, so ``h`` is an even
    subdivision of a base iff ``to_graph`` is isomorphic to it.  This is
    how ``splitting_traces`` matches the bases of maximum degree three,
    with no search and no vertex limit.
    """
    g, steps = h, []
    while inner := _walk_vertices(g):
        v = inner[0]
        inc = g.incidence[v]
        steps.append(Degree2Contraction(v, (inc[0].id, inc[1].id)))
        g, _ = contract_degree2_pair(g, v)
    return SplittingTrace(h, g, tuple(steps))


def lift_even_circuit(c: Circuit, g_before: Multigraph, step: Step) -> Circuit:
    """The unique even circuit of ``g_before`` whose intersection with the
    contracted graph's edges is ``c``."""
    trace = SplittingTrace(g_before, apply_step(g_before, step), (step,))
    return lift_through_trace([c], trace)[0]


def lift_through_trace(circuits: Sequence[Circuit], trace: SplittingTrace) -> list[Circuit]:
    """Lift even circuits of trace.to_graph all the way to trace.from_graph,
    replaying the trace once: the circuits are checked against to_graph,
    their edge sets lifted through each step by ``_lift``, and each one
    built as a circuit on from_graph."""
    g = trace.to_graph
    lifted = []
    for c in circuits:
        if not c.edge_set <= g.edge_id_set:
            raise InputError("circuit does not live in the contracted graph")
        if not circuit_from_edges(g, c.edge_set).is_even:
            raise InputError("only even circuits lift uniquely")
        lifted.append(c.edge_set)
    states = trace.replay_states()
    for g_before, step in zip(reversed(states[:-1]), reversed(trace.steps)):
        contracted = frozenset(
            step.edge_pair if isinstance(step, Degree2Contraction) else step.edge_ids
        )
        lifted = [_lift(s, g_before, contracted) for s in lifted]
    return [circuit_from_edges(trace.from_graph, s) for s in lifted]


def _lift(edges: frozenset[int], g: Multigraph, contracted: frozenset[int]) -> frozenset[int]:
    """Undo the contraction of ``contracted`` on an even circuit's edges.

    Back in ``g`` the edges have odd degree at two vertices the step
    merged, or at none; the even path between those two inside the
    contracted edges closes the circuit again.
    """
    odd: set[int] = set()
    for eid in edges:
        e = g.by_id[eid]
        odd ^= {e.u} ^ {e.v}  # a loop adds nothing
    if not odd:
        return edges
    p, q = odd
    # the contracted edges form a path from p to q or an odd circuit
    # through both: walk from p along each of its contracted edges
    for first in (e for e in g.incidence[p] if e.id in contracted):
        path, cur = [first.id], first.other(p)
        while cur != q:
            e = next(f for f in g.incidence[cur] if f.id in contracted and f.id not in path)
            path.append(e.id)
            cur = e.other(cur)
        if not len(path) % 2:
            break
    return edges.union(path)


def induce_assignment(
    j: ParityAssignment,
    g_before: Multigraph,
    step: Step,
    cap: int = DEFAULT_CIRCUIT_CAP,
) -> ParityAssignment:
    """The assignment on the contracted graph matching ``j`` through lifting."""
    if j.kind in ("all-odd", "all-even"):
        return j
    trace = SplittingTrace(g_before, apply_step(g_before, step), (step,))
    evens = even_circuits(trace.to_graph, cap)
    lifted = lift_through_trace(evens, trace)
    return ParityAssignment.from_map(
        {c.edge_set: j.parity_for(up) for c, up in zip(evens, lifted)}, j.default
    )
