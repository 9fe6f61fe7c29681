"""Even vertex splitting machinery: degree-2 contractions, edge
subdivision, splitting detection, circuit lifting, induced assignments.

Contracting the two edges at a degree-2 vertex is the inverse of an even
vertex splitting.  A step applies only at a vertex with two non-loop
edges to distinct neighbours, so it drops two edges and two vertices and
never folds a digon away.  ``splitting_traces`` is the one matcher for
chains of steps, with no search and no vertex limit: the chain walk
``subdivision_trace`` plus merges of branch vertices joined by 2-edge
chains, as many as the base's edge excess bounds.

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
from itertools import combinations
from typing import Optional, Sequence, Union

from .circuits import (
    DEFAULT_CIRCUIT_CAP,
    Circuit,
    circuit_from_edges,
    even_circuits,
)
from .errors import CapabilityError, InputError
from .graphs import Multigraph, canonical_key
from .solver import ParityAssignment


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


def contract_degree2_pair(g: Multigraph, v: int) -> tuple[Multigraph, dict[int, int]]:
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
) -> tuple[Multigraph, dict[int, int]]:
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

    With no vertex of degree one in ``h``, a step either shortens a
    degree-2 chain by two edges or merges two branch vertices joined by
    a 2-edge chain.  The two kinds commute, so ``h`` reaches a base that
    the walk leaves as it is iff its walk end ``subdivision_trace(h)``
    does by merges alone.  Steps keep the excess X = edges - vertices,
    and a connected walk end at excess X has at most 2X branch vertices
    and 3X chains, so the merges are bounded by the base, not the input.
    The trace is the walk when no merge is needed; otherwise each step
    takes the smallest vertex after which the walk end still reaches
    the base.  An input with a vertex of degree one, or a base with a
    vertex of ``_walk_vertices``, raises CapabilityError once such a
    base passes the size test.
    """
    found: list[Optional[SplittingTrace]] = [None] * len(bases)
    sized = []
    for i, b in enumerate(bases):
        diff = h.n_edges - b.n_edges
        # each contraction drops two edges and two vertices
        if diff >= 0 and not diff % 2 and diff == h.n_vertices - b.n_vertices:
            sized.append(i)
    if not sized:
        return found
    if any(h.degree(v) == 1 for v in h.vertex_ids) or any(_walk_vertices(bases[i]) for i in sized):
        raise CapabilityError("splitting match needs an input with no vertex of degree one "
                              "and a base the chain walk leaves as it is")
    walk = subdivision_trace(h)
    for i in sized:
        if _merges_reach(walk.to_graph, bases[i]):
            done = walk.to_graph.n_edges == bases[i].n_edges
            found[i] = walk if done else _least_trace(h, bases[i])
    return found


def _merges_reach(end: Multigraph, b: Multigraph) -> bool:
    """Whether k = (end edges - base edges) / 2 merges in the walk end
    ``end`` give a graph isomorphic to ``b``.  A merge contracts a vertex
    of ``degree2_options`` and removes one degree-2 vertex, so ``end``
    needs k more of them than ``b``.  Merges that close no cycle may be
    contracted at once; a set that closes one drops fewer vertices."""
    k = (end.n_edges - b.n_edges) // 2
    twos = [sum(g.degree(v) == 2 for v in g.vertex_ids) for g in (end, b)]
    if k < 0 or twos[0] - k != twos[1]:
        return False
    key = canonical_key(b)
    for chosen in combinations(degree2_options(end), k):
        merged, _ = end.contract_edges(e.id for v in chosen for e in end.incidence[v])
        if canonical_key(merged) == key:
            return True
    return False


def _least_trace(h: Multigraph, b: Multigraph) -> SplittingTrace:
    """The least trace from ``h``, which reaches ``b``: per step, the
    smallest vertex after which the walk end still reaches ``b``."""
    g, steps = h, []
    for _ in range((h.n_edges - b.n_edges) // 2):
        v = next(
            v for v in degree2_options(g)
            if _merges_reach(subdivision_trace(contract_degree2_pair(g, v)[0]).to_graph, b)
        )
        inc = g.incidence[v]
        steps.append(Degree2Contraction(v, (inc[0].id, inc[1].id)))
        g, _ = contract_degree2_pair(g, v)
    return SplittingTrace(h, g, tuple(steps))


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
    subdivision of a base iff ``to_graph`` is isomorphic to it.
    ``splitting_traces`` matches every base from this walk end.
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
