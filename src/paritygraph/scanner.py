"""Search a multigraph for catalog witnesses of J-incompatibility.

A witness is a connected subgraph that, optionally after contracting one
odd circuit inside it, is an even splitting of a catalog base whose
parity rule the assignment triggers.  It holds no loop, and every vertex
of it, and of its contraction, has degree two or more.  Every scan reads
one lazy candidate stream, which enumerates connected edge subsets in
ascending size, and returns the first candidate whose rule the
assignment triggers, so the witness is edge-minimal among those the
search accepts.  The subsets come from a depth-first walk that cuts a
branch once a vertex has degree one and no edge left to take; the scan
budget still counts every mask.  Before any subgraph is built, the
stream keeps a subset only at a base's edge excess (edges minus
vertices), or one above it for an odd contraction, and builds an odd
contraction only when the masks show it leaves no loop and no vertex
of degree below two.  It also skips a subset, odd contractions included,
when it holds fewer even circuits than any base it looks for: a base's
even circuits lift injectively into the subset, so no match can be lost.
Every scan matches by ``splitting_traces``, the chain walk plus branch
merges, with no search, no vertex limit and no memo of earlier answers;
no graph a scan offers lies outside its domain.  ``find_witness`` looks
for all nine bases, and its candidates do not depend on the
assignment, so one cached scan serves many assignments.
``scan_all_odd`` and ``scan_all_even`` look only for O1, E1 and E3, and
every candidate they meet triggers its rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Optional

from .catalog import EVEN_CIRCUIT_COUNT, WITNESS_BASES, base_graph, rule_triggered
from .circuits import (
    DEFAULT_CIRCUIT_CAP,
    Circuit,
    Parity,
    circuit_from_edges,
    enumerate_circuits,
    even_circuits,
)
from .errors import InputError, ResourceLimitError
from .gf2 import bits_to_indices, indices_to_bits
from .graphs import Multigraph, find_isomorphism
from .solver import ParityAssignment, is_intractable_set
from .transforms import (
    OddCircuitContraction,
    SplittingTrace,
    lift_through_trace,
    splitting_traces,
)

DEFAULT_SCAN_BUDGET = 200_000


@dataclass(frozen=True)
class ForbiddenWitness:
    """A verified incompatibility witness inside a scanned graph."""

    base_name: str
    subgraph_edges: frozenset[int]
    odd_circuit_contracted: Optional[frozenset[int]]
    splitting_trace: SplittingTrace
    circuit_parities: tuple[tuple[frozenset[int], Parity], ...]


@dataclass(frozen=True)
class _Candidate:
    subset: frozenset[int]
    base_name: str
    odd_circuit: Optional[frozenset[int]]
    trace: SplittingTrace
    lifted: tuple[Circuit, ...]  # even circuits of the scanned graph


def _candidate(
    g: Multigraph,
    subset: frozenset[int],
    base_name: str,
    odd_circuit: Optional[frozenset[int]],
    trace: SplittingTrace,
) -> _Candidate:
    """A match, with the base's even circuits lifted back to ``g``."""
    full = trace
    if odd_circuit is not None:
        step = OddCircuitContraction(tuple(sorted(odd_circuit)))
        full = SplittingTrace(g.subgraph(subset), trace.to_graph, (step,) + trace.steps)
    lifted = lift_through_trace(even_circuits(trace.to_graph), full)
    lifted.sort(key=lambda c: (len(c), c.edge_ids))
    return _Candidate(subset, base_name, odd_circuit, trace, tuple(lifted))


def _stars(g: Multigraph) -> dict[int, int]:
    """Per vertex, the mask of its edges; bit i is ``g.edges[i]``."""
    stars = dict.fromkeys(g.vertex_ids, 0)
    for i, (_, u, v) in enumerate(g.edges):
        stars[u] |= 1 << i
        stars[v] |= 1 << i
    return stars


def _nth_mask(n: int, min_size: int, m: int) -> Optional[tuple[int, int]]:
    """(size, mask) of the mask at 0-based rank ``n`` among the masks of
    ``min_size`` to ``m`` bits in (size, mask) order, or None when there
    are no more than ``n``.  Masks of one size ascend in colex order, so
    bits c_1 < ... < c_s have rank sum(C(c_i, i)) (Knuth, TAOCP 4A,
    7.2.1.3) and the bits come greedily from the top."""
    for size in range(min_size, m + 1):
        if n >= comb(m, size):
            n -= comb(m, size)
            continue
        mask, c = 0, m
        for i in range(size, 0, -1):
            c -= 1
            while comb(c, i) > n:
                c -= 1
            n -= comb(c, i)
            mask |= 1 << c
        return size, mask
    return None


def _edge_subsets(
    g: Multigraph, min_size: int, budget: int
) -> Iterator[tuple[int, frozenset[int]]]:
    """(mask, edge ids) of each connected, loop-free edge subset of at
    least ``min_size`` edges whose every vertex has degree >= 2; a
    subgraph with a vertex of lower degree is neither a splitting of a
    base nor an odd circuit plus arcs.

    Bit i of a mask is ``g.edges[i]``.  Masks come lazily in (size, mask)
    order.  The budget still counts every mask of at least ``min_size``
    edges, loops and cut ones included: the walk stops at the mask of
    rank ``budget`` in that order and raises ResourceLimitError there,
    after yielding every kept mask below it.

    Per size a depth-first walk over the non-loop edges decides the bits
    from the highest down, the 0-branch first, so masks come in ascending
    order.  It cuts a branch as soon as a vertex it touched has degree
    one and no edge left below to take; connectivity is tested at the
    leaves.
    """
    edges = g.edges
    m = len(edges)
    min_size = max(min_size, 1)
    stop = _nth_mask(budget, min_size, m)
    walk = [i for i, (_, u, v) in enumerate(edges) if u != v]
    # a size above the number of non-loop edges has no mask to yield
    last = min(stop[0] if stop else m, len(walk))
    if min_size <= last:
        vbit = {v: 1 << i for i, v in enumerate(g.vertex_ids)}
        stars = _stars(g)
        touching = [stars[u] | stars[v] for _, u, v in edges]  # edges sharing a vertex
        walk_ends = [vbit[edges[i].u] | vbit[edges[i].v] for i in walk]
        # dead[q]: the vertices with no edge at a walk index below q
        dead = [(1 << len(vbit)) - 1]
        for b in walk_ends:
            dead.append(dead[-1] & ~b)

        def connected(mask: int) -> bool:
            reached = mask & -mask
            frontier = reached
            while frontier:
                grown = 0
                for i in bits_to_indices(frontier):
                    grown |= touching[i]
                frontier = grown & mask & ~reached
                reached |= frontier
            return reached == mask

        for size in range(min_size, last + 1):
            # no mask at or above the bound is walked; only the last size has one
            bound = stop[1] if stop and stop[0] == size else 1 << m
            # (walk indices left, edges still to take, mask, degree-1 vertices, degree >= 2 ones)
            stack = [(len(walk), size, 0, 0, 0)]
            while stack:
                top, left, mask, once, more = stack.pop()
                if left == 1:  # the last edge, ascending; it must leave no degree-1 vertex
                    for q in range(top):
                        if walk_ends[q] & ~more == once:
                            leaf = mask | 1 << walk[q]
                            if leaf >= bound:  # so is every later mask: end the walk
                                stack.clear()
                                break
                            if connected(leaf):
                                yield leaf, frozenset(edges[i].id for i in bits_to_indices(leaf))
                    continue
                for q in range(top - 1, left - 2, -1):  # pushed descending, so popped ascending
                    if once & dead[q + 1]:
                        break
                    child = mask | 1 << walk[q]
                    if child >= bound:
                        continue
                    b = walk_ends[q]
                    grown = more | (once & b)
                    single = (once ^ b) & ~grown
                    if not single & dead[q]:
                        stack.append((q, left - 1, child, single, grown))
    if stop:
        raise ResourceLimitError(
            f"witness scan budget of {budget} subsets exhausted; "
            f"the search covered subsets of at most {stop[0]} edges", budget
        )


def _circuit_masks(
    g: Multigraph, cap: int
) -> tuple[list[int], list[tuple[int, int, int, frozenset[int]]]]:
    """Even circuit masks, and per odd circuit other than a loop its mask,
    its chord mask (other edges with both ends on it), its leaving mask
    (edges that meet it once; a loop at it counts, but no subset holds
    one) and its edge ids, with the bit layout of _edge_subsets."""
    bit_of = {e.id: i for i, e in enumerate(g.edges)}
    stars: dict[int, int] = {}
    even: list[int] = []
    odd: list[tuple[int, int, int, frozenset[int]]] = []
    for c in enumerate_circuits(g, cap):
        mask = indices_to_bits(bit_of[eid] for eid in c.edge_ids)
        if c.is_even:
            even.append(mask)
        elif len(c) > 1:
            stars = stars or _stars(g)
            touched = once = 0  # edges with an end on c; those with exactly one
            for v, _ in c.sense:
                touched |= stars[v]
                once ^= stars[v]
            odd.append((mask, touched & ~once & ~mask, once, c.edge_set))
    return even, odd


def _odd_contractions(
    g: Multigraph,
    subset: frozenset[int],
    mask: int,
    odd: list[tuple[int, int, int, frozenset[int]]],
    min_edges: int,
) -> Iterator[tuple[frozenset[int], Multigraph]]:
    """(odd circuit, contracted subgraph) for each odd circuit inside the
    subset that leaves at least ``min_edges`` edges, creates no loop and
    keeps every degree at two or more, as ``_edge_subsets`` does.  All
    three are read off the masks, so only a contraction that is yielded
    is built: the subset holds no chord of the circuit, which would
    become a loop, and at least two of its edges leave the circuit, which
    give the contracted vertex its degree; no other degree changes."""
    sub = None
    for omask, chords, leaving, oset in odd:
        if (
            omask & ~mask
            or mask & chords
            or (mask & leaving).bit_count() < 2
            or (mask & ~omask).bit_count() < min_edges
        ):
            continue
        if sub is None:
            sub = g.subgraph(subset)
        yield oset, sub.contract_edges(oset)[0]


def _candidates(
    g: Multigraph,
    bases: tuple[str, ...],
    budget: int,
    cap: int,
) -> Iterator[_Candidate]:
    """Each (subset, base, optional odd contraction) match in the graph,
    lazily: subsets in (size, mask) order; per subset, its direct matches
    in base order or, when there are none, its matches after each odd
    circuit contraction, all by ``_split_matches``.

    Two gates skip a subset before any subgraph is built, and both are
    exact.  First, a degree-2 contraction drops two edges and two
    vertices, so a graph matches a base only at the base's edge excess
    (edges minus vertices); an odd circuit contraction lowers the excess
    by one.  So a subset is matched directly only when its excess is
    that of one of ``bases``, and through its odd contractions only when
    one less is.  Second, a subset holding fewer even circuits of ``g``
    than the fewest any of ``bases`` has is skipped whole.  A base's even
    circuits lift through the splitting trace and then through the odd
    circuit contraction to even circuits of ``g`` inside the subset, and
    the lifting is injective, because a lift meets the contracted graph
    exactly in the circuit it came from.  So a match, direct or
    contracted, puts at least ``EVEN_CIRCUIT_COUNT[base]`` even circuits
    of ``g`` inside the subset."""
    if budget < 1:
        raise InputError("scan budget must be positive")
    even_masks, odd = _circuit_masks(g, cap)
    min_edges = min(base_graph(name).n_edges for name in bases)
    min_count = min(EVEN_CIRCUIT_COUNT[name] for name in bases)
    excesses = {b.n_edges - b.n_vertices for b in map(base_graph, bases)}
    edges = g.edges
    for mask, subset in _edge_subsets(g, min_edges, budget):
        ends = {v for i in bits_to_indices(mask) for v in (edges[i].u, edges[i].v)}
        excess = len(subset) - len(ends)
        if excess not in excesses and excess - 1 not in excesses:
            continue
        if sum(1 for em in even_masks if em & ~mask == 0) < min_count:
            continue
        direct = _split_matches(g.subgraph(subset), bases) if excess in excesses else []
        if direct:
            yield from (_candidate(g, subset, name, None, t) for name, t in direct)
        elif excess - 1 in excesses:
            for oset, contracted in _odd_contractions(g, subset, mask, odd, min_edges):
                yield from (
                    _candidate(g, subset, name, oset, t)
                    for name, t in _split_matches(contracted, bases)
                )


def _split_matches(h: Multigraph, bases: tuple[str, ...]) -> list[tuple[str, SplittingTrace]]:
    """(base name, trace from h) for each of ``bases`` that ``h`` matches."""
    traces = splitting_traces(h, [base_graph(name) for name in bases])
    return [(name, t) for name, t in zip(bases, traces) if t is not None]


@lru_cache(maxsize=64)
def witness_candidates(
    g: Multigraph,
    budget: int = DEFAULT_SCAN_BUDGET,
    cap: int = DEFAULT_CIRCUIT_CAP,
) -> tuple[_Candidate, ...]:
    """Every (subset, base, optional odd contraction) match in the graph.

    Assignment-independent: pairing these with a parity rule is all a scan
    per assignment has to do.
    """
    return tuple(_candidates(g, WITNESS_BASES, budget, cap))


def _first_triggered(
    candidates: Iterable[_Candidate], j: ParityAssignment
) -> Optional[ForbiddenWitness]:
    """The witness from the first candidate whose parity rule ``j`` triggers."""
    for cand in candidates:
        parities = [j.parity_for(c) for c in cand.lifted]
        if rule_triggered(cand.base_name, parities):
            pairs = tuple(zip((c.edge_set for c in cand.lifted), parities))
            return ForbiddenWitness(
                cand.base_name, cand.subset, cand.odd_circuit, cand.trace, pairs
            )
    return None


def find_witness(
    g: Multigraph,
    j: ParityAssignment,
    budget: int = DEFAULT_SCAN_BUDGET,
    cap: int = DEFAULT_CIRCUIT_CAP,
) -> Optional[ForbiddenWitness]:
    """The first catalog witness whose parity rule ``j`` triggers, if any."""
    return _first_triggered(witness_candidates(g, budget, cap), j)


# -- all-odd / all-even scans -----------------------------------------


def _scan(
    g: Multigraph, bases: tuple[str, ...], j: ParityAssignment, budget: int, cap: int
) -> Optional[ForbiddenWitness]:
    """The first witness among ``bases`` whose rule ``j`` triggers."""
    return _first_triggered(_candidates(g, bases, budget, cap), j)


def scan_all_odd(
    g: Multigraph,
    budget: int = DEFAULT_SCAN_BUDGET,
    cap: int = DEFAULT_CIRCUIT_CAP,
) -> Optional[ForbiddenWitness]:
    """Witness against the all-odd assignment: an even subdivision of
    K_{2,3} after at most one odd-circuit contraction."""
    return _scan(g, ("O1",), ParityAssignment.all_odd(), budget, cap)


def scan_all_even(
    g: Multigraph,
    budget: int = DEFAULT_SCAN_BUDGET,
    cap: int = DEFAULT_CIRCUIT_CAP,
) -> Optional[ForbiddenWitness]:
    """Witness against the all-even assignment: an even subdivision of the
    triple edge or of E3, after at most one odd-circuit contraction."""
    return _scan(g, ("E1", "E3"), ParityAssignment.all_even(), budget, cap)


def verify_witness(g: Multigraph, j: ParityAssignment, w: ForbiddenWitness) -> bool:
    """Independently re-check a witness: replay the trace, re-match the
    base, recount the parity rule, and confirm the lifted circuits form an
    intractable set for ``j``.  A base outside ``WITNESS_BASES``, subgraph
    edges that ``g`` lacks, a contracted edge set that is no odd circuit of
    the subgraph, a trace step that does not apply, or a listed edge set
    that is no circuit of ``g`` makes the witness false."""
    if w.base_name not in WITNESS_BASES:
        return False
    try:
        sub = g.subgraph(w.subgraph_edges)
    except InputError:
        return False
    start = sub
    if w.odd_circuit_contracted is not None:
        try:
            ring = circuit_from_edges(sub, w.odd_circuit_contracted)
        except InputError:
            return False
        if ring.is_even:
            return False
        start, _ = sub.contract_edges(w.odd_circuit_contracted)
    if w.splitting_trace.from_graph != start:
        return False
    try:
        reached = w.splitting_trace.replay()
    except InputError:
        return False
    if not find_isomorphism(reached, base_graph(w.base_name)):
        return False
    expected = EVEN_CIRCUIT_COUNT[w.base_name]
    if len(w.circuit_parities) != expected:
        return False
    if not rule_triggered(w.base_name, (p for _, p in w.circuit_parities)):
        return False
    for edge_set, parity in w.circuit_parities:
        try:
            c = circuit_from_edges(g, edge_set)
        except InputError:
            return False
        if not c.is_even or j.parity_for(c) != parity:
            return False
    return is_intractable_set(g, j, [s for s, _ in w.circuit_parities])
