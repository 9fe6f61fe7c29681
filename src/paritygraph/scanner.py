"""Search a multigraph for catalog witnesses of J-incompatibility.

A witness is a connected subgraph that, optionally after contracting one
odd circuit inside it, is an even splitting of a catalog base whose
parity rule the assignment triggers.  It holds no loop, and every vertex
of it, and of its contraction, has degree two or more.  Every scan reads
one lazy candidate stream, which enumerates connected edge subsets in
ascending size, and returns the first candidate whose rule the
assignment triggers, so the witness is edge-minimal among those the
search accepts.  The stream skips a subset, odd contractions included,
when it holds fewer even circuits than any base it looks for: a base's
even circuits lift injectively into the subset, so no match can be lost.
Every scan matches by ``splitting_traces``, so only D2-D4 run a search
and meet SPLITTING_VERTEX_LIMIT.  ``find_witness`` looks for all nine
bases, and its candidates do not depend on the assignment, so one cached
scan serves many assignments; within one scan a graph isomorphic to one
already refuted is refuted by its ``canonical_key``.  ``scan_all_odd``
and ``scan_all_even`` look only for O1, E1 and E3, and every candidate
they meet triggers its rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional

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
from .graphs import GraphKey, Multigraph, canonical_key, find_isomorphism
from .solver import ParityAssignment, is_intractable_set
from .transforms import (
    SPLITTING_VERTEX_LIMIT,
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


def _edge_subsets(
    g: Multigraph, min_size: int, budget: int
) -> Iterator[tuple[int, frozenset[int]]]:
    """(mask, edge ids) of each connected, loop-free edge subset of at
    least ``min_size`` edges whose every vertex has degree >= 2; a
    subgraph with a vertex of lower degree is neither a splitting of a
    base nor an odd circuit plus arcs.

    Bit i of a mask is ``g.edges[i]``.  Masks come lazily in (size, mask)
    order, by Gosper's hack.  Every mask of at least ``min_size`` edges,
    loops included, counts against ``budget`` before filtering; the first
    one over it raises ResourceLimitError.
    """
    edges = g.edges
    m = len(edges)
    incident: dict[int, int] = {v: 0 for v in g.vertex_ids}
    loop_bits = 0
    for i, e in enumerate(edges):
        incident[e.u] |= 1 << i
        incident[e.v] |= 1 << i
        if e.is_loop:
            loop_bits |= 1 << i
    stars = list(incident.values())
    touching = [incident[e.u] | incident[e.v] for e in edges]  # edges sharing a vertex

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

    examined = 0
    for size in range(max(min_size, 1), m + 1):
        mask = (1 << size) - 1
        while not mask >> m:
            examined += 1
            if examined > budget:
                raise ResourceLimitError(
                    f"witness scan budget of {budget} subsets exhausted; "
                    f"the search covered subsets of at most {size} edges", budget
                )
            if not mask & loop_bits and all(
                not (x := mask & star) or x & (x - 1) for star in stars
            ) and connected(mask):
                yield mask, frozenset(edges[i].id for i in bits_to_indices(mask))
            low = mask & -mask
            high = mask + low
            mask = (((high ^ mask) >> 2) // low) | high


def _circuit_masks(
    g: Multigraph, cap: int
) -> tuple[list[int], list[tuple[int, frozenset[int]]]]:
    """Even circuit masks, and (mask, edge ids) per odd circuit other than
    a loop, with the bit layout of _edge_subsets."""
    bit_of = {e.id: i for i, e in enumerate(g.edges)}
    even: list[int] = []
    odd: list[tuple[int, frozenset[int]]] = []
    for c in enumerate_circuits(g, cap):
        mask = indices_to_bits(bit_of[eid] for eid in c.edge_ids)
        if c.is_even:
            even.append(mask)
        elif len(c) > 1:
            odd.append((mask, c.edge_set))
    return even, odd


def _odd_contractions(
    g: Multigraph,
    subset: frozenset[int],
    mask: int,
    odd: list[tuple[int, frozenset[int]]],
    min_edges: int,
) -> Iterator[tuple[frozenset[int], Multigraph]]:
    """(odd circuit, contracted subgraph) for each odd circuit inside the
    subset that leaves at least ``min_edges`` edges, creates no loop and
    keeps every degree at two or more, as ``_edge_subsets`` does."""
    sub = None
    for omask, oset in odd:
        if omask & ~mask or (mask & ~omask).bit_count() < min_edges:
            continue
        if sub is None:
            sub = g.subgraph(subset)
        contracted, _ = sub.contract_edges(oset)
        if not any(e.is_loop for e in contracted.edges) and all(
            len(inc) > 1 for inc in contracted.incidence.values()
        ):
            yield oset, contracted


def _candidates(
    g: Multigraph,
    bases: tuple[str, ...],
    budget: int,
    cap: int,
    matches: Callable[[Multigraph], list[tuple[str, SplittingTrace]]],
) -> Iterator[_Candidate]:
    """Each (subset, base, optional odd contraction) match in the graph,
    lazily: subsets in (size, mask) order; per subset, its direct matches
    in base order or, when there are none, its matches after each odd
    circuit contraction.  ``matches(h)`` gives (base name, trace from h)
    for each of ``bases`` that ``h`` matches.

    A subset holding fewer even circuits of ``g`` than the fewest any of
    ``bases`` has is skipped whole: no subgraph is built, no odd circuit
    contracted and no match attempted.  That is exact.  A base's even
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
    for mask, subset in _edge_subsets(g, min_edges, budget):
        if sum(1 for em in even_masks if em & ~mask == 0) < min_count:
            continue
        direct = matches(g.subgraph(subset))
        if direct:
            yield from (_candidate(g, subset, name, None, t) for name, t in direct)
            continue
        for oset, contracted in _odd_contractions(g, subset, mask, odd, min_edges):
            yield from (_candidate(g, subset, name, oset, t) for name, t in matches(contracted))


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

    Whether a graph is an even splitting of a base does not depend on its
    labels, so the matcher keeps the ``canonical_key`` of every graph
    ``splitting_traces`` refutes for all nine bases, and a later
    isomorphic graph gets no match without a second one.  A graph with a
    match is always matched again, because its trace depends on the
    labels.  The keys live as long as this one candidate stream.
    """
    refuted: set[GraphKey] = set()

    def matches(h: Multigraph) -> list[tuple[str, SplittingTrace]]:
        if h.n_vertices > SPLITTING_VERTEX_LIMIT:  # no key, as the search may refuse h
            return _split_matches(h, WITNESS_BASES)
        key = canonical_key(h)
        if key in refuted:
            return []
        found = _split_matches(h, WITNESS_BASES)
        if not found:
            refuted.add(key)
        return found

    return tuple(_candidates(g, WITNESS_BASES, budget, cap, matches))


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
    stream = _candidates(g, bases, budget, cap, lambda h: _split_matches(h, bases))
    return _first_triggered(stream, j)


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
    intractable set for ``j``."""
    sub = g.subgraph(w.subgraph_edges)
    start = sub
    if w.odd_circuit_contracted is not None:
        start, _ = sub.contract_edges(w.odd_circuit_contracted)
        ring = circuit_from_edges(sub, w.odd_circuit_contracted)
        if ring.is_even:
            return False
    if w.splitting_trace.from_graph != start:
        return False
    reached = w.splitting_trace.replay()
    if not find_isomorphism(reached, base_graph(w.base_name)):
        return False
    expected = EVEN_CIRCUIT_COUNT[w.base_name]
    if len(w.circuit_parities) != expected:
        return False
    if not rule_triggered(w.base_name, (p for _, p in w.circuit_parities)):
        return False
    for edge_set, parity in w.circuit_parities:
        c = circuit_from_edges(g, edge_set)
        if not c.is_even or j.parity_for(c) != parity:
            return False
    return is_intractable_set(g, j, [s for s, _ in w.circuit_parities])
