"""Multigraph primitives: subgraphs, contractions, orientations, isomorphism.

Vertices and edges are identified by small integers.  Parallel edges and
loops are permitted everywhere; all iteration is in ascending-id order so
every algorithm built on top is deterministic.  Instances are immutable
after construction.

Isomorphism classes are told apart by `canonical_key`: the vertex count
and the lexicographically least sorted edge-pair list over all
relabellings of the vertices to ``0..n-1``.  For edge multisets of equal
size that list is least exactly when the multiplicity vector in slot
order ``(0,0), (0,1), ..., (0,n-1), (1,1), ...`` is greatest, so the key
is found by filling that vector row by row.  The search labels positions
``0, 1, ...`` in turn from the first cell of an ordered partition of the
unlabelled vertices, keeps only the candidates whose row is maximal, and
splits every cell by multiplicity to the chosen vertex (ordered
partition refinement with individualisation; McKay and Piperno,
"Practical graph isomorphism, II", 2014).  Branches that leave the same
ordered partition have the same future and are merged.  The key is
exact.  The search is still exponential in the worst case, but well
below the n! relabellings: K_n visits 2^n - 1 nodes, the Petersen
graph 591.

The search also yields the canonical vertex order it labelled, and each
graph caches both in ``Multigraph.canonical``.  That is the one
isomorphism test: ``find_isomorphism`` compares two keys and, when they
are equal, maps each graph's canonical order onto the other's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import CapabilityError, InputError

ISO_VERTEX_LIMIT = 12

Pairs = tuple[tuple[int, int], ...]
GraphKey = tuple[int, Pairs]


class Edge(NamedTuple):
    id: int
    u: int
    v: int

    @property
    def is_loop(self) -> bool:
        return self.u == self.v

    def other(self, w: int) -> int:
        if w == self.u:
            return self.v
        if w == self.v:
            return self.u
        raise InputError(f"vertex {w} is not an endpoint of edge {self.id}")


@dataclass(frozen=True)
class Multigraph:
    vertex_ids: tuple[int, ...]
    edges: tuple[Edge, ...]

    @staticmethod
    def build(vertices: Iterable[int], edges: Iterable[tuple[int, int, int]]) -> "Multigraph":
        vs = tuple(sorted(set(vertices)))
        es = []
        for eid, u, v in edges:
            a, b = (u, v) if u <= v else (v, u)
            es.append(Edge(int(eid), a, b))
        es.sort(key=lambda e: e.id)
        g = Multigraph(vs, tuple(es))
        g._validate()
        return g

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, int]], vertices: Iterable[int] = ()) -> "Multigraph":
        """Build with edge ids 1..m assigned in input order."""
        pairs = list(pairs)
        vs = set(vertices)
        for u, v in pairs:
            vs.add(u)
            vs.add(v)
        return Multigraph.build(vs, [(i + 1, u, v) for i, (u, v) in enumerate(pairs)])

    def _validate(self) -> None:
        vset = set(self.vertex_ids)
        prev = None
        for e in self.edges:
            if prev is not None and e.id <= prev:
                raise InputError(f"edge ids must be unique and increasing, got {e.id} after {prev}")
            prev = e.id
            if e.u not in vset or e.v not in vset:
                raise InputError(f"edge {e.id} references unknown vertex")

    # -- basic accessors ------------------------------------------------

    @cached_property
    def by_id(self) -> dict[int, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def edge_id_set(self) -> frozenset[int]:
        return frozenset(e.id for e in self.edges)

    @cached_property
    def incidence(self) -> dict[int, tuple[Edge, ...]]:
        inc: dict[int, list[Edge]] = {v: [] for v in self.vertex_ids}
        for e in self.edges:
            inc[e.u].append(e)
            if not e.is_loop:
                inc[e.v].append(e)
        return {v: tuple(es) for v, es in inc.items()}

    @cached_property
    def canonical(self) -> tuple[tuple[int, ...], GraphKey]:
        """The vertex ids in canonical order, and ``canonical_key``."""
        index = {v: i for i, v in enumerate(self.vertex_ids)}
        order, pairs = canonical_labelling(
            self.n_vertices, [(index[e.u], index[e.v]) for e in self.edges]
        )
        return tuple(self.vertex_ids[i] for i in order), (self.n_vertices, pairs)

    def degree(self, v: int) -> int:
        d = 0
        for e in self.incidence[v]:
            d += 2 if e.is_loop else 1
        return d

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def has_isolated_vertices(self) -> bool:
        return any(not self.incidence[v] for v in self.vertex_ids)

    # -- subgraph and contraction ---------------------------------------

    def subgraph(self, keep: Iterable[int]) -> "Multigraph":
        """Subgraph spanned by an edge-id set; isolated vertices are dropped."""
        keep = set(keep)
        unknown = keep - self.edge_id_set
        if unknown:
            raise InputError(f"unknown edge ids in subgraph: {sorted(unknown)}")
        es = [e for e in self.edges if e.id in keep]
        vs = set()
        for e in es:
            vs.add(e.u)
            vs.add(e.v)
        return Multigraph(tuple(sorted(vs)), tuple(es))

    def contract_edges(self, contracted: Iterable[int]) -> tuple["Multigraph", dict[int, int]]:
        """Identify the endpoints of every contracted edge; returns the
        contracted graph and the image of each vertex.

        Surviving edges keep their ids; edges whose endpoints merge become
        loops and are retained.  Merged vertex classes are named by their
        smallest member.
        """
        contracted = set(contracted)
        unknown = contracted - self.edge_id_set
        if unknown:
            raise InputError(f"unknown edge ids in contraction: {sorted(unknown)}")

        parent = {v: v for v in self.vertex_ids}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra == rb:
                return
            if ra > rb:
                ra, rb = rb, ra
            parent[rb] = ra  # smaller id becomes the class representative

        for e in self.edges:
            if e.id in contracted:
                union(e.u, e.v)

        image = {v: find(v) for v in self.vertex_ids}
        new_vertices = sorted(set(image.values()))
        new_edges = []
        for e in self.edges:
            if e.id in contracted:
                continue
            u, v = image[e.u], image[e.v]
            if u > v:
                u, v = v, u
            new_edges.append(Edge(e.id, u, v))
        return Multigraph(tuple(new_vertices), tuple(new_edges)), image


@dataclass(frozen=True)
class Orientation:
    """A tail/head choice for every edge of some multigraph."""

    direction: dict[int, tuple[int, int]]

    @staticmethod
    def reference(g: Multigraph) -> "Orientation":
        """The deterministic baseline: every edge points small id to large."""
        return Orientation({e.id: (e.u, e.v) for e in g.edges})

    def validate_for(self, g: Multigraph) -> None:
        if set(self.direction) != g.edge_id_set:
            raise InputError("orientation domain does not match the edge set")
        for e in g.edges:
            t, h = self.direction[e.id]
            if {t, h} != {e.u, e.v}:
                raise InputError(f"orientation of edge {e.id} is not a permutation of its endpoints")

    def with_flipped(self, flips: Iterable[int]) -> "Orientation":
        d = dict(self.direction)
        for eid in flips:
            t, h = d[eid]
            d[eid] = (h, t)
        return Orientation(d)

    def agrees(self, eid: int, tail: int, head: int) -> bool:
        return self.direction[eid] == (tail, head)


# -- bipartiteness -----------------------------------------------------


def is_bipartite(g: Multigraph) -> bool:
    """2-colorability; a graph with a loop has no 2-coloring."""
    color: dict[int, int] = {}
    for root in g.vertex_ids:
        if root in color:
            continue
        color[root] = 0
        queue = [root]
        qi = 0
        while qi < len(queue):
            w = queue[qi]
            qi += 1
            for e in g.incidence[w]:
                x = e.other(w)
                if x not in color:
                    color[x] = color[w] ^ 1
                    queue.append(x)
                elif color[x] == color[w]:
                    return False
    return True


# -- isomorphism -------------------------------------------------------


def find_isomorphism(g1: Multigraph, g2: Multigraph) -> Optional[dict[int, int]]:
    """A vertex bijection preserving edge multiplicities, or None.

    Graphs of different vertex or edge counts give None at once; otherwise
    supported up to ISO_VERTEX_LIMIT vertices.  The graphs are isomorphic
    iff their canonical keys are equal, and then the vertex at each
    position of one canonical order maps to the vertex at that position
    of the other.
    """
    if g1.n_vertices != g2.n_vertices or g1.n_edges != g2.n_edges:
        return None
    if g1.n_vertices > ISO_VERTEX_LIMIT:
        raise CapabilityError(
            f"isomorphism supported up to {ISO_VERTEX_LIMIT} vertices"
        )
    (order1, key1), (order2, key2) = g1.canonical, g2.canonical
    if key1 != key2:
        return None
    return dict(zip(order1, order2))


def isomorphic(g1: Multigraph, g2: Multigraph) -> bool:
    return find_isomorphism(g1, g2) is not None


def canonical_labelling(
    n: int, pairs: Sequence[tuple[int, int]]
) -> tuple[tuple[int, ...], Pairs]:
    """The canonical order of vertices ``0..n-1``, and the index pairs
    relabelled by position in it: their lexicographically least sorted
    relabelling."""
    mult = [[0] * n for _ in range(n)]
    for a, b in pairs:
        mult[a][b] += 1
        if a != b:
            mult[b][a] += 1
    # each node: the labelled prefix and the ordered partition of the rest;
    # rows of the vector from here on depend only on that partition
    level: dict[tuple, tuple[int, ...]] = {(tuple(range(n)),): ()}
    for _ in range(n):
        best: tuple[int, ...] = ()
        survivors: dict[tuple, tuple[int, ...]] = {}
        for cells, prefix in level.items():
            first = cells[0]
            for v in first:
                to_v = mult[v]
                row = [to_v[v]]
                split = []
                for cell in ((tuple(w for w in first if w != v),) + cells[1:]):
                    by_mult: dict[int, list[int]] = {}
                    for w in cell:
                        by_mult.setdefault(to_v[w], []).append(w)
                    for m in sorted(by_mult, reverse=True):
                        part = by_mult[m]
                        split.append(tuple(part))
                        row += [m] * len(part)
                row_t = tuple(row)
                if row_t > best:
                    best = row_t
                    survivors = {}
                if row_t == best:
                    survivors.setdefault(tuple(split), prefix + (v,))
        level = survivors
    order = next(iter(level.values()))
    position = [0] * n
    for i, v in enumerate(order):
        position[v] = i
    relabelled = ((position[a], position[b]) for a, b in pairs)
    return order, tuple(sorted((a, b) if a <= b else (b, a) for a, b in relabelled))


def canonical_key(g: Multigraph) -> GraphKey:
    """A label-independent key: the vertex count and the lexicographically
    least relabeled edge list."""
    return g.canonical[1]
