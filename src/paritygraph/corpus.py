"""Deterministic test corpora: exhaustive small multigraphs and seeded
random ones.

The exhaustive generator produces every connected multigraph (loops and
parallel edges included) up to isomorphism within the given vertex and
edge bounds, by canonical augmentation from spanning trees.  Isomorphism
classes are told apart by the exact key of `graphs.canonical_labelling`.
"""

from __future__ import annotations

import heapq
import random
from functools import lru_cache
from itertools import product

from .errors import InputError
from .graphs import GraphKey, Multigraph, Pairs, canonical_labelling

__all__ = ["connected_multigraphs", "random_connected_multigraph"]


def _from_key(key: GraphKey) -> Multigraph:
    n, pairs = key
    return Multigraph.build(
        range(1, n + 1), [(i + 1, a + 1, b + 1) for i, (a, b) in enumerate(pairs)]
    )


def _labeled_trees(n: int) -> list[Pairs]:
    if n == 1:
        return [()]
    if n == 2:
        return [((0, 1),)]
    return [_tree_from_pruefer(seq, n) for seq in product(range(n), repeat=n - 2)]


def _tree_from_pruefer(seq: tuple[int, ...], n: int) -> Pairs:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    # the smallest current leaf is joined to each sequence entry in turn
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return tuple(sorted(edges))


@lru_cache(maxsize=4)
def connected_multigraphs(max_vertices: int, max_edges: int) -> tuple[Multigraph, ...]:
    """Every connected multigraph with at most the given sizes, one per
    isomorphism class, in a deterministic order."""
    out: list[GraphKey] = []
    for n in range(1, max_vertices + 1):
        if n - 1 > max_edges:
            break
        level = sorted({canonical_labelling(n, tree)[1] for tree in _labeled_trees(n)})
        seen_all = set(level)
        out.extend((n, pairs) for pairs in level)
        slots = [(a, b) for a in range(n) for b in range(a, n)]
        m = n - 1
        while m < max_edges and level:
            next_level = set()
            for pairs in level:
                for slot in slots:
                    new_pairs = canonical_labelling(n, pairs + (slot,))[1]
                    if new_pairs not in seen_all:
                        seen_all.add(new_pairs)
                        next_level.add(new_pairs)
            level = sorted(next_level)
            out.extend((n, pairs) for pairs in level)
            m += 1
    return tuple(_from_key(k) for k in out)


def random_connected_multigraph(
    rng: random.Random, n_vertices: int, n_edges: int, loops: bool = True
) -> Multigraph:
    """A random connected multigraph: a uniform random tree plus extra edges."""
    n = n_vertices
    if n_edges < n - 1:
        raise InputError("too few edges for connectivity")
    # beyond a spanning tree, extra edges need two vertices or a loop
    if n_edges > max(n - 1, 0) and (n <= 0 or (n == 1 and not loops)):
        raise InputError(
            f"no connected multigraph on {n} vertices has {n_edges} edges"
            + (" without loops" if n == 1 else "")
        )
    pairs: list[tuple[int, int]] = []
    if n >= 2:
        seq = [rng.randrange(n) for _ in range(n - 2)]
        pairs.extend(_tree_from_pruefer(tuple(seq), n))
    while len(pairs) < n_edges:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b and not loops:
            continue
        pairs.append((min(a, b), max(a, b)))
    return _from_key((n, tuple(pairs)))
