"""Matching counting through orientations: alternating circuits, Pfaffian
orientations, and the skew-determinant count.

An orientation under which every alternating circuit (the symmetric
difference of two perfect matchings) is clockwise odd makes the number of
perfect matchings computable as the square root of the determinant of the
skew adjacency matrix.  The orientation itself is found by the general
parity solver's core, with constraint rows restricted to alternating
circuits and every target odd.
"""

from __future__ import annotations

import math
from typing import Union

from .circuits import (
    DEFAULT_CIRCUIT_CAP,
    Circuit,
    Parity,
    _circuit_from_walk,
    clockwise_parity,
)
from .errors import ContractError, InputError, ResourceLimitError
from .graphs import Multigraph, Orientation
from .solver import IntractableCertificate, ParityAssignment, solve_circuits


def enumerate_perfect_matchings(
    g: Multigraph, cap: int = DEFAULT_CIRCUIT_CAP
) -> tuple[frozenset[int], ...]:
    """All perfect matchings as edge-id sets, deterministic order.

    Odd vertex counts give the empty tuple; loops never participate.
    More than ``cap`` matchings raise ResourceLimitError, and a cap below 1
    raises InputError.
    """
    if cap <= 0:
        raise InputError("circuit cap must be positive")
    if g.n_vertices % 2:
        return ()
    out: list[frozenset[int]] = []

    def extend(uncovered: tuple[int, ...], chosen: tuple[int, ...]) -> None:
        if not uncovered:
            out.append(frozenset(chosen))
            if len(out) > cap:
                raise ResourceLimitError(
                    f"more than {cap} perfect matchings", cap
                )
            return
        v = uncovered[0]
        rest = set(uncovered[1:])
        for e in g.incidence[v]:
            if e.is_loop:
                continue
            w = e.other(v)
            if w in rest:
                extend(tuple(x for x in uncovered[1:] if x != w), chosen + (e.id,))

    extend(g.vertex_ids, ())
    out.sort(key=sorted)
    return tuple(out)


def alternating_circuits(
    g: Multigraph, cap: int = DEFAULT_CIRCUIT_CAP
) -> tuple[Circuit, ...]:
    """Circuits that are the symmetric difference of two perfect matchings.

    Matchings are packed as bitmasks over edge positions in ``g.edges``.
    Every vertex a difference touches meets one edge of each matching, so
    the walk from its lowest edge is forced; the difference is a single
    circuit exactly when that walk covers all of it.
    """
    position = {e.id: i for i, e in enumerate(g.edges)}
    # (bit, edge id, far end) for every edge at v; matchings hold no loops
    around: dict[int, list[tuple[int, int, int]]] = {v: [] for v in g.vertex_ids}
    for i, e in enumerate(g.edges):
        if not e.is_loop:
            around[e.u].append((1 << i, e.id, e.v))
            around[e.v].append((1 << i, e.id, e.u))
    masks = [
        sum(1 << position[eid] for eid in m) for m in enumerate_perfect_matchings(g, cap)
    ]
    seen: set[int] = set()
    out: list[Circuit] = []
    for i, mi in enumerate(masks):
        for mk in masks[i + 1 :]:
            diff = mi ^ mk
            if not diff or diff in seen:
                continue
            seen.add(diff)
            came = diff & -diff
            e = g.edges[came.bit_length() - 1]
            verts, eids = [e.u], [e.id]
            cur = e.v
            while cur != e.u:
                for bit, eid, nxt in around[cur]:
                    if bit & diff and bit != came:
                        break
                verts.append(cur)
                eids.append(eid)
                came, cur = bit, nxt
            if len(eids) == diff.bit_count():
                out.append(_circuit_from_walk(verts, eids))
    out.sort(key=lambda c: (len(c), c.edge_ids))
    return tuple(out)


def find_pfaffian_orientation(
    g: Multigraph, cap: int = DEFAULT_CIRCUIT_CAP
) -> Union[Orientation, IntractableCertificate]:
    """An orientation making every alternating circuit clockwise odd, or a
    certificate (over alternating circuits) that none exists."""
    return solve_circuits(g, alternating_circuits(g, cap), ParityAssignment.all_odd())


def verify_pfaffian(g: Multigraph, o: Orientation, cap: int = DEFAULT_CIRCUIT_CAP) -> bool:
    return all(
        clockwise_parity(o, c) == Parity.ODD for c in alternating_circuits(g, cap)
    )


def skew_adjacency(g: Multigraph, o: Orientation) -> list[list[int]]:
    """Entry (u, v): edges oriented u->v minus edges oriented v->u."""
    index = {v: i for i, v in enumerate(g.vertex_ids)}
    n = g.n_vertices
    m = [[0] * n for _ in range(n)]
    for e in g.edges:
        if e.is_loop:
            continue
        t, h = o.direction[e.id]
        m[index[t]][index[h]] += 1
        m[index[h]][index[t]] -= 1
    return m


def _bareiss_determinant(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def kasteleyn_count(g: Multigraph, o: Orientation) -> int:
    """Number of perfect matchings under a Pfaffian orientation: the
    integer square root of det(skew adjacency)."""
    det = _bareiss_determinant(skew_adjacency(g, o))
    if det < 0:
        raise ContractError("skew determinant is negative: orientation is not Pfaffian")
    root = math.isqrt(det)
    if root * root != det:
        raise ContractError("skew determinant is not a perfect square: orientation is not Pfaffian")
    return root
