"""Circuit enumeration, clockwise parities, even-circuit connectivity."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

from .errors import ContractError, InputError, ResourceLimitError
from .graphs import Edge, Multigraph, Orientation

DEFAULT_CIRCUIT_CAP = 100_000


class Parity(enum.IntEnum):
    EVEN = 0
    ODD = 1

    def __str__(self) -> str:  # used by the CLI emitters
        return "even" if self is Parity.EVEN else "odd"


@dataclass(frozen=True)
class Circuit:
    """A connected 2-regular edge set with one stored traversal sense.

    ``sense`` lists (vertex, edge) steps: leave ``vertex`` along ``edge``
    to reach the vertex of the next step.  A loop is a circuit of length 1.
    Circuits built by this package carry the canonical sense described at
    ``_circuit_from_walk``.
    """

    edge_ids: tuple[int, ...]
    sense: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.edge_ids)

    @property
    def is_even(self) -> bool:
        return len(self.edge_ids) % 2 == 0

    @cached_property
    def edge_set(self) -> frozenset[int]:
        return frozenset(self.edge_ids)


def _circuit_from_walk(verts: Sequence[int], eids: Sequence[int]) -> Circuit:
    """The circuit traversed by a closed walk, in its canonical sense.

    ``eids[i]`` leads from ``verts[i]`` to ``verts[i + 1]``, cyclically.
    The canonical sense is the lexicographically least closed walk starting
    from the smallest vertex: the walk is rotated to that vertex and kept or
    reversed so that it leaves along the smaller of the vertex's two edges.
    A loop ``u`` with id ``e`` gives the sense ``((u, e),)``.
    """
    n = len(eids)
    i = verts.index(min(verts))
    if eids[i] < eids[i - 1]:
        sense = tuple((verts[(i + k) % n], eids[(i + k) % n]) for k in range(n))
    else:
        sense = tuple((verts[(i - k) % n], eids[(i - k - 1) % n]) for k in range(n))
    return Circuit(tuple(sorted(eids)), sense)


def circuit_from_edges(g: Multigraph, edge_ids: Iterable[int]) -> Circuit:
    """Validate an edge set as a circuit and give it its canonical sense
    (see ``_circuit_from_walk``)."""
    ids = sorted(set(edge_ids))
    if not ids:
        raise InputError("a circuit needs at least one edge")
    unknown = set(ids) - g.edge_id_set
    if unknown:
        raise InputError(f"unknown edge ids in circuit: {sorted(unknown)}")
    edges = [g.by_id[i] for i in ids]

    deg: dict[int, int] = {}
    for e in edges:
        deg[e.u] = deg.get(e.u, 0) + (2 if e.is_loop else 1)
        if not e.is_loop:
            deg[e.v] = deg.get(e.v, 0) + 1
    if any(d != 2 for d in deg.values()):
        raise InputError(f"edge set {ids} is not 2-regular")

    incident: dict[int, list[Edge]] = {}
    for e in edges:
        incident.setdefault(e.u, []).append(e)
        if not e.is_loop:
            incident.setdefault(e.v, []).append(e)

    # every vertex has degree 2, so the walk is forced and closes at the
    # start; it covers all the edges exactly when the set is connected
    start = min(deg)
    e = incident[start][0]
    verts, eids = [start], [e.id]
    cur = e.other(start)
    while cur != start:
        e = next(f for f in incident[cur] if f.id != eids[-1])
        verts.append(cur)
        eids.append(e.id)
        cur = e.other(cur)
    if len(eids) != len(ids):
        raise InputError(f"edge set {ids} is not a single circuit")
    return _circuit_from_walk(verts, eids)


@lru_cache(maxsize=4096)
def enumerate_circuits(g: Multigraph, cap: int = DEFAULT_CIRCUIT_CAP) -> tuple[Circuit, ...]:
    """All circuits of ``g``, each once by edge set.

    Sorted by (length, edge ids).  Enumeration walks simple paths closing
    each circuit at its smallest edge id, so no deduplication is needed.
    Exceeding ``cap`` raises ResourceLimitError.
    """
    if cap <= 0:
        raise InputError("circuit cap must be positive")
    found: list[Circuit] = []

    # (edge id, far end) for every non-loop edge at v
    incident: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertex_ids}
    for e in g.edges:
        if not e.is_loop:
            incident[e.u].append((e.id, e.v))
            incident[e.v].append((e.id, e.u))

    def check_cap() -> None:
        if len(found) > cap:
            raise ResourceLimitError(
                f"more than {cap} circuits; raise the cap to enumerate them all", cap
            )

    for e0 in g.edges:
        if e0.is_loop:
            found.append(_circuit_from_walk((e0.u,), (e0.id,)))
            check_cap()
            continue
        target = e0.u
        # simple paths from e0.v back to target using edge ids above e0.id;
        # path[i] leads from verts[i] to verts[i + 1]
        stack = [(e0.v, (target, e0.v), (e0.id,))]
        while stack:
            cur, verts, path = stack.pop()
            for eid, nxt in incident[cur]:
                if eid <= e0.id:
                    continue
                if nxt == target:
                    found.append(_circuit_from_walk(verts, path + (eid,)))
                    check_cap()
                elif nxt not in verts:
                    stack.append((nxt, verts + (nxt,), path + (eid,)))

    found.sort(key=lambda c: (len(c), c.edge_ids))
    return tuple(found)


def even_circuits(g: Multigraph, cap: int = DEFAULT_CIRCUIT_CAP) -> tuple[Circuit, ...]:
    return tuple(c for c in enumerate_circuits(g, cap) if c.is_even)


def clockwise_parity(o: Orientation, c: Circuit) -> Parity:
    """Parity of the number of edges directed in agreement with the sense.

    Only defined for even circuits: for odd ones the value would depend on
    which of the two senses is stored.
    """
    if not c.is_even:
        raise ContractError("clockwise parity is only defined for even circuits")
    n = len(c.sense)
    agree = 0
    for i, (v, eid) in enumerate(c.sense):
        head = c.sense[(i + 1) % n][0]
        if o.agrees(eid, v, head):
            agree += 1
    return Parity(agree % 2)


def even_circuit_connectivity_witness(
    g: Multigraph, cap: int = DEFAULT_CIRCUIT_CAP
) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """None when even-circuit-connected, else a bipartition no even circuit crosses."""
    if g.has_isolated_vertices():
        raise InputError("even-circuit connectivity requires no isolated vertices")
    if g.n_edges == 0:
        raise InputError("even-circuit connectivity requires at least one edge")
    evens = even_circuits(g, cap)
    all_ids = g.edge_id_set

    uncovered = set(all_ids)
    for c in evens:
        uncovered -= c.edge_set
    if uncovered:
        e = min(uncovered)
        side = frozenset([e])
        return side, frozenset(all_ids - side)

    parent = {i: i for i in all_ids}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in evens:
        ids = sorted(c.edge_set)
        for other in ids[1:]:
            ra, rb = find(ids[0]), find(other)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    roots = {find(i) for i in all_ids}
    if len(roots) <= 1:
        return None
    r0 = min(roots)
    side = frozenset(i for i in all_ids if find(i) == r0)
    return side, frozenset(all_ids - side)


def is_even_circuit_connected(g: Multigraph, cap: int = DEFAULT_CIRCUIT_CAP) -> bool:
    """Every bipartition of the edge set is crossed by some even circuit."""
    return even_circuit_connectivity_witness(g, cap) is None
