"""Shared graph fixtures and independent oracles."""

from __future__ import annotations

import itertools

import pytest

from paritygraph import Multigraph, Orientation, clockwise_parity, even_circuits
from paritygraph import scanner
from paritygraph.catalog import EVEN_CIRCUIT_COUNT, WITNESS_BASES, base_graph
from paritygraph.circuits import (
    DEFAULT_CIRCUIT_CAP,
    Circuit,
    circuit_from_edges,
    even_circuit_connectivity_witness,
)
from paritygraph.errors import CapabilityError, ContractError, InputError
from paritygraph.gf2 import Gf2Matrix
from paritygraph.graphs import ISO_VERTEX_LIMIT, is_bipartite
from paritygraph.pfaffian import enumerate_perfect_matchings
from paritygraph.transforms import (
    SPLITTING_VERTEX_LIMIT,
    Degree2Contraction,
    SplittingTrace,
    apply_step,
    contract_degree2_pair,
    degree2_options,
    subdivision_trace,
)


def k23() -> Multigraph:
    return Multigraph.from_pairs([(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])


def k4() -> Multigraph:
    return Multigraph.from_pairs([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])


def k33() -> Multigraph:
    return Multigraph.from_pairs(
        [(1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)]
    )


def triangle() -> Multigraph:
    return Multigraph.from_pairs([(1, 2), (2, 3), (1, 3)])


def square() -> Multigraph:
    return Multigraph.from_pairs([(1, 2), (2, 3), (3, 4), (4, 1)])


def triple_edge() -> Multigraph:
    return Multigraph.from_pairs([(1, 2), (1, 2), (1, 2)])


def grid(rows: int, cols: int) -> Multigraph:
    pairs = []

    def vid(r, c):
        return r * cols + c + 1

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                pairs.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                pairs.append((vid(r, c), vid(r + 1, c)))
    return Multigraph.from_pairs(pairs)


def wheel(n: int) -> Multigraph:
    """Hub n+1 joined to the rim cycle 1..n."""
    rim = [(i, i % n + 1) for i in range(1, n + 1)]
    return Multigraph.from_pairs(rim + [(n + 1, i) for i in range(1, n + 1)])


def cube(d: int) -> Multigraph:
    return Multigraph.from_pairs(
        [(v + 1, (v | 1 << i) + 1) for v in range(1 << d) for i in range(d) if not v >> i & 1]
    )


def heawood() -> Multigraph:
    """The incidence graph of the Fano plane: 14 vertices, 21 edges."""
    lines = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1), (6, 0, 2)]
    return Multigraph.from_pairs([(p + 1, 8 + i) for i, line in enumerate(lines) for p in line])


def relabelled(g: Multigraph, vertex_ids, edge_ids) -> Multigraph:
    """``g`` with its i-th vertex and i-th edge renamed to the given ids."""
    vmap = dict(zip(g.vertex_ids, vertex_ids))
    emap = dict(zip((e.id for e in g.edges), edge_ids))
    return Multigraph.build(vmap.values(), [(emap[e.id], vmap[e.u], vmap[e.v]) for e in g.edges])


def subdivided(pairs, lengths) -> Multigraph:
    """Each edge ``pairs[i]`` replaced by a path of ``lengths[i]`` edges
    through fresh vertices."""
    out = []
    fresh = max(max(p) for p in pairs) + 1
    for (u, v), length in zip(pairs, lengths):
        seq = [u] + list(range(fresh, fresh + length - 1)) + [v]
        fresh += length - 1
        out.extend(zip(seq, seq[1:]))
    return Multigraph.from_pairs(out)


def even_splittings(g: Multigraph) -> list[Multigraph]:
    """Every single even vertex splitting of a loop-free ``g``: a vertex
    hands a nonempty proper subset of its edges (never its lowest) to a
    new vertex, joined to it through a fresh degree-2 vertex."""
    out = []
    for v in g.vertex_ids:
        inc = g.incidence[v]
        for r in range(1, len(inc)):
            for move in itertools.combinations(inc[1:], r):
                v2 = max(g.vertex_ids) + 1
                m = max(e.id for e in g.edges)
                edges = [(e.id, v2, e.other(v)) if e in move else (e.id, e.u, e.v) for e in g.edges]
                edges += [(m + 1, v, v2 + 1), (m + 2, v2 + 1, v2)]
                out.append(Multigraph.build(list(g.vertex_ids) + [v2, v2 + 1], edges))
    return out


def gf2_matrix(rows, width: int) -> Gf2Matrix:
    """A matrix from rows of 0/1 entries, entry j of a row in bit j."""
    return Gf2Matrix.from_bitmasks(
        [sum((b & 1) << j for j, b in enumerate(row)) for row in rows], width
    )


def is_connected(g: Multigraph) -> bool:
    """Every vertex is reachable from the first; true without vertices."""
    if not g.vertex_ids:
        return True
    seen = {g.vertex_ids[0]}
    stack = [g.vertex_ids[0]]
    while stack:
        w = stack.pop()
        for e in g.incidence[w]:
            x = e.other(w)
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return len(seen) == g.n_vertices


def reversed_circuit(c: Circuit) -> Circuit:
    """``c`` with its stored sense run backwards."""
    verts = [v for v, _ in c.sense]
    eids = [e for _, e in c.sense]
    n = len(eids)
    rev = tuple((verts[(i + 1) % n], eids[i]) for i in range(n - 1, -1, -1))
    return Circuit(c.edge_ids, rev)


# -- independent oracles -------------------------------------------------


def _pair_multiplicities(g: Multigraph) -> dict[tuple[int, int], int]:
    mult: dict[tuple[int, int], int] = {}
    for e in g.edges:
        key = (e.u, e.v)
        mult[key] = mult.get(key, 0) + 1
    return mult


def _vertex_signature(g: Multigraph, mult) -> dict[int, tuple]:
    sig = {}
    for v in g.vertex_ids:
        loops = mult.get((v, v), 0)
        to_neighbors = sorted(
            m for (a, b), m in mult.items() if a != b and (a == v or b == v)
        )
        sig[v] = (g.degree(v), loops, tuple(to_neighbors))
    return sig


def isomorphism_by_backtracking(g1: Multigraph, g2: Multigraph):
    """find_isomorphism as it was before canonical labelling: exhaustive
    backtracking with degree-signature pruning, up to ISO_VERTEX_LIMIT
    vertices."""
    if g1.n_vertices != g2.n_vertices or g1.n_edges != g2.n_edges:
        return None
    if g1.n_vertices > ISO_VERTEX_LIMIT:
        raise CapabilityError(
            f"isomorphism supported up to {ISO_VERTEX_LIMIT} vertices"
        )
    m1, m2 = _pair_multiplicities(g1), _pair_multiplicities(g2)
    s1, s2 = _vertex_signature(g1, m1), _vertex_signature(g2, m2)
    if sorted(s1.values()) != sorted(s2.values()):
        return None

    vs1 = sorted(g1.vertex_ids, key=lambda v: (s1[v], v))
    candidates = {v: [w for w in g2.vertex_ids if s2[w] == s1[v]] for v in vs1}
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == len(vs1):
            return True
        v = vs1[i]
        for w in candidates[v]:
            if w in used:
                continue
            ok = True
            if m1.get((v, v), 0) != m2.get((w, w), 0):
                ok = False
            if ok:
                for v2, w2 in mapping.items():
                    a, b = (v, v2) if v <= v2 else (v2, v)
                    c, d = (w, w2) if w <= w2 else (w2, w)
                    if m1.get((a, b), 0) != m2.get((c, d), 0):
                        ok = False
                        break
            if ok:
                mapping[v] = w
                used.add(w)
                if extend(i + 1):
                    return True
                del mapping[v]
                used.remove(w)
        return False

    if extend(0):
        return dict(mapping)
    return None


def _graph_invariant(g: Multigraph) -> tuple:
    mult = _pair_multiplicities(g)
    return (
        g.n_vertices,
        g.n_edges,
        sum(m for (u, v), m in mult.items() if u == v),
        tuple(sorted(g.degree(v) for v in g.vertex_ids)),
        tuple(sorted(mult.values())),
    )


def circuits_by_brute_force(g: Multigraph) -> set[frozenset[int]]:
    """Every edge subset that is connected and 2-regular."""
    ids = sorted(g.edge_id_set)
    out = set()
    for r in range(1, len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            sub = g.subgraph(combo)
            if all(sub.degree(v) == 2 for v in sub.vertex_ids) and is_connected(sub):
                out.add(frozenset(combo))
    return out


def circuit_by_two_walks(g: Multigraph, edge_ids) -> Circuit:
    """circuit_from_edges as it was before walks built circuits: validate,
    walk from the smallest vertex along each of its edges and keep the
    lexicographically least closed walk."""
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

    incident: dict[int, list[int]] = {}
    for e in edges:
        incident.setdefault(e.u, []).append(e.id)
        if not e.is_loop:
            incident.setdefault(e.v, []).append(e.id)

    start = min(deg)
    by_id = {e.id: e for e in edges}

    def walk(first_edge):
        steps = [(start, first_edge)]
        used = {first_edge}
        cur = by_id[first_edge].other(start)
        while cur != start:
            nxt = [i for i in incident[cur] if i not in used]
            if len(nxt) != 1:
                return None
            steps.append((cur, nxt[0]))
            used.add(nxt[0])
            cur = by_id[nxt[0]].other(cur)
        if len(used) != len(ids):
            return None  # disconnected: closed early
        return tuple(steps)

    walks = [w for w in (walk(i) for i in sorted(incident[start])) if w is not None]
    if not walks:
        raise InputError(f"edge set {ids} is not a single circuit")
    return Circuit(tuple(ids), min(walks))


def alternating_circuits_by_pairs(g: Multigraph) -> tuple[Circuit, ...]:
    """Every pair of perfect matchings XORed as frozensets; the differences
    that are single circuits, by (length, edge ids)."""
    matchings = enumerate_perfect_matchings(g)
    seen: set[frozenset[int]] = set()
    out = []
    for i in range(len(matchings)):
        for k in range(i + 1, len(matchings)):
            diff = matchings[i] ^ matchings[k]
            if not diff or diff in seen:
                continue
            seen.add(diff)
            try:
                out.append(circuit_by_two_walks(g, diff))
            except InputError:
                continue  # a union of several circuits
    out.sort(key=lambda c: (len(c), c.edge_ids))
    return tuple(out)


def compatible_by_brute_force(g: Multigraph, j) -> bool:
    """Try all 2^|E| orientations."""
    evens = even_circuits(g)
    if not evens:
        return True
    ids = [e.id for e in g.edges]
    base = Orientation.reference(g)
    for flips in itertools.product([0, 1], repeat=len(ids)):
        o = base.with_flipped([i for i, f in zip(ids, flips) if f])
        if all(clockwise_parity(o, c) == j.parity_for(c) for c in evens):
            return True
    return False


def two_connected_by_brute_force(g: Multigraph) -> bool:
    """g - v connected for every vertex v, plus connectivity."""
    if not is_connected(g) or g.n_vertices < 2:
        return False
    for v in g.vertex_ids:
        rest_edges = [e for e in g.edges if v not in (e.u, e.v)]
        rest_vertices = [w for w in g.vertex_ids if w != v]
        h = Multigraph.build(rest_vertices, [(e.id, e.u, e.v) for e in rest_edges])
        seen = set()
        if rest_vertices:
            stack = [rest_vertices[0]]
            seen = {rest_vertices[0]}
            while stack:
                w = stack.pop()
                for e in h.incidence[w]:
                    x = e.other(w)
                    if x not in seen:
                        seen.add(x)
                        stack.append(x)
        if len(seen) != len(rest_vertices):
            return False
    return True


def splitting_by_dfs(h: Multigraph, b: Multigraph, vertex_limit: int = SPLITTING_VERTEX_LIMIT):
    """is_even_splitting_of as it was before the one breadth-first search:
    depth-first over degree-2 contractions in ascending vertex order,
    memoising dead states up to isomorphism (equality above 12 vertices)."""
    if h.n_vertices > vertex_limit:
        raise CapabilityError(f"splitting search supported up to {vertex_limit} vertices")
    diff = h.n_edges - b.n_edges
    if diff < 0 or diff % 2:
        return None
    k = diff // 2
    vdiff = h.n_vertices - b.n_vertices
    if not k <= vdiff <= 2 * k:
        return None

    target_inv = _graph_invariant(b)
    dead: dict[tuple, list[Multigraph]] = {}

    def same(g1: Multigraph, g2: Multigraph) -> bool:
        if g1.n_vertices > 12 or g2.n_vertices > 12:
            return g1 == g2
        return isomorphism_by_backtracking(g1, g2) is not None

    def search(g: Multigraph, steps: list):
        if g.n_edges == b.n_edges:
            if _graph_invariant(g) == target_inv and isomorphism_by_backtracking(g, b):
                return tuple(steps)
            return None
        if any(same(g, other) for other in dead.get(_graph_invariant(g), [])):
            return None
        for v in degree2_options(g):
            inc = g.incidence[v]
            child, _ = contract_degree2_pair(g, v)
            steps.append(Degree2Contraction(v, (inc[0].id, inc[1].id)))
            found = search(child, steps)
            if found is not None:
                return found
            steps.pop()
        dead.setdefault(_graph_invariant(g), []).append(g)
        return None

    steps = search(h, [])
    if steps is None:
        return None
    reached = h
    for s in steps:
        reached = apply_step(reached, s)
    return SplittingTrace(h, reached, steps)


def splitting_by_bfs(h: Multigraph, bases) -> dict:
    """The scanner's multi-base breadth-first search as it was before it
    moved into transforms: base name -> first trace found, with states
    merged by invariant and isomorphism."""
    applicable = []
    for name in bases:
        b = base_graph(name)
        diff = h.n_edges - b.n_edges
        if diff >= 0 and not diff % 2 and diff // 2 <= h.n_vertices - b.n_vertices <= diff:
            applicable.append(name)
    if not applicable:
        return {}
    min_edges = min(base_graph(n).n_edges for n in applicable)
    found: dict = {}
    seen: dict[tuple, list[Multigraph]] = {}

    def register(g: Multigraph) -> bool:
        bucket = seen.setdefault(_graph_invariant(g), [])
        if any(isomorphism_by_backtracking(g, other) is not None for other in bucket):
            return False
        bucket.append(g)
        return True

    frontier = [(h, ())]
    register(h)
    while frontier:
        next_frontier = []
        for g, steps in frontier:
            for name in applicable:
                b = base_graph(name)
                if (b.n_edges == g.n_edges and name not in found
                        and isomorphism_by_backtracking(g, b)):
                    found[name] = SplittingTrace(h, g, steps)
            if g.n_edges - 2 < min_edges:
                continue
            for v in degree2_options(g):
                inc = g.incidence[v]
                child, _ = contract_degree2_pair(g, v)
                if register(child):
                    step = Degree2Contraction(v, (inc[0].id, inc[1].id))
                    next_frontier.append((child, steps + (step,)))
        frontier = next_frontier
        if len(found) == len(applicable):
            break
    return found


def reduced_parity_form(g: Multigraph):
    """The scanner's subdivision matcher before ``subdivision_trace``:
    suppress degree-2 chains, keeping each chain's length parity.

    Odd chains become single edges, even chains become 2-edge paths, so a
    graph is an even subdivision of a catalog base iff its reduced form is
    isomorphic to that base.  Returns None when there is no branch vertex.
    """
    branch = [v for v in g.vertex_ids if g.degree(v) != 2]
    if not branch or any(e.is_loop for e in g.edges):
        return None
    branch_set = set(branch)
    chains = []  # (endpoint a, endpoint b, length)
    used: set[int] = set()
    for v in branch:
        for e in g.incidence[v]:
            if e.id in used:
                continue
            used.add(e.id)
            length = 1
            cur = e.other(v)
            while cur not in branch_set:
                nxt = [f for f in g.incidence[cur] if f.id not in used]
                if len(nxt) != 1:
                    return None
                used.add(nxt[0].id)
                cur = nxt[0].other(cur)
                length += 1
            chains.append((v, cur, length))
    if len(used) != g.n_edges:
        return None  # leftover all-degree-2 component
    pairs: list[tuple[int, int]] = []
    fresh = max(g.vertex_ids) + 1
    for a, b, length in chains:
        if length % 2:
            pairs.append((a, b))
        else:
            pairs.append((a, fresh))
            pairs.append((fresh, b))
            fresh += 1
    return Multigraph.from_pairs(pairs, vertices=branch)


def lift_by_cases(circuits, trace: SplittingTrace) -> list[Circuit]:
    """lift_through_trace as it was before the one odd-degree rule: per
    step, check each circuit against the contracted graph, then close it
    by the step kind's own endpoint bookkeeping."""
    states = trace.replay_states()
    lifted = list(circuits)
    for i in range(len(trace.steps) - 1, -1, -1):
        lifted = [_lift_one_step(c, states[i], states[i + 1], trace.steps[i]) for c in lifted]
    return lifted


def _vertices(c: Circuit) -> frozenset[int]:
    return frozenset(v for v, _ in c.sense)


def _lift_one_step(c: Circuit, g_before: Multigraph, g_after: Multigraph, step) -> Circuit:
    if not c.edge_set <= g_after.edge_id_set:
        raise InputError("circuit does not live in the contracted graph")
    check = circuit_from_edges(g_after, c.edge_set)
    if not check.is_even:
        raise InputError("only even circuits lift uniquely")

    if isinstance(step, Degree2Contraction):
        e_id, f_id = step.edge_pair
        a = g_before.by_id[e_id].other(step.vertex)
        b = g_before.by_id[f_id].other(step.vertex)
        merged = min(a, step.vertex, b)
        if merged not in _vertices(check):
            return circuit_from_edges(g_before, c.edge_set)
        anchor_ends = set()
        for eid in c.edge_ids:
            if merged in (g_after.by_id[eid].u, g_after.by_id[eid].v):
                edge = g_before.by_id[eid]
                anchor_ends |= {edge.u, edge.v} & {a, b}
        if len(anchor_ends) <= 1:
            return circuit_from_edges(g_before, c.edge_set)
        return circuit_from_edges(g_before, c.edge_set | {e_id, f_id})

    # an odd circuit contraction
    ring = circuit_from_edges(g_before, frozenset(step.edge_ids))
    ring_vertices = _vertices(ring)
    if min(ring_vertices) not in _vertices(check):
        return circuit_from_edges(g_before, c.edge_set)
    attach = set()
    for eid in c.edge_ids:
        edge = g_before.by_id[eid]
        attach |= {edge.u, edge.v} & ring_vertices
    if len(attach) <= 1:
        return circuit_from_edges(g_before, c.edge_set)
    if len(attach) > 2:
        raise InputError("circuit meets the contracted vertex more than twice")
    # of the two paths joining p and q along the ring, the even one
    verts = [v for v, _ in ring.sense]
    ip, iq = sorted(verts.index(v) for v in attach)
    side = frozenset(eid for _, eid in ring.sense[ip:iq])
    path = side if len(side) % 2 == 0 else ring.edge_set - side
    return circuit_from_edges(g_before, c.edge_set | path)


def candidates_without_skips(g: Multigraph, bases, budget: int, cap: int, matches):
    """``scanner._candidates`` before the even-circuit skip: every subset
    without a loop is matched directly, and a subset with no direct match
    tries each of its odd circuit contractions, however few even circuits
    of ``g`` it holds."""
    even_masks, odd = scanner._circuit_masks(g, cap)
    min_edges = min(base_graph(name).n_edges for name in bases)
    min_count = min(EVEN_CIRCUIT_COUNT[name] for name in bases)
    for mask, subset in scanner._edge_subsets(g, min_edges, budget):
        n_even_inside = sum(1 for em in even_masks if em & ~mask == 0)
        direct = []
        if n_even_inside >= min_count and not scanner._has_loop(g, subset):
            direct = matches(g.subgraph(subset))
        if direct:
            yield from (scanner._candidate(g, subset, n, None, t) for n, t in direct)
            continue
        for oset, h in scanner._odd_contractions(g, subset, mask, odd, min_edges):
            yield from (scanner._candidate(g, subset, n, oset, t) for n, t in matches(h))


def witness_candidates_without_skips(g: Multigraph, budget: int, cap: int) -> tuple:
    """``witness_candidates`` with neither skip: no even-circuit count
    check before the odd contractions and no memo of refuted graphs, so
    every graph offered runs the splitting search over all nine bases."""
    return tuple(
        candidates_without_skips(g, WITNESS_BASES, budget, cap, scanner._split_matches)
    )


def subdivision_scan_without_skips(g: Multigraph, bases, j, budget: int, cap: int):
    """``scanner._subdivision_scan`` on the stream without the even-circuit
    skip."""

    def matches(h: Multigraph):
        trace = subdivision_trace(h)
        return [
            (name, trace) for name in bases
            if isomorphism_by_backtracking(trace.to_graph, base_graph(name)) is not None
        ]

    return scanner._first_triggered(candidates_without_skips(g, bases, budget, cap, matches), j)


def arcs_by_two_branches(g: Multigraph, c: Circuit, h_edges) -> tuple[tuple[int, ...], ...]:
    """``arcdecomp.circuit_arcs`` as a two-branch walk, arcs as edge ids:
    a stage edge closes the arc in progress, and a stage vertex in front
    of an edge outside the stage splits it."""
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
    cur: list[int] = []
    while True:
        v, eid = c.sense[i]
        if eid in h_edges:
            if cur:
                arcs.append(tuple(cur))
                cur = []
        else:
            if cur and v in vh:
                arcs.append(tuple(cur))
                cur = []
            cur.append(eid)
        i = (i + 1) % n
        if i == (start + 1) % n:
            break
    if cur:
        arcs.append(tuple(cur))
    return tuple(arcs)


def _containment_by_scan(new_edges, grown, evens) -> bool:
    for c in evens:
        if c.edge_set <= grown and c.edge_set & new_edges and not new_edges <= c.edge_set:
            return False
    return True


def adjunction_by_one_pass(g: Multigraph, h_edges, evens):
    """``arcdecomp.find_adjunction`` in one pass over ``evens``: the first
    1-arc circuit, else the first 2-arc one kept aside on the way."""
    h_edges = frozenset(h_edges)
    if not h_edges or not h_edges < g.edge_id_set:
        raise ContractError("stage must be a nonempty proper edge subset")
    best_two = None
    for c in evens:
        new = c.edge_set - h_edges
        if not new or not (c.edge_set & h_edges):
            continue
        arcs = arcs_by_two_branches(g, c, h_edges)
        if len(arcs) == 1:
            return c, arcs
        if len(arcs) == 2 and best_two is None:
            if _containment_by_scan(new, h_edges | c.edge_set, evens):
                best_two = (c, arcs)
    if best_two is not None:
        return best_two
    raise ContractError("no 1- or 2-arc adjunction extends the stage")


def decompose_by_inline_search(g: Multigraph, cap: int = DEFAULT_CIRCUIT_CAP):
    """``arcdecomp.decompose`` with the 2-arc start tested inline and each
    later stage grown by ``adjunction_by_one_pass``: (stages, adjunctions
    as (circuit, arcs as edge ids))."""
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
            c, arcs = adjunction_by_one_pass(g, stages[-1], evens)
            if len(arcs) == 2:
                raise ContractError("needed a second 2-arc adjunction")
            stages.append(stages[-1] | c.edge_set)
            adjunctions.append((c, arcs))
        return tuple(stages), tuple(adjunctions)

    if is_bipartite(g):
        return greedy([evens[0].edge_set], [])
    for c0 in evens:
        for d in evens:
            new = d.edge_set - c0.edge_set
            if not new or not (d.edge_set & c0.edge_set):
                continue
            arcs = arcs_by_two_branches(g, d, c0.edge_set)
            if len(arcs) != 2 or not _containment_by_scan(new, c0.edge_set | d.edge_set, evens):
                continue
            try:
                return greedy([c0.edge_set, c0.edge_set | d.edge_set], [(d, arcs)])
            except ContractError:
                continue
    raise ContractError("no valid starting 2-arc adjunction found")


@pytest.fixture(scope="session")
def small_corpus():
    from paritygraph.corpus import connected_multigraphs

    return connected_multigraphs(4, 7)
