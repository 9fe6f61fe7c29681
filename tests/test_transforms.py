import random
from collections import Counter

import pytest

from paritygraph import (
    Multigraph,
    Parity,
    ParityAssignment,
    circuit_from_edges,
    decide,
    enumerate_circuits,
    even_circuits,
    isomorphic,
)
from paritygraph.catalog import WITNESS_BASES, base_graph, catalog
from paritygraph.circuits import Circuit
from paritygraph.corpus import connected_multigraphs
from paritygraph.errors import CapabilityError, InputError
from paritygraph.graphs import Orientation, canonical_key, find_isomorphism
import paritygraph.transforms as transforms

from paritygraph.transforms import (
    Degree2Contraction,
    OddCircuitContraction,
    SplittingTrace,
    apply_step,
    contract_degree2_pair,
    contract_odd_circuit,
    degree2_options,
    induce_assignment,
    is_even_splitting_of,
    lift_even_circuit,
    lift_through_trace,
    splitting_traces,
    subdivide_edge,
    subdivision_trace,
)
from paritygraph.scanner import (
    ForbiddenWitness,
    _edge_subsets,
    find_witness,
    verify_witness,
    witness_candidates,
)

from conftest import (
    cube,
    even_splittings,
    grid,
    isomorphism_by_backtracking,
    k23,
    k33,
    k4,
    lift_by_cases,
    reduced_parity_form,
    relabelled,
    splitting_by_bfs,
    splitting_by_dfs,
    square,
    subdivided,
    wheel,
)


def test_contract_degree2_in_square_gives_digon():
    g = square()
    h, _ = contract_degree2_pair(g, 2)
    assert h.n_vertices == 2 and h.n_edges == 2
    assert all(not e.is_loop for e in h.edges)


def test_contract_degree2_requires_degree_two():
    with pytest.raises(InputError):
        contract_degree2_pair(k4(), 1)
    loopy = Multigraph.build([1, 2], [(1, 1, 1), (2, 1, 2), (3, 1, 2)])
    with pytest.raises(InputError):
        contract_degree2_pair(loopy, 1)


def test_no_step_contracts_a_digon():
    # K_{2,3} plus vertex 6 with both its edges to vertex 1: contracting
    # them would fold that digon away.  No step applies at vertex 6, and
    # neither a replayed trace nor a witness check may take one there
    g = Multigraph.from_pairs([(e.u, e.v) for e in k23().edges] + [(1, 6), (1, 6)])
    assert degree2_options(g) == [3, 4, 5]
    with pytest.raises(InputError, match="vertex 6 does not have two non-loop edges to distinct"):
        contract_degree2_pair(g, 6)
    step = Degree2Contraction(6, (7, 8))
    with pytest.raises(InputError, match="vertex 6"):
        apply_step(g, step)
    folded, _ = g.contract_edges({7, 8})
    assert folded == g.subgraph(range(1, 7))
    j = ParityAssignment.all_odd()
    direct = find_witness(g, j)
    assert direct.base_name == "O1" and direct.subgraph_edges == folded.edge_id_set
    forged = ForbiddenWitness(
        "O1", g.edge_id_set, None, SplittingTrace(g, folded, (step,)), direct.circuit_parities
    )
    assert verify_witness(g, j, forged) is False


def test_e3_pair_contraction_merges_adjacent_corners():
    # contracting the degree-2 pair at a subdivision vertex of E3 merges
    # two corners of the underlying K4; E3 is not an even splitting of K4
    # (their edge counts differ by four, but every chain collapses corners)
    g = base_graph("E3")
    v = degree2_options(g)[0]
    h, _ = contract_degree2_pair(g, v)
    assert h.n_edges == g.n_edges - 2 and h.n_vertices == g.n_vertices - 2
    assert is_even_splitting_of(base_graph("E3"), k4()) is None


def test_o2_double_contraction_creates_multiedge_and_loop():
    g = base_graph("O2")
    v = degree2_options(g)[0]
    h, _ = contract_degree2_pair(g, v)
    assert h.n_vertices == 5 and h.n_edges == 7
    h2, _ = contract_degree2_pair(h, degree2_options(h)[0])
    pair_counts = Counter((e.u, e.v) for e in h2.edges if not e.is_loop)
    assert max(pair_counts.values()) == 2
    assert any(e.is_loop for e in h2.edges)


def test_subdivide_twice_examples():
    digon = Multigraph.from_pairs([(1, 2), (1, 2)])
    c4 = subdivide_edge(digon, 1, 3)
    assert isomorphic(c4, square())
    g = subdivide_edge(k23(), 1, 3)
    assert g.n_edges == 8 and g.n_vertices == 7
    assert isomorphic(subdivide_edge(k23(), 1, 1), k23())
    with pytest.raises(InputError):
        subdivide_edge(k23(), 1, 0)


def test_subdivide_then_contract_is_identity():
    g = k23()
    h = subdivide_edge(g, 3, 3)
    new_vertices = sorted(set(h.vertex_ids) - set(g.vertex_ids))
    h1, _ = contract_degree2_pair(h, new_vertices[0])
    # after the first contraction the second new vertex disappears too
    assert isomorphic(h1, g)


def test_subdivision_roundtrips_randomized(small_corpus):
    rng = random.Random(42)
    done = 0
    for g in small_corpus:
        if g.n_edges == 0:
            continue
        for _ in range(2):
            eid = rng.choice(sorted(g.edge_id_set))
            h = subdivide_edge(g, eid, 3)
            new_vertices = sorted(set(h.vertex_ids) - set(g.vertex_ids))
            back, _ = contract_degree2_pair(h, new_vertices[0])
            assert isomorphic(back, g)
            done += 1
    assert done >= 1000


def _sized(h: Multigraph, b: Multigraph) -> bool:
    """The size test of ``splitting_traces``: every step drops two edges
    and two vertices."""
    diff = h.n_edges - b.n_edges
    return diff >= 0 and not diff % 2 and diff == h.n_vertices - b.n_vertices


def _pendant(h: Multigraph) -> bool:
    return any(h.degree(v) == 1 for v in h.vertex_ids)


def assert_out_of_domain(h: Multigraph, b: Multigraph) -> None:
    """``h`` has a vertex of degree one or the chain walk would shorten
    ``b``: the matcher refuses the pair exactly when ``b`` passes the
    size test, and otherwise answers None."""
    if _sized(h, b):
        with pytest.raises(CapabilityError, match="splitting match needs"):
            splitting_traces(h, [b])
    else:
        assert splitting_traces(h, [b]) == [None]


def test_splitting_equals_subdivision_at_max_degree_three(small_corpus):
    # when no vertex exceeds degree 3, every even splitting is an even
    # subdivision, so the matcher agrees with the chain-parity reduction
    # for the low-degree bases; an input with a vertex of degree one is
    # outside the matcher's domain
    checked = refused = 0
    for g in small_corpus:
        if g.n_edges < 3 or any(e.is_loop for e in g.edges):
            continue
        if any(g.degree(v) > 3 for v in g.vertex_ids):
            continue
        reduced = subdivision_trace(g).to_graph
        for name in ("O1", "E1"):
            base = base_graph(name)
            if _pendant(g):
                assert_out_of_domain(g, base)
                refused += _sized(g, base)
                continue
            by_search = is_even_splitting_of(g, base) is not None
            by_reduction = isomorphic(reduced, base)
            assert by_search == by_reduction, (name, [(e.id, e.u, e.v) for e in g.edges])
            checked += 1
    assert (checked, refused) == (18, 1)


def test_is_even_splitting_identity_and_subdivision():
    g = k23()
    trace = is_even_splitting_of(g, g)
    assert trace is not None and trace.steps == ()
    h = subdivide_edge(g, 1, 3)
    trace = is_even_splitting_of(h, g)
    # one double subdivision is undone by one degree-2 pair contraction
    assert trace is not None and len(trace.steps) == 1
    assert isomorphic(trace.replay(), g)
    h2 = subdivide_edge(h, 2, 3)
    trace2 = is_even_splitting_of(h2, g)
    assert trace2 is not None and len(trace2.steps) == 2
    assert isomorphic(trace2.replay(), g)


def test_o2_is_not_a_splitting_of_k23():
    assert is_even_splitting_of(base_graph("O2"), k23()) is None


def test_splitting_respects_edge_parity():
    g = subdivide_edge(k23(), 1, 3)
    h = g.subgraph(g.edge_id_set - {2})  # 7 edges: wrong parity vs 6
    assert is_even_splitting_of(h, k23()) is None


def test_theta113_is_splitting_of_triple_edge():
    theta = Multigraph.from_pairs([(1, 2), (1, 2), (1, 3), (3, 4), (4, 2)])
    trace = is_even_splitting_of(theta, base_graph("E1"))
    assert trace is not None and len(trace.steps) == 1


def test_splitting_traces_match_the_dfs_and_bfs_oracles():
    # both old searches return the lexicographically least step sequence
    bases = [base_graph(name) for name in WITNESS_BASES]
    graphs = [g for g in connected_multigraphs(5, 8)[::3] if not any(e.is_loop for e in g.edges)]
    graphs += [wheel(6), wheel(7), k33(), grid(3, 3)]
    inputs = [g.subgraph(subset) for g in graphs for _, subset in _edge_subsets(g, 1, 1 << 20)]
    # splittings at degree-4 vertices give states that share an invariant
    # without being isomorphic, so the dedup must test isomorphism
    inputs += [h for b in bases for h in even_splittings(b)]
    calls = traces = 0
    for h in inputs:
        by_bfs = splitting_by_bfs(h, bases)
        for name, base, t, u in zip(WITNESS_BASES, bases, splitting_traces(h, bases), by_bfs):
            expected = splitting_by_dfs(h, base)
            got = None if t is None else (t.steps, t.to_graph)
            assert got == (None if expected is None else (expected.steps, expected.to_graph))
            assert t == u, (name, [(e.id, e.u, e.v) for e in h.edges])
            calls += 1
            traces += t is not None
    assert (calls, traces) == (56376, 812)


def _grown(g: Multigraph, rng: random.Random, size: int) -> Multigraph:
    """``g`` after random even splittings and even subdivisions of single
    edges, until it has at least ``size`` vertices."""
    while g.n_vertices < size:
        if rng.random() < 0.5:
            g = rng.choice(even_splittings(g))
        else:
            g = subdivide_edge(g, rng.choice(g.edges).id, 3)
    return g


def test_splitting_traces_match_the_dfs_oracle_at_13_and_14_vertices():
    # states over 12 vertices were once merged only when equal; now every
    # state is merged by key.  Per base: even splittings and subdivisions
    # grown to 13-14 vertices, the same with one odd subdivision, and
    # more growths of D2-D4, the bases matched by the breadth-first
    # search; contractions along one chain give children that are
    # isomorphic without being equal
    rng = random.Random(1314)
    bases = [base_graph(name) for name in WITNESS_BASES]
    calls = traces = twins = 0
    for i in range(54):
        kind = i // 9 % 3
        if kind == 2:
            h = _grown(bases[6 + i % 3], rng, 13)
        else:
            h = _grown(bases[i % 9], rng, 13 if kind == 0 else 12)
        if kind == 1:
            h = subdivide_edge(h, rng.choice(h.edges).id, 2)
        h = relabelled(h, rng.sample(range(-40, 60), h.n_vertices),
                       rng.sample(range(-40, 60), h.n_edges))
        assert h.n_vertices in (13, 14)
        children = [contract_degree2_pair(h, v)[0] for v in degree2_options(h)]
        twins += len(set(children)) > len({canonical_key(c) for c in children})
        for base, t in zip(bases, splitting_traces(h, bases)):
            expected = splitting_by_dfs(h, base, vertex_limit=14)
            got = None if t is None else (t.steps, t.to_graph)
            assert got == (None if expected is None else (expected.steps, expected.to_graph))
            calls += 1
            traces += t is not None
    assert (calls, traces, twins) == (486, 37, 54)


SUBDIVISION_BASES = ("O1", "E1", "E3")


def check_subdivision_trace(h):
    """The chain-walk match per subdivision base equals the reduced-form
    oracle's, and a matched trace equals the matcher's and the DFS
    oracle's.  Returns how many bases matched."""
    trace = subdivision_trace(h)
    assert trace.from_graph == h and trace.replay() == trace.to_graph
    reduced = reduced_parity_form(h)
    edges = [(e.id, e.u, e.v) for e in h.edges]
    matched = 0
    for name in SUBDIVISION_BASES:
        base = base_graph(name)
        by_walk = find_isomorphism(trace.to_graph, base) is not None
        by_oracle = reduced is not None and isomorphism_by_backtracking(reduced, base) is not None
        assert by_walk == by_oracle, (name, edges)
        if by_walk:
            assert trace == is_even_splitting_of(h, base) == splitting_by_dfs(h, base), (name, edges)
            matched += 1
    return matched


def test_subdivision_trace_equals_the_oracles_on_scanned_subgraphs():
    # every subgraph the scanner examines, directly or after contracting
    # an odd circuit inside it
    graphs = list(connected_multigraphs(5, 8)[::4]) + [wheel(5), wheel(6), grid(3, 3), cube(3)]
    inputs = matched = 0
    for g in graphs:
        odd = [c.edge_set for c in enumerate_circuits(g) if not c.is_even]
        for _, subset in _edge_subsets(g, 3, 1 << 20):
            sub = g.subgraph(subset)
            for h in [sub] + [sub.contract_edges(o)[0] for o in odd if o <= subset]:
                matched += check_subdivision_trace(h)
                inputs += 1
    assert (inputs, matched) == (12722, 1196)


def test_subdivision_trace_equals_the_oracles_on_random_subdivisions():
    # every edge becomes a path of 1 to 5 edges, up to the splitting
    # search's vertex limit, under shuffled vertex and edge ids
    rng = random.Random(12)
    matched = 0
    for i in range(240):
        base = base_graph(SUBDIVISION_BASES[i % 3])
        pairs = [(e.u, e.v) for e in base.edges]
        while True:
            lengths = [rng.randint(1, 5) if i % 2 else rng.choice((1, 3, 5)) for _ in pairs]
            if base.n_vertices + sum(lengths) - len(lengths) <= 14:
                break
        h = subdivided(pairs, lengths)
        vertex_ids = rng.sample(range(-30, 60), h.n_vertices)
        edge_ids = rng.sample(range(-30, 60), h.n_edges)
        matched += check_subdivision_trace(relabelled(h, vertex_ids, edge_ids))
    assert matched == 144


def test_one_search_for_all_bases_equals_one_search_per_base():
    # sharing one walk across the bases must not change any base's trace
    bases = [base_graph(name) for name in WITNESS_BASES]
    graphs = [
        g for g in connected_multigraphs(5, 8)[::7]
        if not any(e.is_loop for e in g.edges) and not _pendant(g)
    ]
    for name, b in zip(WITNESS_BASES, bases):
        for eid in sorted(b.edge_id_set):
            h = subdivide_edge(b, eid, 3)
            assert is_even_splitting_of(h, b) is not None, (name, eid)
            graphs.append(h)
    for h in graphs:
        assert splitting_traces(h, bases) == [is_even_splitting_of(h, b) for b in bases]


def _with_pendant_path(g: Multigraph, v: int) -> Multigraph:
    """``g`` with a path of two edges hung from vertex ``v``."""
    a = max(g.vertex_ids) + 1
    m = max(e.id for e in g.edges)
    edges = [(e.id, e.u, e.v) for e in g.edges] + [(m + 1, v, a), (m + 2, a, a + 1)]
    return Multigraph.build(list(g.vertex_ids) + [a, a + 1], edges)


def test_splitting_traces_equal_the_oracles_on_every_small_base():
    # every loop-free corpus graph serves as a base, against two of its
    # even splittings and a subdivision (all of them at maximum degree
    # three), itself with a pendant 2-edge path and two graphs grown from
    # other bases with the same edge excess.  Inside the matcher's domain
    # (no input vertex of degree one, a base the chain walk leaves as it
    # is) the traces equal both oracles'; outside it the matcher refuses
    # exactly the pairs that pass the size test.  A base the walk would
    # shorten is replaced by its walk end, which is in the domain
    rng = random.Random(58)
    bases = [b for b in connected_multigraphs(5, 8) if b.edges and not any(e.is_loop for e in b.edges)]
    own = []
    for b in bases:
        splits = even_splittings(b)
        if all(b.degree(v) <= 3 for v in b.vertex_ids):
            hs = splits + [subdivide_edge(b, e.id, 3) for e in b.edges]
        else:
            hs = rng.sample(splits, min(2, len(splits)))
            hs.append(subdivide_edge(b, rng.choice(b.edges).id, 3))
        hs.append(_with_pendant_path(b, rng.choice(b.vertex_ids)))
        own.append(hs)
    by_excess: dict[int, list[Multigraph]] = {}
    for h in (h for hs in own for h in hs):
        by_excess.setdefault(h.n_edges - h.n_vertices, []).append(h)
    calls = traces = refused = 0
    for b, hs in zip(bases, own):
        pool = [h for h in by_excess[b.n_edges - b.n_vertices] if h.n_edges >= b.n_edges]
        end = subdivision_trace(b).to_graph
        for h in hs + rng.sample(pool, min(2, len(pool))):
            if _pendant(h) or end != b:
                assert_out_of_domain(h, b)
                refused += _sized(h, b)
            if _pendant(h):
                continue
            [t] = splitting_traces(h, [end])
            assert t == splitting_by_dfs(h, end) == splitting_by_bfs(h, [end])[0], (
                [(e.id, e.u, e.v) for e in end.edges], [(e.id, e.u, e.v) for e in h.edges]
            )
            calls += 1
            traces += t is not None
    assert (len(bases), calls, traces, refused) == (504, 1320, 935, 2140)


def test_splitting_traces_refuse_only_pendant_inputs_and_bases_the_walk_shortens():
    # over 14 vertices, where the breadth-first search once stopped, every
    # base in the domain gets an answer, D2 included; a cycle and a theta
    # base the walk would shorten further, and an input with a vertex of
    # degree one, are refused once they pass the size test
    def cycle(n):
        return Multigraph.from_pairs([(i, i % n + 1) for i in range(1, n + 1)])

    def theta(a, b, c):
        return subdivided([(1, 2)] * 3, (a, b, c))

    c16, theta_long = cycle(16), theta(1, 1, 15)
    assert c16.n_vertices == theta_long.n_vertices == 16
    assert len(is_even_splitting_of(c16, cycle(2)).steps) == 7
    assert len(is_even_splitting_of(theta_long, base_graph("E1")).steps) == 7
    d2 = base_graph("D2")
    d2_long = subdivided([(e.u, e.v) for e in d2.edges], (9,) + (1,) * 10)
    assert d2_long.n_vertices == 16
    trace = is_even_splitting_of(d2_long, d2)
    assert trace == splitting_by_dfs(d2_long, d2, vertex_limit=16)
    assert len(trace.steps) == 4 and canonical_key(trace.replay()) == canonical_key(d2)
    k23_pairs = [(e.u, e.v) for e in k23().edges]
    pendant = _with_pendant_path(subdivided(k23_pairs, (9, 1, 1, 1, 1, 1)), 1)
    for h, b in [
        (c16, square()),  # a cycle: the walk would shorten it further
        (theta_long, theta(1, 1, 3)),  # adjacent degree-2 vertices
        (pendant, k23()),
    ]:
        assert h.n_vertices > 14 and _sized(h, b)
        assert_out_of_domain(h, b)
    # a base that fails the size test is refuted, pendant input or not
    assert splitting_traces(pendant, [base_graph("E1")]) == [None]


def test_lift_through_subdivision():
    digon = Multigraph.from_pairs([(1, 2), (1, 2)])
    c4 = subdivide_edge(digon, 1, 3)
    trace = is_even_splitting_of(c4, digon)
    assert trace is not None
    small = even_circuits(trace.to_graph)[0]
    [lifted] = lift_through_trace([small], trace)
    assert lifted.edge_set == c4.edge_id_set


def test_lift_through_odd_contraction_in_o2():
    o2 = base_graph("O2")
    tri = next(c for c in __import__("paritygraph").enumerate_circuits(o2) if len(c) == 3)
    contracted, _ = o2.contract_edges(tri.edge_set)
    step = OddCircuitContraction(tuple(sorted(tri.edge_set)))
    for c in even_circuits(contracted):
        lifted = lift_even_circuit(c, o2, step)
        assert lifted.is_even
        assert lifted.edge_set & contracted.edge_id_set == c.edge_set
        # the inserted part is the even side of the triangle
        inserted = lifted.edge_set - c.edge_set
        assert len(inserted) in (0, 2) and inserted <= tri.edge_set


def test_lift_circuit_avoiding_contracted_edges_is_identity():
    # two squares joined through a degree-2 vertex: contracting at it
    # leaves both squares intact, so they lift to themselves
    g = Multigraph.from_pairs(
        [(1, 2), (2, 3), (3, 4), (4, 1),
         (5, 6), (6, 7), (7, 8), (8, 5),
         (4, 9), (9, 5)]
    )
    sq = circuit_from_edges(g, {1, 2, 3, 4})
    h, _ = contract_degree2_pair(g, 9)
    step = Degree2Contraction(9, (9, 10))
    target = circuit_from_edges(h, {1, 2, 3, 4})
    lifted = lift_even_circuit(target, g, step)
    assert lifted.edge_set == sq.edge_set


def test_lift_rejects_non_circuit():
    g = square()
    h, _ = contract_degree2_pair(g, 2)
    step = Degree2Contraction(2, (1, 2))
    bogus = circuit_from_edges(g, {1, 2, 3, 4})
    with pytest.raises(InputError):
        lift_even_circuit(bogus, g, step)


def _lifts_agree(trace: SplittingTrace) -> list[Circuit]:
    evens = even_circuits(trace.to_graph)
    lifted = lift_through_trace(evens, trace)
    assert lifted == lift_by_cases(evens, trace)
    return lifted


def test_lift_through_trace_equals_the_case_by_case_oracle_on_witness_candidates():
    graphs = list(connected_multigraphs(5, 8)[::3]) + list(connected_multigraphs(5, 9)[::4])
    graphs += [wheel(5), wheel(6), wheel(7), grid(3, 3), k33(), *catalog().values()]
    n_odd = 0
    for g in graphs:
        for cand in witness_candidates(g):
            trace = cand.trace
            if cand.odd_circuit is not None:
                step = OddCircuitContraction(tuple(sorted(cand.odd_circuit)))
                trace = SplittingTrace(g.subgraph(cand.subset), trace.to_graph, (step,) + trace.steps)
                n_odd += 1
            lifted = sorted(_lifts_agree(trace), key=lambda c: (len(c), c.edge_ids))
            assert tuple(lifted) == cand.lifted
    assert n_odd > 1000


def test_lifts_are_restrictions():
    """A candidate's lifted circuits are exactly the even circuits of g
    inside its subset whose edges outside the contracted ones form an
    even circuit of the base."""
    graphs = list(connected_multigraphs(5, 8)[::2])
    graphs += [wheel(5), wheel(6), wheel(7), grid(3, 3), k33(), *catalog().values()]
    n_candidates = 0
    for g in graphs:
        evens = even_circuits(g)
        for cand in witness_candidates(g):
            contracted = set(cand.odd_circuit or ())
            for step in cand.trace.steps:
                contracted.update(step.edge_pair)
            base_circuits = {c.edge_set for c in even_circuits(cand.trace.to_graph)}
            restricted = tuple(
                c for c in evens
                if c.edge_set <= cand.subset and c.edge_set - contracted in base_circuits
            )
            assert restricted == cand.lifted
            n_candidates += 1
    assert n_candidates == 2354


def test_lift_even_circuit_equals_the_case_by_case_oracle_on_single_steps():
    n_steps = 0
    for g in connected_multigraphs(4, 6):
        steps = []
        for v in degree2_options(g):
            inc = g.incidence[v]
            steps.append(Degree2Contraction(v, (inc[0].id, inc[1].id)))
        for c in enumerate_circuits(g):
            if not c.is_even:
                steps.append(OddCircuitContraction(c.edge_ids))
        for step in steps:
            trace = SplittingTrace(g, apply_step(g, step), (step,))
            lifted = _lifts_agree(trace)
            evens = even_circuits(trace.to_graph)
            assert lifted == [lift_even_circuit(c, g, step) for c in evens]
            n_steps += 1
    assert n_steps > 700


def test_lift_errors_equal_the_case_by_case_oracle():
    # a square 1-2-3-4 with a second path 1-5-3 and a loop at 4;
    # contracting at vertex 2 leaves the digons {3, 4} and {5, 6}
    g = Multigraph.from_pairs([(1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (5, 3), (4, 4)])
    step = Degree2Contraction(2, (1, 2))
    trace = SplittingTrace(g, apply_step(g, step), (step,))
    cases = [
        (circuit_from_edges(g, {1, 2, 3, 4}), "circuit does not live in the contracted graph"),
        (circuit_from_edges(trace.to_graph, {7}), "only even circuits lift uniquely"),
        (Circuit((3, 5), ((4, 3), (1, 5))), "edge set [3, 5] is not 2-regular"),
    ]
    for c, message in cases:
        for lift in (lift_through_trace, lift_by_cases):
            with pytest.raises(InputError) as info:
                lift([c], trace)
            assert str(info.value) == message


def test_replay_rejects_a_step_whose_pair_is_not_at_its_vertex():
    g = square()
    for pair in [(3, 4), (1, 3), (1, 99)]:
        step = Degree2Contraction(2, pair)
        with pytest.raises(InputError, match=r"the edges at vertex 2 are not"):
            apply_step(g, step)
        trace = SplittingTrace(g, contract_degree2_pair(g, 2)[0], (step,))
        with pytest.raises(InputError, match=r"the edges at vertex 2 are not"):
            lift_through_trace(even_circuits(trace.to_graph), trace)
    assert apply_step(g, Degree2Contraction(2, (2, 1))) == contract_degree2_pair(g, 2)[0]


def test_induced_assignment_constant_kinds():
    g = square()
    step = Degree2Contraction(2, (1, 2))
    assert induce_assignment(ParityAssignment.all_odd(), g, step).kind == "all-odd"
    assert induce_assignment(ParityAssignment.all_even(), g, step).kind == "all-even"


def test_induced_assignment_via_o2_triangle():
    o2 = base_graph("O2")
    tri = next(c for c in __import__("paritygraph").enumerate_circuits(o2) if len(c) == 3)
    step = OddCircuitContraction(tuple(sorted(tri.edge_set)))
    rng = random.Random(4)
    evens = even_circuits(o2)
    j = ParityAssignment.from_map({c.edge_set: Parity(rng.randrange(2)) for c in evens})
    jh = induce_assignment(j, o2, step)
    contracted, _ = o2.contract_edges(tri.edge_set)
    for c in even_circuits(contracted):
        lifted = lift_even_circuit(c, o2, step)
        assert jh.parity_for(c) == j.parity_for(lifted)


def _restricted_assignment(j, h):
    evens = even_circuits(h)
    if not evens:
        return ParityAssignment.all_odd()
    return j


def test_degree2_contraction_preserves_compatibility(small_corpus):
    # compatible under j implies the contraction is compatible under the
    # induced assignment; with the extra degree-2 hypothesis, both ways
    rng = random.Random(9)
    done = 0
    for g in small_corpus[::7]:
        options = degree2_options(g)
        if not options:
            continue
        evens = even_circuits(g)
        j = (
            ParityAssignment.from_map(
                {c.edge_set: Parity(rng.randrange(2)) for c in evens}
            )
            if evens
            else ParityAssignment.all_odd()
        )
        v = options[0]
        step_edges = tuple(e.id for e in g.incidence[v])
        h, _ = contract_degree2_pair(g, v)
        step = Degree2Contraction(v, step_edges)
        jh = induce_assignment(j, g, step)
        g_ok = isinstance(decide(g, j), Orientation)
        h_ok = isinstance(decide(h, jh), Orientation)
        if g_ok:
            assert h_ok
        # biconditional case: a contracted edge touches another degree-2 vertex
        e1, e2 = (g.by_id[i] for i in step_edges)
        neighbors = {e1.other(v), e2.other(v)}
        if any(w in options for w in neighbors):
            assert g_ok == h_ok
        done += 1
    assert done > 20


def test_odd_contraction_preserves_compatibility(small_corpus):
    rng = random.Random(10)
    done = 0
    for g in small_corpus[::11]:
        odd = [c for c in __import__("paritygraph").enumerate_circuits(g) if not c.is_even]
        if not odd:
            continue
        evens = even_circuits(g)
        j = (
            ParityAssignment.from_map(
                {c.edge_set: Parity(rng.randrange(2)) for c in evens}
            )
            if evens
            else ParityAssignment.all_odd()
        )
        if not isinstance(decide(g, j), Orientation):
            continue
        ring = odd[0]
        step = OddCircuitContraction(tuple(sorted(ring.edge_set)))
        h, _ = contract_odd_circuit(g, ring.edge_set)
        jh = induce_assignment(j, g, step)
        assert isinstance(decide(h, jh), Orientation)
        done += 1
    assert done > 15
