import itertools
import math
import random
import tracemalloc
from dataclasses import replace

import pytest

from paritygraph import (
    IntractableCertificate,
    Multigraph,
    Parity,
    ParityAssignment,
    decide,
    even_circuits,
)
import paritygraph.scanner as scanner
from paritygraph.catalog import (
    CATALOG_NAMES,
    EVEN_CIRCUIT_COUNT,
    PARITY_RULE,
    WITNESS_BASES,
    base_graph,
)
from paritygraph.circuits import DEFAULT_CIRCUIT_CAP
from paritygraph.cli import main
from paritygraph.errors import InputError, ResourceLimitError
from paritygraph.fileio import emit_graph
from paritygraph.scanner import (
    DEFAULT_SCAN_BUDGET,
    ForbiddenWitness,
    _circuit_masks,
    _edge_subsets,
    _odd_contractions,
    find_witness,
    scan_all_even,
    scan_all_odd,
    verify_witness,
    witness_candidates,
)
from paritygraph.transforms import (
    SplittingTrace,
    is_even_splitting_of,
    splitting_traces,
    subdivide_edge,
    subdivision_trace,
)

from conftest import (
    compatible_by_brute_force,
    edge_subsets_by_gosper,
    even_splittings,
    grid,
    is_connected,
    k23,
    k33,
    k4,
    odd_contractions_by_building,
    relabelled,
    splitting_by_bfs,
    square,
    subdivided,
    subdivision_scan_without_skips,
    triple_edge,
    wheel,
    witness_candidates_without_skips,
)


def test_k23_all_odd_witness_is_direct_o1():
    g = k23()
    w = find_witness(g, ParityAssignment.all_odd())
    assert w is not None
    assert w.base_name == "O1"
    assert w.splitting_trace.steps == ()
    assert w.odd_circuit_contracted is None
    assert verify_witness(g, ParityAssignment.all_odd(), w)


def test_square_never_has_a_witness():
    g = square()
    for j in (ParityAssignment.all_odd(), ParityAssignment.all_even()):
        assert find_witness(g, j) is None


def test_k4_all_even_witness():
    g = k4()
    w = find_witness(g, ParityAssignment.all_even())
    assert w is not None and w.base_name in ("E1", "E2")
    assert verify_witness(g, ParityAssignment.all_even(), w)


def test_scan_all_odd_examples():
    assert scan_all_odd(k23()) is not None
    # K4 has no all-odd witness and the solver agrees
    assert scan_all_odd(k4()) is None
    assert not isinstance(decide(k4(), ParityAssignment.all_odd()), IntractableCertificate)


def test_scan_all_odd_o2_via_triangle_contraction():
    o2 = base_graph("O2")
    w = scan_all_odd(o2)
    assert w is not None
    assert w.base_name == "O1"
    assert w.odd_circuit_contracted is not None
    assert len(w.odd_circuit_contracted) == 3
    assert verify_witness(o2, ParityAssignment.all_odd(), w)


def test_verify_witness_is_false_when_the_contracted_edges_are_no_odd_circuit():
    o2 = base_graph("O2")
    j = ParityAssignment.all_odd()
    w = scan_all_odd(o2)
    ring = sorted(w.odd_circuit_contracted)
    path = frozenset(ring[:2])  # two edges of the triangle: no circuit
    missing = frozenset(ring[:2] + [max(o2.edge_id_set) + 1])  # not in the subgraph
    for contracted in (path, missing):
        forged = ForbiddenWitness(
            w.base_name, w.subgraph_edges, contracted, w.splitting_trace, w.circuit_parities
        )
        assert verify_witness(o2, j, forged) is False


def test_verify_witness_is_false_on_unknown_edges_and_non_circuits():
    # a forged witness on K_{2,3} whose subgraph names an edge g lacks, or
    # whose listed even circuit is no circuit, is false; both once raised
    # InputError ("unknown edge ids in subgraph: [99]", "edge set [1, 2]
    # is not 2-regular")
    g, j = k23(), ParityAssignment.all_odd()
    w = find_witness(g, j)
    assert verify_witness(g, j, w)
    unknown = ForbiddenWitness(
        w.base_name, w.subgraph_edges | {99}, None, w.splitting_trace, w.circuit_parities
    )
    (_, parity), *rest = w.circuit_parities
    path = ForbiddenWitness(
        w.base_name, w.subgraph_edges, None, w.splitting_trace,
        ((frozenset({1, 2}), parity), *rest),
    )
    for forged in (unknown, path):
        assert verify_witness(g, j, forged) is False
    # a base name that is no witness base is false before any lookup; a
    # catalog entry once raised KeyError from EVEN_CIRCUIT_COUNT and an
    # unknown name from catalog()
    assert verify_witness(g, j, replace(w, base_name="X")) is False
    a1 = base_graph("A1")
    as_a1 = ForbiddenWitness("A1", a1.edge_id_set, None, SplittingTrace(a1, a1, ()), ())
    assert verify_witness(a1, j, as_a1) is False


def test_scan_all_even_examples():
    assert scan_all_even(triple_edge()) is not None
    assert scan_all_even(k23()) is None
    w = scan_all_even(k4())
    assert w is not None and w.base_name == "E1"
    assert w.odd_circuit_contracted is not None  # a contracted triangle
    assert verify_witness(k4(), ParityAssignment.all_even(), w)


def test_delta_fixtures_produce_delta_witnesses():
    for name in ("D1", "D2", "D3", "D4"):
        g = base_graph(name)
        evens = even_circuits(g)
        j = ParityAssignment.from_map(
            {c.edge_set: (Parity.EVEN if i == 0 else Parity.ODD) for i, c in enumerate(evens)}
        )
        assert isinstance(decide(g, j), IntractableCertificate)
        w = find_witness(g, j)
        assert w is not None and w.base_name == name
        assert verify_witness(g, j, w)


def test_splitting_of_d4_is_caught():
    g = subdivide_edge(base_graph("D4"), 1, 3)
    evens = even_circuits(g)
    j = ParityAssignment.from_map(
        {c.edge_set: (Parity.EVEN if i == 0 else Parity.ODD) for i, c in enumerate(evens)}
    )
    incompatible = isinstance(decide(g, j), IntractableCertificate)
    w = find_witness(g, j)
    assert incompatible == (w is not None)
    if w is not None:
        assert w.base_name == "D4"
        assert verify_witness(g, j, w)


def test_witness_iff_incompatible_on_small_corpus(small_corpus):
    rng = random.Random(2)
    for g in small_corpus[::6]:
        evens = even_circuits(g)
        js = [ParityAssignment.all_odd(), ParityAssignment.all_even()]
        if evens:
            js.append(
                ParityAssignment.from_map(
                    {c.edge_set: Parity(rng.randrange(2)) for c in evens}
                )
            )
        for j in js:
            incompatible = isinstance(decide(g, j), IntractableCertificate)
            w = find_witness(g, j)
            assert (w is not None) == incompatible
            if w is not None:
                assert verify_witness(g, j, w)


def test_specialised_scans_agree_with_general_scan(small_corpus):
    for g in small_corpus[::15]:
        wo = scan_all_odd(g)
        wg = find_witness(g, ParityAssignment.all_odd())
        assert (wo is None) == (wg is None)
        we = scan_all_even(g)
        wge = find_witness(g, ParityAssignment.all_even())
        assert (we is None) == (wge is None)


def test_budget_is_enforced():
    with pytest.raises(ResourceLimitError):
        witness_candidates.__wrapped__(k4(), 3, 100_000)


@pytest.mark.parametrize("budget", [0, -5])
def test_budget_below_one_is_rejected_before_any_work(budget, monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("circuits enumerated")

    monkeypatch.setattr(scanner, "enumerate_circuits", no_enumeration)
    scans = (
        lambda: witness_candidates.__wrapped__(k4(), budget),
        lambda: find_witness(k4(), ParityAssignment.all_odd(), budget),
        lambda: scan_all_odd(k4(), budget),
        lambda: scan_all_even(k4(), budget),
    )
    for scan in scans:
        with pytest.raises(InputError, match="^scan budget must be positive$"):
            scan()


def theta(a, b, c) -> Multigraph:
    return subdivided([(1, 2)] * 3, (a, b, c))


K23_PAIRS = [(e.u, e.v) for e in k23().edges]


def test_theta_parity_patterns_match_splitting_detector():
    # a theta graph is a splitting of O1 iff all three path lengths are
    # even, and of E1 iff all three are odd; both bases go by the chain
    # walk, so thetas over 14 vertices answer too
    for a, b, c in itertools.combinations_with_replacement(range(1, 7), 3):
        if a == 1 and b == 1 and c == 1:
            g = triple_edge()
        else:
            g = theta(a, b, c)
        all_even = a % 2 == 0 and b % 2 == 0 and c % 2 == 0
        all_odd = a % 2 == 1 and b % 2 == 1 and c % 2 == 1
        for name, expected in (("O1", all_even), ("E1", all_odd)):
            found = is_even_splitting_of(g, base_graph(name)) is not None
            assert found == expected, (name, a, b, c)


def d3_subdivision() -> Multigraph:
    """D3 with one edge made a 9-edge path: 15 vertices, one over the
    vertex limit the breadth-first splitting search once had, and the
    size of a D3 splitting."""
    return subdivided([(e.u, e.v) for e in base_graph("D3").edges], (9,) + (1,) * 9)


def test_scans_over_fourteen_vertices_find_their_witnesses():
    # K_{2,3} with one edge made an 11-edge path: 15 vertices and an even
    # subdivision of O1, so every scan walks its chains and finds the same
    # witness
    big = subdivided(K23_PAIRS, (11, 1, 1, 1, 1, 1))
    assert big.n_vertices == 15
    w = scan_all_odd(big)
    assert w == find_witness(big, ParityAssignment.all_odd())
    assert w is not None and w.base_name == "O1" and w.odd_circuit_contracted is None
    assert w.subgraph_edges == big.edge_id_set and len(w.splitting_trace.steps) == 5
    assert verify_witness(big, ParityAssignment.all_odd(), w)
    # the D3 subdivision once raised CapabilityError in find_witness.  Now
    # all-odd, which D3's rule does not trigger, has no witness, and one
    # even circuit prescribed even makes the whole graph a D3 witness
    g = d3_subdivision()
    assert find_witness(g, ParityAssignment.all_odd(), 10**6) is None
    assert scan_all_odd(g, 10**6) is None and scan_all_even(g, 10**6) is None
    evens = even_circuits(g)
    for i in range(len(evens)):
        j = ParityAssignment.from_map(
            {c.edge_set: Parity.EVEN if k == i else Parity.ODD for k, c in enumerate(evens)}
        )
        w = find_witness(g, j, 10**6)
        assert w is not None and w.base_name == "D3" and w.subgraph_edges == g.edge_id_set
        assert len(w.splitting_trace.steps) == 4 and verify_witness(g, j, w)
    # at and just under 14 vertices both scanners find the same witness
    at_limit = theta(5, 5, 5)
    assert at_limit.n_vertices == 14
    w = scan_all_even(at_limit)
    assert w == find_witness(at_limit, ParityAssignment.all_even())
    assert w is not None and w.base_name == "E1"
    assert verify_witness(at_limit, ParityAssignment.all_even(), w)
    under = subdivided(K23_PAIRS, (9, 1, 1, 1, 1, 1))
    assert under.n_vertices == 13
    w = scan_all_odd(under)
    assert w == find_witness(under, ParityAssignment.all_odd())
    assert w is not None and w.base_name == "O1"
    assert verify_witness(under, ParityAssignment.all_odd(), w)


def _random_vertex_splitting(g, rng):
    """One even vertex splitting: replace a vertex of degree >= 4 by two
    vertices joined through a fresh degree-2 vertex, edges distributed."""
    candidates = [v for v in g.vertex_ids if g.degree(v) >= 4]
    if not candidates:
        return None
    v = rng.choice(candidates)
    inc = [e for e in g.incidence[v]]
    rng.shuffle(inc)
    cut = rng.randrange(1, len(inc))
    keep, move = inc[:cut], inc[cut:]
    v2 = max(g.vertex_ids) + 1
    mid = v2 + 1
    m = max(e.id for e in g.edges)
    edges = []
    for e in g.edges:
        if e in move:
            u = e.other(v) if not e.is_loop else v2
            edges.append((e.id, v2, u))
        else:
            edges.append((e.id, e.u, e.v))
    edges += [(m + 1, v, mid), (m + 2, mid, v2)]
    return Multigraph.build(list(g.vertex_ids) + [v2, mid], edges)


def test_vertex_splittings_of_delta_bases_are_caught():
    # degree-4 vertices make these splittings that are not subdivisions
    rng = random.Random(31)
    for name in ("D3", "D4"):
        g = base_graph(name)
        for _ in range(4):
            h = _random_vertex_splitting(g, rng)
            assert h is not None
            evens = even_circuits(h)
            j = ParityAssignment.from_map(
                {c.edge_set: (Parity.EVEN if i == 0 else Parity.ODD) for i, c in enumerate(evens)}
            )
            incompatible = isinstance(decide(h, j), IntractableCertificate)
            w = find_witness(h, j)
            assert (w is not None) == incompatible
            if w is not None:
                assert verify_witness(h, j, w)


def test_witness_subgraph_is_edge_minimal_among_candidates():
    # the first witness comes from the subset enumeration in ascending
    # size, so no strictly smaller subset can carry a witness
    g = Multigraph.from_pairs(
        [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (1, 2)]
    )  # K_{2,3} plus an extra edge
    w = find_witness(g, ParityAssignment.all_odd())
    assert w is not None
    assert len(w.subgraph_edges) == 6


# -- the lazy subset generator against the old sort-then-filter scan ----


def ordered_masks(g, min_size):
    """Every mask of at least min_size edges, sorted as the old scans did."""
    masks = sorted(range(1, 1 << g.n_edges), key=lambda x: (x.bit_count(), x))
    return [x for x in masks if x.bit_count() >= min_size]


def kept(g, mask) -> bool:
    sub = g.subgraph(g.edges[i].id for i in range(g.n_edges) if mask >> i & 1)
    return (
        is_connected(sub)
        and all(sub.degree(v) >= 2 for v in sub.vertex_ids)
        and not any(e.is_loop for e in sub.edges)
    )


def subset_graphs():
    from paritygraph.corpus import connected_multigraphs

    return list(connected_multigraphs(4, 6)) + [wheel(5), wheel(6)]


@pytest.mark.parametrize("min_size", [3, 6])
def test_edge_subsets_match_sorted_filter_oracle(min_size):
    for g in subset_graphs():
        expected = [x for x in ordered_masks(g, min_size) if kept(g, x)]
        got = list(_edge_subsets(g, min_size, 1 << g.n_edges))
        assert [mask for mask, _ in got] == expected
        for mask, subset in got:
            assert subset == frozenset(
                g.edges[i].id for i in range(g.n_edges) if mask >> i & 1
            )


@pytest.mark.parametrize("budget", [1, 40, 250, 900])
def test_edge_subsets_budget_counts_masks_before_filtering(budget):
    g = wheel(5)
    ordered = ordered_masks(g, 3)
    got = []
    with pytest.raises(ResourceLimitError) as info:
        for mask, _ in _edge_subsets(g, 3, budget):
            got.append(mask)
    assert got == [x for x in ordered[:budget] if kept(g, x)]
    size = ordered[budget].bit_count()
    assert f"covered subsets of at most {size} edges" in str(info.value)


def _stream(subsets):
    """The (mask, edge ids) pairs a subset stream yields, and the type and
    text of the error that ends it, or None."""
    got = []
    try:
        for item in subsets:
            got.append(item)
    except ResourceLimitError as e:
        return got, (type(e), str(e))
    return got, None


def walk_oracle_graphs():
    """W5, K33 with a loop and a parallel edge, and three corpus graphs
    with loops and parallel edges, their ids negative, sparse and out of
    the original order."""
    from paritygraph.corpus import connected_multigraphs

    pool = connected_multigraphs(5, 8)
    vertex_ids = [40, -7, 3, -100, 0]
    edge_ids = [1000, -2, 77, 5, -11, 300, 9, -40]
    k33_plus = Multigraph.build(
        k33().vertex_ids, [(e.id, e.u, e.v) for e in k33().edges] + [(10, 2, 2), (11, 1, 4)]
    )
    corpus = [
        relabelled(pool[i], vertex_ids[: pool[i].n_vertices], edge_ids[: pool[i].n_edges])
        for i in (1234, 2100, 2900)
    ]
    return [wheel(5), k33_plus] + corpus


@pytest.mark.parametrize("g", walk_oracle_graphs(), ids=["W5", "K33+", "c1234", "c2100", "c2900"])
def test_edge_subsets_equal_the_gosper_stream_at_every_budget(g):
    # every mask of at least three edges counts, so budgets 1 .. total
    # cover a stop at every mask, loops and cut branches included
    total = sum(math.comb(g.n_edges, s) for s in range(3, g.n_edges + 1))
    for budget in range(1, total + 1):
        expected = _stream(edge_subsets_by_gosper(g, 3, budget))
        assert _stream(_edge_subsets(g, 3, budget)) == expected, budget
    assert expected[1] is None and len(expected[0]) > 0


def test_edge_subsets_equal_the_gosper_stream_on_grid_3x3_at_sampled_budgets():
    g = grid(3, 3)
    total = 2**12 - 1 - 12 - 66  # masks of three or more of its 12 edges
    # every 97th budget, and both sides of the first size changes and the end
    budgets = sorted({1, 2, 219, 220, 221, 714, 715, 716, total - 1, total, total + 1}
                     | set(range(3, total, 97)))
    for min_size in (3, 6):
        for budget in budgets:
            expected = _stream(edge_subsets_by_gosper(g, min_size, budget))
            assert _stream(_edge_subsets(g, min_size, budget)) == expected, (min_size, budget)


def test_edge_subsets_do_no_set_up_when_no_size_can_be_walked(monkeypatch):
    # a triangle with three loops: every mask counts against the budget,
    # but the walk skips loops, so no size of four or more can be walked
    g = Multigraph.build([1, 2, 3], [(1, 1, 2), (2, 2, 3), (3, 1, 3), (4, 1, 1), (5, 2, 2), (6, 3, 3)])

    def no_set_up(_):
        raise AssertionError("the walk was set up")

    monkeypatch.setattr(scanner, "_stars", no_set_up)
    total = sum(math.comb(6, s) for s in range(4, 7))
    assert _stream(_edge_subsets(g, 4, total)) == ([], None)
    for budget in (1, 15, total - 1):
        got = _stream(_edge_subsets(g, 4, budget))
        assert got == _stream(edge_subsets_by_gosper(g, 4, budget))
        assert got[0] == [] and got[1][0] is ResourceLimitError
        assert f"budget of {budget} subsets exhausted" in got[1][1]
    # below the stop size the set-up runs, and only then
    with pytest.raises(AssertionError, match="the walk was set up"):
        list(_edge_subsets(g, 3, 1))


def test_odd_contractions_equal_the_build_then_test_oracle():
    # only contractions that are yielded are built, by mask tests alone
    from paritygraph.corpus import connected_multigraphs

    graphs = list(connected_multigraphs(5, 8)[::4]) + [wheel(n) for n in (5, 6, 7)] + [
        base_graph(n) for n in CATALOG_NAMES
    ]
    pairs = 0
    for g in graphs:
        _, odd = _circuit_masks(g, DEFAULT_CIRCUIT_CAP)
        for mask, subset in _edge_subsets(g, 3, 1 << g.n_edges):
            for min_edges in (3, 6):
                got = list(_odd_contractions(g, subset, mask, odd, min_edges))
                assert got == list(odd_contractions_by_building(g, subset, min_edges))
                pairs += len(got)
    assert pairs > 1000


# (graph, budget, find_witness under either assignment, scan_all_odd,
# scan_all_even): an int is the edge count the budget error reports, a
# set the edges of the E1 witness found
LARGE_SCAN_OUTCOMES = [
    ("W9", 200_000, 11, 11, {1, 2, 3, 4, 10, 12, 14}),
    ("W9", 5000, 5, 6, 5),
    ("W10", 200_000, 8, 8, {1, 2, 3, 4, 11, 13, 15}),
    ("W10", 5000, 4, 6, 4),
    ("grid4x4", 200_000, 7, 7, {1, 2, 3, 4, 6, 8, 10}),
    ("grid4x4", 5000, 4, 6, 4),
]


@pytest.mark.parametrize("name, budget, witness, odd, even", LARGE_SCAN_OUTCOMES)
def test_large_scans_keep_their_outcomes(name, budget, witness, odd, even):
    g = {"W9": wheel(9), "W10": wheel(10), "grid4x4": grid(4, 4)}[name]
    j_odd, j_even = ParityAssignment.all_odd(), ParityAssignment.all_even()
    scans = [
        (lambda: find_witness(g, j_odd, budget), witness),
        (lambda: find_witness(g, j_even, budget), witness),
        (lambda: scan_all_odd(g, budget), odd),
        (lambda: scan_all_even(g, budget), even),
    ]
    for scan, outcome in scans:
        if isinstance(outcome, int):
            message = (
                f"witness scan budget of {budget} subsets exhausted; "
                f"the search covered subsets of at most {outcome} edges"
            )
            with pytest.raises(ResourceLimitError, match=f"^{message}$"):
                scan()
        else:
            w = scan()
            assert w.base_name == "E1" and w.odd_circuit_contracted is None
            assert w.subgraph_edges == outcome
            assert verify_witness(g, j_even, w)


def test_grid_4x4_scans_stop_at_the_budget_in_little_memory():
    # the subsets are generated lazily, so the default budget stops the
    # search long before anything proportional to 2^24 is allocated
    g = grid(4, 4)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            scan_all_odd(g)
        with pytest.raises(ResourceLimitError):
            find_witness(g, ParityAssignment.all_odd())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


# -- the even-circuit skip and the edge excess gate ---------------------


def skip_oracle_graphs():
    from paritygraph.corpus import connected_multigraphs

    named = [wheel(n) for n in range(5, 9)] + [grid(3, 3), k33()]
    return list(connected_multigraphs(5, 8)[::2]) + named + [base_graph(n) for n in CATALOG_NAMES]


def test_skips_change_no_candidate_and_no_scan_result():
    budget, cap = DEFAULT_SCAN_BUDGET, DEFAULT_CIRCUIT_CAP
    odd, even = ParityAssignment.all_odd(), ParityAssignment.all_even()
    for g in skip_oracle_graphs():
        # candidates compare by subset, base, odd circuit, trace and lifts
        assert witness_candidates.__wrapped__(g, budget, cap) == (
            witness_candidates_without_skips(g, budget, cap)
        )
        assert scan_all_odd(g, budget, cap) == (
            subdivision_scan_without_skips(g, ("O1",), odd, budget, cap)
        )
        assert scan_all_even(g, budget, cap) == (
            subdivision_scan_without_skips(g, ("E1", "E3"), even, budget, cap)
        )


def test_every_candidate_holds_its_base_count_of_even_circuits():
    # the skip's premise: the lifted circuits are distinct even circuits
    # of g inside the subset, as many as the base has
    for g in [wheel(n) for n in range(5, 8)] + [grid(3, 3), k33()] + [
        base_graph(n) for n in CATALOG_NAMES
    ]:
        evens = [c.edge_set for c in even_circuits(g)]
        for cand in witness_candidates(g):
            inside = [s for s in evens if s <= cand.subset]
            assert len(inside) >= EVEN_CIRCUIT_COUNT[cand.base_name]
            lifted = {c.edge_set for c in cand.lifted}
            assert len(lifted) == EVEN_CIRCUIT_COUNT[cand.base_name]
            assert lifted <= set(inside)


def test_every_matched_graph_is_loop_free_with_degrees_at_least_two(monkeypatch):
    # no subset holds a loop, and no odd contraction turns a chord into
    # a loop or leaves the contracted vertex one edge, so every graph a
    # scan offers lies in the matcher's domain and none is refused
    offered = []

    def counted(h, bases):
        offered.append(h)
        return splitting_traces(h, bases)

    monkeypatch.setattr(scanner, "splitting_traces", counted)
    for g in skip_oracle_graphs()[::3]:
        witness_candidates.__wrapped__(g)
        scan_all_odd(g)
        scan_all_even(g)
    assert len(offered) > 1000
    for h in offered:
        assert not any(e.is_loop for e in h.edges)
        assert all(h.degree(v) >= 2 for v in h.vertex_ids), [(e.id, e.u, e.v) for e in h.edges]


@pytest.mark.parametrize("g, calls", [(wheel(7), 1316), (wheel(8), 3498)])
def test_cold_wheel_splitting_search_counts_are_pinned(g, calls, monkeypatch):
    # 2270 and 6779 matches with neither skip; 189 and 254 behind the memo
    # of refuted graph keys that the matcher needed while D2-D4 ran a
    # breadth-first search
    made = []

    def counted(h, bases):
        made.append(h)
        return splitting_traces(h, bases)

    monkeypatch.setattr(scanner, "splitting_traces", counted)
    witness_candidates.__wrapped__(g)
    assert len(made) == calls


def test_cold_w8_builds_only_the_odd_contractions_it_yields(monkeypatch):
    # chords and leaving edges are read off masks, so no contraction is
    # built to be thrown away (7376 built for 3448 yielded when each was
    # built first)
    built, yielded, inside = [], [], [False]
    contract_edges = Multigraph.contract_edges
    odd_contractions = scanner._odd_contractions

    def counted_contract(self, edge_ids):
        if inside[0]:
            built.append(edge_ids)
        return contract_edges(self, edge_ids)

    def counted_stream(*args):
        stream = odd_contractions(*args)
        while True:
            inside[0] = True
            try:
                item = next(stream)
            except StopIteration:
                return
            finally:
                inside[0] = False
            yielded.append(item)
            yield item

    monkeypatch.setattr(Multigraph, "contract_edges", counted_contract)
    monkeypatch.setattr(scanner, "_odd_contractions", counted_stream)
    witness_candidates.__wrapped__(wheel(8))
    assert len(built) == len(yielded) == 2800


def test_subset_with_too_few_even_circuits_is_not_contracted(tmp_path, capsys):
    # theta(1, 2, 15) has one even circuit; contracting its triangle leaves
    # a 15-vertex graph.  find_witness once raised CapabilityError there
    # (CLI exit 2), when the splitting search stopped at 14 vertices; the
    # skip never builds that graph, and the scan completes with no witness
    # (CLI exit 1).
    g = theta(1, 2, 15)
    assert g.n_vertices == 17 and len(even_circuits(g)) == 1
    for j in (ParityAssignment.all_odd(), ParityAssignment.all_even()):
        assert find_witness(g, j, 10**6) is None
    assert scan_all_odd(g, 10**6) is None and scan_all_even(g, 10**6) is None
    graph = tmp_path / "theta.graph"
    graph.write_text(emit_graph(g))
    for parity in ("odd", "even"):
        assignment = tmp_path / f"{parity}.j"
        assignment.write_text(f"j-all {parity}\n")
        assert main(["scan", str(graph), str(assignment), "--budget", "1000000"]) == 1
        assert capsys.readouterr() == ("NO-WITNESS\n", "")


# -- grown families whose first witness is each catalog base ------------


def _grown_family(name: str, rng: random.Random, steps: int) -> Multigraph:
    """Base ``name`` after ``steps`` random even splittings or odd
    subdivisions (an edge made a 3-edge path), under shuffled ids.  Both
    keep every circuit's parity, but a splitting that leaves two edges
    on each side of a degree-4 vertex may add circuits, so only
    splittings that keep the base's count of even circuits are taken.
    Those that leave both sides branch vertices, which only a merge
    undoes, go first."""
    g = base_graph(name)
    count = EVEN_CIRCUIT_COUNT[name]
    for _ in range(steps):
        splits = [h for h in even_splittings(g) if len(even_circuits(h)) == count]
        # the fresh degree-2 vertex has the largest id
        merges = [
            h for h in splits
            if all(h.degree(e.other(h.vertex_ids[-1])) >= 3 for e in h.incidence[h.vertex_ids[-1]])
        ]
        if rng.random() < 0.5:
            g = rng.choice(merges or splits)
        else:
            g = subdivide_edge(g, rng.choice(g.edges).id, 3)
    return relabelled(
        g, rng.sample(range(-50, 80), g.n_vertices), rng.sample(range(-50, 80), g.n_edges)
    )


def _rule_assignments(name: str, g: Multigraph) -> tuple[ParityAssignment, ParityAssignment]:
    """(one that triggers the parity rule of base ``name`` on ``g``, one
    that does not): every even circuit odd, or exactly one even."""
    evens = even_circuits(g)
    none_even = ParityAssignment.all_odd()
    one_even = ParityAssignment.from_map(
        {c.edge_set: Parity.EVEN if i == 0 else Parity.ODD for i, c in enumerate(evens)}
    )
    return (none_even, one_even) if PARITY_RULE[name] == Parity.EVEN else (one_even, none_even)


def _with_triangle(g: Multigraph, v: int) -> Multigraph:
    """``g`` with the degree-3 vertex ``v`` blown up into a triangle, one
    of its edges at each corner; contracting the triangle gives ``g``."""
    a = max(g.vertex_ids) + 1
    m = max(e.id for e in g.edges)
    corner = {e.id: c for e, c in zip(g.incidence[v], (v, a, a + 1))}
    edges = [
        (e.id, corner[e.id], e.other(v)) if e.id in corner else (e.id, e.u, e.v) for e in g.edges
    ]
    edges += [(m + 1, v, a), (m + 2, a, a + 1), (m + 3, v, a + 1)]
    return Multigraph.build(list(g.vertex_ids) + [a, a + 1], edges)


@pytest.mark.parametrize("name", WITNESS_BASES)
def test_each_base_is_the_first_witness_of_its_grown_families(name):
    # 0-3 growth steps, and for D1-D4 more, up to 15 or 16 vertices.  Such
    # a D witness spans 18 or 19 edges, and its mask ranks above the
    # default budget among the masks of 3 or more edges, so those scans
    # get 10**6.  An assignment that triggers the base's rule is answered
    # by the whole graph as that base, directly; one that does not has
    # no witness, and decide agrees with both, as does the brute force
    # over orientations up to 10 edges.  In the D2-D4 families some walk
    # ends still need merges to reach the base
    rng = random.Random(f"family {name}")
    base = base_graph(name)
    most = max(3, (16 - base.n_vertices) // 2) if name.startswith("D") else 3
    over_14 = merged = 0
    for steps in range(most + 1):
        g = _grown_family(name, rng, steps)
        assert len(even_circuits(g)) == EVEN_CIRCUIT_COUNT[name]
        budget = DEFAULT_SCAN_BUDGET if g.n_edges <= 17 else 10**6
        triggered, untouched = _rule_assignments(name, g)
        w = find_witness(g, triggered, budget)
        assert w.base_name == name and w.odd_circuit_contracted is None
        assert w.subgraph_edges == g.edge_id_set and len(w.splitting_trace.steps) == steps
        assert verify_witness(g, triggered, w)
        assert isinstance(decide(g, triggered), IntractableCertificate)
        assert find_witness(g, untouched, budget) is None
        assert not isinstance(decide(g, untouched), IntractableCertificate)
        if g.n_vertices <= 14:
            assert w.splitting_trace == splitting_by_bfs(g, [base])[0]
        if g.n_edges <= 10:
            assert not compatible_by_brute_force(g, triggered)
            assert compatible_by_brute_force(g, untouched)
        over_14 += g.n_vertices > 14
        merged += subdivision_trace(g).to_graph.n_edges > base.n_edges
    assert over_14 == (1 if name.startswith("D") else 0)
    assert (merged > 0) == (name in ("D2", "D3", "D4"))
    # a vertex blown up into a triangle: the O1 and E1 families become
    # splittings of O2 and E2, which find_witness matches directly, and
    # the all-odd and all-even scans find O1 and E1 after contracting it
    if name in ("O1", "E1"):
        g = _grown_family(name, rng, 2)
        v = next(v for v in g.vertex_ids if g.degree(v) == 3)
        blown = _with_triangle(g, v)
        assert len(even_circuits(blown)) == 3
        if name == "O1":
            j, scan, direct = ParityAssignment.all_odd(), scan_all_odd, "O2"
        else:
            j, scan, direct = ParityAssignment.all_even(), scan_all_even, "E2"
        w = find_witness(blown, j)
        assert w.base_name == direct and w.odd_circuit_contracted is None
        assert verify_witness(blown, j, w)
        w = scan(blown)
        assert w.base_name == name and len(w.odd_circuit_contracted) == 3
        assert verify_witness(blown, j, w)
