import hashlib
import itertools

import pytest

from paritygraph import Multigraph, Orientation, Parity, clockwise_parity
from paritygraph.errors import ContractError, InputError
from paritygraph.fileio import emit_certificate_block
from paritygraph.pfaffian import (
    alternating_circuits,
    enumerate_perfect_matchings,
    find_pfaffian_orientation,
    kasteleyn_count,
    skew_adjacency,
    verify_pfaffian,
)
from paritygraph.solver import IntractableCertificate

from conftest import (
    alternating_circuits_by_pairs,
    cube,
    grid,
    heawood,
    k33,
    relabelled,
    square,
    triangle,
)


def test_matchings_square():
    assert len(enumerate_perfect_matchings(square())) == 2


def test_matchings_grid_2x3():
    assert len(enumerate_perfect_matchings(grid(2, 3))) == 3


def test_matchings_odd_vertex_count():
    assert enumerate_perfect_matchings(triangle()) == ()


@pytest.mark.parametrize("cap", [0, -3])
def test_matchings_reject_a_cap_below_one(cap):
    for g in (square(), triangle()):
        with pytest.raises(InputError, match="circuit cap must be positive"):
            enumerate_perfect_matchings(g, cap)


def test_matchings_ignore_loops():
    g = Multigraph.build([1, 2], [(1, 1, 1), (2, 1, 2)])
    assert enumerate_perfect_matchings(g) == (frozenset({2}),)


def test_alternating_circuits_square():
    alts = alternating_circuits(square())
    assert len(alts) == 1 and alts[0].edge_set == frozenset({1, 2, 3, 4})


def test_alternating_circuits_grid():
    # pairs of matchings whose difference is one circuit; the 2x3 grid's
    # three matchings pairwise differ in its two 4-faces and the 6-ring
    alts = alternating_circuits(grid(2, 3))
    assert sorted(len(c) for c in alts) == [4, 4, 6]


def test_alternating_circuits_single_matching():
    g = Multigraph.from_pairs([(1, 2)])
    assert alternating_circuits(g) == ()


def test_alternating_circuits_are_even(small_corpus):
    for g in small_corpus[::21]:
        for c in alternating_circuits(g):
            assert c.is_even


def test_pfaffian_orientation_on_grids():
    for g in (square(), grid(2, 3), grid(2, 4), grid(3, 4)):
        o = find_pfaffian_orientation(g)
        assert isinstance(o, Orientation)
        assert verify_pfaffian(g, o)


def test_kasteleyn_counts_match_enumeration():
    for g, expected in ((square(), 2), (grid(2, 3), 3), (grid(4, 4), 36)):
        o = find_pfaffian_orientation(g)
        assert isinstance(o, Orientation)
        assert kasteleyn_count(g, o) == expected
        assert len(enumerate_perfect_matchings(g)) == expected


def test_k33_not_pfaffian():
    r = find_pfaffian_orientation(k33())
    assert isinstance(r, IntractableCertificate)
    sym = frozenset()
    for c in r.circuits:
        sym = sym ^ c.edge_set
    assert not sym
    assert r.observed_even_count_parity != r.prescribed_even_count_parity


def test_k33_brute_force_confirms():
    g = k33()
    alts = alternating_circuits(g)
    ids = [e.id for e in g.edges]
    base = Orientation.reference(g)
    for flips in itertools.product([0, 1], repeat=len(ids)):
        o = base.with_flipped([i for i, f in zip(ids, flips) if f])
        if all(clockwise_parity(o, c) == Parity.ODD for c in alts):
            pytest.fail("an orientation made every alternating circuit odd")


def test_parallel_edges_count_correctly():
    digon = Multigraph.from_pairs([(1, 2), (1, 2)])
    o = find_pfaffian_orientation(digon)
    assert isinstance(o, Orientation)
    assert kasteleyn_count(digon, o) == 2 == len(enumerate_perfect_matchings(digon))
    four = Multigraph.from_pairs([(1, 2), (1, 2), (3, 4)])
    o = find_pfaffian_orientation(four)
    assert kasteleyn_count(four, o) == 2 == len(enumerate_perfect_matchings(four))


def test_skew_adjacency_antisymmetric():
    g = grid(2, 3)
    o = Orientation.reference(g)
    m = skew_adjacency(g, o)
    n = len(m)
    for i in range(n):
        assert m[i][i] == 0
        for j in range(n):
            assert m[i][j] == -m[j][i]


def test_kasteleyn_rejects_bad_orientation():
    # the cyclically oriented square makes its alternating circuit even:
    # determinant 0 with 2 matchings would be caught by the oracle; a
    # negative or non-square determinant raises
    g = grid(2, 4)
    o = find_pfaffian_orientation(g)
    assert isinstance(o, Orientation)
    # flip one edge of a 4-face: some alternating circuit goes even
    bad = o.with_flipped([1])
    assert not verify_pfaffian(g, bad)
    try:
        got = kasteleyn_count(g, bad)
    except ContractError:
        return
    assert got != len(enumerate_perfect_matchings(g))


def test_counts_match_enumeration_on_corpus(small_corpus):
    for g in small_corpus[::8]:
        if any(e.is_loop for e in g.edges):
            continue
        o = find_pfaffian_orientation(g)
        if isinstance(o, Orientation):
            assert kasteleyn_count(g, o) == len(enumerate_perfect_matchings(g))


@pytest.mark.parametrize(
    "g, block",
    [
        (k33(), "s 3\nsc 4 1 2 4 5\nsc 4 1 2 7 8\nsc 4 4 5 7 8\n"),
        (cube(4), "s 3\nsc 4 8 9 11 18\nsc 6 1 2 6 8 11 16\nsc 6 1 2 6 9 16 18\n"),
    ],
    ids=["k33", "cube4"],
)
def test_not_pfaffian_certificate_blocks_are_pinned(g, block):
    r = find_pfaffian_orientation(g)
    assert isinstance(r, IntractableCertificate)
    assert emit_certificate_block(r) == block
    assert all(c in alternating_circuits(g) for c in r.circuits)


# -- alternating circuits against the frozenset pair loop ----------------


def k33_with(extra) -> Multigraph:
    return Multigraph.from_pairs([(a, b) for a in (1, 2, 3) for b in (4, 5, 6)] + extra)


def alternating_oracle_graphs():
    from paritygraph.corpus import connected_multigraphs

    graphs = [g for g in connected_multigraphs(4, 7) if g.n_vertices % 2 == 0]
    graphs += [grid(r, c) for r in (2, 3, 4) for c in (3, 4, 5)]
    graphs += [cube(3), heawood()]
    graphs += [k33_with(extra) for extra in ([(1, 4)], [(1, 4), (1, 4), (2, 5)], [(3, 6), (3, 3)])]
    graphs.append(relabelled(cube(3), [(-1) ** i * (3 * i + 2) for i in range(8)], range(-20, 40, 5)))
    return graphs


def test_alternating_circuits_match_pair_oracle():
    graphs = alternating_oracle_graphs()
    assert sum(1 for g in graphs if alternating_circuits(g)) > 100
    for g in graphs:
        assert alternating_circuits(g) == alternating_circuits_by_pairs(g), g.edges


def test_grid_4x6_alternating_circuits_are_pinned():
    # counts and digest captured from the frozenset pair loop
    g = grid(4, 6)
    alts = alternating_circuits(g)
    text = "".join(f"{c.edge_ids} {c.sense}\n" for c in alts)
    assert len(enumerate_perfect_matchings(g)) == 281
    assert len(alts) == 1820
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8798fd1ceb185b57b08bfba16a73e6579534d397caaa0ac236bf1af763306949"
    )
