import random

import pytest

from paritygraph import (
    Multigraph,
    Orientation,
    Parity,
    circuit_from_edges,
    clockwise_parity,
    enumerate_circuits,
    even_circuits,
    is_even_circuit_connected,
)
from paritygraph.circuits import even_circuit_connectivity_witness
from paritygraph.errors import ContractError, InputError, ResourceLimitError
from paritygraph.gf2 import left_nullspace_basis
from paritygraph.solver import circuit_matrix

from conftest import (
    circuit_by_two_walks,
    circuits_by_brute_force,
    grid,
    k23,
    k4,
    relabelled,
    reversed_circuit,
    square,
    triangle,
    triple_edge,
    two_connected_by_brute_force,
    wheel,
)


def test_enumeration_matches_brute_force(small_corpus):
    for g in small_corpus[::5]:
        expected = circuits_by_brute_force(g)
        got = {c.edge_set for c in enumerate_circuits(g)}
        assert got == expected, [(e.id, e.u, e.v) for e in g.edges]


def test_k23_has_three_even_four_circuits():
    cs = enumerate_circuits(k23())
    assert len(cs) == 3
    assert all(len(c) == 4 for c in cs)


def test_k4_has_seven_circuits():
    cs = enumerate_circuits(k4())
    assert len(cs) == 7
    assert sorted(len(c) for c in cs) == [3, 3, 3, 3, 4, 4, 4]
    assert [len(c) for c in even_circuits(k4())] == [4, 4, 4]


def test_triple_edge_has_three_digons():
    cs = enumerate_circuits(triple_edge())
    assert [sorted(c.edge_ids) for c in cs] == [[1, 2], [1, 3], [2, 3]]


def test_o2_has_three_even_six_circuits():
    from paritygraph.catalog import base_graph

    evens = even_circuits(base_graph("O2"))
    assert [len(c) for c in evens] == [6, 6, 6]


def test_triangle_has_no_even_circuit():
    assert even_circuits(triangle()) == ()


def test_loop_is_a_circuit_of_length_one():
    g = Multigraph.build([1, 2], [(1, 1, 1), (2, 1, 2), (3, 1, 2)])
    cs = enumerate_circuits(g)
    assert frozenset([1]) in {c.edge_set for c in cs}


def test_cap_is_enforced():
    with pytest.raises(ResourceLimitError):
        enumerate_circuits(k4(), cap=3)


def test_sense_is_canonical():
    c = circuit_from_edges(k23(), {1, 2, 4, 5})
    assert c.sense[0][0] == 1  # starts at the smallest vertex
    assert c.sense[0][1] == 1  # takes the smallest edge first


def test_circuit_rejects_non_circuits():
    with pytest.raises(InputError):
        circuit_from_edges(k4(), {1, 2})
    with pytest.raises(InputError):
        circuit_from_edges(k4(), {1, 2, 3, 4, 5, 6})


def test_clockwise_parity_digon():
    g = Multigraph.from_pairs([(1, 2), (1, 2)])
    c = enumerate_circuits(g)[0]
    o = Orientation({1: (1, 2), 2: (1, 2)})
    assert clockwise_parity(o, c) == Parity.ODD


def test_clockwise_parity_directed_square():
    g = square()
    c = enumerate_circuits(g)[0]
    cyclic = Orientation({1: (1, 2), 2: (2, 3), 3: (3, 4), 4: (4, 1)})
    assert clockwise_parity(cyclic, c) == Parity.EVEN
    one_reversed = cyclic.with_flipped([2])
    assert clockwise_parity(one_reversed, c) == Parity.ODD


def test_clockwise_parity_refuses_odd_circuits():
    c = enumerate_circuits(triangle())[0]
    with pytest.raises(ContractError):
        clockwise_parity(Orientation.reference(triangle()), c)


def test_parity_is_sense_independent(small_corpus):
    import random

    rng = random.Random(5)
    for g in small_corpus[::11]:
        evens = even_circuits(g)
        if not evens:
            continue
        ids = [e.id for e in g.edges]
        o = Orientation.reference(g).with_flipped(
            [i for i in ids if rng.random() < 0.5]
        )
        for c in evens[:4]:
            assert clockwise_parity(o, c) == clockwise_parity(o, reversed_circuit(c))


def test_single_edge_flip_toggles_exactly_containing_circuits(small_corpus):
    for g in small_corpus[::13]:
        evens = even_circuits(g)
        if not evens:
            continue
        o = Orientation.reference(g)
        eid = g.edges[0].id
        flipped = o.with_flipped([eid])
        for c in evens:
            changed = clockwise_parity(o, c) != clockwise_parity(flipped, c)
            assert changed == (eid in c.edge_set)


def test_cycle_space_basis_sizes():
    # the enumerated circuits span the cycle space, of dimension m - n + 1
    tree = Multigraph.from_pairs([(1, 2), (2, 3), (3, 4)])
    for g, dim in ((tree, 0), (k23(), 2), (k4(), 3)):
        a = circuit_matrix(enumerate_circuits(g))[0]
        assert a.n_rows - len(left_nullspace_basis(a)) == dim


def test_span_closure_on_k4():
    # every edge subset of K4 that is a single circuit is enumerated
    import itertools

    enumerated = {c.edge_set for c in enumerate_circuits(k4())}
    ids = sorted(k4().edge_id_set)
    for r in range(1, len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            try:
                circuit_from_edges(k4(), combo)
            except InputError:
                continue
            assert frozenset(combo) in enumerated


def test_even_circuit_connected_examples():
    assert is_even_circuit_connected(k23())
    assert not is_even_circuit_connected(triangle())
    two_digons = Multigraph.from_pairs([(1, 2), (1, 2), (2, 3), (2, 3)])
    assert not is_even_circuit_connected(two_digons)
    w = even_circuit_connectivity_witness(two_digons)
    assert w is not None
    side1, side2 = w
    evens = even_circuits(two_digons)
    assert not any((c.edge_set & side1) and (c.edge_set & side2) for c in evens)


def test_ecc_requires_no_isolated_vertices():
    g = Multigraph.build([1, 2, 3], [(1, 1, 2), (2, 1, 2)])
    with pytest.raises(InputError):
        is_even_circuit_connected(g)


def test_ecc_implies_two_connected(small_corpus):
    for g in small_corpus:
        if g.n_edges == 0 or g.has_isolated_vertices():
            continue
        if is_even_circuit_connected(g) and g.n_vertices >= 2:
            assert two_connected_by_brute_force(g)


# -- canonical senses against the two-walk oracle -----------------------


def labellings(g):
    """``g``, a copy with negative ids and one with sparse ids in another order."""
    n, m = g.n_vertices, g.n_edges
    yield g
    yield relabelled(g, [-3 - 2 * i for i in range(n)], [-9 + 4 * i for i in range(m)])
    yield relabelled(
        g, [(-1) ** i * (5 * i + 3) for i in range(n)], [(-1) ** i * (4 * i + 1) for i in range(m)]
    )


def outcome(build, g, ids):
    try:
        c = build(g, ids)
    except InputError as exc:
        return type(exc), str(exc)
    return c.edge_ids, c.sense


def test_circuit_from_edges_matches_two_walk_oracle():
    from paritygraph.corpus import connected_multigraphs

    checked = 0
    for base in connected_multigraphs(4, 6):
        for g in labellings(base):
            ids = [e.id for e in g.edges]
            subsets = [
                [i for k, i in enumerate(ids) if mask >> k & 1] for mask in range(1 << len(ids))
            ]
            subsets.append(ids + [max(ids, default=0) + 1])
            for sub in subsets:
                expected = outcome(circuit_by_two_walks, g, sub)
                assert outcome(circuit_from_edges, g, sub) == expected, (g.edges, sub)
                checked += 1
    assert checked > 30000


def sense_oracle_graphs():
    from paritygraph.corpus import connected_multigraphs

    sample = random.Random(11).sample(connected_multigraphs(5, 8), 400)
    sample += [wheel(n) for n in range(3, 9)]
    sample += [grid(r, c) for r in (1, 2, 3) for c in (2, 3, 4)]
    return [g for base in sample for g in labellings(base)]


def test_enumerated_senses_match_two_walk_oracle():
    for g in sense_oracle_graphs():
        for c in enumerate_circuits(g):
            assert c == circuit_by_two_walks(g, c.edge_ids), (g.edges, c)
