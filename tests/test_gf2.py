import itertools

import pytest
from hypothesis import given, settings, strategies as st

from paritygraph.errors import InputError
from paritygraph.gf2 import (
    Gf2Matrix,
    Inconsistency,
    bits_to_indices,
    combination_walk,
    indices_to_bits,
    left_nullspace_basis,
    solve,
)

from conftest import gf2_matrix


def M(rows, width):
    return gf2_matrix(rows, width)


def test_solve_identity():
    a = M([[1, 0], [0, 1]], 2)
    assert solve(a, (1, 0)) == (1, 0)


def test_solve_equal_rows_conflict():
    a = M([[1, 1], [1, 1]], 2)
    r = solve(a, (0, 1))
    assert isinstance(r, Inconsistency)
    assert r.row_combination == frozenset({0, 1})


def test_solve_three_row_conflict():
    a = M([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 3)
    r = solve(a, (1, 1, 1))
    assert isinstance(r, Inconsistency)
    assert r.row_combination == frozenset({0, 1, 2})


def test_solve_dimension_mismatch():
    with pytest.raises(InputError):
        solve(M([[1]], 1), (1, 0))


def rows_minus_nullity(a: Gf2Matrix) -> int:
    """The rank, counted the one way the package can: rows minus nullity."""
    return a.n_rows - len(left_nullspace_basis(a))


def test_rank_examples():
    assert rows_minus_nullity(M([[0, 0], [0, 0]], 2)) == 0
    assert rows_minus_nullity(M([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)) == 3


def test_rank_k23_circuit_rows():
    # the three even circuits of K_{2,3}: each edge on exactly two of them
    rows = [[1, 1, 0, 1, 1, 0], [1, 0, 1, 1, 0, 1], [0, 1, 1, 0, 1, 1]]
    assert rows_minus_nullity(M(rows, 6)) == 2


def test_nullspace_independent_rows():
    assert left_nullspace_basis(M([[1, 0], [0, 1]], 2)) == []


def test_nullspace_k23():
    rows = [[1, 1, 0, 1, 1, 0], [1, 0, 1, 1, 0, 1], [0, 1, 1, 0, 1, 1]]
    assert left_nullspace_basis(M(rows, 6)) == [frozenset({0, 1, 2})]


def test_nullspace_delta_fixture():
    from paritygraph.catalog import base_graph
    from paritygraph.circuits import even_circuits

    g = base_graph("D1")
    evens = even_circuits(g)
    cols = sorted({e for c in evens for e in c.edge_ids})
    idx = {e: i for i, e in enumerate(cols)}
    masks = []
    for c in evens:
        b = 0
        for e in c.edge_ids:
            b |= 1 << idx[e]
        masks.append(b)
    a = Gf2Matrix.from_bitmasks(masks, len(cols))
    assert left_nullspace_basis(a) == [frozenset({0, 1, 2, 3})]


bit_rows = st.integers(min_value=1, max_value=6).flatmap(
    lambda w: st.tuples(
        st.just(w),
        st.lists(
            st.lists(st.integers(0, 1), min_size=w, max_size=w), min_size=1, max_size=8
        ),
    )
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(bit_rows, st.data())
def test_solve_satisfies_or_certifies(wr, data):
    w, rows = wr
    b = data.draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    a = M(rows, w)
    r = solve(a, tuple(b))
    if isinstance(r, Inconsistency):
        acc = 0
        tot = 0
        for i in r.row_combination:
            acc ^= a.rows[i]
            tot ^= b[i]
        assert acc == 0 and tot == 1
    else:
        for i, row in enumerate(a.rows):
            assert (int(row & sum(1 << k for k, x in enumerate(r) if x)).bit_count() % 2) == b[i]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(bit_rows, st.data())
def test_inconsistency_carries_the_left_nullspace_basis(wr, data):
    w, rows = wr
    b = data.draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    a = M(rows, w)
    result = solve(a, tuple(b))
    if isinstance(result, Inconsistency):
        assert result.nullspace == left_nullspace_basis(a)
    else:
        assert isinstance(result, tuple) and len(result) == w


@settings(max_examples=80, deadline=None, derandomize=True)
@given(bit_rows)
def test_rank_nullity(wr):
    # the row subsets summing to zero form the left nullspace, of size
    # 2^nullity: count them by brute force, empty subset included
    w, rows = wr
    a = M(rows, w)
    zero_sums = 0
    for chosen in itertools.product((0, 1), repeat=a.n_rows):
        acc = 0
        for bit, row in zip(chosen, a.rows):
            if bit:
                acc ^= row
        zero_sums += acc == 0
    assert 2 ** len(left_nullspace_basis(a)) == zero_sums


@settings(max_examples=40, deadline=None, derandomize=True)
@given(bit_rows, st.data())
def test_elimination_deterministic(wr, data):
    w, rows = wr
    b = data.draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    a = M(rows, w)
    assert solve(a, tuple(b)) == solve(a, tuple(b))
    assert left_nullspace_basis(a) == left_nullspace_basis(a)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=1 << 70))
def test_bits_and_indices_round_trip(bits):
    indices = bits_to_indices(bits)
    assert indices == [i for i in range(bits.bit_length()) if (bits >> i) & 1]
    assert indices_to_bits(indices) == bits


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=255), max_size=6))
def test_combination_walk_visits_every_nonempty_combination_once(basis):
    expected = []
    for r in range(1, len(basis) + 1):
        for members in itertools.combinations(basis, r):
            acc = 0
            for b in members:
                acc ^= b
            expected.append(acc)
    walked = list(combination_walk(basis))
    assert sorted(walked) == sorted(expected)
    # consecutive steps differ by exactly one basis member
    previous = 0
    for bits in walked:
        assert previous ^ bits in basis
        previous = bits
