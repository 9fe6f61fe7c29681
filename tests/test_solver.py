import itertools
import random
from dataclasses import replace

import pytest

from paritygraph import (
    IntractableCertificate,
    Multigraph,
    Orientation,
    Parity,
    ParityAssignment,
    build_system,
    clockwise_parity,
    decide,
    even_circuits,
    is_intractable_set,
    verify_orientation,
)
from paritygraph.circuits import Circuit
from paritygraph.errors import InputError
from paritygraph.solver import certificate_is_valid

from conftest import compatible_by_brute_force, k23, k4, square, triangle, triple_edge


def test_build_system_square_all_odd():
    g = square()
    base = Orientation({1: (1, 2), 2: (2, 3), 3: (3, 4), 4: (4, 1)})
    a, rhs, circs, cols = build_system(g, ParityAssignment.all_odd(), base)
    assert a.n_rows == 1 and cols == (1, 2, 3, 4)
    assert a.rows[0] == 0b1111
    assert rhs == (1,)  # the directed cycle is clockwise even


def test_build_system_k23_rhs_parity():
    g = k23()
    rng = random.Random(3)
    for _ in range(5):
        base = Orientation.reference(g).with_flipped(
            [e.id for e in g.edges if rng.random() < 0.5]
        )
        _, rhs, _, _ = build_system(g, ParityAssignment.all_odd(), base)
        assert sum(rhs) % 2 == 1  # clockwise-even count is odd in any orientation


def test_build_system_triangle_empty():
    a, rhs, circs, cols = build_system(
        triangle(), ParityAssignment.all_odd(), Orientation.reference(triangle())
    )
    assert a.n_rows == 0 and circs == () and cols == ()


def test_k23_all_odd_incompatible_with_full_certificate():
    g = k23()
    r = decide(g, ParityAssignment.all_odd())
    assert isinstance(r, IntractableCertificate)
    assert len(r.circuits) == 3
    assert r.observed_even_count_parity == Parity.ODD
    assert r.prescribed_even_count_parity == Parity.EVEN
    assert certificate_is_valid(g, ParityAssignment.all_odd(), r)


def test_certificate_with_a_member_that_is_no_circuit_of_g_is_invalid():
    # each forgery once raised InputError ("edge set [1, 2, 4] is not
    # 2-regular", "unknown edge ids in circuit: [98, 99]"); is_intractable_set
    # itself still raises on them
    g, j = k23(), ParityAssignment.all_odd()
    cert = decide(g, j)
    first, *rest = cert.circuits
    path = Circuit(first.edge_ids[:3], first.sense[:3])
    unknown = Circuit((98, 99), ((first.sense[0][0], 98), (first.sense[1][0], 99)))
    for forged in (path, unknown):
        forged_cert = replace(cert, circuits=(forged, *rest))
        assert certificate_is_valid(g, j, forged_cert) is False
        with pytest.raises(InputError):
            is_intractable_set(g, j, forged_cert.circuits)


def test_triple_edge_all_even_incompatible():
    r = decide(triple_edge(), ParityAssignment.all_even())
    assert isinstance(r, IntractableCertificate)
    assert len(r.circuits) == 3


def test_square_all_odd_compatible():
    g = square()
    r = decide(g, ParityAssignment.all_odd())
    assert isinstance(r, Orientation)
    c = even_circuits(g)[0]
    assert clockwise_parity(r, c) == Parity.ODD


def test_no_even_circuits_vacuously_compatible():
    assert isinstance(decide(triangle(), ParityAssignment.all_odd()), Orientation)


def test_decide_result_always_verifies(small_corpus):
    rng = random.Random(11)
    for g in small_corpus[::9]:
        evens = even_circuits(g)
        js = [ParityAssignment.all_odd(), ParityAssignment.all_even()]
        if evens:
            js.append(
                ParityAssignment.from_map(
                    {c.edge_set: Parity(rng.randrange(2)) for c in evens}
                )
            )
        for j in js:
            r = decide(g, j)
            if isinstance(r, Orientation):
                assert verify_orientation(g, j, r) is None
            else:
                assert certificate_is_valid(g, j, r)


def test_verdict_matches_brute_force(small_corpus):
    rng = random.Random(23)
    for g in small_corpus[::23]:
        evens = even_circuits(g)
        js = [ParityAssignment.all_odd(), ParityAssignment.all_even()]
        if evens:
            js.append(
                ParityAssignment.from_map(
                    {c.edge_set: Parity(rng.randrange(2)) for c in evens}
                )
            )
        for j in js:
            got = isinstance(decide(g, j), Orientation)
            assert got == compatible_by_brute_force(g, j)


def test_verify_orientation_flags_violation():
    g = square()
    cyclic = Orientation({1: (1, 2), 2: (2, 3), 3: (3, 4), 4: (4, 1)})
    bad = verify_orientation(g, ParityAssignment.all_odd(), cyclic)
    assert bad is not None and bad.edge_set == frozenset({1, 2, 3, 4})


def test_explicit_assignment_must_cover():
    g = k23()
    evens = even_circuits(g)
    j = ParityAssignment.from_map({evens[0].edge_set: Parity.ODD})
    with pytest.raises(InputError):
        decide(g, j)
    j2 = ParityAssignment.from_map({evens[0].edge_set: Parity.ODD}, default=Parity.EVEN)
    assert isinstance(decide(g, j2), (Orientation, IntractableCertificate))


def test_is_intractable_set_examples():
    g = k23()
    evens = even_circuits(g)
    assert is_intractable_set(g, ParityAssignment.all_odd(), [c.edge_set for c in evens])
    assert not is_intractable_set(g, ParityAssignment.all_odd(), [evens[0].edge_set])
    assert not is_intractable_set(g, ParityAssignment.all_even(), [c.edge_set for c in evens])


def test_is_intractable_set_delta_fixture():
    from paritygraph.catalog import base_graph

    g = base_graph("D1")
    evens = even_circuits(g)
    # one circuit prescribed clockwise-even: odd count, the intractable case
    j = ParityAssignment.from_map(
        {c.edge_set: (Parity.EVEN if i == 0 else Parity.ODD) for i, c in enumerate(evens)}
    )
    assert is_intractable_set(g, j, [c.edge_set for c in evens])
    # two prescribed even: compatible side of the rule
    j2 = ParityAssignment.from_map(
        {c.edge_set: (Parity.EVEN if i < 2 else Parity.ODD) for i, c in enumerate(evens)}
    )
    assert not is_intractable_set(g, j2, [c.edge_set for c in evens])


def test_is_intractable_rejects_non_circuit():
    g = k4()
    with pytest.raises(InputError):
        is_intractable_set(g, ParityAssignment.all_odd(), [frozenset({1, 2})])


def test_certificates_orientation_independent(small_corpus):
    rng = random.Random(77)
    checked = 0
    for g in small_corpus:
        if checked >= 25:
            break
        r = decide(g, ParityAssignment.all_even())
        if not isinstance(r, IntractableCertificate):
            continue
        checked += 1
        ids = [e.id for e in g.edges]
        for _ in range(10):
            o = Orientation.reference(g).with_flipped(
                [i for i in ids if rng.random() < 0.5]
            )
            observed = sum(
                1 for c in r.circuits if clockwise_parity(o, c) == Parity.EVEN
            ) % 2
            assert Parity(observed) == r.observed_even_count_parity
    assert checked > 3


def test_single_flip_preserves_certificate_parity(small_corpus):
    for g in small_corpus[::31]:
        r = decide(g, ParityAssignment.all_even())
        if not isinstance(r, IntractableCertificate):
            continue
        base = Orientation.reference(g)
        for e in g.edges:
            o = base.with_flipped([e.id])
            observed = sum(
                1 for c in r.circuits if clockwise_parity(o, c) == Parity.EVEN
            ) % 2
            assert Parity(observed) == r.observed_even_count_parity


def test_monotone_under_edge_deletion(small_corpus):
    # a compatible graph stays compatible when an edge is deleted and the
    # assignment is restricted
    rng = random.Random(13)
    for g in small_corpus[::27]:
        evens = even_circuits(g)
        if not evens:
            continue
        j = ParityAssignment.from_map(
            {c.edge_set: Parity(rng.randrange(2)) for c in evens}
        )
        if not isinstance(decide(g, j), Orientation):
            continue
        for e in g.edges:
            keep = g.edge_id_set - {e.id}
            if not keep:
                continue
            h = g.subgraph(keep)
            jh = ParityAssignment.from_map(
                {c.edge_set: j.parity_for(c) for c in even_circuits(h)}
            ) if even_circuits(h) else ParityAssignment.all_odd()
            assert isinstance(decide(h, jh), Orientation)


def test_edges_off_even_circuits_keep_reference_direction():
    # square with a pendant edge
    g = Multigraph.from_pairs([(1, 2), (2, 3), (3, 4), (4, 1), (4, 5)])
    r = decide(g, ParityAssignment.all_odd())
    assert isinstance(r, Orientation)
    assert r.direction[5] == (4, 5)


def min_odd_dependency_by_combinations(a, rhs):
    """The first row set, by (size, sorted rows), summing to zero with
    odd right-hand side."""
    for r in range(1, a.n_rows + 1):
        for rows in itertools.combinations(range(a.n_rows), r):
            acc = par = 0
            for i in rows:
                acc ^= a.rows[i]
                par ^= rhs[i]
            if not acc and par:
                return frozenset(rows)
    return None


def test_exhaustive_certificate_shrink_is_the_combinations_minimum(small_corpus):
    from paritygraph import gf2
    from paritygraph.solver import _minimal_odd_combination

    rng = random.Random(7)
    checked = 0
    for g in small_corpus[::3]:
        evens = even_circuits(g)
        random_j = ParityAssignment.from_map(
            {c.edge_set: rng.choice([Parity.ODD, Parity.EVEN]) for c in evens}
        )
        for j in (ParityAssignment.all_odd(), ParityAssignment.all_even(), random_j):
            a, rhs, _, _ = build_system(g, j, Orientation.reference(g))
            result = gf2.solve(a, rhs)
            if not isinstance(result, gf2.Inconsistency):
                continue
            basis = gf2.left_nullspace_basis(a)
            assert len(basis) <= gf2.EXHAUSTIVE_NULLSPACE_DIM
            shrunk = _minimal_odd_combination(basis, rhs, result.row_combination)
            assert shrunk == min_odd_dependency_by_combinations(a, rhs)
            checked += 1
    assert checked > 50
