import pytest

from paritygraph import Multigraph, circuit_from_edges, even_circuits
from paritygraph.arcdecomp import (
    Adjunction,
    ArcDecomposition,
    circuit_arcs,
    decompose,
    find_adjunction,
    validate,
)
from paritygraph.catalog import catalog
from paritygraph.circuits import is_even_circuit_connected
from paritygraph.corpus import connected_multigraphs
from paritygraph.errors import CapabilityError, ContractError, InputError, ResourceLimitError
from paritygraph.graphs import is_bipartite

from conftest import (
    adjunction_by_one_pass,
    arcs_by_two_branches,
    cube,
    decompose_by_inline_search,
    grid,
    k23,
    k33,
    k4,
    square,
    triangle,
    triple_edge,
    wheel,
)


def test_circuit_arcs_k23():
    g = k23()
    h = frozenset({1, 2, 4, 5})  # 4-circuit 1-3-2-4-1
    other = next(c for c in even_circuits(g) if c.edge_set == frozenset({1, 3, 4, 6}))
    arcs = circuit_arcs(g, other, h)
    assert len(arcs) == 1
    assert set(arcs[0].edge_ids) == {3, 6}


def test_circuit_arcs_rejects_unknown_stage_edges():
    g = k23()
    c = even_circuits(g)[0]
    with pytest.raises(InputError, match=r"unknown edge ids in stage: \[99\]"):
        circuit_arcs(g, c, frozenset({99}))
    with pytest.raises(InputError, match=r"unknown edge ids in stage: \[0, 99\]"):
        circuit_arcs(g, c, frozenset({1, 0, 99}))


def test_find_adjunction_k23_single_arc():
    g = k23()
    h = frozenset({1, 2, 4, 5})
    c, arcs = find_adjunction(g, h)
    assert len(arcs) == 1
    assert set(a for arc in arcs for a in arc.edge_ids) == c.edge_set - h


def test_find_adjunction_k4_two_arcs():
    g = k4()
    h = next(c for c in even_circuits(g)).edge_set
    c, arcs = find_adjunction(g, h)
    assert len(arcs) == 2
    assert all(len(a.edge_ids) == 1 for a in arcs)  # the two diagonals


def test_find_adjunction_triple_edge():
    g = triple_edge()
    h = frozenset({1, 2})
    c, arcs = find_adjunction(g, h)
    assert len(arcs) == 1 and len(arcs[0].edge_ids) == 1


def test_find_adjunction_rejects_bad_stage():
    with pytest.raises(ContractError):
        find_adjunction(k4(), k4().edge_id_set)


def test_decompose_k23():
    g = k23()
    d = decompose(g)
    assert len(d.stages) == 2
    assert [len(a.arcs) for a in d.adjunctions] == [1]
    assert validate(g, d) is None


def test_decompose_k4_two_arc_first():
    g = k4()
    d = decompose(g)
    assert [len(a.arcs) for a in d.adjunctions] == [2]
    assert validate(g, d) is None


def test_decompose_single_even_circuit():
    g = square()
    d = decompose(g)
    assert len(d.stages) == 1 and not d.adjunctions
    assert validate(g, d) is None


def test_decompose_rejects_non_ecc():
    with pytest.raises(InputError):
        decompose(triangle())
    with pytest.raises(InputError) as exc:
        decompose(Multigraph.from_pairs([(1, 2), (1, 2), (2, 3), (2, 3)]))
    assert "bipartition" in str(exc.value)


def test_stage_bookkeeping_identity(small_corpus):
    for g in small_corpus[::5]:
        if g.n_edges == 0 or g.has_isolated_vertices():
            continue
        if not is_even_circuit_connected(g):
            continue
        d = decompose(g)
        total = len(d.stages[0])
        for adj in d.adjunctions:
            total += sum(len(a.edge_ids) for a in adj.arcs)
        assert total == g.n_edges


def test_validate_rejects_odd_start():
    g = k4()
    d = decompose(g)
    tri = next(c for c in __import__("paritygraph").enumerate_circuits(g) if len(c) == 3)
    bad = ArcDecomposition((tri.edge_set,) + d.stages[1:], d.adjunctions)
    assert validate(g, bad) is not None


def test_validate_rejects_late_two_arc():
    # build a fake decomposition of K4 with the 2-arc adjunction at stage 2
    g = k4()
    d = decompose(g)
    c0 = d.stages[0]
    adj = d.adjunctions[0]
    fake = ArcDecomposition(
        (c0, c0, g.edge_id_set),
        (Adjunction(circuit_from_edges(g, c0), ()), adj),
    )
    assert validate(g, fake) is not None


def test_bipartite_uses_single_arcs_only(small_corpus):
    for g in small_corpus[::4]:
        if g.n_edges == 0 or g.has_isolated_vertices():
            continue
        if not is_even_circuit_connected(g):
            continue
        d = decompose(g)
        bip = is_bipartite(g)
        two_arcs = [i for i, a in enumerate(d.adjunctions, 1) if len(a.arcs) == 2]
        if bip:
            assert not two_arcs
        else:
            assert two_arcs == [1]


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except (InputError, ContractError, CapabilityError, ResourceLimitError) as exc:
        return type(exc), str(exc)


def _edge_ids(arcs):
    return tuple(a.edge_ids for a in arcs)


def test_one_adjunction_walk_matches_the_two_branch_oracle():
    """decompose, find_adjunction and circuit_arcs give the stages,
    circuits, arc edge ids and error texts of the two-branch arc walk and
    one-pass adjunction search kept in conftest as the oracle, on the
    5-vertex corpus, W4-W10, grids 2x2-4x5, K33, cube3 and the catalog
    fixtures.  Every stage that is one even circuit is
    offered to find_adjunction and, paired with every even circuit, to
    circuit_arcs.  Grid 4x5's 1049 even circuits would make 1.1 million
    circuit_arcs pairs, so there only every 50th stage is paired."""
    named = [wheel(n) for n in range(4, 11)]
    named += [grid(r, c) for r in range(2, 5) for c in range(r, 6)]
    named += [k33(), cube(3), *catalog().values()]
    decomposed = 0
    for g in [*connected_multigraphs(5, 8), *named]:
        got = _outcome(decompose, g)
        if got[0] == "ok":
            d = got[1]
            got = "ok", (d.stages, tuple((a.circuit, _edge_ids(a.arcs)) for a in d.adjunctions))
            decomposed += 1
        assert got == _outcome(decompose_by_inline_search, g)
        evens = even_circuits(g)
        for i, s in enumerate(evens):
            got = _outcome(find_adjunction, g, s.edge_set)
            if got[0] == "ok":
                got = "ok", (got[1][0], _edge_ids(got[1][1]))
            assert got == _outcome(adjunction_by_one_pass, g, s.edge_set, evens)
            if len(evens) > 300 and i % 50:
                continue
            for c in evens:
                got = _outcome(circuit_arcs, g, c, s.edge_set)
                if got[0] == "ok":
                    got = "ok", _edge_ids(got[1])
                assert got == _outcome(arcs_by_two_branches, g, c, s.edge_set)
    # 42 corpus graphs are even-circuit-connected (12 of them need a 2-arc
    # start); the rest of the corpus is refused with the oracle's texts
    assert decomposed == 42 + len(named)
