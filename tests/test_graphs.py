import itertools
import random
from collections import Counter

import pytest

from paritygraph import (
    Multigraph,
    enumerate_circuits,
    find_isomorphism,
    is_bipartite,
    isomorphic,
)
from paritygraph.errors import CapabilityError, InputError
from paritygraph.corpus import connected_multigraphs
from paritygraph.graphs import ISO_VERTEX_LIMIT

from conftest import (
    isomorphism_by_backtracking,
    k23,
    k4,
    relabelled,
    triangle,
    triple_edge,
    two_connected_by_brute_force,
)


def test_build_rejects_duplicate_ids():
    with pytest.raises(InputError):
        Multigraph.build([1, 2], [(1, 1, 2), (1, 1, 2)])


def test_build_rejects_unknown_endpoint():
    with pytest.raises(InputError):
        Multigraph.build([1, 2], [(1, 1, 3)])


def test_subgraph_spans_exactly_kept_edges():
    g = k23()
    circuit = {1, 2, 4, 5}  # 1-3-2-4-1
    sub = g.subgraph(circuit)
    assert sub.edge_id_set == frozenset(circuit)
    assert sub.vertex_ids == (1, 2, 3, 4)


def test_subgraph_identity_drops_isolated():
    g = Multigraph.build([1, 2, 3], [(1, 1, 2)])
    sub = g.subgraph({1})
    assert sub.vertex_ids == (1, 2)


def test_subgraph_k4_cycle():
    g = k4()
    # edges of k4(): 1:12 2:13 3:14 4:23 5:24 6:34; the 4-cycle 1-2-3-4-1
    sub = g.subgraph({1, 4, 6, 3})
    assert sub.n_vertices == 4 and sub.n_edges == 4
    assert all(sub.degree(v) == 2 for v in sub.vertex_ids)


def test_subgraph_unknown_edge():
    with pytest.raises(InputError):
        k4().subgraph({99})


def test_contract_triangle_in_k4_gives_triple_edge():
    g = k4()
    h, image = g.contract_edges({1, 2, 4})  # triangle 1-2-3
    assert isomorphic(h, triple_edge())
    assert not any(e.is_loop for e in h.edges)
    assert h.edge_id_set == g.edge_id_set - {1, 2, 4} == {3, 5, 6}
    assert image == {1: 1, 2: 1, 3: 1, 4: 4}


def test_contract_empty_is_identity():
    g = k23()
    h, image = g.contract_edges(set())
    assert h == g
    assert image == {v: v for v in g.vertex_ids}


def test_contract_keeps_new_loops():
    g = triangle()
    h, _ = g.contract_edges({1})  # edge 1-2
    loops = [e for e in h.edges if e.is_loop]
    assert not loops
    h2, _ = g.contract_edges({1, 2})
    assert sum(1 for e in h2.edges if e.is_loop) == 1


def test_contract_bookkeeping_is_bijection(small_corpus):
    for g in small_corpus[::17]:
        ids = sorted(g.edge_id_set)
        for r in (1, 2):
            for combo in itertools.combinations(ids, r):
                h, image = g.contract_edges(combo)
                # surviving edges keep their ids and join the images of their ends
                assert h.edge_id_set == g.edge_id_set - set(combo)
                assert h.n_edges == g.n_edges - len(combo)
                for e in h.edges:
                    old = g.by_id[e.id]
                    assert {e.u, e.v} == {image[old.u], image[old.v]}
                assert all(image[g.by_id[eid].u] == image[g.by_id[eid].v] for eid in combo)
                assert set(image) == set(g.vertex_ids)
                assert h.vertex_ids == tuple(sorted(set(image.values())))


def test_bipartite_examples():
    assert is_bipartite(k23()) is True
    assert is_bipartite(k4()) is False
    assert is_bipartite(triple_edge()) is True
    assert is_bipartite(triangle()) is False
    # every component is colored: an odd circuit in a later one counts
    square = [(1, 2), (2, 3), (3, 4), (4, 1)]
    assert is_bipartite(Multigraph.from_pairs(square + [(5, 6), (6, 7), (7, 5)])) is False
    assert is_bipartite(Multigraph.from_pairs(square + [(5, 6), (6, 7), (7, 8), (8, 5)])) is True


def test_loop_breaks_bipartiteness():
    assert is_bipartite(Multigraph.build([1], [(1, 1, 1)])) is False
    # a loop at the last vertex reached, on an otherwise bipartite graph
    square = [(1, 1, 2), (2, 2, 3), (3, 3, 4), (4, 4, 1)]
    assert is_bipartite(Multigraph.build([1, 2, 3, 4], square + [(5, 3, 3)])) is False
    assert is_bipartite(Multigraph.build([1, 2, 3, 4], square)) is True


def test_bipartite_iff_every_circuit_is_even():
    # the oracle: a multigraph is 2-colorable iff it has no odd circuit
    # (a loop is an odd circuit of length 1)
    for g in connected_multigraphs(4, 6):
        assert is_bipartite(g) == all(c.is_even for c in enumerate_circuits(g))


def test_two_connected_examples():
    # the oracle behind test_ecc_implies_two_connected
    assert two_connected_by_brute_force(k23())
    bowtie = Multigraph.from_pairs([(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])
    assert not two_connected_by_brute_force(bowtie)
    path = Multigraph.from_pairs([(1, 2), (2, 3), (3, 4)])
    assert not two_connected_by_brute_force(path)
    digon = Multigraph.from_pairs([(1, 2), (1, 2)])
    assert two_connected_by_brute_force(digon)


def test_isomorphic_relabeled_k23():
    g = Multigraph.from_pairs([(7, 1), (7, 2), (7, 3), (9, 1), (9, 2), (9, 3)])
    assert isomorphic(k23(), g)
    m = find_isomorphism(k23(), g)
    assert m is not None and len(m) == 5


def test_isomorphic_rejects_different_multiplicities():
    path = Multigraph.from_pairs([(1, 2), (2, 3), (3, 4)])
    assert not isomorphic(triple_edge(), path)


def test_isomorphic_o2_vs_e3():
    from paritygraph.catalog import base_graph

    assert not isomorphic(base_graph("O2"), base_graph("E3"))


def test_isomorphic_is_equivalence_relation(small_corpus):
    sample = small_corpus[40:52]
    for g in sample:
        assert isomorphic(g, g)
    for g1, g2 in itertools.combinations(sample, 2):
        assert isomorphic(g1, g2) == isomorphic(g2, g1)


def test_isomorphism_compares_sizes_before_the_limit():
    path13 = Multigraph.from_pairs([(i, i + 1) for i in range(1, 13)])
    assert path13.n_vertices == ISO_VERTEX_LIMIT + 1
    assert find_isomorphism(path13, k23()) is None
    assert find_isomorphism(k23(), path13) is None


def test_isomorphism_size_guard():
    big = Multigraph.from_pairs([(i, i + 1) for i in range(1, 14)])
    with pytest.raises(CapabilityError):
        isomorphic(big, big)


def _multiplicities(g: Multigraph, mapping=None) -> Counter:
    """Edge count per unordered vertex pair, loops included, after
    renaming the vertices by ``mapping``."""
    out: Counter = Counter()
    for e in g.edges:
        u, v = (mapping[e.u], mapping[e.v]) if mapping else (e.u, e.v)
        out[min(u, v), max(u, v)] += 1
    return out


def test_find_isomorphism_matches_the_backtracking_oracle():
    # every pair within each (n, m) class, each graph also under seeded
    # negative and sparse vertex and edge ids
    rng = random.Random(15)
    classes: dict[tuple[int, int], list[Multigraph]] = {}
    for g in connected_multigraphs(4, 6):
        copy = relabelled(g, rng.sample(range(-40, 40, 3), g.n_vertices),
                          rng.sample(range(-90, 90, 7), g.n_edges))
        classes.setdefault((g.n_vertices, g.n_edges), []).extend([g, copy])
    pairs = matched = 0
    for members in classes.values():
        for g1, g2 in itertools.combinations_with_replacement(members, 2):
            m = find_isomorphism(g1, g2)
            assert (m is None) == (isomorphism_by_backtracking(g1, g2) is None)
            assert isomorphic(g1, g2) == (m is not None)
            pairs += 1
            if m is not None:
                assert sorted(m) == list(g1.vertex_ids)
                assert sorted(m.values()) == list(g2.vertex_ids)
                assert _multiplicities(g1, m) == _multiplicities(g2)
                matched += 1
    assert (pairs, matched) == (31909, 849)  # 283 graphs, 3 pairs each
