"""Corpus generator: canonical keys against a brute-force oracle, the pinned
exhaustive corpus, seeded random graphs and hash-seed determinism."""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import paritygraph
from paritygraph import Multigraph
from paritygraph.errors import InputError
from paritygraph.corpus import connected_multigraphs, random_connected_multigraph
from paritygraph.graphs import canonical_key

from conftest import is_connected

# SHA-256 of `_corpus_text(connected_multigraphs(5, 8))` and of
# `_corpus_text` over the seeded random graphs below, as generated by the
# permutation-loop key that `canonical_key_by_brute_force` keeps
CORPUS_5_8_SHA256 = "12d13e9680af74f1e918ed539cd6adc3022c1696be3a95cc8438285b2826c2c8"
RANDOM_SHA256 = "e060f7ce9ff0f4041578cead82038c41b9025436b3d6b0eed49c53f2ac882edd"


def canonical_key_by_brute_force(g: Multigraph):
    """Try every relabelling of the vertices to 0..n-1."""
    n = g.n_vertices
    index = {v: i for i, v in enumerate(g.vertex_ids)}
    pairs = [(index[e.u], index[e.v]) for e in g.edges]
    best = None
    for p in itertools.permutations(range(n)):
        key = tuple(sorted((min(p[a], p[b]), max(p[a], p[b])) for a, b in pairs))
        if best is None or key < best:
            best = key
    return (n, best or ())


def _corpus_text(graphs) -> str:
    return "\n".join(repr((g.vertex_ids, [(e.id, e.u, e.v) for e in g.edges])) for g in graphs)


def _relabelled(g: Multigraph, rng: random.Random) -> Multigraph:
    """The same graph under fresh vertex ids, a shuffled edge order and
    random endpoint order."""
    new_ids = rng.sample(range(1, 10 * g.n_vertices + 1), g.n_vertices)
    relabel = dict(zip(g.vertex_ids, new_ids))
    edges = [(relabel[e.u], relabel[e.v]) for e in g.edges]
    rng.shuffle(edges)
    return Multigraph.build(
        new_ids,
        [(i + 1, *(pair if rng.random() < 0.5 else pair[::-1])) for i, pair in enumerate(edges)],
    )


def _symmetric_cases() -> dict[str, Multigraph]:
    k5 = Multigraph.from_pairs(itertools.combinations(range(1, 6), 2))
    c5 = Multigraph.from_pairs([(i, i % 5 + 1) for i in range(1, 6)])
    star = Multigraph.from_pairs([(1, v) for v in range(2, 6)] + [(v, v) for v in range(2, 6)])
    triple_path = Multigraph.from_pairs([(i, i + 1) for i in range(1, 5) for _ in range(3)])
    return {"k5": k5, "c5": c5, "k14_loops": star, "triple_path": triple_path}


def test_canonical_key_matches_brute_force_on_relabelled_corpus():
    rng = random.Random(11)
    for g in connected_multigraphs(4, 6):
        expected = canonical_key_by_brute_force(g)
        assert canonical_key(g) == expected
        for _ in range(3):
            assert canonical_key(_relabelled(g, rng)) == expected


def test_canonical_key_matches_brute_force_on_random_multigraphs():
    # arbitrary multisets of pairs: loops, parallel edges, isolated vertices
    rng = random.Random(5)
    for _ in range(1500):
        n = rng.randint(0, 6)
        pairs = [tuple(rng.choices(range(1, n + 1), k=2)) for _ in range(rng.randint(0, 10) if n else 0)]
        g = Multigraph.from_pairs(pairs, vertices=range(1, n + 1))
        expected = canonical_key_by_brute_force(g)
        assert canonical_key(g) == expected
        assert canonical_key(_relabelled(g, rng)) == expected


@pytest.mark.parametrize("name", sorted(_symmetric_cases()))
def test_canonical_key_on_symmetric_graphs(name):
    g = _symmetric_cases()[name]
    expected = canonical_key_by_brute_force(g)
    assert canonical_key(g) == expected
    rng = random.Random(name)
    for _ in range(5):
        assert canonical_key(_relabelled(g, rng)) == expected


def test_connected_multigraphs_5_8_is_pinned():
    graphs = connected_multigraphs(5, 8)
    assert len(graphs) == 3300
    assert hashlib.sha256(_corpus_text(graphs).encode()).hexdigest() == CORPUS_5_8_SHA256
    assert connected_multigraphs(5, 8) is graphs


def test_random_connected_multigraph_draws_are_pinned():
    rng = random.Random(2026)
    sizes = [(1, 0, False), (1, 2, True), (2, 1, False), (2, 4, True),
             (3, 5, False), (5, 8, True), (6, 6, False), (6, 11, True)]
    graphs = [random_connected_multigraph(rng, n, m, loops=loops) for n, m, loops in sizes * 5]
    for g in graphs:
        assert is_connected(g)
    assert hashlib.sha256(_corpus_text(graphs).encode()).hexdigest() == RANDOM_SHA256


@pytest.mark.parametrize(
    "n_vertices, n_edges, loops",
    [(1, 1, False), (1, 4, False), (0, 1, True), (0, 3, False), (4, 2, True), (5, 0, False)],
)
def test_random_connected_multigraph_rejects_impossible_sizes(n_vertices, n_edges, loops):
    with pytest.raises(InputError):
        random_connected_multigraph(random.Random(0), n_vertices, n_edges, loops=loops)


def test_random_connected_multigraph_small_valid_sizes():
    rng = random.Random(0)
    assert random_connected_multigraph(rng, 0, 0).n_vertices == 0
    assert random_connected_multigraph(rng, 1, 0, loops=False).n_edges == 0
    g = random_connected_multigraph(rng, 1, 3, loops=True)
    assert all(e.u == e.v == 1 for e in g.edges) and g.n_edges == 3


_CHILD = """
import hashlib, sys
from paritygraph.cli import main
from paritygraph.corpus import connected_multigraphs
text = "\\n".join(repr((g.vertex_ids, [(e.id, e.u, e.v) for e in g.edges]))
                 for g in connected_multigraphs(4, 6))
print(hashlib.sha256(text.encode()).hexdigest())
print("exit", main(["check", sys.argv[1], sys.argv[2]]))
"""


def test_corpus_and_cli_check_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    graph = Path(paritygraph.__file__).parent / "fixtures" / "O1.graph"
    assignment = tmp_path / "a.j"
    assignment.write_text("j-all odd\n")
    src = str(Path(paritygraph.__file__).parent.parent)
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(graph), str(assignment)],
            env=env, capture_output=True, check=True, timeout=120,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert b"INCOMPATIBLE" in outputs[0]
