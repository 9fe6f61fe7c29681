"""Input graphs and assignments for the workloads.

Every graph constructor takes the freshly imported package namespace
``pg`` so the inputs belong to the same import as the code that runs on
them.
"""

from __future__ import annotations

import random


def grid(pg, rows: int, cols: int):
    def vid(r, c):
        return r * cols + c + 1

    pairs = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                pairs.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                pairs.append((vid(r, c), vid(r + 1, c)))
    return pg.graphs.Multigraph.from_pairs(pairs)


def wheel(pg, n: int):
    """Hub n+1 joined to the rim cycle 1..n: 2n edges."""
    rim = [(i, i % n + 1) for i in range(1, n + 1)]
    spokes = [(n + 1, i) for i in range(1, n + 1)]
    return pg.graphs.Multigraph.from_pairs(rim + spokes)


def k33(pg, extra=()):
    pairs = [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]
    return pg.graphs.Multigraph.from_pairs(pairs + list(extra))


def cube(pg, d: int):
    pairs = [
        (v + 1, (v | 1 << i) + 1)
        for v in range(1 << d)
        for i in range(d)
        if not v >> i & 1
    ]
    return pg.graphs.Multigraph.from_pairs(pairs)


def heawood(pg):
    """The incidence graph of the Fano plane: 14 vertices, 21 edges."""
    lines = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1), (6, 0, 2)]
    pairs = [(p + 1, 8 + i) for i, line in enumerate(lines) for p in line]
    return pg.graphs.Multigraph.from_pairs(pairs)


def random_multigraphs(pg, rng: random.Random, count: int, sizes):
    """Seeded connected multigraphs with loops and parallel edges, their
    (vertices, edges) taken from ``sizes`` in turn."""
    return [
        pg.corpus.random_connected_multigraph(rng, *sizes[i % len(sizes)], loops=True)
        for i in range(count)
    ]


def planted_assignment(pg, g, rng: random.Random):
    """Every even circuit's parity under a random orientation: compatible
    by construction."""
    flips = [e.id for e in g.edges if rng.random() < 0.5]
    o = pg.graphs.Orientation.reference(g).with_flipped(flips)
    parity = pg.circuits.clockwise_parity
    return pg.solver.ParityAssignment.from_map(
        {c.edge_set: parity(o, c) for c in pg.circuits.even_circuits(g)}
    )


def random_assignment(pg, g, rng: random.Random):
    """An independent random parity for every even circuit."""
    odd, even = pg.circuits.Parity.ODD, pg.circuits.Parity.EVEN
    return pg.solver.ParityAssignment.from_map(
        {c.edge_set: (odd if rng.random() < 0.5 else even) for c in pg.circuits.even_circuits(g)}
    )


def assignment_text(j) -> str:
    """An assignment in the README's file format."""
    if j.kind != "explicit":
        return f"j-all {j.kind.split('-')[1]}\n"
    lines = [
        f"j {parity} {len(key)} " + " ".join(map(str, sorted(key)))
        for key, parity in sorted(j.explicit.items(), key=lambda kv: sorted(kv[0]))
    ]
    return "\n".join(lines) + "\n"


def corpus_sample(pool, rng: random.Random, classes, per_class: int, keep=lambda g: True):
    """``per_class`` seeded picks from ``pool`` for each (vertices, edges)
    class, among graphs passing ``keep``.  Fixing the classes keeps the
    cost of the sample nearly the same for every seed."""
    out = []
    for n, m in classes:
        members = [g for g in pool if g.n_vertices == n and g.n_edges == m and keep(g)]
        out += rng.sample(members, min(per_class, len(members)))
    return out
