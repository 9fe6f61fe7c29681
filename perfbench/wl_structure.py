"""structure: the matching counter and arc decompositions.

The only workload for matching enumeration, alternating-circuit pairing,
the Bareiss determinant and the adjunction search.  Pfaffian refutations
(K33 and K33 with extra edges) drive the shared GF(2)/shrink core with
alternating-circuit rows instead of all even circuits, so a change to
that core must hold here as well as on ``solve``.
"""

from __future__ import annotations

import families as fam
from checks import check_decomposition, check_pfaffian, decomposition_text, pfaffian_text
from harness import Op, reset_caches

# three seeded even-order corpus graphs of each (vertices, edges) class
PFAFFIAN_CLASSES = [(2, m) for m in range(3, 9)] + [(4, m) for m in range(4, 9)]
# A spanning supergraph of K33 is not Pfaffian either.  Fixed, not seeded:
# some extra-edge pairs leave a 16-dimensional dependency space and make
# one refutation cost 40 times another.
K33_EXTRAS = ([(1, 2)], [(1, 4)], [(1, 4), (2, 5)], [(3, 6), (3, 6)])


def setup(pg, rng, tracer, workdir):
    pool = tracer.timed("corpus.generate_s", pg.corpus.connected_multigraphs, 5, 8)
    fixtures = tracer.timed("catalog.load_s", pg.catalog.catalog)

    pfaff = [(f"grid2x{c}", fam.grid(pg, 2, c)) for c in range(3, 9)]
    pfaff += [(f"grid{r}x{c}", fam.grid(pg, r, c)) for r, c in ((3, 4), (4, 4), (3, 6), (4, 5), (4, 6))]
    pfaff += [("cube3", fam.cube(pg, 3)), ("heawood", fam.heawood(pg)), ("K33", fam.k33(pg))]
    pfaff += [(f"K33+{extra}", fam.k33(pg, extra)) for extra in K33_EXTRAS]
    even_order = fam.corpus_sample(pool, rng, PFAFFIAN_CLASSES, 3)
    pfaff += [(f"corpus{i}", g) for i, g in enumerate(even_order)]

    ecc = pg.circuits.is_even_circuit_connected
    decomp = [(f"W{n}", fam.wheel(pg, n)) for n in range(6, 11)]
    decomp += [(f"grid{r}x{c}", fam.grid(pg, r, c)) for r, c in ((3, 3), (3, 4), (4, 4), (3, 5), (3, 6), (4, 5))]
    decomp += [(name, g) for name, g in sorted(fixtures.items()) if ecc(g)]
    # all 27 even-circuit-connected corpus graphs of even order with at least
    # four edges; filtering the odd orders too would double the set-up cost
    ecc_corpus = [g for g in pool if g.n_vertices % 2 == 0 and g.n_edges >= 4 and ecc(g)]
    decomp += [(f"corpus{i}", g) for i, g in enumerate(ecc_corpus)]

    ops = [pfaffian_op(pg, f"pfaffian {name}", g) for name, g in pfaff]
    ops += [decompose_op(pg, f"decompose {name}", g) for name, g in decomp]
    return ops


def count_matchings(pg, g):
    result = pg.pfaffian.find_pfaffian_orientation(g)
    if isinstance(result, pg.solver.IntractableCertificate):
        return result, None
    return result, pg.pfaffian.kasteleyn_count(g, result)


def alternating_system(pg, g, circs):
    """The GF(2) system find_pfaffian_orientation solves: one row per
    alternating circuit, right-hand side 1 where the reference orientation
    makes it clockwise even."""
    base = pg.graphs.Orientation.reference(g)
    cols = sorted({eid for c in circs for eid in c.edge_ids})
    index = {eid: i for i, eid in enumerate(cols)}
    masks = [sum(1 << index[eid] for eid in c.edge_ids) for c in circs]
    odd = pg.circuits.Parity.ODD
    rhs = tuple(int(pg.circuits.clockwise_parity(base, c) != odd) for c in circs)
    return pg.gf2.Gf2Matrix.from_bitmasks(masks, len(cols)), rhs


def traced_count_matchings(pg, t, g):
    """Refutations also time the shared core: shrink is the orientation
    search minus alternating-circuit enumeration and elimination."""
    cap = pg.circuits.DEFAULT_CIRCUIT_CAP
    matchings = t.timed("pfaffian.matchings_s", pg.pfaffian.enumerate_perfect_matchings, g, cap)
    t.count("pfaffian.matchings", len(matchings))
    circs = t.timed("pfaffian.alternating_s", pg.pfaffian.alternating_circuits, g, cap)
    alternating = t.last
    t.count("pfaffian.alternating", len(circs))
    result = t.timed("pfaffian.orientation_s", pg.pfaffian.find_pfaffian_orientation, g, cap)
    orientation = t.last
    if not isinstance(result, pg.solver.IntractableCertificate):
        return result, t.timed("pfaffian.det_s", pg.pfaffian.kasteleyn_count, g, result)
    a, rhs = alternating_system(pg, g, circs)
    t.count("gf2.rows", a.n_rows)
    t.count("gf2.cols", a.width)
    solved = t.timed("gf2.solve_s", pg.gf2.solve, a, rhs)
    t.times["solver.shrink_s"] += orientation - alternating - t.last
    t.count("solver.cert_seed_rows", len(solved.row_combination))
    t.count("solver.cert_circuits", len(result.circuits))
    basis = t.timed("gf2.nullspace_s", pg.gf2.left_nullspace_basis, a)
    t.count("gf2.nullity", len(basis))
    t.count("gf2.rank", a.n_rows - len(basis))
    return result, None


def pfaffian_op(pg, name, g) -> Op:
    return Op(
        name=name,
        run=lambda: count_matchings(pg, g),
        traced=lambda t: traced_count_matchings(pg, t, g),
        check=lambda out: check_pfaffian(pg, g, out),
        canon=lambda out: pfaffian_text(pg, out),
    )


def traced_decompose(pg, t, g):
    cap = pg.circuits.DEFAULT_CIRCUIT_CAP
    circs = t.timed("circuits.enumerate_s", pg.circuits.enumerate_circuits, g, cap)
    t.count("circuits.found", len(circs))
    t.count("circuits.even", sum(1 for c in circs if c.is_even))
    t.timed("graphs.is_bipartite_s", pg.graphs.is_bipartite, g)
    d = t.timed("arcdecomp.decompose_s", pg.arcdecomp.decompose, g, cap)
    t.timed("arcdecomp.validate_s", pg.arcdecomp.validate, g, d, cap)
    t.count("arcdecomp.stages", len(d.stages))
    return d


def decompose_op(pg, name, g) -> Op:
    return Op(
        name=name,
        run=lambda: pg.arcdecomp.decompose(g),
        traced=lambda t: traced_decompose(pg, t, g),
        check=lambda d: check_decomposition(pg, g, d),
        canon=decomposition_text,
        before=lambda: reset_caches(pg),
    )
