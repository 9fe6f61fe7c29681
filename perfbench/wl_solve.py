"""solve: ``decide`` over a ladder of graphs, six assignments per graph.

The only workload where circuit enumeration, the GF(2) system and
certificate shrinking do most of the work.  Planted assignments are
compatible by construction and take the solve-only path; all-odd,
all-even and random ones are mostly incompatible and add shrinking, so a
faster shrink should move those ops and leave the planted ones alone.
The circuit cache is cold for the first op on each graph.
"""

from __future__ import annotations

import families as fam
from checks import check_decide, decide_text
from harness import Op, reset_caches

LADDER = (
    ("K33", lambda pg: fam.k33(pg)),
    *((f"W{n}", lambda pg, n=n: fam.wheel(pg, n)) for n in range(6, 11)),
    *((f"grid{r}x{c}", lambda pg, r=r, c=c: fam.grid(pg, r, c))
      for r, c in ((3, 3), (3, 4), (3, 5), (4, 4), (3, 6), (4, 5))),
)
RANDOM_GRAPHS = 7
RANDOM_SIZES = ((4, 6), (5, 7), (5, 8), (6, 8), (6, 9))  # cycle rank 3-4: cheap for every seed


def setup(pg, rng, tracer, workdir):
    graphs = [(name, build(pg)) for name, build in LADDER]
    randoms = fam.random_multigraphs(pg, rng, RANDOM_GRAPHS, RANDOM_SIZES)
    graphs += [(f"random{i}", g) for i, g in enumerate(randoms)]
    ops = []
    for name, g in graphs:
        assignments = [
            ("all-odd", pg.solver.ParityAssignment.all_odd()),
            ("all-even", pg.solver.ParityAssignment.all_even()),
            ("planted0", fam.planted_assignment(pg, g, rng)),
            ("planted1", fam.planted_assignment(pg, g, rng)),
            ("random0", fam.random_assignment(pg, g, rng)),
            ("random1", fam.random_assignment(pg, g, rng)),
        ]
        for k, (jname, j) in enumerate(assignments):
            ops.append(decide_op(pg, f"decide {name} {jname}", g, j, cold=k == 0))
    reset_caches(pg)  # planting filled the circuit cache
    return ops


def traced_decide(pg, t, g, j, cold: bool):
    """``decide`` with its layers timed one by one.

    Shrink time is a warm ``decide`` minus the system build and the
    elimination it repeats; rank and nullity are recorded on incompatible
    ops, where ``decide`` computes the nullspace.
    """
    cap = pg.circuits.DEFAULT_CIRCUIT_CAP
    if cold:
        circs = t.timed("circuits.enumerate_s", pg.circuits.enumerate_circuits, g, cap)
        t.count("circuits.found", len(circs))
        t.count("circuits.even", sum(1 for c in circs if c.is_even))
    base = pg.graphs.Orientation.reference(g)
    a, rhs, circs, _ = t.timed("solver.build_system_s", pg.solver.build_system, g, j, base, cap)
    build = t.last
    t.count("gf2.rows", a.n_rows)
    t.count("gf2.cols", a.width)
    solved = t.timed("gf2.solve_s", pg.gf2.solve, a, rhs) if circs else None
    solve = t.last if circs else 0.0
    result = t.timed("solver.decide_s", pg.solver.decide, g, j, cap)
    if isinstance(solved, pg.gf2.Inconsistency):
        t.times["solver.shrink_s"] += t.last - build - solve
        t.count("solver.cert_seed_rows", len(solved.row_combination))
        t.count("solver.cert_circuits", len(result.circuits))
        basis = t.timed("gf2.nullspace_s", pg.gf2.left_nullspace_basis, a)
        t.count("gf2.nullity", len(basis))
        t.count("gf2.rank", a.n_rows - len(basis))
    return result


def decide_op(pg, name, g, j, cold: bool) -> Op:
    return Op(
        name=name,
        run=lambda: pg.solver.decide(g, j),
        traced=lambda t: traced_decide(pg, t, g, j, cold),
        check=lambda r: check_decide(pg, g, j, r),
        canon=lambda r: decide_text(pg, r),
        before=(lambda: reset_caches(pg)) if cold else None,
    )
