"""scan: the catalog witness scanner over small graphs.

The subset loop, the splitting search and isomorphism dominate here, and
GF(2) never runs in a timed op.  Per graph: ``find_witness`` with the
all-odd, all-even and two random assignments (the first call is cold and
builds the candidate cache, the rest reuse it), then ``scan_all_odd``
and ``scan_all_even``.  Graphs: a seeded sample of the exhaustive corpus
connected_multigraphs(5, 8), K33, grid 3x3, wheels W5-W7 and the 14
catalog fixtures.  W8 and grid 3x4 get only the two subdivision scans,
the first with cold caches: their cold ``find_witness`` alone would take
half a run.
"""

from __future__ import annotations

import families as fam
from checks import check_witness, witness_text
from harness import Op, reset_caches

# two seeded corpus graphs of each (vertices, edges) class
CORPUS_CLASSES = [(n, m) for n in (2, 3, 4, 5) for m in (5, 6, 7, 8)]


def fixed_graphs(pg):
    return [
        ("K33", fam.k33(pg)),
        ("grid3x3", fam.grid(pg, 3, 3)),
        *((f"W{n}", fam.wheel(pg, n)) for n in (5, 6, 7)),
    ]


def scan_only_graphs(pg):
    return [("W8", fam.wheel(pg, 8)), ("grid3x4", fam.grid(pg, 3, 4))]


def setup(pg, rng, tracer, workdir):
    pool = tracer.timed("corpus.generate_s", pg.corpus.connected_multigraphs, 5, 8)
    fixtures = tracer.timed("catalog.load_s", pg.catalog.catalog)
    graphs = fixed_graphs(pg) + sorted(fixtures.items())
    graphs += [(f"corpus{i}", g) for i, g in enumerate(fam.corpus_sample(pool, rng, CORPUS_CLASSES, 2))]
    odd = pg.solver.ParityAssignment.all_odd()
    even = pg.solver.ParityAssignment.all_even()
    ops = []
    for name, g in scan_only_graphs(pg):
        ops.append(scan_op(pg, f"scan_all_odd {name}", g, odd, "scan_all_odd", cold=True))
        ops.append(scan_op(pg, f"scan_all_even {name}", g, even, "scan_all_even"))
    for name, g in graphs:
        assignments = [
            ("all-odd", odd), ("all-even", even),
            ("random0", fam.random_assignment(pg, g, rng)),
            ("random1", fam.random_assignment(pg, g, rng)),
        ]
        for k, (jname, j) in enumerate(assignments):
            ops.append(witness_op(pg, f"find_witness {name} {jname}", g, j, cold=k == 0))
        ops.append(scan_op(pg, f"scan_all_odd {name}", g, odd, "scan_all_odd"))
        ops.append(scan_op(pg, f"scan_all_even {name}", g, even, "scan_all_even"))
    return ops


def _scanner_call(pg, t, span, fn, *args):
    try:
        return t.timed(span, fn, *args)
    except pg.errors.ResourceLimitError:
        t.count("scanner.budget_exhausted")
        raise


def trace_witness(pg, t, g, w) -> None:
    """Time the splitting search and the isomorphism that a witness rests
    on: the subgraph (after any odd-circuit contraction) against its base,
    and the replayed trace against the base."""
    t.count("scanner.scans")
    if w is None:
        return
    t.count("scanner.witnesses")
    start = g.subgraph(w.subgraph_edges)
    if w.odd_circuit_contracted is not None:
        start, _ = start.contract_edges(w.odd_circuit_contracted)
    base = pg.catalog.base_graph(w.base_name)
    t.timed("transforms.splitting_s", pg.transforms.is_even_splitting_of, start, base)
    t.count("transforms.splitting_calls")
    reached = w.splitting_trace.replay()
    t.timed("graphs.isomorphism_s", pg.graphs.find_isomorphism, reached, base)
    t.count("graphs.isomorphism_calls")


def traced_find_witness(pg, t, g, j, cold: bool):
    budget, cap = pg.scanner.DEFAULT_SCAN_BUDGET, pg.circuits.DEFAULT_CIRCUIT_CAP
    if cold:
        circs = t.timed("circuits.enumerate_s", pg.circuits.enumerate_circuits, g, cap)
        t.count("circuits.found", len(circs))
        t.count("circuits.even", sum(1 for c in circs if c.is_even))
        t.timed("graphs.is_bipartite_s", pg.graphs.is_bipartite, g)
        # positional, exactly as find_witness calls it, so the cache key matches
        cands = _scanner_call(pg, t, "scanner.candidates_s", pg.scanner.witness_candidates, g, budget, cap)
        t.count("scanner.candidates", len(cands))
    w = _scanner_call(pg, t, "scanner.find_witness_s", pg.scanner.find_witness, g, j, budget, cap)
    trace_witness(pg, t, g, w)
    return w


def witness_op(pg, name, g, j, cold: bool) -> Op:
    return Op(
        name=name,
        run=lambda: pg.scanner.find_witness(g, j),
        traced=lambda t: traced_find_witness(pg, t, g, j, cold),
        check=lambda w: check_witness(pg, g, j, w),
        canon=witness_text,
        before=(lambda: reset_caches(pg)) if cold else None,
    )


def traced_scan(pg, t, g, fn_name: str):
    """``scan_all_odd`` or ``scan_all_even``, timed, with its witness."""
    w = _scanner_call(pg, t, f"scanner.{fn_name}_s", getattr(pg.scanner, fn_name), g)
    trace_witness(pg, t, g, w)
    return w


def scan_op(pg, name, g, j, fn_name: str, cold: bool = False) -> Op:
    fn = getattr(pg.scanner, fn_name)
    return Op(
        name=name,
        run=lambda: fn(g),
        traced=lambda t: traced_scan(pg, t, g, fn_name),
        check=lambda w: check_witness(pg, g, j, w),
        canon=witness_text,
        before=(lambda: reset_caches(pg)) if cold else None,
    )
