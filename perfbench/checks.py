"""Correctness checks and canonical text for every kind of op output.

Checks use the package's own checkers; canonical text feeds the output
digest, so a change to any verdict, certificate, witness or decomposition
changes the digest even when the checks still pass.
"""

from __future__ import annotations

from harness import require


def decide_text(pg, result) -> str:
    if isinstance(result, pg.solver.IntractableCertificate):
        return "INCOMPATIBLE\n" + pg.fileio.emit_certificate_block(result)
    return "COMPATIBLE\n" + pg.fileio.emit_orientation_block(result)


def check_decide(pg, g, j, result) -> None:
    if isinstance(result, pg.solver.IntractableCertificate):
        require(pg.solver.certificate_is_valid(g, j, result), "certificate does not re-verify")
    else:
        require(pg.solver.verify_orientation(g, j, result) is None, "orientation misses a target")


def witness_text(w) -> str:
    if w is None:
        return "NO-WITNESS\n"
    lines = [f"witness {w.base_name} edges " + " ".join(map(str, sorted(w.subgraph_edges)))]
    if w.odd_circuit_contracted is not None:
        lines.append("odd " + " ".join(map(str, sorted(w.odd_circuit_contracted))))
    lines.extend(f"step {step!r}" for step in w.splitting_trace.steps)
    lines.extend(
        f"circuit {parity} " + " ".join(map(str, sorted(edges)))
        for edges, parity in w.circuit_parities
    )
    return "\n".join(lines) + "\n"


def check_witness(pg, g, j, w) -> None:
    """A witness re-verifies, and one exists iff the solver says incompatible."""
    verdict = pg.solver.decide(g, j)
    incompatible = isinstance(verdict, pg.solver.IntractableCertificate)
    require(incompatible == (w is not None), "witness presence disagrees with decide")
    if w is not None:
        require(pg.scanner.verify_witness(g, j, w), "witness does not re-verify")


def decomposition_text(d) -> str:
    lines = ["stage 0 " + " ".join(map(str, sorted(d.stages[0])))]
    for i, adj in enumerate(d.adjunctions, start=1):
        lines.append(f"stage {i} circuit " + " ".join(map(str, adj.circuit.edge_ids)))
        lines.extend(f"stage {i} arc " + " ".join(map(str, a.edge_ids)) for a in adj.arcs)
    return "\n".join(lines) + "\n"


def check_decomposition(pg, g, d) -> None:
    problem = pg.arcdecomp.validate(g, d)
    require(problem is None, f"decomposition invalid: {problem}")


def pfaffian_text(pg, out) -> str:
    result, count = out
    if isinstance(result, pg.solver.IntractableCertificate):
        return "NOT-PFAFFIAN\n" + pg.fileio.emit_certificate_block(result)
    return "PFAFFIAN\n" + pg.fileio.emit_orientation_block(result) + f"count {count}\n"


def check_pfaffian(pg, g, out) -> None:
    result, count = out
    if isinstance(result, pg.solver.IntractableCertificate):
        all_odd = pg.solver.ParityAssignment.all_odd()
        require(
            pg.solver.is_intractable_set(g, all_odd, result.circuits),
            "refutation is not an intractable set",
        )
        alternating = {c.edge_set for c in pg.pfaffian.alternating_circuits(g)}
        require(
            all(c.edge_set in alternating for c in result.circuits),
            "refutation uses a circuit that is not alternating",
        )
    else:
        expected = len(pg.pfaffian.enumerate_perfect_matchings(g))
        require(count == expected, f"count {count} but {expected} perfect matchings")
