"""Command-line front end.

Four subcommands: check (decide an assignment), scan (hunt for catalog
witnesses), decompose (arc decomposition), pfaffian (orientation plus
matching count).  Exit status 0 for a positive result, 1 for a negative
one, 2 for errors.  Output is byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

# Only what check, argument parsing and error handling need is imported
# here; scan, decompose and pfaffian import their modules when they run,
# so a check process neither compiles nor executes the scanner.
from . import fileio
from .circuits import (
    DEFAULT_CIRCUIT_CAP,
    Parity,
    circuit_from_edges,
    even_circuits,
)
from .errors import CapabilityError, ContractError, InputError, ResourceLimitError
from .graphs import Multigraph
from .solver import (
    IntractableCertificate,
    ParityAssignment,
    decide,
    verify_orientation,
)

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _read(path: str) -> str:
    # "utf-8", not "utf-8-sig": the latter counts a decode error's byte
    # offset from after the BOM, so the message would point 3 bytes early
    with open(path, "r", encoding="utf-8") as f:
        try:
            return f.read().removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise InputError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None


def _load_graph(path: str) -> Multigraph:
    return fileio.parse_graph(_read(path))


def _load_assignment(path: str, g: Multigraph, default: Optional[str], cap: int) -> ParityAssignment:
    j = fileio.parse_assignment(_read(path))
    if j.kind != "explicit" and default is not None:
        raise InputError(f"{path}: a j-all assignment cannot be combined with --default-parity")
    if j.kind == "explicit":
        for key in j.explicit:
            c = circuit_from_edges(g, key)  # InputError when not a circuit
            if not c.is_even:
                raise InputError(f"assignment circuit {sorted(key)} is odd")
        if default is not None:
            j = ParityAssignment.from_map(
                j.explicit, {"odd": Parity.ODD, "even": Parity.EVEN}[default]
            )
        else:
            covered = set(j.explicit)
            for c in even_circuits(g, cap):
                if c.edge_set not in covered:
                    raise InputError(
                        f"assignment does not cover even circuit {list(c.edge_ids)}; "
                        "use --default-parity to fill the gaps"
                    )
    return j


def cmd_check(args) -> int:
    g = _load_graph(args.graph)
    j = _load_assignment(args.assignment, g, args.default_parity, args.max_circuits)
    result = decide(g, j, args.max_circuits)
    if isinstance(result, IntractableCertificate):
        sys.stdout.write("INCOMPATIBLE\n")
        sys.stdout.write(fileio.emit_certificate_block(result))
        return EXIT_NEGATIVE
    if verify_orientation(g, j, result, args.max_circuits) is not None:
        raise ContractError("solver orientation fails verification")
    sys.stdout.write("COMPATIBLE\n")
    sys.stdout.write(fileio.emit_orientation_block(result))
    return EXIT_POSITIVE


def _witness_lines(w) -> str:
    lines = [f"WITNESS {w.base_name}"]
    lines.append(
        f"w-edges {len(w.subgraph_edges)} "
        + " ".join(str(i) for i in sorted(w.subgraph_edges))
    )
    if w.odd_circuit_contracted is not None:
        lines.append(
            f"w-odd-contraction {len(w.odd_circuit_contracted)} "
            + " ".join(str(i) for i in sorted(w.odd_circuit_contracted))
        )
    for step in w.splitting_trace.steps:  # degree-2 contractions only
        e, f = step.edge_pair
        lines.append(f"w-step contract-degree2 {step.vertex} {e} {f}")
    for edge_set, parity in w.circuit_parities:
        lines.append(
            f"w-circuit {parity} {len(edge_set)} "
            + " ".join(str(i) for i in sorted(edge_set))
        )
    return "\n".join(lines) + "\n"


def cmd_scan(args) -> int:
    from .scanner import (
        DEFAULT_SCAN_BUDGET,
        find_witness,
        scan_all_even,
        scan_all_odd,
        verify_witness,
    )

    budget = DEFAULT_SCAN_BUDGET if args.budget is None else args.budget
    if args.all_odd and args.all_even:
        raise InputError("scan takes at most one of --all-odd and --all-even")
    if (args.all_odd or args.all_even) and (
        args.assignment is not None or args.default_parity is not None
    ):
        raise InputError(
            "an assignment file or --default-parity cannot be combined with --all-odd or --all-even"
        )
    g = _load_graph(args.graph)
    if args.all_odd:
        j = ParityAssignment.all_odd()
        w = scan_all_odd(g, budget, args.max_circuits)
    elif args.all_even:
        j = ParityAssignment.all_even()
        w = scan_all_even(g, budget, args.max_circuits)
    else:
        if args.assignment is None:
            raise InputError("scan needs an assignment file, --all-odd, or --all-even")
        j = _load_assignment(args.assignment, g, args.default_parity, args.max_circuits)
        w = find_witness(g, j, budget, args.max_circuits)
    if args.cross_check:
        incompatible = isinstance(decide(g, j, args.max_circuits), IntractableCertificate)
        if incompatible != (w is not None):
            raise ContractError(
                "cross-check failed: witness presence does not match the solver verdict"
            )
        if w is not None and not verify_witness(g, j, w):
            raise ContractError("cross-check failed: witness does not re-verify")
    if w is None:
        sys.stdout.write("NO-WITNESS\n")
        if args.cross_check:
            sys.stdout.write("CROSS-CHECK OK\n")
        return EXIT_NEGATIVE
    sys.stdout.write(_witness_lines(w))
    if args.cross_check:
        sys.stdout.write("CROSS-CHECK OK\n")
    if args.dot:
        sys.stdout.write(fileio.to_dot(g, highlight=w.subgraph_edges))
    return EXIT_POSITIVE


def cmd_decompose(args) -> int:
    from .arcdecomp import decompose, validate

    g = _load_graph(args.graph)
    try:
        d = decompose(g, args.max_circuits)
    except InputError as exc:
        sys.stdout.write(f"NOT-EVEN-CIRCUIT-CONNECTED\nc {exc}\n")
        return EXIT_NEGATIVE
    lines = [f"DECOMPOSITION {len(d.stages)}"]
    first = sorted(d.stages[0])
    lines.append(f"stage 0 circuit {len(first)} " + " ".join(map(str, first)))
    for i, adj in enumerate(d.adjunctions, start=1):
        c = adj.circuit
        lines.append(
            f"stage {i} adjunction arcs={len(adj.arcs)} circuit {len(c)} "
            + " ".join(str(x) for x in c.edge_ids)
        )
        for a in adj.arcs:
            lines.append(
                f"stage {i} arc {len(a.edge_ids)} "
                + " ".join(str(x) for x in a.edge_ids)
            )
    sys.stdout.write("\n".join(lines) + "\n")
    if args.validate:
        problem = validate(g, d, args.max_circuits)
        if problem is not None:
            raise ContractError(f"validation failed: {problem}")
        sys.stdout.write("VALIDATION OK\n")
    return EXIT_POSITIVE


def cmd_pfaffian(args) -> int:
    from .pfaffian import (
        enumerate_perfect_matchings,
        find_pfaffian_orientation,
        kasteleyn_count,
        verify_pfaffian,
    )

    g = _load_graph(args.graph)
    result = find_pfaffian_orientation(g, args.max_circuits)
    if isinstance(result, IntractableCertificate):
        sys.stdout.write("NOT-PFAFFIAN\n")
        sys.stdout.write(fileio.emit_certificate_block(result))
        return EXIT_NEGATIVE
    count = kasteleyn_count(g, result)
    sys.stdout.write("PFAFFIAN\n")
    sys.stdout.write(fileio.emit_orientation_block(result))
    sys.stdout.write(f"count {count}\n")
    if args.brute_check:
        expected = len(enumerate_perfect_matchings(g, args.max_circuits))
        if count != expected or not verify_pfaffian(g, result, args.max_circuits):
            raise ContractError(
                f"brute check failed: count {count} vs enumeration {expected}"
            )
        sys.stdout.write("BRUTE-CHECK OK\n")
    return EXIT_POSITIVE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="paritygraph",
        description="Orientations with prescribed clockwise parities on even circuits",
    )
    p.add_argument(
        "--max-circuits", type=int, default=DEFAULT_CIRCUIT_CAP,
        help="circuit enumeration cap (default %(default)s)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="decide an assignment, print orientation or certificate")
    c.add_argument("graph")
    c.add_argument("assignment")
    c.add_argument("--default-parity", choices=["odd", "even"])
    c.set_defaults(func=cmd_check)

    s = sub.add_parser("scan", help="search for a catalog witness")
    s.add_argument("graph")
    s.add_argument("assignment", nargs="?")
    s.add_argument("--all-odd", action="store_true")
    s.add_argument("--all-even", action="store_true")
    s.add_argument("--default-parity", choices=["odd", "even"])
    s.add_argument("--budget", type=int, help=(  # None: the scanner's default
        "masks to count before giving up (default 200000); every edge mask of at least"
        " the smallest base's size counts, so a scan over all m edges needs the sum of"
        " C(m, s) for s from 3 (6 with --all-odd) to m: 261972 for 18 edges"))
    s.add_argument("--cross-check", action="store_true")
    s.add_argument("--dot", action="store_true")
    s.set_defaults(func=cmd_scan)

    d = sub.add_parser("decompose", help="arc decomposition of an even-circuit-connected graph")
    d.add_argument("graph")
    d.add_argument("--validate", action="store_true")
    d.set_defaults(func=cmd_decompose)

    f = sub.add_parser("pfaffian", help="Pfaffian orientation and matching count")
    f.add_argument("graph")
    f.add_argument("--brute-check", action="store_true")
    f.set_defaults(func=cmd_pfaffian)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.max_circuits < 1:
            raise InputError("circuit cap must be positive")
        return args.func(args)
    except (InputError, ResourceLimitError, CapabilityError, ContractError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
