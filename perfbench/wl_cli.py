"""cli: fresh ``paritygraph`` processes, one after another.

What a shell user pays per call: interpreter start, imports, argument
handling and file parsing on top of the work itself.  Only this workload
shows import cost, ``fileio`` and argument handling; the in-process
workloads pay the import once, inside set-up.  Every command runs twice,
under two PYTHONHASHSEED values, and both children must match the
in-process ``cli.main`` byte for byte, which in turn must agree with the
checked library result.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import families as fam
import wl_scan
import wl_solve
import wl_structure
from checks import (
    check_decide, check_decomposition, check_pfaffian, check_witness,
    decide_text, pfaffian_text,
)
from harness import Op, require, reset_caches

CHECK_ODD_PLANTED = ("O1", "O2", "E2", "E3", "D1", "D4", "K33", "grid3x3", "W6", "random0", "random1")
CHECK_EVEN = ("E1", "A1", "grid2x4", "cube3")
CHECK_DEFAULT = ("K33", "W6")
SCAN_ODD = ("O1", "O2", "K33", "grid3x3", "W6", "random0")
SCAN_EVEN = ("E1", "E3", "K33", "W6", "random1")
SCAN_EXPLICIT = ("O1", "E2", "K33")
DECOMPOSE = ("W6", "W8", "grid3x3", "grid3x4", "D1", "A2", "E3")
PFAFFIAN = ("grid2x4", "grid3x4", "cube3", "K33", "O1", "E2")

# the child reports its own import time on stderr, then runs the CLI
TRACED_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import paritygraph.cli as cli\n"
    "sys.stderr.write(f'import_s {time.perf_counter() - t0!r}\\n')\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


def setup(pg, rng, tracer, workdir: Path):
    fixtures = tracer.timed("catalog.load_s", pg.catalog.catalog)
    fixture_dir = Path(pg.catalog.__file__).parent / "fixtures"
    graphs = {name: (g, fixture_dir / f"{name}.graph") for name, g in fixtures.items()}
    built = {
        "K33": fam.k33(pg), "grid2x4": fam.grid(pg, 2, 4), "grid3x3": fam.grid(pg, 3, 3),
        "grid3x4": fam.grid(pg, 3, 4), "W6": fam.wheel(pg, 6), "W8": fam.wheel(pg, 8),
        "cube3": fam.cube(pg, 3),
    }
    randoms = fam.random_multigraphs(pg, rng, 2, ((5, 8), (6, 9)))
    built.update((f"random{i}", g) for i, g in enumerate(randoms))
    for name, g in built.items():
        path = workdir / f"{name}.graph"
        path.write_text(pg.fileio.emit_graph(g))
        graphs[name] = (g, path)

    def assignment_file(name, kind, j):
        path = workdir / f"{name}.{kind}.assign"
        path.write_text(fam.assignment_text(j))
        return str(path)

    odd_file = assignment_file("all", "odd", pg.solver.ParityAssignment.all_odd())
    even_file = assignment_file("all", "even", pg.solver.ParityAssignment.all_even())
    commands = []
    for name in CHECK_ODD_PLANTED:
        g, path = graphs[name]
        planted = assignment_file(name, "planted", fam.planted_assignment(pg, g, rng))
        commands += [["check", str(path), odd_file], ["check", str(path), planted]]
    commands += [["check", str(graphs[n][1]), even_file] for n in CHECK_EVEN]
    for name in CHECK_DEFAULT:
        g, path = graphs[name]
        full = fam.random_assignment(pg, g, rng).explicit
        half = dict(sorted(full.items(), key=lambda kv: sorted(kv[0]))[::2])
        partial = assignment_file(name, "partial", pg.solver.ParityAssignment.from_map(half))
        commands.append(["check", str(path), partial, "--default-parity", "odd"])
    commands += [["scan", str(graphs[n][1]), "--all-odd"] for n in SCAN_ODD]
    commands += [["scan", str(graphs[n][1]), "--all-even"] for n in SCAN_EVEN]
    for name in SCAN_EXPLICIT:
        g, path = graphs[name]
        random_file = assignment_file(name, "random", fam.random_assignment(pg, g, rng))
        commands.append(["scan", str(path), random_file] + (["--cross-check"] if name == "K33" else []))
    commands += [["decompose", str(graphs[n][1]), "--validate"] for n in DECOMPOSE]
    commands += [
        ["pfaffian", str(graphs[n][1])] + (["--brute-check"] if n == "grid2x4" else [])
        for n in PFAFFIAN
    ]
    hash_seeds = [str(rng.randrange(1, 2**32 - 1)) for _ in range(2)]
    while hash_seeds[0] == hash_seeds[1]:
        hash_seeds[1] = str(rng.randrange(1, 2**32 - 1))
    root = Path.cwd()
    expected = ExpectedOutputs(pg)
    return [
        cli_op(pg, root, argv, hash_seed, expected)
        for argv in commands
        for hash_seed in hash_seeds
    ]


def child_env(root: Path, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONSTARTUP", None)
    return env


def run_child(cmd, env, root):
    done = subprocess.run(cmd, env=env, cwd=root, capture_output=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def in_process(pg, argv):
    """``cli.main(argv)`` in this process: (exit code, stdout bytes)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = pg.cli.main(list(argv))
    return code, out.getvalue().encode()


class ExpectedOutputs:
    """The checked in-process output of each command, computed once."""

    def __init__(self, pg):
        self.pg = pg
        self.by_argv: dict[tuple, tuple[int, bytes]] = {}

    def get(self, argv) -> tuple[int, bytes]:
        key = tuple(argv)
        if key not in self.by_argv:
            code, stdout = in_process(self.pg, argv)
            check_semantics(self.pg, argv, code, stdout.decode())
            self.by_argv[key] = (code, stdout)
        return self.by_argv[key]


def load_inputs(pg, argv):
    g = pg.fileio.parse_graph(Path(argv[1]).read_text())
    if argv[0] not in ("check", "scan") or argv[2].startswith("--"):
        return g, None
    j = pg.fileio.parse_assignment(Path(argv[2]).read_text())
    if "--default-parity" in argv:
        j = pg.solver.ParityAssignment.from_map(j.explicit, pg.circuits.Parity.ODD)
    return g, j


def check_semantics(pg, argv, code: int, stdout: str) -> None:
    """The CLI output agrees with the library result, itself checked."""
    g, j = load_inputs(pg, argv)
    lines = stdout.splitlines()
    command = argv[0]
    if command == "check":
        result = pg.solver.decide(g, j)
        check_decide(pg, g, j, result)
        require(stdout == decide_text(pg, result), "check output differs from decide")
        positive = not isinstance(result, pg.solver.IntractableCertificate)
    elif command == "scan":
        if "--all-odd" in argv:
            j, w = pg.solver.ParityAssignment.all_odd(), pg.scanner.scan_all_odd(g)
        elif "--all-even" in argv:
            j, w = pg.solver.ParityAssignment.all_even(), pg.scanner.scan_all_even(g)
        else:
            w = pg.scanner.find_witness(g, j)
        check_witness(pg, g, j, w)
        head = "NO-WITNESS" if w is None else f"WITNESS {w.base_name}"
        require(lines[0] == head, f"scan prints {lines[0]!r}, library finds {head!r}")
        if "--cross-check" in argv:
            require(lines[-1] == "CROSS-CHECK OK", "cross-check line missing")
        positive = w is not None
    elif command == "decompose":
        try:
            d = pg.arcdecomp.decompose(g)
        except pg.errors.InputError:
            require(lines[0] == "NOT-EVEN-CIRCUIT-CONNECTED", "decompose should refuse")
            positive = False
        else:
            check_decomposition(pg, g, d)
            require(lines[0] == f"DECOMPOSITION {len(d.stages)}", "stage count differs")
            require(lines[-1] == "VALIDATION OK", "validation line missing")
            positive = True
    else:
        out = wl_structure.count_matchings(pg, g)
        check_pfaffian(pg, g, out)
        text = pfaffian_text(pg, out)
        if "--brute-check" in argv and out[1] is not None:
            text += "BRUTE-CHECK OK\n"
        require(stdout == text, "pfaffian output differs from the library")
        positive = out[1] is not None
    require(code == (0 if positive else 1), f"exit status {code}")


def traced_layers(pg, t, argv) -> None:
    """The command's work in this process, layer by layer, cold caches."""
    reset_caches(pg)
    with t.span("fileio.parse_s"):
        g, j = load_inputs(pg, argv)
    command = argv[0]
    if command == "check":
        result = wl_solve.traced_decide(pg, t, g, j, cold=True)
        t.timed("fileio.emit_s", decide_text, pg, result)
    elif command == "scan":
        if "--all-odd" in argv:
            wl_scan.traced_scan(pg, t, g, "scan_all_odd")
        elif "--all-even" in argv:
            wl_scan.traced_scan(pg, t, g, "scan_all_even")
        else:
            wl_scan.traced_find_witness(pg, t, g, j, cold=True)
    elif command == "decompose":
        if pg.circuits.is_even_circuit_connected(g):
            wl_structure.traced_decompose(pg, t, g)
    else:
        out = wl_structure.traced_count_matchings(pg, t, g)
        t.timed("fileio.emit_s", pfaffian_text, pg, out)


def cli_op(pg, root: Path, argv, hash_seed: str, expected: ExpectedOutputs) -> Op:
    env = child_env(root, hash_seed)

    def run():
        code, stdout, _ = run_child([sys.executable, "-m", "paritygraph.cli", *argv], env, root)
        return code, stdout

    def traced(t):
        t0 = time.perf_counter()
        code, stdout, stderr = run_child([sys.executable, "-c", TRACED_CHILD, *argv], env, root)
        t.times["cli.process_s"] += time.perf_counter() - t0
        for line in stderr.decode().splitlines():
            if line.startswith("import_s "):
                t.times["cli.import_s"] += float(line.split()[1])
        reset_caches(pg)
        t.timed("cli.main_s", in_process, pg, argv)
        traced_layers(pg, t, argv)
        return code, stdout

    def check(out):
        require(out == expected.get(argv), f"PYTHONHASHSEED={hash_seed}: child output differs from cli.main")

    return Op(
        name=f"paritygraph {' '.join(argv)} [PYTHONHASHSEED={hash_seed}]",
        run=run,
        traced=traced,
        check=check,
        canon=lambda out: f"exit {out[0]}\n" + out[1].decode(),
    )
