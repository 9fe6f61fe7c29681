import codecs
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import paritygraph
from paritygraph import scanner
from paritygraph.catalog import base_graph
from paritygraph.cli import main
from paritygraph.fileio import emit_graph

from conftest import grid, k23, k33, k4, square, subdivided, triangle

K23_TEXT = emit_graph(k23())
K4_TEXT = emit_graph(k4())
SQUARE_TEXT = emit_graph(square())


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_incompatible_k23(files, capsys):
    g = files("g.graph", K23_TEXT)
    a = files("a.j", "j-all odd\n")
    code, out, _ = run(capsys, "check", g, a)
    assert code == 1
    assert out.startswith("INCOMPATIBLE\ns 3\n")
    assert out.count("sc 4 ") == 3


def test_check_compatible_square(files, capsys):
    g = files("g.graph", SQUARE_TEXT)
    a = files("a.j", "j-all odd\n")
    code, out, _ = run(capsys, "check", g, a)
    assert code == 0
    assert out.startswith("COMPATIBLE\n")
    assert out.count("\na ") >= 3


def test_check_malformed_file_exits_2(files, capsys):
    g = files("g.graph", "p parity-graph 2 1\ne 1 2\n")
    a = files("a.j", "j-all odd\n")
    code, out, err = run(capsys, "check", g, a)
    assert code == 2
    assert "line 2" in err


def test_check_explicit_assignment_coverage_error(files, capsys):
    g = files("g.graph", K23_TEXT)
    a = files("a.j", "j odd 4 1 2 4 5\n")
    code, _, err = run(capsys, "check", g, a)
    assert code == 2
    assert "cover" in err
    code, out, _ = run(capsys, "--max-circuits", "1000", "check", g, a, "--default-parity", "even")
    assert code in (0, 1)


def test_check_assignment_listing_a_circuit_twice_exits_2(files, capsys):
    # the second line once overrode the first and flipped the verdict
    g = files("g.graph", K23_TEXT)
    a = files("a.j", "j odd 4 1 2 4 5\nj even 4 1 2 4 5\n")
    code, out, err = run(capsys, "check", g, a, "--default-parity", "even")
    assert code == 2 and out == ""
    assert "line 2: circuit [1, 2, 4, 5] is listed twice" in err


def test_scan_k4_all_even(files, capsys):
    g = files("g.graph", K4_TEXT)
    code, out, _ = run(capsys, "scan", g, "--all-even", "--cross-check")
    assert code == 0
    assert out.startswith("WITNESS E1\n")
    assert "w-odd-contraction 3" in out
    assert "CROSS-CHECK OK" in out


def test_scan_k23_all_even_no_witness(files, capsys):
    g = files("g.graph", K23_TEXT)
    code, out, _ = run(capsys, "scan", g, "--all-even", "--cross-check")
    assert code == 1
    assert out == "NO-WITNESS\nCROSS-CHECK OK\n"


def test_scan_o2_all_odd_records_contraction(files, capsys):
    g = files("g.graph", emit_graph(base_graph("O2")))
    code, out, _ = run(capsys, "scan", g, "--all-odd")
    assert code == 0
    assert out.startswith("WITNESS O1\n")
    assert "w-odd-contraction 3 1 2 3" in out


def test_scan_explicit_assignment(files, capsys):
    g = files("g.graph", K23_TEXT)
    a = files("a.j", "j odd 4 1 2 4 5\nj odd 4 1 3 4 6\nj odd 4 2 3 5 6\n")
    code, out, _ = run(capsys, "scan", g, a, "--cross-check")
    assert code == 0 and out.startswith("WITNESS O1\n")


BIG_ALL_ODD_WITNESS = """\
WITNESS O1
w-edges 16 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
w-step contract-degree2 3 11 14
w-step contract-degree2 6 1 2
w-step contract-degree2 8 3 4
w-step contract-degree2 10 5 6
w-step contract-degree2 12 7 8
w-circuit odd 4 12 13 15 16
w-circuit odd 14 1 2 3 4 5 6 7 8 9 10 11 12 14 15
w-circuit odd 14 1 2 3 4 5 6 7 8 9 10 11 13 14 16
"""


D3_ONE_EVEN_WITNESS = """\
WITNESS D3
w-edges 18 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18
w-step contract-degree2 8 1 2
w-step contract-degree2 10 3 4
w-step contract-degree2 12 5 6
w-step contract-degree2 14 7 8
w-circuit even 6 10 11 12 16 17 18
w-circuit odd 6 10 11 13 14 15 18
w-circuit odd 12 1 2 3 4 5 6 7 8 9 12 15 18
w-circuit odd 14 1 2 3 4 5 6 7 8 9 13 14 16 17 18
CROSS-CHECK OK
"""


def test_scan_over_fourteen_vertices_answers(files, capsys):
    # K_{2,3} with one edge made an 11-edge path: 15 vertices.  Every scan
    # walks its chains, so an assignment file finds the all-odd witness.
    big = subdivided([(e.u, e.v) for e in k23().edges], (11, 1, 1, 1, 1, 1))
    g = files("big.graph", emit_graph(big))
    odd = files("odd.j", "j-all odd\n")
    assert run(capsys, "scan", g, "--all-odd") == (0, BIG_ALL_ODD_WITNESS, "")
    assert run(capsys, "scan", g, odd) == (0, BIG_ALL_ODD_WITNESS, "")
    # D3 with one edge made a 9-edge path: 15 vertices and the size of a
    # D3 splitting.  This exited 2 ("splitting search supported up to 14
    # vertices") while D2-D4 were matched by a breadth-first search; now
    # all-odd has no witness, and one even circuit prescribed even makes
    # the whole graph a D3 witness
    d3 = subdivided([(e.u, e.v) for e in base_graph("D3").edges], (9,) + (1,) * 9)
    g = files("d3.graph", emit_graph(d3))
    code, out, err = run(capsys, "scan", g, odd, "--budget", "1000000", "--cross-check")
    assert (code, out, err) == (1, "NO-WITNESS\nCROSS-CHECK OK\n", "")
    one = files("one.j", "j even 6 10 11 12 16 17 18\n")
    argv = ("scan", g, one, "--default-parity", "odd", "--budget", "1000000", "--cross-check")
    assert run(capsys, *argv) == (0, D3_ONE_EVEN_WITNESS, "")


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--all-odd", "--all-even"), "scan takes at most one of --all-odd and --all-even"),
        (("a.j", "--all-odd"), "an assignment file or --default-parity cannot be combined"),
        (("a.j", "--all-even"), "an assignment file or --default-parity cannot be combined"),
        (("--all-odd", "--default-parity", "odd"), "an assignment file or --default-parity"),
        (("--all-even", "--default-parity", "even"), "an assignment file or --default-parity"),
    ],
)
def test_scan_conflicting_flags_exit_2(files, capsys, flags, message):
    # all of these once ran silently: both flags as all-odd, and the
    # assignment file or default parity ignored beside either flag
    g = files("g.graph", K23_TEXT)
    a = files("a.j", "j-all even\n")
    argv = [a if f == "a.j" else f for f in flags]
    code, out, err = run(capsys, "scan", g, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("parity", ["odd", "even"])
def test_default_parity_beside_a_j_all_file_exits_2(files, capsys, parity):
    # check once printed the same verdict with or without the flag, and
    # scan ignored it
    g = files("g.graph", K23_TEXT)
    a = files("a.j", "j-all even\n")
    for argv in (("check", g, a), ("scan", g, a)):
        code, out, err = run(capsys, *argv, "--default-parity", parity)
        assert (code, out) == (2, "")
        assert err == f"error: {a}: a j-all assignment cannot be combined with --default-parity\n"


def test_non_utf8_files_exit_2(tmp_path, files, capsys):
    # a graph or assignment file that is not UTF-8 once crashed with a
    # UnicodeDecodeError traceback and exit 1, the code for a negative result
    bad = tmp_path / "bin.graph"
    bad.write_bytes(b"\xff\xfe" + K23_TEXT.encode("utf-16-le"))
    bad = str(bad)
    g = files("g.graph", K23_TEXT)
    a = files("a.j", "j-all odd\n")
    for argv in (("check", bad, bad), ("check", bad, a), ("check", g, bad),
                 ("scan", g, bad), ("decompose", bad), ("pfaffian", bad)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}: not UTF-8 text (") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [("check", "{g}", "{a}"), ("scan", "{g}", "{a}", "--cross-check"),
     ("decompose", "{g}", "--validate"), ("pfaffian", "{g}")],
    ids=lambda argv: argv[0],
)
def test_files_starting_with_a_byte_order_mark_parse(tmp_path, capsys, argv):
    # a BOM once made line 1 unparseable: "cannot parse '\ufeffp parity-graph 5 6'"
    outputs = []
    for bom in (b"", codecs.BOM_UTF8):
        (tmp_path / "g.graph").write_bytes(bom + K23_TEXT.encode())
        (tmp_path / "a.j").write_bytes(bom + b"j-all odd\n")
        outputs.append(run(capsys, *(arg.format(g=tmp_path / "g.graph", a=tmp_path / "a.j") for arg in argv)))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] in (0, 1) and outputs[0][2] == ""


def test_decode_error_offset_counts_the_byte_order_mark(tmp_path, capsys):
    bad = tmp_path / "g.graph"
    bad.write_bytes(codecs.BOM_UTF8 + b"p parity\xff\n")
    code, out, err = run(capsys, "decompose", str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: not UTF-8 text (invalid start byte at byte 11)\n"


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_scan_budget_below_one_exits_2(files, capsys, budget):
    g = files("g.graph", K23_TEXT)
    a = files("a.j", "j-all odd\n")
    for argv in ((a,), ("--all-odd",), ("--all-even",)):
        code, out, err = run(capsys, "scan", g, *argv, "--budget", budget)
        assert (code, out, err) == (2, "", "error: scan budget must be positive\n")


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_circuit_cap_below_one_exits_2(files, capsys, cap):
    # decompose once printed NOT-EVEN-CIRCUIT-CONNECTED and exited 1, and
    # pfaffian reported "more than 0 perfect matchings"
    g = files("g.graph", SQUARE_TEXT)
    a = files("a.j", "j-all odd\n")
    for argv in (("check", g, a), ("scan", g, a), ("scan", g, "--all-odd"),
                 ("decompose", g), ("pfaffian", g)):
        code, out, err = run(capsys, "--max-circuits", cap, *argv)
        assert (code, out, err) == (2, "", "error: circuit cap must be positive\n")


def test_decompose_k23(files, capsys):
    g = files("g.graph", K23_TEXT)
    code, out, _ = run(capsys, "decompose", g, "--validate")
    assert code == 0
    assert out.startswith("DECOMPOSITION 2\n")
    assert "VALIDATION OK" in out


def test_decompose_tree_exits_1(files, capsys):
    g = files("g.graph", emit_graph(triangle()))
    code, out, _ = run(capsys, "decompose", g)
    assert code == 1
    assert out.startswith("NOT-EVEN-CIRCUIT-CONNECTED\n")


def test_pfaffian_grid(files, capsys):
    g = files("g.graph", emit_graph(grid(2, 3)))
    code, out, _ = run(capsys, "pfaffian", g, "--brute-check")
    assert code == 0
    assert "count 3" in out
    assert "BRUTE-CHECK OK" in out


def test_pfaffian_k33(files, capsys):
    g = files("g.graph", emit_graph(k33()))
    code, out, _ = run(capsys, "pfaffian", g)
    assert code == 1
    assert out.startswith("NOT-PFAFFIAN\n")


def test_pfaffian_odd_vertices_count_zero(files, capsys):
    g = files("g.graph", emit_graph(k23()))
    code, out, _ = run(capsys, "pfaffian", g)
    assert code == 0
    assert "count 0" in out


def test_byte_determinism(files, capsys):
    g = files("g.graph", K4_TEXT)
    a = files("a.j", "j-all even\n")
    outputs = set()
    for _ in range(3):
        code, out, _ = run(capsys, "check", g, a)
        outputs.add((code, out))
        code, out, _ = run(capsys, "scan", g, "--all-even")
        outputs.add((code, out))
        code, out, _ = run(capsys, "decompose", g, "--validate")
        outputs.add((code, out))
    assert len(outputs) == 3


def test_dot_flag(files, capsys):
    g = files("g.graph", K23_TEXT)
    code, out, _ = run(capsys, "scan", g, "--all-odd", "--dot")
    assert code == 0
    assert "graph g {" in out


# negative and sparse ids, a loop and parallel edges; stdout captured from
# the tree that built circuits through circuit_from_edges
K33_NEGATIVE_IDS = """p parity-graph 6 11
e -9 -5 -1
e -7 -5 2
e -4 -5 7
e -2 -3 -1
e 0 -3 2
e 3 -3 7
e 6 11 -1
e 8 11 2
e 13 11 7
e 21 -5 -1
e 40 11 11
"""
CUBE3_NEGATIVE_IDS = """p parity-graph 8 14
e -30 -8 -6
e -27 -8 -2
e -24 -8 5
e -21 -6 0
e -18 -6 9
e -15 -2 0
e -12 -2 14
e -9 0 20
e -6 5 9
e -3 5 14
e 0 9 20
e 3 14 20
e 6 -8 -6
e 9 5 5
"""


@pytest.mark.parametrize(
    "text, check_out, pfaffian_code, pfaffian_out",
    [
        (
            K33_NEGATIVE_IDS,
            "INCOMPATIBLE\ns 3\nsc 4 -9 -7 -2 0\nsc 4 -9 -4 -2 3\nsc 4 -7 -4 0 3\n",
            1,
            "NOT-PFAFFIAN\ns 3\nsc 4 -9 -7 -2 0\nsc 4 -9 -4 -2 3\nsc 4 -7 -4 0 3\n",
        ),
        (
            CUBE3_NEGATIVE_IDS,
            "INCOMPATIBLE\ns 3\nsc 4 -15 -12 -9 3\nsc 6 -30 -27 -18 -15 -9 0\n"
            "sc 6 -30 -27 -18 -12 0 3\n",
            0,
            "PFAFFIAN\na -30 -8 -6\na -27 -2 -8\na -24 -8 5\na -21 0 -6\na -18 -6 9\n"
            "a -15 0 -2\na -12 -2 14\na -9 0 20\na -6 9 5\na -3 5 14\na 0 9 20\n"
            "a 3 14 20\na 6 -8 -6\na 9 5 5\ncount 12\n",
        ),
    ],
    ids=["k33", "cube3"],
)
def test_check_and_pfaffian_stdout_on_negative_ids_is_pinned(
    files, capsys, text, check_out, pfaffian_code, pfaffian_out
):
    g = files("g.graph", text)
    a = files("a.j", "j-all odd\n")
    assert run(capsys, "check", g, a)[:2] == (1, check_out)
    assert run(capsys, "pfaffian", g)[:2] == (pfaffian_code, pfaffian_out)


def test_scan_without_budget_passes_the_scanners_default(files, capsys, monkeypatch):
    seen = []

    def recorder(name):
        original = getattr(scanner, name)

        def record(*args, **kwargs):
            seen.append((name, inspect.signature(original).bind(*args, **kwargs).arguments["budget"]))
            return None

        return record

    for name in ("scan_all_odd", "scan_all_even", "find_witness"):
        monkeypatch.setattr(scanner, name, recorder(name))
    g = files("g.graph", K23_TEXT)
    a = files("a.j", "j-all odd\n")
    for flags, budget in (((), scanner.DEFAULT_SCAN_BUDGET), (("--budget", "7"), 7)):
        for argv, name in (((a,), "find_witness"), (("--all-odd",), "scan_all_odd"),
                           (("--all-even",), "scan_all_even")):
            seen.clear()
            assert run(capsys, "scan", g, *argv, *flags)[:2] == (1, "NO-WITNESS\n")
            assert seen == [(name, budget)]


def test_budget_help_names_the_default_and_the_full_scan_count(capsys):
    # every mask of three or more edges counts, so all of an 18-edge graph
    # takes the masks of 3..18 edges
    with pytest.raises(SystemExit):
        main(["scan", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"(default {scanner.DEFAULT_SCAN_BUDGET})" in text
    full = sum(math.comb(18, s) for s in range(3, 19))
    assert full > scanner.DEFAULT_SCAN_BUDGET and f"{full} for 18 edges" in text


_MODULES_CHILD = """
import contextlib, io, sys
from paritygraph.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("paritygraph.")))
"""


@pytest.mark.parametrize(
    "argv, loaded, absent",
    [
        (("check", "{fixtures}/O1.graph", "{a}"), "solver",
         ("scanner", "catalog", "transforms", "arcdecomp", "pfaffian")),
        (("decompose", "{fixtures}/A2.graph", "--validate"), "arcdecomp",
         ("scanner", "catalog", "transforms", "pfaffian")),
        (("pfaffian", "{fixtures}/O1.graph"), "pfaffian",
         ("scanner", "catalog", "transforms", "arcdecomp")),
        (("scan", "{fixtures}/O1.graph", "--all-odd"), "scanner", ("arcdecomp", "pfaffian")),
    ],
    ids=["check", "decompose", "pfaffian", "scan"],
)
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, loaded, absent):
    # a check process once compiled and ran the scanner, catalog, transforms,
    # arcdecomp and pfaffian modules, which it never calls
    a = tmp_path / "a.j"
    a.write_text("j-all odd\n")
    fixtures = Path(paritygraph.__file__).parent / "fixtures"
    env = dict(os.environ, PYTHONPATH=str(fixtures.parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_CHILD, *(arg.format(fixtures=fixtures, a=a) for arg in argv)],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    status, *modules = proc.stdout.decode().split()
    assert status in ("0", "1")
    assert f"paritygraph.{loaded}" in modules
    assert not {f"paritygraph.{name}" for name in absent} & set(modules)
