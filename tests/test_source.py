"""Checks over the package's source text."""

import ast
import importlib
import re
from pathlib import Path

import paritygraph


def test_no_runtime_assert_in_package():
    # `python -O` strips asserts, so runtime checks must raise typed errors
    offenders = []
    for path in sorted(Path(paritygraph.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_bare_or_broad_except_in_package():
    # a handler that catches everything may hide a bug; each one names
    # the typed errors it expects
    offenders = []
    for path in sorted(Path(paritygraph.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(
                t is None or isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")
                for t in caught
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _library_table_rows():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    for line in readme.read_text().splitlines():
        m = re.match(r"\| `(\w+)` +\| (.*) \|$", line)
        if m:
            yield m.group(1), m.group(2)


def test_readme_library_table_names_resolve():
    rows = list(_library_table_rows())
    assert len(rows) >= 10
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(f"paritygraph.{module_name}")
        for token in re.findall(r"`([^`]+)`", contents):
            name = re.match(r"\w+", token).group(0)
            if not hasattr(module, name):
                missing.append(f"{module_name}.{name}")
    assert missing == []


def test_package_all_names_import():
    namespace: dict = {}
    exec("from paritygraph import *", namespace)
    assert [n for n in paritygraph.__all__ if n not in namespace] == []
