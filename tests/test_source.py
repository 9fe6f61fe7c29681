"""Checks over the package's source text."""

import ast
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
