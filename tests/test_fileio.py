import pytest

from paritygraph import Multigraph, Parity
from paritygraph.errors import InputError
from paritygraph.fileio import (
    emit_graph,
    parse_assignment,
    parse_graph,
    to_dot,
)

from conftest import k23

K23_TEXT = """c complete bipartite 2x3
p parity-graph 5 6
e 1 1 3
e 2 1 4
e 3 1 5
e 4 2 3
e 5 2 4
e 6 2 5
"""


def test_parse_graph_roundtrip():
    g = parse_graph(K23_TEXT)
    assert g == k23()
    canonical = emit_graph(g)
    assert emit_graph(parse_graph(canonical)) == canonical


def test_emit_lists_isolated_vertices():
    g = Multigraph.build([1, 2, 3], [(1, 1, 2)])
    text = emit_graph(g)
    assert "v 3" in text
    assert parse_graph(text) == g


def test_parse_rejects_header_mismatch():
    bad = K23_TEXT.replace("p parity-graph 5 6", "p parity-graph 5 7")
    with pytest.raises(InputError):
        parse_graph(bad)


def test_parse_reports_line_numbers():
    bad = K23_TEXT.replace("e 4 2 3", "e 4 2")
    with pytest.raises(InputError) as exc:
        parse_graph(bad)
    assert "line 6" in str(exc.value)


def test_parse_rejects_a_second_header():
    # the later header once won silently: this parsed as a triangle
    text = "p parity-graph 4 4\np parity-graph 3 3\ne 1 1 2\ne 2 2 3\ne 3 1 3\n"
    with pytest.raises(InputError, match="line 2: a second 'p parity-graph' header"):
        parse_graph(text)


def test_parse_requires_header():
    with pytest.raises(InputError):
        parse_graph("e 1 1 2\n")


def test_assignment_all_forms():
    j = parse_assignment("j-all odd\n")
    assert j.kind == "all-odd"
    j = parse_assignment("j-all even\n")
    assert j.kind == "all-even"
    j = parse_assignment("j odd 4 1 2 4 5\nj even 4 1 3 4 6\n")
    assert j.kind == "explicit"
    assert j.explicit[frozenset({1, 2, 4, 5})] == Parity.ODD
    assert j.explicit[frozenset({1, 3, 4, 6})] == Parity.EVEN


def test_assignment_rejects_odd_length():
    with pytest.raises(InputError):
        parse_assignment("j odd 3 1 2 4\n")


def test_assignment_rejects_count_mismatch():
    with pytest.raises(InputError):
        parse_assignment("j odd 4 1 2 4\n")


def test_assignment_rejects_empty():
    with pytest.raises(InputError):
        parse_assignment("c nothing here\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("j-all odd\nnot an assignment line\n", "line 2: nothing may follow the j-all line"),
        ("j-all odd\nc comment\n\nj-all even\n", "line 4: nothing may follow the j-all line"),
        ("j-all even\nj odd 4 1 2 4 5\n", "line 2: nothing may follow the j-all line"),
        ("j odd 4 1 2 4 5\nj even 4 5 4 2 1\n", "line 2: circuit [1, 2, 4, 5] is listed twice"),
        ("j odd 4 1 2 4 5\nj odd 4 1 2 4 5\n", "line 2: circuit [1, 2, 4, 5] is listed twice"),
        ("j odd 4 1 2 4 5\nj even 4 1 3 3 6\n", "line 2: an edge id is repeated"),
        ("j odd 4 1 2 2 1\n", "line 1: an edge id is repeated"),
    ],
    ids=["garbage-after-j-all", "j-all-twice", "j-after-j-all", "circuit-reordered",
         "circuit-repeated", "id-repeated", "ids-repeated"],
)
def test_assignment_rejects_trailing_lines_repeated_circuits_and_ids(text, message):
    with pytest.raises(InputError) as exc:
        parse_assignment(text)
    assert str(exc.value) == message


def test_assignment_j_all_allows_trailing_comments():
    assert parse_assignment("j-all odd\nc note\n\n").kind == "all-odd"


def test_dot_output_mentions_edges():
    text = to_dot(k23(), highlight=frozenset({1}))
    assert "graph g {" in text
    assert "1 -- 3 [color=" in text
