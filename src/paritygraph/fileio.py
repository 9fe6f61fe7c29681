"""Text formats: graph files, assignment files, DOT rendering.

Graph files are DIMACS-like, with exactly one ``p`` header line.
Canonical form (what ``emit_graph`` produces) lists isolated vertices
first, then edges by ascending id, single spaces, trailing newline;
parsing then emitting a canonical file reproduces it byte for byte.

    c free-form comment
    p parity-graph <n> <m>
    v <vertex_id>
    e <edge_id> <u> <v>

Assignment files carry either one ``j-all odd|even`` line or one ``j``
line per even circuit, each circuit once and each edge id once in it:

    j <odd|even> <k> <edge_id_1> ... <edge_id_k>
"""

from __future__ import annotations

from typing import Optional

from .circuits import Parity
from .errors import InputError
from .graphs import Multigraph, Orientation
from .solver import IntractableCertificate, ParityAssignment


def parse_graph(text: str) -> Multigraph:
    n = m = None
    vertices: list[int] = []
    edges: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "p" and n is not None:
            raise InputError(f"line {lineno}: a second 'p parity-graph' header")
        try:
            if kind == "p":
                if len(parts) != 4 or parts[1] != "parity-graph":
                    raise ValueError
                n, m = int(parts[2]), int(parts[3])
            elif kind == "v":
                if len(parts) != 2:
                    raise ValueError
                vertices.append(int(parts[1]))
            elif kind == "e":
                if len(parts) != 4:
                    raise ValueError
                edges.append((int(parts[1]), int(parts[2]), int(parts[3])))
            else:
                raise ValueError
        except ValueError:
            raise InputError(f"line {lineno}: cannot parse {raw!r}") from None
    if n is None:
        raise InputError("missing 'p parity-graph <n> <m>' header")
    for _, u, v in edges:
        vertices.append(u)
        vertices.append(v)
    g = Multigraph.build(vertices, edges)
    if g.n_vertices != n or g.n_edges != m:
        raise InputError(
            f"header says {n} vertices {m} edges, file has {g.n_vertices} and {g.n_edges}"
        )
    return g


def emit_graph(g: Multigraph) -> str:
    lines = [f"p parity-graph {g.n_vertices} {g.n_edges}"]
    for v in g.vertex_ids:
        if not g.incidence[v]:
            lines.append(f"v {v}")
    for e in g.edges:
        lines.append(f"e {e.id} {e.u} {e.v}")
    return "\n".join(lines) + "\n"


def parse_assignment(text: str) -> ParityAssignment:
    explicit: dict[frozenset[int], Parity] = {}
    constant: Optional[ParityAssignment] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if constant is not None:
            raise InputError(f"line {lineno}: nothing may follow the j-all line")
        parts = line.split()
        if parts[0] == "j-all":
            if len(parts) != 2 or parts[1] not in ("odd", "even"):
                raise InputError(f"line {lineno}: cannot parse {raw!r}")
            if explicit:
                raise InputError(f"line {lineno}: j-all cannot follow j lines")
            constant = (
                ParityAssignment.all_odd()
                if parts[1] == "odd"
                else ParityAssignment.all_even()
            )
            continue
        if parts[0] != "j":
            raise InputError(f"line {lineno}: cannot parse {raw!r}")
        try:
            parity = {"odd": Parity.ODD, "even": Parity.EVEN}[parts[1]]
            k = int(parts[2])
            ids = [int(x) for x in parts[3:]]
        except (KeyError, ValueError, IndexError):
            raise InputError(f"line {lineno}: cannot parse {raw!r}") from None
        if len(ids) != k:
            raise InputError(f"line {lineno}: expected {k} edge ids, got {len(ids)}")
        if k % 2:
            raise InputError(f"line {lineno}: circuit length {k} is odd")
        key = frozenset(ids)
        if len(key) != k:
            raise InputError(f"line {lineno}: an edge id is repeated")
        if key in explicit:
            raise InputError(f"line {lineno}: circuit {sorted(key)} is listed twice")
        explicit[key] = parity
    if constant is not None:
        return constant
    if not explicit:
        raise InputError("assignment file lists no circuits")
    return ParityAssignment.from_map(explicit)


def emit_orientation_block(o: Orientation) -> str:
    lines = []
    for eid in sorted(o.direction):
        t, h = o.direction[eid]
        lines.append(f"a {eid} {t} {h}")
    return "\n".join(lines) + "\n" if lines else ""


def emit_certificate_block(cert: IntractableCertificate) -> str:
    lines = [f"s {len(cert.circuits)}"]
    for c in cert.circuits:
        lines.append(f"sc {len(c)} " + " ".join(str(i) for i in c.edge_ids))
    return "\n".join(lines) + "\n"


def to_dot(g: Multigraph, highlight: Optional[frozenset[int]] = None) -> str:
    """A Graphviz rendering; highlighted edges come out bold red."""
    highlight = highlight or frozenset()
    lines = ["graph g {"]
    for v in g.vertex_ids:
        lines.append(f"  {v};")
    for e in g.edges:
        attr = ' [color="red", style="bold"]' if e.id in highlight else ""
        lines.append(f"  {e.u} -- {e.v}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
