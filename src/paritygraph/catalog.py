"""The minimal-obstruction catalog and its transcription self-check.

Fourteen small multigraphs are shipped as data files.  Nine of them (O1,
O2, E1, E2, E3, D1..D4) are the bases the witness scanner matches
against; A1..A5 are the extra shapes a first-stage 2-arc adjunction can
produce in an arc decomposition.  The drawings behind the D and A entries
were transcribed from the source material's figures via the structural
constraints they must satisfy, and catalog_selfcheck verifies every one
of those constraints by direct computation, so a bad transcription cannot
go unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import combinations, product
from typing import Iterable

from . import fileio
from .circuits import Parity, enumerate_circuits, even_circuits, is_even_circuit_connected
from .errors import FixtureError
from .gf2 import left_nullspace_basis
from .graphs import Multigraph, is_bipartite, isomorphic
from .solver import IntractableCertificate, ParityAssignment, circuit_matrix, decide
from .transforms import subdivide_edge

CATALOG_NAMES = (
    "O1", "O2", "E1", "E2", "E3",
    "D1", "D2", "D3", "D4",
    "A1", "A2", "A3", "A4", "A5",
)

#: bases eligible as incompatibility witnesses, in deterministic scan order
WITNESS_BASES = ("O1", "O2", "E1", "E2", "E3", "D1", "D2", "D3", "D4")

#: shapes a non-bipartite decomposition's first 2-arc stage may take
ADJUNCTION_BASES = ("O1", "O2", "E1", "E2", "E3", "A1", "A2", "A3", "A4", "A5")

EVEN_CIRCUIT_COUNT = {
    "O1": 3, "O2": 3, "E1": 3, "E2": 3, "E3": 3,
    "D1": 4, "D2": 4, "D3": 4, "D4": 4,
}

#: a base certifies incompatibility when the number of its even circuits
#: prescribed clockwise-even has this parity
PARITY_RULE = {
    "O1": Parity.EVEN, "O2": Parity.EVEN,
    "E1": Parity.ODD, "E2": Parity.ODD, "E3": Parity.ODD,
    "D1": Parity.ODD, "D2": Parity.ODD, "D3": Parity.ODD, "D4": Parity.ODD,
}


def rule_triggered(name: str, parities: Iterable[Parity]) -> bool:
    """Whether prescribing ``parities`` to the even circuits of base
    ``name`` triggers its ``PARITY_RULE``."""
    return sum(1 for p in parities if p == Parity.EVEN) % 2 == PARITY_RULE[name]


@lru_cache(maxsize=1)
def catalog() -> dict[str, Multigraph]:
    out = {}
    for name in CATALOG_NAMES:
        text = (
            resources.files("paritygraph").joinpath(f"fixtures/{name}.graph").read_text()
        )
        out[name] = fileio.parse_graph(text)
    return out


def base_graph(name: str) -> Multigraph:
    return catalog()[name]


@dataclass(frozen=True)
class SelfcheckReport:
    checks: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)


def _k4() -> Multigraph:
    return Multigraph.from_pairs([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])


def _k23() -> Multigraph:
    return Multigraph.from_pairs([(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])


def _subdivide_once(g: Multigraph, edge_ids: list[int]) -> Multigraph:
    """``g`` with each listed edge replaced by a 2-edge path through a
    fresh vertex, in list order."""
    for eid in edge_ids:
        g = subdivide_edge(g, eid, 2)
    return g


def _unique_full_dependency(g: Multigraph) -> bool:
    """The even circuits have one dependency, and it takes them all."""
    evens = even_circuits(g)
    return left_nullspace_basis(circuit_matrix(evens)[0]) == [frozenset(range(len(evens)))]


def _incompatibility_pattern_matches(name: str, g: Multigraph) -> bool:
    evens = even_circuits(g)
    for bits in product([Parity.ODD, Parity.EVEN], repeat=len(evens)):
        j = ParityAssignment.from_map(dict(zip((c.edge_set for c in evens), bits)))
        incompatible = isinstance(decide(g, j), IntractableCertificate)
        if incompatible != rule_triggered(name, bits):
            return False
    return True


def catalog_selfcheck() -> SelfcheckReport:
    """Verify every catalog invariant by direct computation.

    Raises FixtureError naming the first failed entry, and also returns
    the full report when everything passes.
    """
    cat = catalog()
    checks: list[tuple[str, bool]] = []

    def check(label: str, passed: bool) -> None:
        checks.append((label, passed))
        if not passed:
            raise FixtureError(f"catalog selfcheck failed: {label}")

    check("O1 is K_{2,3}", isomorphic(cat["O1"], _k23()))
    check("E1 is the triple edge", cat["E1"].n_vertices == 2
          and cat["E1"].n_edges == 3
          and all(not e.is_loop for e in cat["E1"].edges))
    check("E2 is K4", isomorphic(cat["E2"], _k4()))

    k4 = _k4()
    at_4 = [e.id for e in k4.edges if 4 in (e.u, e.v)]
    check("O2 arises from K4 by subdividing the edges at one vertex",
          isomorphic(cat["O2"], _subdivide_once(k4, at_4)))
    # edges 1, 4, 6, 3 are the 4-circuit 1-2, 2-3, 3-4, 4-1 of _k4()
    check("E3 arises from K4 by subdividing a fixed even circuit once",
          isomorphic(cat["E3"], _subdivide_once(k4, [1, 4, 6, 3])))

    for name, expected in EVEN_CIRCUIT_COUNT.items():
        check(f"{name} has exactly {expected} even circuits",
              len(even_circuits(cat[name])) == expected)

    # D2..D4 arise from D1 by contracting edges
    d1 = cat["D1"]
    for name in ("D2", "D3", "D4"):
        found = False
        for k in range(1, 4):
            for ids in combinations(sorted(d1.edge_id_set), k):
                contracted, _ = d1.contract_edges(set(ids))
                if isomorphic(contracted, cat[name]):
                    found = True
                    break
            if found:
                break
        check(f"{name} arises from D1 by contracting edges", found)

    for name in ("D1", "D2", "D3", "D4"):
        check(f"{name}: the four even circuits form the only dependent set",
              _unique_full_dependency(cat[name]))

    for name in WITNESS_BASES:
        check(f"{name} incompatible exactly per its parity rule",
              _incompatibility_pattern_matches(name, cat[name]))

    # contraction relations within the O/E families
    for name, image, label in (
        ("O2", _k23(), "contracting the triangle in O2 gives O1"),
        ("E2", cat["E1"], "contracting a triangle in E2 gives E1"),
    ):
        triangle = next(c.edge_set for c in enumerate_circuits(cat[name]) if len(c) == 3)
        contracted, _ = cat[name].contract_edges(triangle)
        check(label, isomorphic(contracted, image))

    # A-entries: each is the union of its two even circuits, is
    # even-circuit-connected and contains an odd circuit, as a first-stage
    # 2-arc adjunction must be
    for name in ("A1", "A2", "A3", "A4", "A5"):
        g = cat[name]
        ev = even_circuits(g)
        union = set()
        for c in ev:
            union |= c.edge_set
        check(f"{name} is the union of its two even circuits",
              len(ev) == 2 and union == set(g.edge_id_set))
        check(f"{name} is even-circuit-connected and non-bipartite",
              is_even_circuit_connected(g) and not is_bipartite(g))

    return SelfcheckReport(tuple(checks))
