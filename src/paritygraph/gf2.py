"""Exact linear algebra over GF(2) on bit-packed rows.

Rows are Python ints (bit j = column j), so XOR is word-parallel and
widths are unbounded.  Elimination always picks the lowest available
column as pivot, which makes every result bit-for-bit deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

from .errors import InputError

EXHAUSTIVE_NULLSPACE_DIM = 16


def bits_to_indices(bits: int) -> list[int]:
    """Positions of the set bits, ascending, peeled off lowest-first."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def indices_to_bits(indices: Iterable[int]) -> int:
    bits = 0
    for i in indices:
        bits |= 1 << i
    return bits


def combination_walk(basis: Sequence[int]) -> Iterator[int]:
    """Every nonempty XOR combination of ``basis``, in Gray-code order.

    Step k flips the basis member at the lowest set bit of k, so each
    combination costs one XOR.
    """
    acc = 0
    for k in range(1, 1 << len(basis)):
        acc ^= basis[(k & -k).bit_length() - 1]
        yield acc


@dataclass(frozen=True)
class Gf2Matrix:
    rows: tuple[int, ...]
    width: int

    @staticmethod
    def from_bitmasks(masks: Iterable[int], width: int) -> "Gf2Matrix":
        masks = tuple(int(m) for m in masks)
        for m in masks:
            if m >> width:
                raise InputError("bitmask wider than declared width")
        return Gf2Matrix(masks, width)

    @property
    def n_rows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class Inconsistency:
    """Rows summing to zero while their right-hand sides sum to one, and
    the matrix's ``left_nullspace_basis``."""

    row_combination: frozenset[int]
    nullspace: list[frozenset[int]]


def _eliminate(a: Gf2Matrix, rhs: Sequence[int] | None):
    """Forward elimination tracking row combinations.

    Returns (work, pivots) where work is a list of [row_bits, combo_bits,
    rhs_bit] in eliminated order and pivots maps column -> work index.
    """
    work = []
    for i, row in enumerate(a.rows):
        b = 0 if rhs is None else (rhs[i] & 1)
        work.append([row, 1 << i, b])
    pivots: dict[int, int] = {}
    r = 0
    for col in range(a.width):
        pivot = None
        for i in range(r, len(work)):
            if (work[i][0] >> col) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        bit = 1 << col
        for i in range(len(work)):
            if i != r and (work[i][0] & bit):
                work[i][0] ^= work[r][0]
                work[i][1] ^= work[r][1]
                work[i][2] ^= work[r][2]
        pivots[col] = r
        r += 1
    return work, pivots


def _nullspace_basis(work) -> list[frozenset[int]]:
    basis = [frozenset(bits_to_indices(combo)) for row_bits, combo, _ in work if not row_bits]
    basis.sort(key=lambda rows: (len(rows), sorted(rows)))
    return basis


def solve(a: Gf2Matrix, b: Sequence[int]) -> Union[tuple[int, ...], Inconsistency]:
    """A solution of a.x = b with free variables zero, or an Inconsistency.

    The inconsistency names original row indices whose GF(2) sum is the
    zero vector while the matching right-hand sides sum to one.  Pivot
    choice never reads ``b``, so its nullspace is ``left_nullspace_basis``.
    """
    if len(b) != a.n_rows:
        raise InputError(
            f"right-hand side has {len(b)} entries for {a.n_rows} rows"
        )
    work, pivots = _eliminate(a, b)
    for row_bits, combo, rhs_bit in work:
        if row_bits == 0 and rhs_bit:
            return Inconsistency(frozenset(bits_to_indices(combo)), _nullspace_basis(work))
    x = [0] * a.width
    for col, i in pivots.items():
        x[col] = work[i][2]  # reduced echelon: rhs bit is the value
    return tuple(x)


def left_nullspace_basis(a: Gf2Matrix) -> list[frozenset[int]]:
    """Row-index sets whose rows sum to zero, one per dependency."""
    work, _ = _eliminate(a, None)
    return _nullspace_basis(work)
