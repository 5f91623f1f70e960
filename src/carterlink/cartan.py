"""Partial Cartan matrix of a diagram: one exact integer core.

The matrix B has 2 on the diagonal and the edge sign (-1 solid, +1 dotted)
off it.  For Dynkin diagrams this is the classical Cartan matrix.  A single
fraction-free elimination of [B | I] (Bareiss, Math. Comp. 22 (1968)
565-578) yields everything the pipeline reads.  Its pivots are the leading
minors of B, so B is positive definite exactly when every pivot is positive,
and det B is the last pivot.  Its right half gives the prefix data of the
linkage search and B^-1 = N / D with N and D integers.  All of it is
computed once, on plain integers; ``B``, ``B_inv`` and ``det`` hand out the
same values as exact Fractions, the matrices as a read-only ``RMatrix``.
There is no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from . import diagram as dg

IntMatrix = tuple[tuple[int, ...], ...]
Scalar = Union[int, Fraction]


class LinalgError(ValueError):
    """Malformed input: dimension mismatch, empty matrix, bad entry."""


def as_rational(x: Scalar) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject anything inexact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise LinalgError(f"exact entries must be int or Fraction, got {type(x).__name__}")


class RMatrix:
    """Immutable dense matrix of exact rationals, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[Scalar]) -> None:
        flat = tuple(as_rational(x) for x in entries)
        if len(flat) != rows * cols:
            raise LinalgError(f"need {rows * cols} entries, got {len(flat)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", flat)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "RMatrix":
        n = len(rows)
        if n == 0:
            raise LinalgError("matrix needs at least one row")
        m = len(rows[0])
        if any(len(r) != m for r in rows):
            raise LinalgError("ragged rows")
        return cls(n, m, (x for r in rows for x in r))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __getitem__(self, ij: tuple) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise LinalgError(f"index ({i},{j}) out of range")
        return self.entries[i * self.cols + j]

    def __repr__(self) -> str:
        return f"RMatrix({self.rows}x{self.cols})"


class CartanError(ValueError):
    """The diagram does not carry a positive definite form."""


@dataclass(frozen=True)
class PartialCartan:
    """A diagram with B, B^-1 and det B, and the integer core behind them.

    ``gram`` is B as integers.  ``prefix`` is (rows, weights, den): with
    z_k = sum(rows[k][j] * v[j], j <= k), the form of the inverse of the
    leading (k+1)x(k+1) block of B at v_0..v_k equals
    sum(weights[i] * z_i**2, i <= k) / den; at k = l-1 that is the form of
    B^-1 at v.  B^-1 = inv_num / inv_den, where inv_den is the least common
    denominator of the entries.
    """

    diagram: dg.CarterDiagram
    B: RMatrix
    B_inv: RMatrix
    det: Fraction
    gram: IntMatrix = field(repr=False, compare=False)
    prefix: tuple[IntMatrix, tuple[int, ...], int] = field(repr=False, compare=False)
    inv_num: IntMatrix = field(repr=False, compare=False)
    inv_den: int = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.diagram)


def _eliminate(b: Sequence[Sequence[int]]) -> Optional[list[list[int]]]:
    """Fraction-free elimination of [B | I] without row swaps.

    Row k of the result has the leading minor of order k+1 as its pivot
    [k][k].  Returns None at the first pivot <= 0, which by Sylvester's
    criterion means B is not positive definite.
    """
    l = len(b)
    m = [list(row) + [int(i == j) for j in range(l)] for i, row in enumerate(b)]
    prev = 1
    for k in range(l):
        if m[k][k] <= 0:
            return None
        for i in range(k + 1, l):
            m[i] = [(m[k][k] * x - m[i][k] * y) // prev for x, y in zip(m[i], m[k])]
        prev = m[k][k]
    return m


def build_partial_cartan(d: dg.CarterDiagram) -> PartialCartan:
    """Build B from the diagram and its exact integer core.

    Raises CartanError when the diagram is malformed or its form is not
    positive definite (an extended Dynkin diagram, for example, has det 0
    and corresponds to no linearly independent root subset).
    """
    problems = dg.validate(d)
    if problems:
        raise CartanError(f"{d.name}: " + "; ".join(problems))
    gram = d.gram()
    b = RMatrix.from_rows(gram)
    m = _eliminate(gram)
    if m is None:
        raise CartanError(f"{d.name}: the partial Cartan matrix is not positive definite")
    l = len(gram)
    minors = [1] + [m[k][k] for k in range(l)]
    products = [minors[k] * minors[k + 1] for k in range(l)]
    den = lcm(*products)
    rows = tuple(tuple(m[k][l:l + k + 1]) for k in range(l))
    weights = tuple(den // p for p in products)
    # B^-1 = sum(weights[k] * z_k z_k^T) / den, z_k being rows[k] padded with zeros
    num = [[sum(weights[k] * rows[k][i] * rows[k][j] for k in range(max(i, j), l))
            for j in range(l)] for i in range(l)]
    g = gcd(den, *(x for row in num for x in row))
    inv_num = tuple(tuple(x // g for x in row) for row in num)
    inv_den = den // g
    b_inv = RMatrix(l, l, (Fraction(x, inv_den) for row in inv_num for x in row))
    return PartialCartan(d, b, b_inv, Fraction(minors[l]), gram, (rows, weights, den),
                         inv_num, inv_den)


def inverse_diagonal(pc: PartialCartan, v) -> Fraction:
    """The diagonal entry of B^-1 at vertex v."""
    i = pc.diagram.index_of(v)
    return pc.B_inv[i, i]


def simply_extendable(pc: PartialCartan, v) -> bool:
    """A leaf may be solid-attached at v exactly when (B^-1)_vv < 2."""
    return inverse_diagonal(pc, v) < 2
