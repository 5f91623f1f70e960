"""Exact rational vectors and dense matrices.

Everything in this package except the integer linkage search computes
through these helpers.  All arithmetic is ``fractions.Fraction`` based; there
is no floating point anywhere.  Matrices
are tiny (rank <= 13), so clarity wins over asymptotics: plain Gauss-Jordan
with exact pivoting is used for determinants and inverses.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Fraction
Scalar = Union[int, Fraction]


class LinalgError(ValueError):
    """Malformed input: dimension mismatch, non-square matrix, bad entry."""


class SingularMatrixError(LinalgError):
    """The matrix has no inverse."""


def as_rational(x: Scalar) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject anything inexact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise LinalgError(f"exact entries must be int or Fraction, got {type(x).__name__}")


class RVector:
    """Immutable vector of exact rationals."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Scalar]) -> None:
        object.__setattr__(self, "entries", tuple(as_rational(x) for x in entries))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RVector is immutable")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RVector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __neg__(self) -> "RVector":
        return RVector(-x for x in self.entries)

    def __repr__(self) -> str:
        return f"RVector({', '.join(str(x) for x in self.entries)})"


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

    @classmethod
    def identity(cls, n: int) -> "RMatrix":
        return cls(n, n, (1 if i == j else 0 for i in range(n) for j in range(n)))

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

    def to_lists(self) -> list:
        return [list(self.entries[i * self.cols : (i + 1) * self.cols]) for i in range(self.rows)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self[i, j] == self[j, i] for i in range(self.rows) for j in range(i)
        )

    def mat_vec(self, v: Union[RVector, Sequence[Scalar]]) -> RVector:
        vv = v.entries if isinstance(v, RVector) else tuple(as_rational(x) for x in v)
        if len(vv) != self.cols:
            raise LinalgError(f"mat_vec: {self.cols} columns vs vector of {len(vv)}")
        return RVector(
            sum((self[i, j] * vv[j] for j in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        )

    def mat_mul(self, other: "RMatrix") -> "RMatrix":
        if self.cols != other.rows:
            raise LinalgError(f"mat_mul: {self.cols} vs {other.rows}")
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                out.append(
                    sum((self[i, k] * other[k, j] for k in range(self.cols)), Fraction(0))
                )
        return RMatrix(self.rows, other.cols, out)

    def __repr__(self) -> str:
        return f"RMatrix({self.rows}x{self.cols})"


def mat_det(m: RMatrix) -> Fraction:
    """Exact determinant by Gaussian elimination with row swaps."""
    if not m.is_square():
        raise LinalgError(f"determinant of a {m.rows}x{m.cols} matrix")
    n = m.rows
    a = m.to_lists()
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            if a[r][c] == 0:
                continue
            f = a[r][c] * inv
            for k in range(c, n):
                a[r][k] -= f * a[c][k]
    return det


def mat_inverse(m: RMatrix) -> RMatrix:
    """Exact inverse by Gauss-Jordan; raises SingularMatrixError when det = 0."""
    if not m.is_square():
        raise LinalgError(f"inverse of a {m.rows}x{m.cols} matrix")
    n = m.rows
    a = [row + ident for row, ident in zip(m.to_lists(), RMatrix.identity(n).to_lists())]
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return RMatrix.from_rows([row[n:] for row in a])


def quad_form(m: RMatrix, v: Union[RVector, Sequence[Scalar]]) -> Fraction:
    """Evaluate v^T m v exactly."""
    vv = v.entries if isinstance(v, RVector) else tuple(as_rational(x) for x in v)
    if not m.is_square():
        raise LinalgError("quadratic form needs a square matrix")
    if len(vv) != m.rows:
        raise LinalgError(f"quad_form: matrix rank {m.rows} vs vector of {len(vv)}")
    total = Fraction(0)
    for i, vi in enumerate(vv):
        if vi == 0:
            continue
        row = m.entries[i * m.cols : (i + 1) * m.cols]
        total += vi * sum((a * b for a, b in zip(row, vv) if b != 0), Fraction(0))
    return total


def is_positive_definite(m: RMatrix) -> bool:
    """Sylvester test via elimination without row swaps (symmetric input)."""
    if not m.is_symmetric():
        return False
    n = m.rows
    a = m.to_lists()
    for c in range(n):
        if a[c][c] <= 0:
            return False
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            if a[r][c] == 0:
                continue
            f = a[r][c] * inv
            for k in range(c, n):
                a[r][k] -= f * a[c][k]
    return True


def rank(vectors: Sequence[Sequence[Scalar]]) -> int:
    """Exact rank of a list of row vectors."""
    rows = [[as_rational(x) for x in v] for v in vectors]
    r = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                for k in range(c, cols):
                    rows[i][k] -= f * rows[r][k]
        r += 1
        if r == len(rows):
            break
    return r


def common_denominator(m: RMatrix) -> int:
    """Least common denominator of all entries."""
    den = 1
    for x in m.entries:
        g = _gcd(den, x.denominator)
        den = den // g * x.denominator
    return den


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a
