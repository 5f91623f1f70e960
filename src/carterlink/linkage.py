"""Enumeration of linkage label vectors by the inverse quadratic form test.

A vector v over {-1,0,1}, indexed by the diagram vertices, is a linkage
label vector exactly when the quadratic form of B^-1 takes a value < 2 on
it.  The vectors are found by a depth-first search over the coordinates in
vertex order (Fincke and Pohst, Math. Comp. 44 (1985) 463-471): the least
value of the form over real completions of a prefix v_0..v_k is the form of
the inverse of the leading (k+1)x(k+1) block of B (a Schur complement), and
that bound only grows with k, so a prefix is dropped as soon as it reaches
2.  All arithmetic is on plain integers.  Results come out in lexicographic
order (-1 < 0 < 1), so every downstream structure is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from . import diagram as dg
from .cartan import PartialCartan
from .linalg import quad_form

Linkage = tuple[int, ...]


@dataclass(frozen=True)
class ExtensionSet:
    """All linkage vectors sharing one value p of the inverse form."""

    p: Fraction
    members: tuple[Linkage, ...]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class BetaUnicolored:
    """Linkage vectors whose alpha labels all vanish."""

    members: tuple[Linkage, ...]
    center: Optional[dg.VertexId]
    center_label_always_zero: Optional[bool]


def _prefix_form(b: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Integer data for the prefix bound of the form of B^-1, B positive definite.

    Returns (rows, weights, den).  With z_k = sum(rows[k][j] * v[j], j <= k),
    the form of the inverse of the leading (k+1)x(k+1) block of B at
    v_0..v_k equals sum(weights[i] * z_i**2, i <= k) / den; at k = l-1 that
    is the form of B^-1 at v.  rows[k] is row k of the right half of a
    fraction-free (Bareiss) elimination of [B | I], whose pivots are the
    leading minors delta_k, and weights[k] = den / (delta_{k-1} delta_k).
    """
    l = len(b)
    m = [list(row) + [int(i == j) for j in range(l)] for i, row in enumerate(b)]
    prev = 1
    for k in range(l):
        for i in range(k + 1, l):
            m[i] = [(m[k][k] * x - m[i][k] * y) // prev for x, y in zip(m[i], m[k])]
        prev = m[k][k]
    minors = [1] + [m[k][k] for k in range(l)]
    products = [minors[k] * minors[k + 1] for k in range(l)]
    den = lcm(*products)
    return [m[k][l:l + k + 1] for k in range(l)], [den // p for p in products], den


def enumerate_linkages(pc: PartialCartan) -> tuple[Linkage, ...]:
    """All nonzero v in {-1,0,1}^l with quad_form(B^-1, v) < 2, sorted."""
    l = len(pc)
    rows, weights, den = _prefix_form(pc.b_int())
    bound = 2 * den
    v = [0] * l
    out: list[Linkage] = []

    def visit(k: int, acc: int) -> None:
        if k == l:
            if any(v):
                out.append(tuple(v))
            return
        row = rows[k]
        base = sum(row[j] * v[j] for j in range(k))
        for x in (-1, 0, 1):
            z = base + row[k] * x
            s = acc + weights[k] * z * z
            if s < bound:
                v[k] = x
                visit(k + 1, s)

    visit(0, 0)
    return tuple(out)


def form_value(pc: PartialCartan, v: Sequence[int]) -> Fraction:
    """The inverse quadratic form evaluated exactly on v."""
    return quad_form(pc.B_inv, list(v))


def group_by_p(pc: PartialCartan, vectors: Iterable[Linkage]) -> list[ExtensionSet]:
    """Partition by the exact value of the inverse form, ascending in p."""
    buckets: dict[Fraction, list[Linkage]] = {}
    for v in vectors:
        buckets.setdefault(form_value(pc, v), []).append(v)
    return [
        ExtensionSet(p, tuple(sorted(buckets[p]))) for p in sorted(buckets)
    ]


def beta_unicolored(d: dg.CarterDiagram, vectors: Iterable[Linkage]) -> BetaUnicolored:
    """Select vectors with all alpha coordinates zero.

    Also reports whether the label at the pattern center b1 vanishes on all
    of them (it does for every cataloged diagram except the bare 4-cycle
    D4(a1), which has no pattern).
    """
    alpha_pos = [i for i, v in enumerate(d.vertices) if v.color == dg.ALPHA]
    members = tuple(sorted(v for v in vectors if all(v[i] == 0 for i in alpha_pos)))
    center: Optional[dg.VertexId] = None
    if d.pattern is not None:
        center = d.pattern[3]
    else:
        center = next((v for v in d.vertices if v.id == "b1"), None)
    always_zero: Optional[bool] = None
    if center is not None:
        ci = d.index_of(center)
        always_zero = all(v[ci] == 0 for v in members)
    return BetaUnicolored(members, center, always_zero)
