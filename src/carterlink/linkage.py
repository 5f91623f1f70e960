"""Enumeration of linkage label vectors by the inverse quadratic form test.

A vector v over {-1,0,1}, indexed by the diagram vertices, is a linkage
label vector exactly when the quadratic form of B^-1 takes a value < 2 on
it.  The vectors are found by a depth-first search over the coordinates in
the diagram's connectivity-first ``search_order`` (Fincke and Pohst, Math.
Comp. 44 (1985) 463-471): the least value of the form over real completions
of the labels on the first k+1 vertices of that order is the form of the
inverse of B's block on them (a Schur complement), and that bound only grows
with k, so a prefix is dropped as soon as it reaches 2.  Every prefix of the
order is a connected subdiagram, so the bound grows early.  The search reads
the integer prefix data of ``PartialCartan.prefix`` and the form values read
``B^-1 = N / D``, both from the one elimination in ``cartan``; all
arithmetic is on plain integers.  The search runs once per
``PartialCartan``, which keeps the vectors with their form values, so
``group_by_p`` and ``orbit.build_system`` recompute neither.  Results are
mapped back to vertex order and sorted lexicographically (-1 < 0 < 1), so
every downstream structure is deterministic and no output depends on the
search order.

The sign law: the form is even, so -v is a linkage vector with the same
value whenever v is.  The search walks one sign of each pair, the one whose
first nonzero label in search order is +1, and keeps both.  Negation
reverses the lexicographic order with -1 < 0 < 1, so in the sorted tuple of
n vectors entry n-1-i is the negative of entry i.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul, neg
from typing import Iterable, NamedTuple, Optional, Sequence

from . import diagram as dg
from .cartan import LinalgError, PartialCartan

Linkage = tuple[int, ...]


class ExtensionSet(dg._Value):
    """All linkage vectors sharing one value p of the inverse form.

    Its length is its member count."""

    _value = ("p", "members")

    def __init__(self, p: Fraction, members: tuple[Linkage, ...]) -> None:
        self.__dict__.update(p=p, members=members)

    def __len__(self) -> int:
        return len(self.members)


class BetaUnicolored(NamedTuple):
    """Linkage vectors whose alpha labels all vanish."""

    members: tuple[Linkage, ...]
    center: Optional[dg.VertexId]
    center_label_always_zero: Optional[bool]


def enumerate_linkages(pc: PartialCartan) -> tuple[Linkage, ...]:
    """All nonzero v in {-1,0,1}^l with v^T B^-1 v < 2, sorted, searched once per ``pc``."""
    return _search(pc)[0]


def _search(pc: PartialCartan) -> tuple[tuple[Linkage, ...], tuple[int, ...]]:
    """The linkage vectors and, aligned with them, their ``form_num`` values.

    Searched on the first call for ``pc`` and kept on it after that.  At a
    leaf the accumulated sum is den times the form, and den is g times D
    for B^-1 = N / D, so the numerator over D is the sum divided by g.

    The form is even, so v and -v have the same value: the search walks only
    the vectors whose first nonzero label in search order is +1, and each
    leaf gives v and -v.  The lead j of such a vector has u_0..u_{j-1} = 0,
    so z_0..z_{j-1} vanish and its prefix sum is weights[j] * rows[j][j]**2.
    Each pair is mapped back to vertex order, and the pairs are sorted once.
    """
    if pc._linkages is not None:
        return pc._linkages
    l = len(pc)
    order, rows, weights, den = pc.prefix
    at = sorted(range(l), key=order.__getitem__)  # vertex -> search position
    off = [row[:k] for k, row in enumerate(rows)]  # map stops before the stale u[k:]
    bound = 2 * den
    g = den // pc.inv_den
    u = [0] * l  # the labels in search order
    found: list[tuple[Linkage, int]] = []

    def visit(k: int, acc: int) -> None:
        if k == l:
            v, n = tuple(map(u.__getitem__, at)), acc // g
            found.append((v, n))
            found.append((tuple(map(neg, v)), n))
            return
        base = sum(map(mul, off[k], u))
        for x in (-1, 0, 1):
            z = base + rows[k][k] * x
            s = acc + weights[k] * z * z
            if s < bound:
                u[k] = x
                visit(k + 1, s)

    for j in range(l):
        s = weights[j] * rows[j][j] ** 2
        if s < bound:
            u[j] = 1
            visit(j + 1, s)
        u[j] = 0  # a deeper visit of an earlier lead may have left it nonzero
    del visit  # visit's closure refers to visit; without the name no cycle outlives the search
    found.sort()
    object.__setattr__(pc, "_linkages", (tuple(v for v, _ in found), tuple(n for _, n in found)))
    return pc._linkages


def form_num(pc: PartialCartan, v: Sequence[int]) -> int:
    """v^T N v for B^-1 = N / D: the inverse form at v is this over D."""
    if len(v) != len(pc):
        raise LinalgError(f"form of rank {len(pc)} on a vector of length {len(v)}")
    return sum(x * sum(map(mul, row, v)) for x, row in zip(v, pc.inv_num) if x)


def form_value(pc: PartialCartan, v: Sequence[int]) -> Fraction:
    """The inverse quadratic form evaluated exactly on v."""
    return Fraction(form_num(pc, v), pc.inv_den)


def group_by_p(pc: PartialCartan, vectors: Iterable[Sequence[int]]) -> list[ExtensionSet]:
    """Partition by the exact value of the inverse form, ascending in p.  Linkage
    vectors take it from the search ``pc`` keeps, others from ``form_num``."""
    known = dict(zip(*_search(pc)))
    buckets: dict[int, list] = {}
    for v in vectors:
        n = known.get(tuple(v))
        buckets.setdefault(form_num(pc, v) if n is None else n, []).append(v)
    return [
        ExtensionSet(Fraction(n, pc.inv_den), tuple(sorted(buckets[n]))) for n in sorted(buckets)
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
