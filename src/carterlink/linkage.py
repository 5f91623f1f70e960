"""Enumeration of linkage label vectors by the inverse quadratic form test.

A vector v over {-1,0,1}, indexed by the diagram vertices, is a linkage
label vector exactly when the quadratic form of B^-1 takes a value < 2 on
it.  The vectors are found level by level over the coordinates in the
diagram's connectivity-first ``search_order`` (Fincke and Pohst, Math. Comp.
44 (1985) 463-471): level k holds the labels on the first k+1 vertices of
that order whose least form over real completions, the form of the inverse
of B's block on them (a Schur complement), is below 2.  That bound only
grows with k, and every prefix of the order is a connected subdiagram, so
it grows early.  The search reads the integer prefix data of
``PartialCartan.prefix`` and the form values read ``B^-1 = N / D``, both
from the one elimination in ``cartan``; all arithmetic is on plain integers.
It runs once per ``PartialCartan``, which keeps the vectors with their form
values for ``group_by_p`` and ``orbit.build_system``.  Results are mapped
back to vertex order and sorted lexicographically (-1 < 0 < 1), so no
output depends on the search order.

The sign law: the form is even, so -v is a linkage vector with the same
value whenever v is.  The search keeps one sign of each pair, the one whose
first nonzero label in search order is +1, and gives both.  Negation
reverses the lexicographic order with -1 < 0 < 1, so in the sorted tuple of
n vectors entry n-1-i is the negative of entry i.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul, neg
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

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


def _levels(prefix) -> Iterator[list[tuple[Linkage, int]]]:
    """Level k of the search along ``PartialCartan.prefix``, k = 0..l-1: every
    kept prefix u_0..u_k, in search order, with its sum sum_i weights[i] z_i^2,
    z_i = rows[i] . u, den times the least form over real completions.  Each
    prefix of level k - 1 grows by -1, 0 and 1, kept while its sum is below
    2 den, and the lead (0,)*k + (1,), whose z_0..z_{k-1} vanish, joins them:
    so a kept prefix has +1 as its first nonzero label."""
    _, rows, weights, den = prefix
    bound = 2 * den
    level: list[tuple[Linkage, int]] = []
    for k, row in enumerate(rows):
        d, w = row[k], weights[k]
        grown = []
        for u, acc in level:
            base = sum(map(mul, row, u))  # map stops at the end of u, before row[k]
            for x in (-1, 0, 1):
                z = base + d * x
                s = acc + w * z * z
                if s < bound:
                    grown.append((u + (x,), s))
        s = w * d * d
        if s < bound:
            grown.append(((0,) * k + (1,), s))
        level = grown
        yield level


def _search(pc: PartialCartan) -> tuple[tuple[Linkage, ...], tuple[int, ...]]:
    """The linkage vectors and, aligned with them, their ``form_num`` values,
    searched on the first call for ``pc`` and kept on it.  Each prefix of the
    last level of ``_levels`` gives v and -v in vertex order; its sum is den
    times the form, den = g D for B^-1 = N / D, so the numerator is sum / g."""
    if pc._linkages is not None:
        return pc._linkages
    order, _, _, den = pc.prefix
    at = sorted(range(len(pc)), key=order.__getitem__)  # vertex -> search position
    g = den // pc.inv_den
    found: list[tuple[Linkage, int]] = []
    *_, last = _levels(pc.prefix)
    for u, acc in last:
        v, n = tuple(map(u.__getitem__, at)), acc // g
        found += (v, n), (tuple(map(neg, v)), n)
    found.sort()
    object.__setattr__(pc, "_linkages", (tuple(v for v, _ in found), tuple(n for _, n in found)))
    return pc._linkages


def form_num(pc: PartialCartan, v: Sequence[int]) -> int:
    """v^T N v for B^-1 = N / D: the inverse form at v is this over D."""
    if len(v) != len(pc.inv_num):
        raise LinalgError(f"form of rank {len(pc.inv_num)} on a vector of length {len(v)}")
    total = 0
    for x, row in zip(v, pc.inv_num):
        if x:
            total += x * sum(map(mul, row, v))
    return total


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
    """Select vectors with all alpha coordinates zero; a vector whose length
    is not the rank raises LinalgError.

    Also reports whether the label at the pattern center b1 vanishes on all
    of them (it does for every cataloged diagram except the bare 4-cycle
    D4(a1), which has no pattern)."""
    vectors = tuple(vectors)
    for v in vectors:
        if len(v) != len(d.vertices):
            raise LinalgError(f"{d.name} has rank {len(d.vertices)}, a vector has length {len(v)}")
    alpha_pos = [i for i, v in enumerate(d.vertices) if v.color == dg.ALPHA]
    members = tuple(sorted(v for v in vectors if all(v[i] == 0 for i in alpha_pos)))
    center = d.pattern[3] if d.pattern else next((v for v in d.vertices if v.id == "b1"), None)
    ci = None if center is None else d.index_of(center)
    always_zero = None if ci is None else all(v[ci] == 0 for v in members)
    return BetaUnicolored(members, center, always_zero)
