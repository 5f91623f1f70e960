"""Partial Cartan matrix of a diagram: one exact integer core.

The matrix B has 2 on the diagonal and the edge sign (-1 solid, +1 dotted)
off it.  For Dynkin diagrams this is the classical Cartan matrix.  A single
fraction-free elimination of [B | I] (Bareiss, Math. Comp. 22 (1968)
565-578), with B in vertex order, yields everything the pipeline reads.  Its
pivots are the leading minors of B, so B is positive definite exactly when
every pivot is positive (Sylvester's criterion holds in any vertex order),
and det B is the last pivot.  Its right half gives the LDL^T factors from
which B^-1 = N / D is formed, with N and D integers.  All of it is computed
once, on plain integers: B is ``gram``, B^-1 is ``inv_num`` over
``inv_den``, and ``det`` is the one exact Fraction.  There is no floating
point anywhere.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from . import diagram as dg

IntMatrix = tuple[tuple[int, ...], ...]


class LinalgError(ValueError):
    """Not a label vector of the form's rank: a tuple or list of ints, one per vertex."""


class CartanError(ValueError):
    """The diagram does not carry a positive definite form."""


class PartialCartan(dg._Value):
    """A diagram with det B and the integer core of B and B^-1.

    ``gram`` is B as integers.  B^-1 = inv_num / inv_den in vertex order,
    where inv_den is the least common denominator of the entries.
    ``_linkages`` keeps ``linkage._closure``, and ``_extends`` maps each
    label vector u > 0 that ``roots._extending`` has decided to whether u and
    -u extend an embedding, which depends on inv_num and inv_den alone.  The
    value is the diagram and det: the matrices are derived from the diagram,
    and ``_linkages`` and ``_extends`` are caches.  So every reader of one
    ``pc`` shares what any of them kept; one built by hand is a new object
    with caches of its own.
    """

    _value = ("diagram", "det")

    def __init__(self, diagram: dg.CarterDiagram, det: Fraction, gram: IntMatrix,
                 inv_num: IntMatrix, inv_den: int) -> None:
        self.__dict__.update(diagram=diagram, det=det, gram=gram, inv_num=inv_num,
                             inv_den=inv_den, _linkages=None, _extends={})

    def __len__(self) -> int:
        return len(self.diagram)


def _eliminate(b: Sequence[Sequence[int]]) -> Optional[list[list[int]]]:
    """Fraction-free elimination of [B | I] without row swaps.

    Row k of the result has the leading minor of order k+1 as its pivot
    [k][k].  Returns None at the first pivot <= 0, which by Sylvester's
    criterion means B is not positive definite.

    Step k of Bareiss' elimination replaces each row i > k by
    (p_k m_i - m_ik m_k) / p_{k-1}, where p_k is the pivot of step k and
    p_{-1} = 1.  Where m_ik = 0 the step only scales row i by p_k / p_{k-1},
    and over the skipped steps a..k-1 these factors telescope to
    p_{k-1} / p_{a-1}.  So a row is touched only at a step where its
    multiplier is nonzero, and when it becomes the pivot row.  The pivot row
    is brought current by that one factor, and a row with a nonzero
    multiplier takes the step straight from its stale values x and multiplier
    c: (p_k x - c m_k) / p_{a-1}.  Both divisions are exact, because each
    entry of a row, stale or current, is a minor of [B | I] (Sylvester's
    identity), so the result is entry for entry the dense elimination's.  The
    pivot row is rescaled before its pivot is read, and the scale factor is
    positive, so the rejection comes at the same step.
    """
    l = len(b)
    m = [list(row) + [int(i == j) for j in range(l)] for i, row in enumerate(b)]
    piv = [1]  # piv[k] = p_{k-1}, the divisor of step k
    at = [0] * l  # row i holds its values after step at[i] - 1
    for k in range(l):
        row = m[k]
        if at[k] < k:
            f, g = piv[k], piv[at[k]]
            row = m[k] = [f * x // g for x in row]
        p = row[k]
        if p <= 0:
            return None
        for i in range(k + 1, l):
            c = m[i][k]
            if c:
                g = piv[at[i]]
                m[i] = [(p * x - c * y) // g for x, y in zip(m[i], row)]
                at[i] = k + 1
        piv.append(p)
    return m


def build_partial_cartan(d: dg.CarterDiagram) -> PartialCartan:
    """Build B from the diagram and its exact integer core.

    The diagram was checked when built, so CartanError means one thing: the
    form is not positive definite (an extended Dynkin diagram, for example,
    has det 0 and corresponds to no linearly independent root subset).

    The diagram keeps a weak reference to the result, so while that
    ``PartialCartan`` is alive, the call returns it, with what it keeps.  A
    strong one would close a cycle, as ``pc.diagram`` is ``d``.
    """
    ref = d.__dict__.get("_pc")
    if ref is not None and (pc := ref()) is not None:
        return pc
    gram = d.gram()
    m = _eliminate(gram)
    if m is None:
        raise CartanError(f"{d.name}: the partial Cartan matrix is not positive definite")
    l = len(gram)
    minors = [1] + [m[k][k] for k in range(l)]
    products = [minors[k] * minors[k + 1] for k in range(l)]
    den = lcm(*products)
    rows = [m[k][l:l + k + 1] for k in range(l)]
    weights = [den // p for p in products]
    # B^-1 = sum(weights[k] * z_k z_k^T) / den, z_k being rows[k] followed by zeros;
    # cols[p] holds z_k[p] for k = l-1 .. p
    cols = [[rows[k][p] for k in range(l - 1, p - 1, -1)] for p in range(l)]
    wcols = [list(map(mul, weights[::-1], c)) for c in cols]
    num = [[0] * l for _ in range(l)]
    for p in range(l):
        for q in range(p, l):
            num[p][q] = num[q][p] = sum(map(mul, wcols[p], cols[q]))
    g = gcd(den, *(x for row in num for x in row))
    inv_num = tuple(tuple(x // g for x in row) for row in num)
    pc = PartialCartan(d, Fraction(minors[l]), gram, inv_num, den // g)
    d.__dict__["_pc"] = weakref.ref(pc)
    return pc


def inverse_diagonal(pc: PartialCartan, v) -> Fraction:
    """The diagonal entry of B^-1 at vertex v."""
    i = pc.diagram.index_of(v)
    return Fraction(pc.inv_num[i][i], pc.inv_den)


def simply_extendable(pc: PartialCartan, v) -> bool:
    """A leaf may be solid-attached at v exactly when (B^-1)_vv < 2."""
    return inverse_diagonal(pc, v) < 2
