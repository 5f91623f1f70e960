"""Linkage label vectors and their orbits, built by one closure.

A vector v over {-1,0,1}, indexed by the diagram vertices, is a linkage
label vector exactly when the form of B^-1 = N / D is < 2 at it.  The dual
reflection at vertex t, ``reflect_at``, sends v to v - v_t B_t (column t of
B) and keeps the form; its orbits are the components of the linkage system.

The laws (Bourbaki, Lie Groups and Lie Algebras, ch. VI, Planches): the
roots of a connected positive definite diagram generate an irreducible root
lattice L of rank l.  v lists the inner products with the roots of
w = sum_i (B^-1 v)_i alpha_i in the dual lattice L*, and the form is |w|^2,
so the linkage vectors are the nonzero vectors of L* of norm < 2 (their
labels lie in {-1,0,1} by Cauchy-Schwarz), and their orbits are the
minuscule orbits of ``_orbit_table``.  By Schur's lemma an orbit C at form p
has sum_{v in C} v v^T = (|C| p / l) B, whose trace gives it a mean support
of 2p < 4.  So the seeds of support at most 3 reach every orbit, and
``_closure``, run once per ``PartialCartan``, which keeps it, searches
nothing.  The set is closed under negation and the reflections are linear,
s_k(-v) = -s_k(v), so the closure walks one vector of each +- pair and
writes down its negative: an orbit is self-dual (O = -O) or one of the
dual pair O, -O.  Nodes are sorted (-1 < 0 < 1); negation reverses that
order, so of n nodes entry n-1-i is the negative of entry i.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, compress, product
from math import comb
from operator import add, mul, neg, sub
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

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


class VerificationError(RuntimeError):
    """An exact structural claim failed; the message names the witness."""


class _Closure(NamedTuple):
    """The linkage vectors, sorted, with their ``form_num`` values; every
    (i, j, vertex id), i < j, where the reflection at the vertex sends node i
    to node j, sorted; and the orbits, each sorted, in sorted order."""

    nodes: tuple[Linkage, ...]
    nums: tuple[int, ...]
    edges: tuple[tuple[int, int, str], ...]
    components: tuple[tuple[int, ...], ...]


def _vector(l: int, v: Sequence[int]) -> Linkage:
    """v as a tuple of l ints, or LinalgError naming the fault.  A label vector
    lists one label per vertex, so only a tuple or list is read: a set would
    be read in hash order.  A float or bool entry is not an int."""
    if not isinstance(v, (tuple, list)):
        raise LinalgError(f"{v!r} is not a sequence of ints")
    v = tuple(v)
    if len(v) != l:
        raise LinalgError(f"vector of length {len(v)} for rank {l}")
    if not set(map(type, v)) <= {int}:
        raise LinalgError(f"vector {v} has an entry that is not an int")
    return v


def enumerate_linkages(pc: PartialCartan) -> tuple[Linkage, ...]:
    """All nonzero v in {-1,0,1}^l with v^T B^-1 v < 2, sorted, built once per ``pc``."""
    return _closure(pc).nodes


def reflect_at(pc: PartialCartan, i: int, v: Linkage) -> Linkage:
    """The dual reflection at the vertex of index i, a copy of v where v_i = 0,
    though the package reflects only where v_i != 0.  Unchecked: ``v`` must be
    a tuple of length len(pc); ``orbit.dual_reflect`` is the checked form."""
    vi, row = v[i], pc.gram[i]
    if vi in (1, -1):  # a linkage label: one pass in C
        return tuple(map(sub if vi == 1 else add, v, row))
    return tuple([x - vi * b for x, b in zip(v, row)])


def _keying(pc: PartialCartan) -> tuple[Callable[[Sequence[int]], int], list[int]]:
    """The key K(v) = sum_i v_i 5^(l-1-i) of a vector of length l = len(pc), and
    the step s_k of each vertex k, read from row k of the Gram matrix B: K is
    linear, so s_k = K(e_k) - K(reflect_at(pc, k, e_k)) = K(e_k) - K(e_k - B_k)
    = K(B_k), and K(reflect_at(pc, k, v)) = K(v) - v_k s_k.  A reflection of a
    vector in {-1,0,1}^l lies in [-2,2]^l (B is 0, +-1 off the diagonal), where
    balanced base 5 is one-to-one (base 3 is not: (2, 0) and (-1, 1) share the
    key 2), and a difference of two vectors of {-1,0,1}^l has digits in
    [-2,2], so takes the sign of its first nonzero one: keys sort as vectors do."""
    l = len(pc)
    powers = [5 ** (l - 1 - k) for k in range(l)]

    def key(v: Sequence[int]) -> int:
        return sum(map(mul, v, powers))

    return key, [key(row) for row in pc.gram]


_E_TABLES = {(6, 3): ("E6", [(Fraction(4, 3), 27)] * 2), (7, 2): ("E7", [(Fraction(3, 2), 56)]),
             (8, 1): ("E8", [])}


def _orbit_table(l: int, det: Fraction) -> Optional[tuple[str, list[tuple[Fraction, int]]]]:
    """The type of the root lattice of rank l and determinant det, A_l (det
    l + 1), D_l (det 4, l >= 4), E6, E7 or E8 (det 3, 2, 1), and the sorted
    (p, size) of its minuscule orbits at p < 2: for A_l, C(l+1, k) at
    k(l+1-k)/(l+1); for D_l, 2l at 1 and, for l <= 7, two of 2^(l-1) at l/4.
    None when no root lattice has that rank and determinant."""
    if det == l + 1:
        return f"A{l}", sorted((Fraction(k * (l + 1 - k), l + 1), comb(l + 1, k))
                               for k in range(1, l + 1) if k * (l + 1 - k) < 2 * (l + 1))
    if det == 4 and l >= 4:
        return f"D{l}", sorted([(Fraction(1), 2 * l)] + [(Fraction(l, 4), 2 ** (l - 1))] * 2 * (l <= 7))
    return _E_TABLES.get((l, det))


def _pairs(table) -> str:
    return "[" + ", ".join(f"({p}, {n})" for p, n in table) + "]"


def _closure(pc: PartialCartan) -> _Closure:
    """The linkage system of ``pc``, built on the first call and kept on it:
    the closures of ``_orbits``, certified by the table of the type read from
    (l, det B).  An (l, det) of no type, a node count short of the table's
    total and a (p, size) multiset other than the table's raise
    VerificationError naming both sides.  The reflections keep the form, so
    a closure's numerator is its seed's."""
    if pc._linkages is not None:
        return pc._linkages
    name, typed = pc.diagram.name, _orbit_table(len(pc), pc.det)
    if typed is None:
        raise VerificationError(f"{name}: no root lattice of rank {len(pc)} has det {pc.det}")
    kind, table = typed
    total = sum(n for _, n in table)
    found, orbits, arcs = _orbits(pc, total)
    if len(found) < total:
        raise VerificationError(f"{name}: the seeds of support at most 3 close to {len(found)} "
                                f"linkage vectors, the {kind} table has {total}")
    got = sorted((Fraction(n, pc.inv_den), len(members)) for n, members in orbits)
    if got != table:
        raise VerificationError(f"{name}: the closures have (p, size) {_pairs(got)}, "
                                f"the {kind} table {_pairs(table)}")
    keys = sorted(found)
    at = {k: i for i, k in enumerate(keys)}
    num = {k: n for n, members in orbits for k in members}
    edges = [(at[a], at[b], t) if a < b else (at[b], at[a], t) for a, b, t in arcs]
    closure = _Closure(tuple(map(found.__getitem__, keys)), tuple(map(num.__getitem__, keys)),
                      tuple(sorted(edges)),
                      tuple(sorted(tuple(sorted(map(at.__getitem__, m))) for _, m in orbits)))
    object.__setattr__(pc, "_linkages", closure)
    return closure


def _orbits(pc: PartialCartan, total: int) -> tuple[dict, list, list]:
    """(found, orbits, arcs): the closures of the seeds of support 1, then 2,
    then 3, both signs, of form < 2 and not yet found, until ``total`` nodes
    are found.  ``found`` maps K(v) (``_keying``) to v, ``orbits`` holds
    (``form_num`` of the seed, keys) per closure, and ``arcs`` holds
    (K(u), K(w), vertex id) per edge, from its end u with label 1 there.

    The walk explores one vector of each +- pair.  K and every reflection
    are linear, so K(-v) = -K(v) and s_k(-u) = -s_k(u): a reflected vector
    is built only for a node not yet explored; its negative is written down,
    and only the new node is explored.  An explored u appends one arc per
    nonzero label: its own, (K(u), K(w)), for label 1, and its negative's,
    (-K(u), -K(w)), for label -1.  A reflection onto a written-down negative
    makes the closure self-dual, O = -O, one orbit of the explored nodes
    and their negatives; otherwise they are the two orbits O and -O.  A
    built label outside {-1,0,1} raises VerificationError, so even a faulty
    reflection cannot close beyond 3^l nodes."""
    d, l = pc.diagram, len(pc)
    bound = 2 * pc.inv_den
    key, steps = _keying(pc)
    ids = [t.id for t in d.vertices]
    found: dict[int, Linkage] = {}
    orbits: list[tuple[int, list[int]]] = []
    arcs: list[tuple[int, int, str]] = []
    for s in (1, 2, 3):
        for support, signs in product(combinations(range(l), s), product((1, -1), repeat=s)):
            if len(found) >= total:
                return found, orbits, arcs
            seed = [0] * l
            for i, x in zip(support, signs):
                seed[i] = x
            ks = key(seed)
            if ks in found or (n := form_num(pc, seed)) >= bound:
                continue
            found[ks], found[-ks] = tuple(seed), tuple(map(neg, seed))
            members, walked, dual = [ks], {ks}, False
            for ku in members:  # grows as it is read: one breadth-first pass
                u = found[ku]
                for k in compress(range(l), u):
                    x = u[k]
                    kw = ku - x * steps[k]
                    if kw not in walked:
                        w = reflect_at(pc, k, u)
                        if max(map(abs, w)) > 1:
                            raise VerificationError(f"{d.name}: reflection at {d.vertices[k]} "
                                                    f"leaves the linkage set: {u} -> {w}")
                        if kw in found:
                            dual = True
                        else:
                            found[kw], found[-kw] = w, tuple(map(neg, w))
                            members.append(kw)
                            walked.add(kw)
                    arcs.append((ku, kw, ids[k]) if x > 0 else (-ku, -kw, ids[k]))
            negatives = list(map(neg, members))
            orbits += [(n, members + negatives)] if dual else [(n, members), (n, negatives)]
    return found, orbits, arcs


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
    """The inverse quadratic form evaluated exactly on the label vector v."""
    return Fraction(form_num(pc, _vector(len(pc), v)), pc.inv_den)


def group_by_p(pc: PartialCartan, vectors: Iterable[Sequence[int]]) -> list[ExtensionSet]:
    """Partition by the exact value of the inverse form, ascending in p.  The
    closure's own ``nodes`` tuple, as ``enumerate_linkages`` returns it, is
    bucketed by the closure's numerators as it stands; any other input is read
    by ``_vector``, and each vector takes ``form_num``."""
    closure = _closure(pc)
    if vectors is closure.nodes:
        nums = closure.nums
    else:
        vectors = [_vector(len(pc), v) for v in vectors]
        nums = [form_num(pc, v) for v in vectors]
    buckets: dict[int, list] = {}
    for v, n in zip(vectors, nums):
        buckets.setdefault(n, []).append(v)
    return [
        ExtensionSet(Fraction(n, pc.inv_den), tuple(sorted(buckets[n]))) for n in sorted(buckets)
    ]


def beta_unicolored(d: dg.CarterDiagram, vectors: Iterable[Linkage]) -> BetaUnicolored:
    """Select vectors with all alpha coordinates zero; each is read by ``_vector``.

    Also reports whether the label at the pattern center b1 vanishes on all
    of them (it does for every cataloged diagram except the bare 4-cycle
    D4(a1), which has no pattern)."""
    vectors = tuple(_vector(len(d), v) for v in vectors)
    alpha_pos = [i for i, v in enumerate(d.vertices) if v.color == dg.ALPHA]
    members = tuple(sorted(v for v in vectors if all(v[i] == 0 for i in alpha_pos)))
    center = d.pattern[3] if d.pattern else next((v for v in d.vertices if v.id == "b1"), None)
    ci = None if center is None else d.index_of(center)
    always_zero = None if ci is None else all(v[ci] == 0 for v in members)
    return BetaUnicolored(members, center, always_zero)
