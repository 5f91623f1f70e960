"""Brute-force root-system oracles.

Everything here is independent of the enumeration path: explicit root sets,
backtracking search for diagram embeddings constrained by the Gram matrix,
and direct computation of linkage labels as inner products.  All arithmetic
is on plain integers.  The E8 coordinates are half-integers, so every root
system is built in doubled coordinates, where the inner product of two roots
is the dot product divided by 4, and a root is named by its index; the
inner-product bitsets are bit-sliced by coordinate value.  A label is the
inner product of two roots of one ambient system, so the labels are read by
root index, not recomputed: the root system keeps the label column of each
root once it has been read from those bitsets, and a label scan zips the
kept columns of the embedded roots.
With B^-1 = N / D (N and D integer), the projection gamma_L and the rest
mu = gamma - gamma_L are integer vectors at the scale 2D, so every law is
checked as an integer identity.  p depends on the label vector alone, and
form(-v) = form(v): the label scans decide once per +- pair of label vectors
which roots extend the embedding, and a realized root is its index and its
labels.  The projection is linear, so the laws compute it, p and the
mirror's lattice test once per +- pair of label vectors, and per root only
what involves gamma: the root lattice is a group holding gamma, so the
mirror 2 gamma_L - gamma is in it exactly when 2 gamma_L is.
``find_embeddings`` reads the partial Cartan matrix of the diagram from
``build_partial_cartan``, which returns the one the diagram's caller built
while it is alive; its embeddings share it, every oracle reads it from there,
and the extension decisions of the label scans are kept on it.  The extension
orbits follow a lattice law: they are dict lookups by (2D mu, N labels mod D),
with no reflection applied (see ``_orbit_slices``); the weight orbits are
``diagram.closure`` under the dual reflections at positive coordinates.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from itertools import islice
from operator import add, mul, neg, sub
from typing import Iterable, NamedTuple, Optional, Sequence

from . import diagram as dg
from .cartan import CartanError, PartialCartan, build_partial_cartan
from .linkage import Linkage, VerificationError, form_num, reflect_at

Doubled = tuple[int, ...]


class RootSystemError(ValueError):
    """Unsupported root-system name or rank, or a set that is not a root system."""


def _dot(x: Sequence, y: Sequence):
    return sum(map(mul, x, y))


class RootSystem:
    """An explicit simply-laced root system with deterministic root order.

    It is built from the doubled roots: ``doubled[i]`` is twice root i, as
    integers, and ``index`` maps it back to i; ``name_root(i)`` writes it for
    a witness.  ``doubled`` is sorted and closed under negation, which
    reverses the order, so the negative of root i is root n - 1 - i of n.
    ``ip_bits[i][t + 1]`` is a bitset over root indices: bit j is set when
    (root i, root j) = t, for t in -1, 0, 1.  The embedding search narrows
    its candidates with them.  ``_column(i)``, the label column of root i,
    is built from ``ip_bits[i]`` the first time it is read and then kept, so
    every label scan in this root system reads it from there; ``copy.copy``
    shares the kept columns, as it shares ``ip_bits``, and setting
    ``ip_bits`` starts an empty store of columns.  The rank and dim
    must be ints of at least 1, the rank at most the dim; a root system
    has at least one root.
    """

    def __init__(self, name: str, rank: int, dim: int, doubled: Iterable[Doubled]) -> None:
        if not isinstance(name, str):  # the lattice rule reads it by a regex
            raise RootSystemError(f"root system name {name!r} is not a str")
        for what, k in (("rank", rank), ("dim", dim)):
            if type(k) is not int or k < 1:
                raise RootSystemError(f"{name}: {what} {k!r} is not an int >= 1")
        if rank > dim:
            raise RootSystemError(f"{name}: rank {rank} exceeds dim {dim}")
        self.name = name
        self.rank = rank
        self.dim = dim
        self.doubled = tuple(sorted(doubled))
        if not self.doubled:
            raise RootSystemError(f"{name}: no roots")
        self.index = {x: i for i, x in enumerate(self.doubled)}
        if len(self.index) != len(self.doubled):
            raise RootSystemError(f"{name}: duplicate roots")
        for x in self.doubled:
            if len(x) != dim:
                raise RootSystemError(f"{name}: doubled root {x} has length != {dim}")
            if _dot(x, x) != 8:
                raise RootSystemError(f"{name}: doubled root {x} has squared norm != 8")
            if tuple(-c for c in x) not in self.index:
                raise RootSystemError(
                    f"{name}: set not closed under negation: doubled root {x} has no negative")
        self.ip_bits = self._ip_bits()
        self._lattice = name[0] if re.fullmatch(r"[AD][1-9][0-9]*|E[678]", name) else None

    @property
    def ip_bits(self) -> tuple[tuple[int, int, int], ...]:
        return self._bits

    @ip_bits.setter
    def ip_bits(self, bits: tuple[tuple[int, int, int], ...]) -> None:
        # the kept columns were read from the old bits
        self._bits, self._columns = bits, {}

    def _ip_bits(self) -> tuple[tuple[int, int, int], ...]:
        """Bit-sliced: ``by_value[k][c]`` is the bitset of the roots whose
        coordinate k is c.  For each root x, ``sums`` maps a partial dot
        product with x to the bitset of the roots giving it; each nonzero
        coordinate of x splits every bitset by the roots' values there.  The
        final keys -4, 0 and 4 are the inner products -1, 0 and 1."""
        by_value: list[dict[int, int]] = [{} for _ in range(self.dim)]
        for j, x in enumerate(self.doubled):
            for col, c in zip(by_value, x):
                col[c] = col.get(c, 0) | 1 << j
        slices = [tuple(col.items()) for col in by_value]
        bits = []
        for x in self.doubled:
            sums = {0: (1 << len(self.doubled)) - 1}
            for c, col in zip(x, slices):
                if not c:
                    continue
                nxt: dict[int, int] = {}
                for s, mask in sums.items():
                    for v, has in col:
                        hit = mask & has
                        if hit:
                            key = s + c * v
                            nxt[key] = nxt.get(key, 0) | hit
                sums = nxt
            if any(s % 4 for s in sums):
                raise RootSystemError(f"{self.name}: non-integral inner products")
            bits.append((sums.get(-4, 0), sums.get(0, 0), sums.get(4, 0)))
        return tuple(bits)

    def _column(self, i: int) -> tuple[int, ...]:
        """The label column of root i, its inner products with every root by
        index: built the first time it is read, then kept in ``_columns``."""
        col = self._columns.get(i)
        if col is None:
            col = self._columns[i] = self._build_column(i)
        return col

    def _build_column(self, i: int) -> tuple[int, ...]:
        """Root i's column, read from ``ip_bits[i]``.  A root in none of its
        three bitsets is root i (2) or its negative n - 1 - i (-2).  No other
        value occurs: the constructor admits only roots of norm 2 with
        integral inner products, and |(x, y)| <= 2 with equality only for
        y = +-x."""
        n = len(self.doubled)
        minus, _, plus = self.ip_bits[i]
        # per root, its bit in plus minus its bit in minus: the ASCII digits of both, lowest first
        col = list(map(sub, f"{plus:0{n}b}".encode()[::-1], f"{minus:0{n}b}".encode()[::-1]))
        col[i], col[n - 1 - i] = 2, -2
        return tuple(col)

    def __len__(self) -> int:
        return len(self.doubled)

    def name_root(self, i: int) -> str:
        """Root i as a witness names it: its index and its coordinates, halves
        written 1/2, as in ``root 3 (-1,0,0,0,-1,0,0,0)``."""
        if not (type(i) is int and 0 <= i < len(self.doubled)):
            raise RootSystemError(f"{self.name}: no root of index {i!r}")
        coords = (str(c // 2) if c % 2 == 0 else f"{c}/2" for c in self.doubled[i])
        return f"root {i} ({','.join(coords)})"

    @cached_property
    def _scalar_moment(self) -> bool:
        """Whether sum_r r r^T is the scalar 2|Phi| / n on the span, the
        hypothesis of the moment laws of ``direct_linkage_labels``; raises
        RootSystemError naming the first root that breaks it.  For a set closed
        under its reflections, sum_r r r^T is a scalar on each irreducible
        factor (Schur's lemma), so it is one scalar exactly when every root y
        has sum_r (r, y)^2 = 4|Phi| / n; that sum is 1 per root in y's -1- and
        +1-sets, plus 4 each for y and -y."""
        for i, (minus, _, plus) in enumerate(self.ip_bits):
            s = minus.bit_count() + plus.bit_count() + 8
            if s * self.rank != 4 * len(self.doubled):
                raise RootSystemError(f"{self.name}: sum_r (r, y)^2 is {s} at root {i}, not "
                                      f"4|Phi| / n = {Fraction(4 * len(self.doubled), self.rank)}")
        return True

    def in_root_lattice(self, y: Sequence[int]) -> bool:
        """Whether y / 2 is in the root lattice, for a doubled integer vector y
        (a norm-2 lattice vector is a root).  A vector outside the span is not
        in it; one of another length, or with an entry that is not an int,
        raises.  The rule is read once from the name, one that
        ``build_root_system`` writes; any other name raises."""
        if len(y) != self.dim:
            raise RootSystemError(f"{self.name}: vector of length {len(y)}, expected {self.dim}")
        if not set(map(type, y)) <= {int}:
            raise RootSystemError(f"{self.name}: vector {tuple(y)} is not a doubled integer vector")
        if self._lattice is None:
            raise RootSystemError(f"{self.name}: no root-lattice rule for this name")
        total = sum(y)  # twice the coordinate sum, which must be even
        if self._lattice == "A":  # the span has coordinate sum 0
            return all(c % 2 == 0 for c in y) and total == 0
        if self._lattice == "D":
            return all(c % 2 == 0 for c in y) and total % 4 == 0
        # E6/E7/E8 share the E8 lattice intersected with their span: the
        # coordinates are all integers or all halves of odd integers
        return (len({c % 2 for c in y}) == 1 and total % 4 == 0
                and all(y[a] + y[b] == 0 for a, b in _E_SPAN.get(self.name, ())))

    def __repr__(self) -> str:
        return f"RootSystem({self.name}, {len(self)} roots)"


# the span of E7 in R^8 is x7 + x8 = 0, that of E6 also x6 + x7 = 0: the pairs of
# coordinates, counted from 0, that sum to 0 on the span
_E_SPAN = {"E6": ((6, 7), (5, 6)), "E7": ((6, 7),)}


def build_root_system(name: str) -> RootSystem:
    """Build A_n, D_n (ranks up to 12) or E6/E7/E8, in doubled coordinates.

    D_n is {+-e_i +- e_j}; A_n is {e_i - e_j}, the roots of D_(n+1) orthogonal
    to (1, ..., 1); E8 adds the 128 half-integer vectors with an even number
    of minus signs to D8.  E7 is the subset of E8 orthogonal to e7+e8; E6
    additionally orthogonal to e6+e7.
    """
    try:
        family, n, k = dg.parse_name(name)
    except dg.DiagramError:
        raise RootSystemError(f"unsupported root system {name!r}") from None
    if k is not None:
        raise RootSystemError(f"{name!r} is not a root-system name")
    if family == "A":
        if not 1 <= n <= dg.MAX_RANK:
            raise RootSystemError(f"A_n supports 1 <= n <= {dg.MAX_RANK}, got {n}")
        roots = [x for x in _d_roots(n + 1) if sum(x) == 0]  # orthogonal to (1, ..., 1)
        return RootSystem(f"A{n}", n, n + 1, roots)
    if family == "D":
        if not 2 <= n <= dg.MAX_RANK:
            raise RootSystemError(f"D_n supports 2 <= n <= {dg.MAX_RANK}, got {n}")
        return RootSystem(f"D{n}", n, n, _d_roots(n))
    if family == "E" and n in (6, 7, 8):
        span = _E_SPAN.get(f"E{n}", ())
        return RootSystem(f"E{n}", n, 8, [x for x in _e8_roots()
                                          if all(x[a] + x[b] == 0 for a, b in span)])
    raise RootSystemError(f"unsupported root system {name!r}")


def _d_roots(n: int) -> list[Doubled]:
    """The 2n(n-1) roots +-e_i +- e_j of D_n, doubled."""
    return [tuple(si if k == i else sj if k == j else 0 for k in range(n))
            for i in range(n) for j in range(i + 1, n) for si in (2, -2) for sj in (2, -2)]


def _e8_roots() -> list[Doubled]:
    """D8 and the 128 vectors (+-1/2, ..., +-1/2) with an even number of
    minus signs, doubled."""
    halves = [tuple(-1 if signs >> b & 1 else 1 for b in range(8)) for signs in range(256)]
    return _d_roots(8) + [x for x in halves if x.count(-1) % 2 == 0]


# -- embeddings ----------------------------------------------------------------


class Embedding(dg._Value):
    """The vertices of ``pc.diagram`` realized as ambient roots, in canonical
    vertex order: ``idx`` holds their ambient root indices, the value.  Every
    oracle below reads ``pc``; being positive definite, it makes the roots
    independent.  ``doubled`` holds the same roots read from the ambient by
    index, derived."""

    _value = ("pc", "ambient", "idx")

    def __init__(self, pc: PartialCartan, ambient: RootSystem, idx: Sequence[int]) -> None:
        if len(idx) != len(pc):
            raise VerificationError(f"{len(idx)} roots for {len(pc)} vertices of {pc.diagram.name}")
        for v, i in zip(pc.diagram.vertices, idx):
            if type(i) is not int or not 0 <= i < len(ambient):
                raise VerificationError(f"root of {v} is not a root of {ambient.name}")
        doubled = tuple(ambient.doubled[i] for i in idx)
        self.__dict__.update(pc=pc, ambient=ambient, idx=tuple(idx), doubled=doubled)
        n = len(idx)
        for i in range(n):  # each root is in the ambient, so the diagonal is 8 = 4 * 2
            for j in range(i + 1, n):
                if _dot(doubled[i], doubled[j]) != 4 * pc.gram[i][j]:
                    raise VerificationError(
                        f"embedding Gram mismatch at ({pc.diagram.vertices[i]}, "
                        f"{pc.diagram.vertices[j]})")

    @property
    def diagram(self) -> dg.CarterDiagram:
        return self.pc.diagram


def find_embeddings(d: dg.CarterDiagram, ambient: RootSystem, limit: int) -> list[Embedding]:
    """The first ``limit`` root subsets of one fixed search whose Gram matrix
    is the diagram's.

    They are the ``placements`` of the Gram matrix on the ambient roots, in
    the diagram's ``search_order``.  Level-0 rule: if no embedding puts the
    first vertex on the lowest root, none exists and the search stops.  This
    needs the ambient's Weyl group to be transitive on roots, as it is for
    every ``build_root_system`` result but D2 = A1 x A1, where only A1 embeds.

    A diagram whose form is not positive definite has no embeddings: it is
    the Gram matrix of no vectors at all.  The embeddings share the ``pc``
    that ``build_partial_cartan(d)`` returns: the caller's, while the caller
    holds it, so ``find_embedding`` and ``embedding_independence`` on one
    diagram read one core and one set of kept extension decisions.
    """
    if type(limit) is not int:
        raise ValueError(f"limit must be an int, got {limit!r}")
    try:
        pc = build_partial_cartan(d)
    except CartanError:
        return []
    l = len(d.vertices)
    if l > ambient.rank or limit < 1:
        return []
    full = (1 << len(ambient)) - 1
    search = lambda first: dg.placements(pc.gram, d.search_order, ambient.ip_bits,
                                         [first] + [full] * (l - 1))
    found = list(islice(search(1), limit))
    if found:  # the level-0 rule
        found += islice(search(full ^ 1), limit - len(found))
    return [Embedding(pc, ambient, idx) for idx in found]


def find_embedding(d: dg.CarterDiagram, ambient: RootSystem) -> Optional[Embedding]:
    """First embedding in the fixed deterministic search order, or None."""
    return next(iter(find_embeddings(d, ambient, limit=1)), None)


# -- direct labels -------------------------------------------------------------


class RealizedLinkage(NamedTuple):
    """An ambient root that extends the embedding, named by its ``index``, with
    its labels; ``check_projection_laws`` computes their p."""

    index: int
    labels: Linkage


class DirectLabels(NamedTuple):
    """All realized linkages of an embedding plus the distinct label set."""

    embedding: Embedding
    realized: tuple[RealizedLinkage, ...]
    labels: tuple[Linkage, ...]


def _same_embedding(dl: DirectLabels, e: Embedding) -> None:
    """The checks below take ``e`` next to ``dl``: it must equal, by value, the
    embedding the labels were read from, or ValueError names both diagrams."""
    if e != dl.embedding:
        raise ValueError(f"labels of {dl.embedding.diagram.name} were not read from "
                         f"this embedding of {e.diagram.name}")


def _extends(lc: int, den: int) -> bool:
    """Whether a root whose labels have p = lc / D extends the embedding: p = 0
    only for zero labels, and p = 2 exactly when mu = 0, as p + |mu|^2 = 2.  So
    the span test of ``embedding_independence`` on labels alone is exact."""
    return 0 < lc != 2 * den


def _extending(pc: PartialCartan, rows: Iterable[Linkage]) -> set[Linkage]:
    """The distinct rows that extend an embedding with this ``pc``.  The form is
    even, so -v extends exactly when v does: ``_extends`` is read once per +-
    pair, at u = v if v > 0 (lexicographically), else u = -v, whether or not
    the rows are closed under negation.  The decision for u is kept in
    ``pc._extends``, so the scan, the trials and any later call on the same
    ``pc`` evaluate the form once per +- pair among all their rows."""
    zero, den, by_u = (0,) * len(pc), pc.inv_den, pc._extends
    ext = set()
    for v in set(rows):
        u = v if v > zero else tuple(map(neg, v))
        keep = by_u.get(u)
        if keep is None:
            keep = by_u[u] = _extends(form_num(pc, u), den)
        if keep:
            ext.add(v)
    return ext


def _entry(table: dict, r: RealizedLinkage, amb: RootSystem, l: int):
    """The entry of ``table`` for the labels of the realized root ``r``, or None
    for labels not in it, which must be a tuple of ints, one per vertex of the
    rank l embedding; VerificationError names the root otherwise.  So labels
    equal to checked ones, as (1.0, 1, 0, -1) after (1, 1, 0, -1), pass."""
    try:  # unhashable labels fall through to the int check
        entry = table.get(r.labels) if type(r.labels) is tuple else None
    except TypeError:
        entry = None
    if entry is None:
        if type(r.labels) is not tuple or any(type(t) is not int for t in r.labels):
            raise VerificationError(f"labels of {amb.name_root(r.index)} are not a tuple of ints")
        if len(r.labels) != l:
            raise VerificationError(
                f"labels of {amb.name_root(r.index)} have length {len(r.labels)}, not {l}")
    return entry


def _label_projection(n_cols: list[Sequence[int]], g_cols: list[list[int]],
                      labels: Linkage) -> tuple[list[int], int, list[int]]:
    """(c, lc, G) of a label vector, with ``n_cols`` the columns of N and
    ``g_cols`` those of E^T N, for E the matrix whose rows are the embedded
    roots e_k doubled: c = N labels, so B^-1 labels = c / D; lc = labels . c,
    so p = lc / D; G = E^T c = sum c_k (2 e_k) = 2D gamma_L, so a root x / 2
    with these labels has M = D x - G = 2D mu.  c and G are sums over the
    nonzero labels of their columns, signed or scaled; zero labels give zeros."""
    c, g = [0] * len(labels), [0] * len(g_cols[0])
    for t, nk, gk in zip(labels, n_cols, g_cols):
        if t == 1:
            c, g = list(map(add, c, nk)), list(map(add, g, gk))
        elif t == -1:
            c, g = list(map(sub, c, nk)), list(map(sub, g, gk))
        elif t:
            c = [a + t * b for a, b in zip(c, nk)]
            g = [a + t * b for a, b in zip(g, gk)]
    return c, _dot(labels, c), g


def _labels(e: Embedding) -> list[Linkage]:
    """The label vector of every ambient root, by root index: a new list of
    rows zipped from the kept label columns of the embedded roots (see
    ``RootSystem._column``), so a caller may write into it."""
    return list(zip(*map(e.ambient._column, e.idx)))


def direct_linkage_labels(e: Embedding) -> DirectLabels:
    """Labels of every ambient root that genuinely extends the embedding.

    A root's label vector is its inner products with the embedded roots, and
    p = labels . B^-1 labels = |gamma_L|^2, for gamma_L its projection onto
    their span.  Roots with p = 2 lie in the span, and roots with zero labels
    (p = 0) attach no bonds; both are skipped, decided once per +- pair of
    distinct label vectors, as form(-v) = form(v) (see ``_extending``).  No p
    is kept: ``check_projection_laws`` computes it.

    First the label matrix L (a row per ambient root, a column per vertex)
    must obey two moment laws of the ambient Phi of rank n:
    - L^T 1 = 0, as Phi = -Phi;
    - L^T L = (2|Phi| / n) B: sum_r r r^T is Weyl-invariant, so a scalar on the
      span of an irreducible Phi (Schur's lemma), fixed by its trace 2|Phi|.
      It is 60 in E8, 36 in E7, 24 in E6, 4(n - 1) in D_n, 2(n + 1) in A_n and
      4 in D2 = A1 x A1, whose two factors are equal.
    One wrong label breaks the first; the same label wrong on a root and on
    its negative breaks the second off the diagonal if the root has another
    nonzero label.  An ambient whose irreducible factors give sum_r r r^T two
    scalars, such as A1 x A2, breaks the hypothesis of the second, so
    ``RootSystem._scalar_moment`` raises RootSystemError before it is read.
    """
    amb, vs, gram = e.ambient, e.diagram.vertices, e.pc.gram
    amb._scalar_moment  # raises unless the moment law below can hold
    rows = _labels(e)
    cols = list(zip(*rows))
    for v, col in zip(vs, cols):
        if sum(col):
            raise VerificationError(f"labels at {v} sum to {sum(col)}, not 0")
    for i, col in enumerate(cols):
        for j in range(i, len(cols)):
            moment = _dot(col, cols[j])
            if amb.rank * moment != 2 * len(amb) * gram[i][j]:  # n L^T L = 2|Phi| B
                raise VerificationError(f"label moment at ({vs[i]}, {vs[j]}) is {moment}, "
                                        f"not {Fraction(2 * len(amb) * gram[i][j], amb.rank)}")
    ext = _extending(e.pc, rows)
    realized = tuple(RealizedLinkage(i, v) for i, v in enumerate(rows) if v in ext)
    return DirectLabels(e, realized, tuple(sorted(ext)))


# -- verification laws -----------------------------------------------------------


LatticeKey = tuple[Doubled, tuple[int, ...]]  # (M, c mod D), see _orbit_slices


def _orbit_slices(keyed: dict[LatticeKey, list], key: LatticeKey,
                  den: int) -> list[list[LatticeKey]]:
    """The keys in ``keyed`` of the extension orbit of a realized root gamma,
    its orbit under the reflections in the embedded roots Gamma and in gamma,
    one list per p-slice.  A key is (M, c mod D), with M = 2D mu and
    c = N labels; ``key`` is gamma's.

    The law: Gamma + gamma is connected, so its reflections generate an
    irreducible simply-laced Weyl group, transitive on its roots, the norm-2
    vectors of Z(Gamma + gamma).  So delta is in the orbit exactly when
    delta - k gamma is in Z Gamma for an integer k != 0: M(delta) = k M(gamma)
    and c(delta) = k c(gamma) mod D.  As |M|^2 = 4D^2 (2 - p) < 8D^2, only k
    with k^2 |M(gamma)|^2 < 8D^2 occur, and one p-slice is one |k|, so mu is
    constant up to sign on each slice.  The group depends on gamma, so for
    |k| > 1 the relation is not symmetric.

    The seeding law: a key that gamma reaches has M(delta) = k M(gamma), so
    |M(delta)| >= |M(gamma)| and Z Gamma + Z delta lies in Z Gamma + Z gamma;
    keys of equal |M| reach each other with k = +-1 and share one lattice.
    So when the seeds come in ascending |M|^2, which is descending p as
    |M|^2 = 4D^2 (2 - p), and each seed takes the keys it reaches, there is
    one seed per lattice Z Gamma + Z gamma of a realized root that lies in no
    larger such lattice."""
    m, c = key
    mm = _dot(m, m)
    slices = []
    k = 1
    while k * k * mm < 8 * den * den:
        ys = [(tuple(j * a for a in m), tuple(j * a % den for a in c)) for j in (k, -k)]
        found = [y for y in ys if y in keyed]
        if found:
            slices.append(found)
        k += 1
    return slices


class LawsReport(NamedTuple):
    """Projection-law verification summary."""

    p_classes: tuple[tuple[Fraction, int], ...]
    orbit_count: int
    orbits: tuple[tuple[Fraction, Fraction, int], ...]  # (p, |mu|^2 = 2 - p, size)
    mirror_roots: int


def check_projection_laws(dl: DirectLabels, e: Embedding) -> LawsReport:
    """Verify the exact laws tying labels, projections and mu together.

    Per realized root: it extends the embedding (p = form of labels is neither
    0 nor 2), p = |gamma_L|^2 under the ambient dot product, p + |mu|^2 = 2,
    and the mirror gamma_L - mu is a root exactly when it lies in the root
    lattice (it can leave it: 2 gamma_L need not have integral root
    coefficients).  Each realized root's ``index`` must name an ambient root,
    no root twice, and its labels must be a tuple of ints, one per vertex; each
    witness names a root by ``RootSystem.name_root``.  The extension orbits are
    counted and sized per p-slice by the lattice law of ``_orbit_slices``, in
    one pass over the keys in ascending |M|^2 that pops each key as its slice
    takes it.  So the slices partition the realized roots, and ``orbit_count``
    is the number of maximal lattices Z Gamma + Z gamma of the seeding law: an
    invariant of the embedding's W-class, whatever the order of the diagram's
    vertices.  A key that two seeds reach goes to the first.

    Six more laws hold and are not checked, as the checks above force them:
    - c.B.c = D lc, with c = N labels: ``Embedding`` checks E_i.E_j = 4 B_ij off
      the diagonal, and E.E = 8 for a doubled root E, so G = sum c_k E_k has
      |G|^2 = 4 c.B.c, and the restricted-form check is |G|^2 = 4 D lc;
    - the mirror has norm 2: |gamma|^2 = 2, |gamma_L|^2 = p and
      |mu|^2 = 2 - p give (gamma_L, mu) = 0, so |gamma_L - mu|^2 = 2;
    - |mu|^2 is constant on each p-class: it is 2 - p, root by root, which is
      the |mu|^2 that ``orbits`` reports;
    - mu is constant up to sign on each p-slice of an extension orbit: on one
      slice |k| is fixed, so M = +-k M(gamma) (see ``_orbit_slices``);
    - realized roots of one orbit slice sharing a label vector are exactly
      {gamma_L + mu, gamma_L - mu}: they share gamma_L, their mu is +-mu of
      the slice, and distinct roots have distinct mu;
    - sum_p p n_p + 2 (roots in the span) = (2|Phi| / n) l for the scan's
      ``dl``: summed over every root, p = labels . B^-1 labels is
      trace(B^-1 L^T L) = (2|Phi| / n) l by the scan's moment law.

    The laws read only the public fields of ``dl``, however it was built,
    and ``e`` must be ``dl.embedding`` (see ``_same_embedding``).
    The label checks (see ``_entry``) run once per label vector, the rest on
    every root.  The projection (c, lc = D p, G), the form checks, and the
    mirror's integrality and lattice test run once per +- pair of label
    vectors, by the pair law: the projection is linear, so -v has the same lc,
    -G, (-c) mod D and -2G / D, integral exactly when 2G / D is and, the
    lattice being a group, in it exactly when 2G / D is; with the same lc and
    |-G|^2 = |G|^2, the extension and restricted-form checks of -v are v's.
    Doubled, the mirror 2 gamma_L - gamma is 2G / D - x for the root x / 2.
    The root lattice holds x / 2 if every ambient root passes
    ``in_root_lattice``, as for each name ``build_root_system`` writes; so
    the mirror is in it exactly when 2 gamma_L is.
    """
    _same_embedding(dl, e)
    n_mat, den, amb = e.pc.inv_num, e.pc.inv_den, e.ambient
    n_cols = list(zip(*n_mat))  # N's columns, as N of a hand-built pc need not be symmetric
    g_cols = [[_dot(nk, x) for x in zip(*e.doubled)] for nk in n_cols]  # E^T N's columns
    of_labels: dict[Linkage, tuple] = {}  # lc, G, c mod D, 2G / D or None, in the lattice
    by_p: dict[int, int] = {}  # realized roots per lc = D p
    keyed: dict[LatticeKey, list[int]] = {}  # the lc of each root
    mirrors = 0
    seen: set[int] = set()
    n = len(amb)
    for r in dl.realized:
        i = r.index
        if not (type(i) is int and 0 <= i < n):
            raise VerificationError(f"{amb.name}: no root of index {i!r}")
        if i in seen:
            raise VerificationError(f"{amb.name_root(i)} is realized twice")
        seen.add(i)
        x = amb.doubled[i]
        entry = _entry(of_labels, r, amb, len(n_mat))
        if entry is None:
            pair = of_labels.get(tuple(map(neg, r.labels)))
            if pair is not None:  # the pair law
                lc, g, c, g2, lattice = pair
                entry = (lc, list(map(neg, g)), tuple(-a % den for a in c),
                         None if g2 is None else tuple(map(neg, g2)), lattice)
            else:
                c, lc, g = _label_projection(n_cols, g_cols, r.labels)
                if not _extends(lc, den):
                    raise VerificationError(f"{amb.name_root(i)} does not extend the embedding")
                if _dot(g, g) != 4 * den * lc:
                    raise VerificationError(
                        f"restricted form differs from ambient on {amb.name_root(i)}")
                g2 = None if any(2 * a % den for a in g) else tuple(2 * a // den for a in g)
                lattice = g2 is not None and amb.in_root_lattice(g2)
                entry = lc, g, tuple(a % den for a in c), g2, lattice
            of_labels[r.labels] = entry
        lc, g, c, g2, lattice = entry
        m = tuple(map(sub, map(den.__mul__, x), g))
        if 4 * den * lc + _dot(m, m) != 8 * den * den:
            raise VerificationError(f"p + |mu|^2 != 2 for {amb.name_root(i)}")
        if g2 is not None:  # the mirror is a root or a lattice vector only when integral
            is_root = tuple(map(sub, g2, x)) in amb.index
            if is_root != lattice:
                raise VerificationError(
                    f"norm-2 lattice test disagrees with root membership for {amb.name_root(i)}")
            mirrors += is_root
        keyed.setdefault((m, c), []).append(lc)
        by_p[lc] = by_p.get(lc, 0) + 1

    # seeds in ascending |M|^2; each slice pops its keys, so no root is counted twice
    orbit_count = 0
    orbits = []
    for key in sorted(keyed, key=lambda y: _dot(y[0], y[0])):
        if key in keyed:
            orbit_count += 1
            for ys in _orbit_slices(keyed, key, den):
                lcs = [lc for y in ys for lc in keyed.pop(y)]
                orbits.append((p := Fraction(lcs[0], den), 2 - p, len(lcs)))

    p_classes = tuple((Fraction(lc, den), count) for lc, count in sorted(by_p.items()))
    return LawsReport(p_classes, orbit_count, tuple(sorted(orbits)), mirrors)


class SquareAudit(NamedTuple):
    """Count of square configurations, by whether the diagonal label is nonzero."""

    checked: int
    with_diagonal: int
    without_diagonal: int


def square_diagonal_audit(dl: DirectLabels, e: Embedding) -> SquareAudit:
    """Count every square {u, center, w, gamma} over all realized linkages.

    u and w run over same-color vertex pairs (hence orthogonal), the center
    over opposite-color vertices joined to both; gamma must be joined to u
    and w.  ``with_diagonal`` counts the squares whose label at the center is
    nonzero.  ``e`` must be ``dl.embedding`` (see ``_same_embedding``).  The
    squares are counted once per distinct label vector, times its roots,
    after the label checks of the laws (see ``_entry``), with their messages.

    The square law holds and is not checked, as p < 2 forces it: with the
    sides (gamma, u), (gamma, w), (center, u) and (center, w), an odd number
    of dotted (+1) sides gives (gamma, center) = 0, and an even number gives
    (gamma, center) = (gamma, u)(center, u).  The Gram matrix of
    (u, center, w, gamma) is a principal minor of [[B, v], [v^T, 2]], v the
    labels, which is positive definite exactly when p < 2; over the 48 cases
    (four side signs, three diagonal values) the minor is positive definite
    exactly when the law holds.  ``verify`` audits only after
    ``_check_labels`` has put every label vector among the linkage vectors,
    of form < 2, and after the laws have checked p != 2 and p + |mu|^2 = 2.
    """
    _same_embedding(dl, e)
    d = e.diagram
    g = e.pc.gram
    n = len(d.vertices)
    checked = with_d = 0
    pairs = []
    for u in range(n):
        for w in range(u + 1, n):
            if d.vertices[u].color != d.vertices[w].color:
                continue
            centers = [m for m in range(n) if g[u][m] != 0 and g[w][m] != 0 and m not in (u, w)]
            if centers:
                pairs.append((u, w, centers))
    roots: dict[Linkage, int] = {}  # realized roots per label vector
    for r in dl.realized:
        roots[r.labels] = (_entry(roots, r, e.ambient, n) or 0) + 1
    for labels, k in roots.items():
        for u, w, centers in pairs:
            if labels[u] and labels[w]:
                checked += k * len(centers)
                for m in centers:
                    if labels[m]:
                        with_d += k
    return SquareAudit(checked, with_d, checked - with_d)


class IndependenceReport(NamedTuple):
    """Distinct embeddings tried and the distinct-label sets they realize.

    ``label_sets`` lists each distinct set once, in the order of the
    embeddings; ``labels`` is the first of them."""

    embeddings: int
    labels: tuple[Linkage, ...]
    label_sets: tuple[tuple[Linkage, ...], ...]


def embedding_independence(d: dg.CarterDiagram, ambient: RootSystem,
                           trials: int) -> IndependenceReport:
    """The distinct-label sets of up to ``trials`` embeddings of ``d``.

    Embeddings conjugate under the Weyl group of the ambient realize the same
    set.  A diagram may embed in more than one class (A7 in E8, D6 in E7),
    and the classes can realize different sets, so whether the sets must
    agree is left to the caller.  One ``_extending`` filter serves all their
    rows, once per +- pair of label vectors, as form(-v) = form(v), and reads
    the decisions that an earlier scan kept on the same ``pc``."""
    if type(trials) is not int:
        raise ValueError(f"trials must be an int, got {trials!r}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    embs = find_embeddings(d, ambient, limit=trials)
    if not embs:
        raise VerificationError(f"{d.name} does not embed into {ambient.name}")
    rows = [set(_labels(e)) for e in embs]
    ext = _extending(embs[0].pc, set().union(*rows))  # the embeddings share one pc
    sets = [tuple(sorted(s)) for s in dict.fromkeys(frozenset(row & ext) for row in rows)]
    return IndependenceReport(len(embs), sets[0], tuple(sets))


# -- weight orbits ---------------------------------------------------------------


def weight_orbit(pc: PartialCartan, v) -> tuple[tuple[int, ...], ...]:
    """Orbit of the unit label vector at v under the dual reflections.

    Defined for Dynkin diagrams only (no dotted edges), where the dual
    reflections act as W on weights in fundamental-weight coordinates.  The
    start e_v is omega_v, the orbit's one dominant member; any other mu has a
    mu_t < 0, and s*_t mu is higher, with coordinate t > 0.  So climbing from
    any mu ends at e_v, and the closure steps only at positive coordinates.
    """
    d = pc.diagram
    if not d.is_dynkin():
        raise dg.DiagramError(f"{d.name}: weight orbits need a Dynkin diagram (no dotted edges)")
    i = d.index_of(v)
    start = tuple(1 if j == i else 0 for j in range(len(pc)))
    step = lambda x: (reflect_at(pc, k, x) for k in range(len(x)) if x[k] > 0)
    return tuple(sorted(dg.closure(start, step)))
