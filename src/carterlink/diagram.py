"""Carter and Dynkin diagrams: bicolored vertices, solid/dotted edges.

A diagram is a connected signed bipartite graph.  Vertices split into an
alpha set and a beta set (mutually orthogonal root families); every edge
joins the two colors.  A solid edge records inner product -1 (obtuse pair),
a dotted edge +1 (acute pair).

The catalog reproduces the canonical vertex orders of the standard tables
for the 4-cycle diagrams D4(a1) .. D7(a2) and the Dynkin diagrams, so the
Gram matrix of a cataloged diagram is reproducible bit for bit.
"""

from __future__ import annotations

import json
import re
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

ALPHA = "alpha"
BETA = "beta"

SOLID = -1
DOTTED = 1

SIGN_NAMES = {SOLID: "solid", DOTTED: "dotted"}
SIGN_VALUES = {"solid": SOLID, "dotted": DOTTED}

MAX_RANK = 12


class DiagramError(ValueError):
    """Unknown name, malformed construction, or bad JSON."""


class VertexId(NamedTuple):
    """A diagram vertex: kind letter, index, and color, ordered as that tuple.

    Kinds 'a'/'b' are the alpha/beta families of the canonical tables;
    kinds 't'/'f' are the two chains of the parametric D_l(a_k) family,
    whose colors alternate along the chain.
    """

    kind: str
    index: int
    color: str

    @property
    def id(self) -> str:
        return f"{self.kind}{self.index}"

    def __str__(self) -> str:
        return self.id


def _va(i: int) -> VertexId:
    return VertexId("a", i, ALPHA)


def _vb(i: int) -> VertexId:
    return VertexId("b", i, BETA)


def _chain(kind: str, length: int) -> list[VertexId]:
    # chains attach to a beta vertex, so they start alpha and alternate
    return [VertexId(kind, i + 1, ALPHA if i % 2 == 0 else BETA) for i in range(length)]


Edge = tuple[VertexId, VertexId, int]


class _Value:
    """A value: equality, hash and repr read the fields that the class
    attribute ``_value`` names, in that order, and assigning or deleting an
    attribute raises AttributeError.  An instance of another class is never
    equal to one.  Constructors store with ``self.__dict__.update``; other
    attributes they store are derived or cached, and are not part of it."""

    _value: tuple[str, ...]

    def _fields(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._value))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={x!r}" for f, x in zip(self._value, self._fields()))
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class CarterDiagram(_Value):
    """A named diagram with an ordered vertex tuple and signed edges.

    ``pattern`` is read from the value by ``detect_pattern``, so two equal
    diagrams never disagree on it.
    The integer Gram matrix is built once, while the edges are checked, and
    the normalized ``edges`` and the pattern are read from it.
    It is checked here and nowhere else: one that is not a nonempty connected
    bicolored graph with distinct vertex ids, whose vertices and edge endpoints
    are ``VertexId``s of kind a, b, t or f, an int index >= 0 and color alpha
    (always for a) or beta (always for b), raises DiagramError.  So does a name
    that is not printable text free of ``"`` and ``\\``, which the DOT graph
    and the first line of the ``system`` output could not quote.
    """

    _value = ("name", "vertices", "edges")

    def __init__(self, name: str, vertices: tuple[VertexId, ...], edges: tuple[Edge, ...]) -> None:
        if not (isinstance(name, str) and name.isprintable()) or '"' in name or "\\" in name:
            raise DiagramError(f"bad diagram name {name!r} (want printable text without \" or \\)")
        pos: dict[VertexId, int] = {}
        for i, v in enumerate(vertices):
            if not isinstance(v, VertexId):  # a plain tuple would equal one
                raise DiagramError(f"{name}: vertex {v!r} is not a VertexId")
            # before v is hashed: an index or color that is a list would leak TypeError
            if v.kind not in ("a", "b", "t", "f") or type(v.index) is not int or v.index < 0:
                raise DiagramError(
                    f"vertices[{i}]: bad id {v.id!r} (want a<k>, b<k>, t<k> or f<k>)")
            if v.color not in (ALPHA, BETA):
                raise DiagramError(
                    f"vertices[{i}]: color must be 'alpha' or 'beta', got {v.color!r}")
            if (v.kind, v.color) in (("a", BETA), ("b", ALPHA)):
                raise DiagramError(f"vertices[{i}]: id {v.id!r} conflicts with color {v.color!r}")
            if pos.setdefault(v, i) != i:
                raise DiagramError(f"{name}: duplicate vertex {v}")
        index = {**pos, **{v.id: i for v, i in pos.items()}}  # vertex and vertex id -> position
        n = len(vertices)
        g = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for u, v, s in edges:
            if not (isinstance(u, VertexId) and isinstance(v, VertexId) and u in pos and v in pos):
                raise DiagramError(f"{name}: edge endpoint not a vertex")
            if u == v:
                raise DiagramError(f"{name}: self loop at {u}")
            if type(s) is not int or s not in (SOLID, DOTTED):  # not -1.0, True
                raise DiagramError(f"{name}: bad edge sign {s!r}")
            i, j = pos[u], pos[v]
            if g[i][j]:
                raise DiagramError(f"{name}: duplicate edge {u}-{v}")
            g[i][j] = g[j][i] = s
        # the upper triangle in row-major order is the normalized edge order
        edges = tuple((u, vertices[j], row[j]) for i, (u, row) in enumerate(zip(vertices, g))
                      for j in range(i + 1, n) if row[j])
        self.__dict__.update(name=name, vertices=vertices, edges=edges, _index=index,
                             _gram=tuple(map(tuple, g)))
        problems = [f"edge {u}-{v} joins two {u.color} vertices"
                    for u, v, _ in edges if u.color == v.color]
        if not n:
            problems.append("diagram has no vertices")
        # connected exactly when the closure of vertex 0 over the Gram rows is every vertex
        elif len(closure(0, lambda i: (j for j in range(n) if g[i][j]))) < n:
            problems.append("diagram is disconnected")
        if len(index) < 2 * n:  # two vertices share an id key
            problems.append("duplicate vertex ids")
        if problems:
            raise DiagramError(f"{name}: " + "; ".join(problems))

    # -- lookups ------------------------------------------------------------

    def index_of(self, v) -> int:
        i = self._index.get(v if isinstance(v, VertexId) else str(v))
        if i is None:
            raise DiagramError(f"{self.name}: unknown vertex "
                               + (str(v) if isinstance(v, VertexId) else repr(v)))
        return i

    def vertex(self, v) -> VertexId:
        return self.vertices[self.index_of(v)]

    def __len__(self) -> int:
        return len(self.vertices)

    def gram(self) -> tuple[tuple[int, ...], ...]:
        """Integer Gram matrix: 2 on the diagonal, edge signs off it.  It is
        built once, with the edge checks, and every call returns that tuple."""
        return self._gram

    def is_dynkin(self) -> bool:
        return all(s == SOLID for _, _, s in self.edges)

    @cached_property
    def search_order(self) -> tuple[int, ...]:
        """The vertex positions in connectivity-first order, read once from the
        Gram rows: next comes the vertex with the most neighbors already
        placed, then the most neighbors, then the lowest position.  Every
        prefix of it induces a connected subdiagram.  Only the placement
        searches read it, and it is computed when one first asks for it."""
        n = len(self._gram)
        adj = [[j for j, s in enumerate(row) if s and j != i] for i, row in enumerate(self._gram)]
        # (neighbors placed, neighbors, -position) as one integer per vertex
        score = [len(a) * n + n - 1 - i for i, a in enumerate(adj)]
        order = []
        for _ in range(n):
            i = max(range(n), key=score.__getitem__)
            order.append(i)
            score[i] = -1  # placed
            for j in adj[i]:
                if score[j] >= 0:
                    score[j] += n * n
        return tuple(order)

    @cached_property
    def pattern(self) -> Optional[tuple[VertexId, VertexId, VertexId, VertexId]]:
        """The loctets' D5(a1)/D4 subdiagram as (a1, a2, a3, b1), or None."""
        return detect_pattern(self)


# -- closure and placement ---------------------------------------------------


def closure(seed, images: Callable[[Any], Iterable]) -> set:
    """Everything reachable from ``seed`` by repeated ``images``, found one
    breadth-first frontier at a time."""
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for x in frontier:
            for y in images(x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def placements(gram: Sequence[Sequence[int]], order: Sequence[int],
               ip_bits: Sequence[Sequence[int]], masks: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every tuple x of members with (x_i, x_j) = gram[i][j] for i != j, where
    ``ip_bits[m][t + 1]`` is the bitset of the members whose inner product with
    member m is t, for t in -1, 0, 1; a member in none of its own sets is placed
    once at most.  The vertices are placed in ``order``, the one at position p
    on a member of ``masks[p]``, and each later position keeps the members
    still possible for it, narrowed by AND with the bitsets of each member
    placed.  Lowest member first: the tuples come in lexicographic order of x
    read in ``order``."""
    n = len(order)
    at = sorted(range(n), key=order.__getitem__)  # vertex -> position
    # want[p][k] + 1 indexes ip_bits for the members at positions p and p + 1 + k
    want = [[gram[i][j] + 1 for j in order[p + 1:]] for p, i in enumerate(order)]
    chosen = [0] * n
    stack = [list(masks)]  # per depth p: the members left at positions p, p + 1, ...
    while stack:
        left = stack[-1]
        pos, cand = n - len(left), left[0]
        if not cand:
            stack.pop()
            continue
        low = cand & -cand
        left[0] = cand ^ low
        chosen[pos] = m = low.bit_length() - 1
        if pos + 1 == n:
            yield tuple(chosen[p] for p in at)
            continue
        row, narrowed = ip_bits[m], []
        for k, w in enumerate(want[pos], 1):
            hit = left[k] & row[w]
            if not hit:
                break
            narrowed.append(hit)
        else:
            stack.append(narrowed)


# -- catalog -----------------------------------------------------------------

# Edge lists in the canonical table order.  's' solid, 'd' dotted.
_C4_TABLE: dict[str, tuple[int, int, list[tuple[str, str, str]]]] = {
    "D4(a1)": (2, 2, [("a1", "b1", "s"), ("a1", "b2", "s"), ("a2", "b1", "d"), ("a2", "b2", "s")]),
    "D5(a1)": (3, 2, [("a1", "b1", "s"), ("a2", "b1", "s"), ("a3", "b1", "s"),
                      ("a2", "b2", "d"), ("a3", "b2", "s")]),
    "E6(a1)": (3, 3, [("a1", "b1", "s"), ("a2", "b1", "s"), ("a3", "b1", "s"),
                      ("a2", "b2", "d"), ("a3", "b2", "s"), ("a3", "b3", "s")]),
    "E6(a2)": (3, 3, [("a1", "b1", "s"), ("a2", "b1", "s"), ("a3", "b1", "s"),
                      ("a2", "b2", "d"), ("a3", "b2", "s"), ("a1", "b3", "d"), ("a3", "b3", "s")]),
    "D6(a1)": (3, 3, [("a1", "b1", "s"), ("a2", "b1", "s"), ("a3", "b1", "s"),
                      ("a2", "b2", "d"), ("a3", "b2", "s"), ("a1", "b3", "s")]),
    "D6(a2)": (4, 2, [("a1", "b1", "s"), ("a2", "b1", "s"), ("a3", "b1", "s"),
                      ("a2", "b2", "d"), ("a3", "b2", "s"), ("a4", "b2", "s")]),
    "E7(a1)": (3, 4, [("a1", "b1", "s"), ("a2", "b1", "s"), ("a3", "b1", "s"),
                      ("a2", "b2", "d"), ("a3", "b2", "s"), ("a3", "b3", "s"), ("a1", "b4", "s")]),
    "E7(a2)": (3, 4, [("a1", "b1", "s"), ("a2", "b1", "s"), ("a3", "b1", "s"),
                      ("a2", "b2", "d"), ("a3", "b2", "s"), ("a3", "b3", "s"), ("a2", "b4", "s")]),
    "E7(a3)": (3, 4, [("a1", "b1", "s"), ("a2", "b1", "s"), ("a3", "b1", "s"),
                      ("a2", "b2", "d"), ("a3", "b2", "s"), ("a1", "b3", "d"), ("a3", "b3", "s"),
                      ("a2", "b4", "s")]),
    "E7(a4)": (3, 4, [("a1", "b1", "s"), ("a2", "b1", "s"), ("a3", "b1", "s"),
                      ("a2", "b2", "d"), ("a3", "b2", "s"), ("a1", "b3", "s"), ("a3", "b3", "d"),
                      ("a1", "b4", "d"), ("a2", "b4", "s")]),
    "D7(a1)": (4, 3, [("a1", "b1", "s"), ("a2", "b1", "s"), ("a3", "b1", "s"),
                      ("a2", "b2", "d"), ("a3", "b2", "s"), ("a1", "b3", "s"), ("a4", "b3", "s")]),
    "D7(a2)": (4, 3, [("a1", "b1", "s"), ("a2", "b1", "s"), ("a3", "b1", "s"),
                      ("a2", "b2", "d"), ("a3", "b2", "s"), ("a4", "b2", "s"), ("a1", "b3", "s")]),
}

# The E Dynkin diagrams in the same table convention: b1 is the branch point
# with alpha neighbors a1, a2, a3; the tail continues from a2 and the second
# branch from a1.  D4 .. D7 are built by ``dynkin_D`` in the same convention.
_DYNKIN_TABLE: dict[str, tuple[int, int, list[tuple[str, str, str]]]] = {
    "E6": (3, 3, [("a1", "b1", "s"), ("a2", "b1", "s"), ("a3", "b1", "s"),
                  ("a1", "b2", "s"), ("a2", "b3", "s")]),
    "E7": (4, 3, [("a1", "b1", "s"), ("a2", "b1", "s"), ("a3", "b1", "s"),
                  ("a1", "b2", "s"), ("a2", "b3", "s"), ("a4", "b3", "s")]),
    "E8": (4, 4, [("a1", "b1", "s"), ("a2", "b1", "s"), ("a3", "b1", "s"),
                  ("a1", "b2", "s"), ("a2", "b3", "s"), ("a4", "b3", "s"), ("a4", "b4", "s")]),
}


def _from_table(name: str, na: int, nb: int, edges: list[tuple[str, str, str]]) -> CarterDiagram:
    verts = [_va(i + 1) for i in range(na)] + [_vb(i + 1) for i in range(nb)]
    byid = {v.id: v for v in verts}
    es = [(byid[u], byid[v], SOLID if s == "s" else DOTTED) for u, v, s in edges]
    return CarterDiagram(name, tuple(verts), tuple(es))


_NAME_RE = re.compile(r"^([ADE])_?(\d+)(?:\(\s*a_?(\d+)\s*\)|a(\d+))?$", re.IGNORECASE)


def parse_name(name: str) -> tuple[str, int, Optional[int]]:
    """Parse 'E6(a1)', 'E6a1', 'D_10(a_3)', 'A5' into (family, l, k | None)."""
    m = isinstance(name, str) and _NAME_RE.match(name.strip())
    if not m:
        raise DiagramError(f"unknown diagram name {name!r}")
    family = m.group(1).upper()
    l = int(m.group(2))
    k = m.group(3) or m.group(4)
    return family, l, int(k) if k is not None else None


def catalog_names() -> list[str]:
    """The cataloged names: the tables, with D4 .. D7 before the E family."""
    return list(_C4_TABLE) + [f"D{l}" for l in range(4, 8)] + list(_DYNKIN_TABLE)


def catalog(name: str) -> CarterDiagram:
    """Build a diagram by name.

    Tabled names ('D4(a1)' .. 'D7(a2)', Dynkin 'E6' .. 'E8') come out in the
    canonical table vertex order.  'A_l' chains and the parametric families
    'D_l' / 'D_l(a_k)' are accepted up to rank 12; 'D_l' follows the table
    convention, so 'D4' .. 'D7' are cataloged too.
    """
    family, l, k = parse_name(name)
    cname = f"{family}{l}(a{k})" if k is not None else f"{family}{l}"
    table = _C4_TABLE.get(cname) or _DYNKIN_TABLE.get(cname)
    if table:
        return _from_table(cname, *table)
    if family == "A" and k is None:
        return dynkin_A(l)
    if family == "D":
        return dynkin_D(l) if k is None else carter_D_ak(l, k)
    raise DiagramError(f"unknown diagram name {name!r}")


def dynkin_A(l: int) -> CarterDiagram:
    """The A_l chain, alternately colored, all edges solid."""
    if not 1 <= l <= MAX_RANK:
        raise DiagramError(f"A_l needs 1 <= l <= {MAX_RANK}, got {l}")
    path = [(_va if i % 2 == 0 else _vb)(i // 2 + 1) for i in range(l)]
    verts = sorted(path, key=lambda v: (v.color != ALPHA, v.index))
    edges = [(path[i], path[i + 1], SOLID) for i in range(l - 1)]
    return CarterDiagram(f"A{l}", tuple(verts), tuple(edges))


def dynkin_D(l: int) -> CarterDiagram:
    """The D_l Dynkin diagram: branch point b1, tail growing from a2."""
    if not 4 <= l <= MAX_RANK:
        raise DiagramError(f"D_l needs 4 <= l <= {MAX_RANK}, got {l}")
    # tail vertices beyond the branch: b2, a4, b3, a5, ...
    tail = [_vb(i // 2 + 2) if i % 2 == 0 else _va(i // 2 + 4) for i in range(l - 4)]
    path = [_va(2)] + tail
    verts = sorted([_va(1), _va(2), _va(3), _vb(1)] + tail,
                   key=lambda v: (v.color != ALPHA, v.index))
    edges = [(_va(1), _vb(1), SOLID), (_va(2), _vb(1), SOLID), (_va(3), _vb(1), SOLID)]
    edges += [(path[i], path[i + 1], SOLID) for i in range(len(path) - 1)]
    return CarterDiagram(f"D{l}", tuple(verts), tuple(edges))


def carter_D_ak(l: int, k: int) -> CarterDiagram:
    """The 4-cycle family D_l(a_k).

    Central square a2-b1-a3-b2 with the single dotted edge (a2, b2); a chain
    of l-k'-3 vertices f1.. grows from b1 and a chain of k'-1 vertices t1..
    from b2, where k' = min(k, l-k-2) (the two parameters give the same
    diagram).  All chain edges are solid and chains alternate colors starting
    alpha.  Vertex order: a2, a3, b1, b2, t1.., f1.. .
    """
    if l < 4 or k < 1 or k > l - 3:
        raise DiagramError(f"D_l(a_k) needs l >= 4 and 1 <= k <= l-3, got l={l}, k={k}")
    if l > MAX_RANK:
        raise DiagramError(f"D{l}(a{k}): rank {l} exceeds the supported bound {MAX_RANK}")
    keff = min(k, l - k - 2)
    t_chain = _chain("t", keff - 1)
    f_chain = _chain("f", l - keff - 3)
    a2, a3, b1, b2 = _va(2), _va(3), _vb(1), _vb(2)
    verts = (a2, a3, b1, b2, *t_chain, *f_chain)
    edges = [(a2, b1, SOLID), (a3, b1, SOLID), (a3, b2, SOLID), (a2, b2, DOTTED)]
    prev = b2
    for v in t_chain:
        edges.append((prev, v, SOLID))
        prev = v
    prev = b1
    for v in f_chain:
        edges.append((prev, v, SOLID))
        prev = v
    return CarterDiagram(f"D{l}(a{k})", verts, tuple(edges))


# -- extension ----------------------------------------------------------------


def extend(d: CarterDiagram, at) -> CarterDiagram:
    """Append one vertex of the opposite color, solid-joined to ``at``.  The
    result's pattern is detected afresh, as for any diagram."""
    at = d.vertex(at)
    color = BETA if at.color == ALPHA else ALPHA
    kind = "b" if color == BETA else "a"
    used = {v.index for v in d.vertices if v.kind == kind}
    new = VertexId(kind, max(used, default=0) + 1, color)
    return CarterDiagram(f"{d.name}+{at.id}", d.vertices + (new,),
                         d.edges + ((at, new, SOLID),))


# -- pattern detection ---------------------------------------------------------


def detect_pattern(d: CarterDiagram) -> Optional[tuple[VertexId, VertexId, VertexId, VertexId]]:
    """Locate the predefined D5(a1)/D4 subdiagram (a1, a2, a3, b1 roles).

    The center is the first beta vertex (in canonical order) with exactly
    three alpha neighbors, all solid.  In the 4-cycle case the two square
    members take the a2 (dotted to the opposite beta) and a3 roles.  Both
    searches read the rows of the Gram matrix the diagram built once.  This is
    the only place the pattern is decided; ``CarterDiagram.pattern`` reads it.
    """
    g, vs = d.gram(), d.vertices
    betas = [i for i, v in enumerate(vs) if v.color == BETA]
    alphas = [i for i, v in enumerate(vs) if v.color == ALPHA]
    for c in betas:
        legs = [j for j in alphas if g[c][j]]
        if len(legs) != 3 or any(g[c][j] != SOLID for j in legs):
            continue
        for o in betas:
            signs = [g[o][j] for j in legs]
            if o != c and sorted(signs) == [SOLID, 0, DOTTED]:
                a1, a2, a3 = (legs[signs.index(s)] for s in (0, DOTTED, SOLID))
                return (vs[a1], vs[a2], vs[a3], vs[c])
        return (vs[legs[0]], vs[legs[1]], vs[legs[2]], vs[c])
    return None


# -- isomorphism ---------------------------------------------------------------


def isomorphic(d1: CarterDiagram, d2: CarterDiagram, allow_switching: bool = True) -> bool:
    """Exact signed-graph isomorphism search.

    With ``allow_switching`` the comparison treats diagrams related by vertex
    sign flips (replacing a root by its negative, which toggles all its edge
    signs) as equal; that is the equivalence under which D_l(a_k) and
    D_l(a_{l-k-2}) coincide.  Without it the edge signs must match exactly.
    """
    return find_isomorphism(d1, d2, allow_switching) is not None


def find_isomorphism(d1: CarterDiagram, d2: CarterDiagram,
                     allow_switching: bool = True) -> Optional[dict]:
    """First vertex bijection d1 -> d2 realizing the isomorphism, or None.

    Useful as the documented permutation between a parametric diagram and
    its tabled counterpart, e.g. carter_D_ak(6, 2) onto catalog('D6(a2)').

    It is the first of ``placements`` of d1's Gram matrix on the signed
    vertices of d2: member j is vertex j, and with ``allow_switching``
    member n + j is its negative, whose inner products are those of j with
    the sign flipped.  Two members of one vertex have inner product +-2,
    which no entry of d1 asks for, so every placement is a bijection.  Each
    vertex of d1 starts on the vertices of d2 of its degree.
    """
    n = len(d1.vertices)
    g1, g2 = d1.gram(), d2.gram()
    deg1, deg2 = ([sum(1 for x in row if x not in (0, 2)) for row in g] for g in (g1, g2))
    if sorted(deg1) != sorted(deg2):  # also where the vertex counts or the edge counts differ
        return None
    # the vertices of d2 whose inner product with vertex j is -1, 0 and 1
    rows = [[sum(1 << k for k, x in enumerate(row) if x == t) for t in (-1, 0, 1)] for row in g2]
    table = [(minus | plus << n, zero | zero << n, plus | minus << n) for minus, zero, plus in rows]
    table += [bits[::-1] for bits in table]  # the negatives
    members = (1 << (2 * n if allow_switching else n)) - 1
    masks = [sum(1 << j | 1 << n + j for j in range(n) if deg2[j] == deg1[i]) & members
             for i in d1.search_order]
    found = next(placements(g1, d1.search_order, table, masks), None)
    return None if found is None else {v: d2.vertices[m % n] for v, m in zip(d1.vertices, found)}


# -- JSON ----------------------------------------------------------------------


def to_json(d: CarterDiagram) -> str:
    return json.dumps(to_doc(d))


def to_doc(d: CarterDiagram) -> dict:
    """The diagram JSON document: ``to_json`` encodes it, ``from_doc`` reads it."""
    return {
        "name": d.name,
        "vertices": [{"id": v.id, "color": v.color} for v in d.vertices],
        "edges": [{"u": u.id, "v": v.id, "sign": SIGN_NAMES[s]} for u, v, s in d.edges],
    }


def from_json(text: str) -> CarterDiagram:
    """Parse the canonical diagram JSON; unknown keys are rejected."""
    return from_doc(_decode(text))


_ID_RE = re.compile(r"([abtf])(\d+)")


def from_doc(doc) -> CarterDiagram:
    """The diagram of a decoded diagram JSON document, checked as ``from_json``
    checks it; a system document's "diagram" is read by this."""
    _read_object(doc, ("name", "vertices", "edges"), "diagram JSON")
    for key in ("vertices", "edges"):
        if not isinstance(doc[key], list):
            raise DiagramError(f"diagram JSON: {key!r} must be a list")
    if not isinstance(doc["name"], str):
        raise DiagramError(f"diagram JSON: 'name' must be a string, got {doc['name']!r}")
    verts = []
    for i, v in enumerate(doc["vertices"]):
        vid = _read_object(v, ("id", "color"), f"vertices[{i}]")["id"]
        # an id is canonical exactly when it is the id of the vertex read from it
        m = _ID_RE.match(str(vid))
        vertex = VertexId(m.group(1), int(m.group(2)), v["color"]) if m else None
        if vertex is None or vertex.id != vid:
            raise DiagramError(f"vertices[{i}]: bad id {vid!r} (want a<k>, b<k>, t<k> or f<k>)")
        verts.append(vertex)
    byid = {v.id: v for v in verts}
    edges = []
    for i, e in enumerate(doc["edges"]):
        _read_object(e, ("u", "v", "sign"), f"edges[{i}]")
        u, v, sign = e["u"], e["v"], e["sign"]
        for end in (u, v):
            if not isinstance(end, str) or end not in byid:  # a list or object is unhashable
                raise DiagramError(f"edges[{i}]: unknown vertex {end!r}")
        if not isinstance(sign, str) or sign not in SIGN_VALUES:
            raise DiagramError(f"edges[{i}]: sign must be 'solid' or 'dotted', got {sign!r}")
        edges.append((byid[u], byid[v], SIGN_VALUES[sign]))
    return CarterDiagram(doc["name"], tuple(verts), tuple(edges))


def _decode(text: str, unique_keys: bool = False):
    """The JSON value of ``text``, a str or bytes, as both readers take it; with
    ``unique_keys``, an object that repeats a key raises DiagramError naming it."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys if unique_keys else None)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise DiagramError(f"invalid JSON: {e}") from None


def _unique_keys(pairs: list) -> dict:
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise DiagramError(f"JSON object repeats key {key!r}")
        seen.add(key)
    return dict(pairs)


def _read_object(obj, keys: tuple[str, ...], where: str) -> dict:
    """``obj``, checked to be a JSON object with exactly ``keys``."""
    if not isinstance(obj, dict):
        raise DiagramError(f"{where} must be an object")
    for key in obj:
        if key not in keys:
            raise DiagramError(f"{where}: unknown key {key!r} (allowed: {sorted(keys)})")
    for key in keys:
        if key not in obj:
            raise DiagramError(f"{where} is missing {key!r}")
    return obj
