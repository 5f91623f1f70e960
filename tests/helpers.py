"""Shared test support: cached constructors, so the suite builds each heavy
object once, the Fraction reference linear algebra, coordinate references for
the root-system oracles, edge-scanning references for the diagram, switched,
color-swapped and shuffled diagrams, a brute-force isomorphism search, the
dense elimination of the Cartan core, the count of garbage a call leaves in
reference cycles, and diagram generators."""

import gc
import itertools
import random
from fractions import Fraction
from functools import lru_cache
from operator import mul

from hypothesis import strategies as st

import carterlink as cl
from carterlink import diagram as dg
from carterlink import roots as rt
from carterlink.cartan import _eliminate
from carterlink.linkage import form_num

# The 18 diagrams with tabulated matrices, in table order.
CATALOG = [
    "D4(a1)", "D5(a1)", "E6(a1)", "E6(a2)", "D6(a1)", "D6(a2)",
    "E7(a1)", "E7(a2)", "E7(a3)", "E7(a4)", "D7(a1)", "D7(a2)",
    "D4", "D5", "E6", "D6", "E7", "D7",
]

C4_CATALOG = CATALOG[:12]

# The 30 diagrams of the large_rank benchmark workload.
LARGE_RANK = [name for l in (10, 11, 12)
              for name in [f"D{l}(a{k})" for k in range(1, l - 2)] + [f"D{l}", f"A{l}"]]
SHUFFLE_SEEDS = (1, 2, 3)


@lru_cache(maxsize=None)
def pc_of(name: str) -> cl.PartialCartan:
    return cl.build_partial_cartan(cl.catalog(name))


@lru_cache(maxsize=None)
def system_of(name: str) -> cl.LinkageSystem:
    return cl.build_system(pc_of(name))


@lru_cache(maxsize=None)
def links_of(name: str):
    return cl.enumerate_linkages(pc_of(name))


def form_at_most_two(pc):
    """Every nonzero v in {-1, 0, 1}^l with form <= 2, sorted: the linkage
    vectors, found as ``test_linkage.brute_force_linkages`` finds them, and
    those of form exactly 2, some of whose dual reflections leave the set."""
    return tuple(v for v in itertools.product((-1, 0, 1), repeat=len(pc))
                 if any(v) and form_num(pc, v) <= 2 * pc.inv_den)


@lru_cache(maxsize=None)
def ambient(name: str) -> cl.RootSystem:
    return cl.build_root_system(name)


@lru_cache(maxsize=None)
def embedding_in(name: str, amb: str):
    return cl.find_embedding(cl.catalog(name), ambient(amb))


@lru_cache(maxsize=None)
def labels_in(name: str, amb: str):
    emb = embedding_in(name, amb)
    assert emb is not None, f"{name} does not embed into {amb}"
    return cl.direct_linkage_labels(emb)


# -- Fraction reference linear algebra -------------------------------------------
# The package computes on integers, from one fraction-free elimination.  These
# plain Fraction routines are the independent route the tests compare it with.


def _square(rows):
    a = [[Fraction(x) for x in row] for row in rows]
    if not a or any(len(row) != len(a) for row in a):
        raise ValueError("need a non-empty square matrix")
    return a


def ref_det(rows) -> Fraction:
    """Determinant by Gaussian elimination with row swaps."""
    a = _square(rows)
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def ref_inverse(rows) -> list:
    """Inverse by Gauss-Jordan with row swaps; ValueError when singular."""
    a = _square(rows)
    n = len(a)
    a = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        a[c], a[pivot] = a[pivot], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def inverse_is(pc, den, num) -> bool:
    """B^-1 of ``pc`` equals num / den; den need not be reduced, so the two
    fractions are cross-multiplied."""
    return [[x * den for x in row] for row in pc.inv_num] == \
        [[x * pc.inv_den for x in row] for row in num]


def ref_mat_vec(m, v) -> list:
    return [sum((Fraction(x) * y for x, y in zip(row, v) if y), Fraction(0)) for row in m]


def ref_rank(vectors) -> int:
    """Rank of a list of row vectors."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


# -- coordinate references for the root-system oracles ---------------------------
# The label scan and the extension orbits as roots.py computed them from
# doubled coordinates, before it read the ambient's inner-product bitsets.


def _dot(x, y) -> int:
    return sum(map(mul, x, y))


def ref_root(x) -> tuple:
    """The doubled root x as Fractions."""
    return tuple(Fraction(c, 2) for c in x)


def ref_root_text(amb, i) -> str:
    """Root i of ``amb`` as the witnesses name it, written from its Fractions."""
    return f"root {i} ({','.join(map(str, ref_root(amb.doubled[i])))})"


def ref_realized(e) -> list:
    """(record, p, gamma_L, mu) for the realized linkages of an embedding, in
    ambient root order: every root with a nonzero label vector, labels from
    8-coordinate dot products, and mu != 0 (outside the span of the embedded
    roots); p = form of labels, and gamma_L and mu are Fraction tuples, kept
    beside the record."""
    n_mat, den = e.pc.inv_num, e.pc.inv_den
    s = 2 * den
    cols = list(zip(*e.doubled))
    out = []
    for i, x in enumerate(e.ambient.doubled):
        labels = []
        for y in e.doubled:
            t, rem = divmod(_dot(x, y), 4)
            assert rem == 0, "non-integral inner product"
            labels.append(t)
        if not any(labels):
            continue
        c = [_dot(row, labels) for row in n_mat]
        g = [_dot(c, col) for col in cols]
        m = [den * a - b for a, b in zip(x, g)]
        if not any(m):
            continue
        assert all(abs(t) <= 1 for t in labels), f"root {i} has a label outside -1..1"
        out.append((rt.RealizedLinkage(i, tuple(labels)), Fraction(_dot(labels, c), den),
                    tuple(Fraction(a, s) for a in g), tuple(Fraction(a, s) for a in m)))
    return out


@lru_cache(maxsize=None)
def _ref_reflect(x, v):
    """x - (x, v) v for doubled x and v, by a dot product of coordinates."""
    c, rem = divmod(_dot(x, v), 4)
    assert rem == 0, "non-integral inner product"
    return tuple(a - c * b for a, b in zip(x, v)) if c else x


def ref_extension_orbit(e, seed) -> frozenset:
    """Orbit of the doubled root ``seed`` under the reflections in the
    embedded roots and in seed itself, by 8-coordinate dot products."""
    gens = list(e.doubled) + [seed]
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for x in frontier:
            for v in gens:
                y = _ref_reflect(x, v)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


# -- the Fraction root-system builder --------------------------------------------
# The root systems as roots.py built them before it worked in doubled integers:
# Fraction roots, doubled afterwards, and every inner product as a pairwise dot
# product.


class RefRootSystem:
    """roots, doubled, index and ip_bits of one root system."""

    def __init__(self, name, roots):
        self.name = name
        self.roots = tuple(sorted(roots))
        assert len(set(self.roots)) == len(self.roots), "duplicate roots"
        self.doubled = tuple(tuple(int(2 * c) for c in r) for r in self.roots)
        self.index = {x: i for i, x in enumerate(self.doubled)}
        bits = [[0, 0, 0] for _ in self.doubled]
        for i, x in enumerate(self.doubled):
            assert _dot(x, x) == 8, "squared norm != 2"
            for j in range(i + 1, len(self.doubled)):
                t, rem = divmod(_dot(x, self.doubled[j]), 4)
                assert rem == 0, "non-integral inner product"
                if -1 <= t <= 1:
                    bits[i][t + 1] |= 1 << j
                    bits[j][t + 1] |= 1 << i
        self.ip_bits = tuple(tuple(b) for b in bits)


def _ref_unit(i, dim, sign_j, j):
    v = [Fraction(0)] * dim
    v[i] = Fraction(1)
    v[j] = Fraction(sign_j)
    return tuple(v)


def _ref_d_roots(n):
    return [tuple(Fraction(si if k == i else sj if k == j else 0) for k in range(n))
            for i in range(n) for j in range(i + 1, n) for si in (1, -1) for sj in (1, -1)]


def ref_root_system(name) -> RefRootSystem:
    """A_n, D_n or E6/E7/E8 from Fraction roots."""
    family, n, _ = dg.parse_name(name)
    if family == "A":
        return RefRootSystem(name, [_ref_unit(i, n + 1, -1, j) for i in range(n + 1)
                                    for j in range(n + 1) if i != j])
    if family == "D":
        return RefRootSystem(name, _ref_d_roots(n))
    half = Fraction(1, 2)
    roots = _ref_d_roots(8) + [tuple(-half if signs >> b & 1 else half for b in range(8))
                               for signs in range(256) if bin(signs).count("1") % 2 == 0]
    if n < 8:
        roots = [r for r in roots if _dot(r, _ref_unit(6, 8, 1, 7)) == 0]
    if n == 6:
        roots = [r for r in roots if _dot(r, _ref_unit(5, 8, 1, 6)) == 0]
    return RefRootSystem(name, roots)


# -- edge-scanning references for the diagram -------------------------------------
# Edge normalization, the Gram matrix, neighbors and pattern detection as
# diagram.py computed them from the edge list, before it built the Gram matrix
# once and read every edge question from its rows.


def ref_normalized_edges(vertices, edges) -> tuple:
    """The edges with each pair in vertex order, sorted by the two positions."""
    pos = {v: i for i, v in enumerate(vertices)}
    norm = [(u, v, s) if pos[u] < pos[v] else (v, u, s) for u, v, s in edges]
    return tuple(sorted(norm, key=lambda e: (pos[e[0]], pos[e[1]])))


def ref_gram(d) -> tuple:
    """2 on the diagonal and the edge signs off it, written edge by edge."""
    n = len(d.vertices)
    g = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for u, v, s in d.edges:
        i, j = d.vertices.index(u), d.vertices.index(v)
        g[i][j] = g[j][i] = s
    return tuple(map(tuple, g))


def ref_neighbors(d, v) -> list:
    """The vertices joined to v and the signs, in edge order."""
    v = d.vertex(v)
    out = []
    for a, b, s in d.edges:
        if a == v:
            out.append((b, s))
        elif b == v:
            out.append((a, s))
    return out


def ref_search_order(d) -> list:
    """Connectivity-first order from edge scans: next the vertex with the most
    neighbors placed, then the most neighbors, then the lowest position."""
    n = len(d.vertices)
    adj = [[d.vertices.index(w) for w, _ in ref_neighbors(d, v)] for v in d.vertices]
    order: list = []
    placed = [False] * n
    for _ in range(n):
        i = max((i for i in range(n) if not placed[i]),
                key=lambda i: (sum(placed[j] for j in adj[i]), len(adj[i]), -i))
        order.append(i)
        placed[i] = True
    return order


def ref_detect_pattern(d):
    """The first beta center with three solid alpha legs, the square's
    dotted leg as a2 and its solid leg as a3, found by scanning the edges."""
    for center in d.vertices:
        if center.color != dg.BETA:
            continue
        alphas = [(v, s) for v, s in ref_neighbors(d, center) if v.color == dg.ALPHA]
        if len(alphas) != 3 or any(s != dg.SOLID for _, s in alphas):
            continue
        legs = sorted((v for v, _ in alphas), key=d.index_of)
        for other in d.vertices:
            if other.color != dg.BETA or other == center:
                continue
            touching = {v: s for v, s in ref_neighbors(d, other) if v in legs}
            if len(touching) == 2:
                dotted = sorted((v for v, s in touching.items() if s == dg.DOTTED), key=d.index_of)
                solid = sorted((v for v, s in touching.items() if s == dg.SOLID), key=d.index_of)
                outside = next(v for v in legs if v not in touching)
                if len(dotted) == 1 and len(solid) == 1:
                    return (outside, dotted[0], solid[0], center)
        return (legs[0], legs[1], legs[2], center)
    return None


def switched(d, v):
    """d with the root at v negated: every edge at v changes sign."""
    v = d.vertex(v)
    edges = tuple((a, b, -s if v in (a, b) else s) for a, b, s in d.edges)
    return cl.CarterDiagram(f"{d.name}-{v.id}", d.vertices, edges)


def color_swapped(d):
    """d with alpha and beta exchanged; a<k> and b<k> trade names with them."""
    def swap(v):
        kind = {"a": "b", "b": "a"}.get(v.kind, v.kind)
        return cl.VertexId(kind, v.index, dg.BETA if v.color == dg.ALPHA else dg.ALPHA)
    edges = tuple((swap(a), swap(b), s) for a, b, s in d.edges)
    return cl.CarterDiagram(f"{d.name}~", tuple(map(swap, d.vertices)), edges)


def shuffled(d, seed):
    """d with its vertices in a seeded random order; the edges are the same."""
    vertices = list(d.vertices)
    random.Random(seed).shuffle(vertices)
    return cl.CarterDiagram(d.name, tuple(vertices), d.edges)


# -- brute-force isomorphism -------------------------------------------------------


def realizes_isomorphism(mapping, d1, d2, allow_switching=True) -> bool:
    """Whether the bijection ``mapping`` carries d1's Gram matrix onto d2's:
    exactly, or, with ``allow_switching``, up to the signs e_v that a
    breadth-first spanning tree of d1 forces from e = +1 at its first vertex,
    g2[pi u][pi v] = e_u e_v g1[u][v] for every pair u, v."""
    g1, g2, n = d1.gram(), d2.gram(), len(d1)
    pi = [d2.index_of(mapping[v]) for v in d1.vertices]
    if len(mapping) != n or sorted(pi) != list(range(len(d2))):
        return False
    e = {0: 1}
    frontier = [0]
    while frontier:
        u = frontier.pop(0)
        for v in range(n):
            if g1[u][v] and v not in e:
                e[v] = g2[pi[u]][pi[v]] * g1[u][v] * e[u] if allow_switching else 1
                frontier.append(v)
    return all(g2[pi[u]][pi[v]] == e[u] * e[v] * g1[u][v] for u in range(n) for v in range(n))


def ref_find_isomorphism(d1, d2, allow_switching=True):
    """The first bijection d1 -> d2, with signs e (all +1 without switching),
    such that g2[pi u][pi v] = e_u e_v g1[u][v] for every pair, or None.  It
    tries every permutation that matches the unsigned graphs with every sign
    vector, so it is for rank <= 5."""
    n = len(d1)
    assert n <= 5, "the brute force is for rank 5 or less"
    if n != len(d2):
        return None
    g1, g2 = d1.gram(), d2.gram()
    signs = list(itertools.product((1, -1), repeat=n)) if allow_switching else [(1,) * n]
    for pi in itertools.permutations(range(n)):
        if any(abs(g2[pi[u]][pi[v]]) != abs(g1[u][v]) for u in range(n) for v in range(n)):
            continue
        for e in signs:
            if all(g2[pi[u]][pi[v]] == e[u] * e[v] * g1[u][v] for u in range(n) for v in range(n)):
                return dict(zip(d1.vertices, (d2.vertices[j] for j in pi)))
    return None


# -- the Cartan core -------------------------------------------------------------


def ref_eliminate(b):
    """The dense fraction-free elimination of [B | I] (Bareiss, Math. Comp. 22
    (1968) 565-578) without row swaps: every step updates every row below
    the pivot.  None at the first pivot <= 0."""
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


def cycles_left_by(call) -> int:
    """The objects that only the cyclic collector frees after ``call()``."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


# -- generated diagrams -----------------------------------------------------------


@st.composite
def signed_bipartite_diagrams(draw, max_rank=7):
    """Connected signed bipartite diagrams: a random spanning tree, whose
    parent links fix the coloring, plus random extra alpha-beta edges."""
    n = draw(st.integers(1, max_rank))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    colors = [0]
    for par in parents:
        colors.append(1 - colors[par])
    pairs = {(par, i) for i, par in enumerate(parents, start=1)}
    extra = [(i, j) for i in range(n) for j in range(i + 1, n)
             if colors[i] != colors[j] and (i, j) not in pairs]
    if extra:
        pairs |= set(draw(st.lists(st.sampled_from(extra), unique=True)))
    counts = [0, 0]
    vertices = []
    for c in colors:
        counts[c] += 1
        vertices.append(cl.VertexId("ab"[c], counts[c], (dg.ALPHA, dg.BETA)[c]))
    edges = tuple((vertices[i], vertices[j], draw(st.sampled_from((-1, 1))))
                  for i, j in sorted(pairs))
    return cl.CarterDiagram("generated", tuple(vertices), edges)


def _e8_ip(a, b) -> int:
    """Inner product of the E8 roots of indices a and b."""
    bits = ambient("E8").ip_bits
    return 2 if a == b else next((t for t in (-1, 0, 1) if bits[a][t + 1] >> b & 1), -2)


def _grown_diagram(draw, chosen, colors, steps, allowed=~0):
    """The diagram of the E8 roots ``chosen`` of ``colors`` (0 alpha, 1 beta),
    grown by up to ``steps`` roots from the bitset ``allowed``.  Each new root
    has inner products in {0, +-1} with the roots chosen so far, meets at
    least one of them, is orthogonal to its own color class, and keeps the
    set independent.  Roots are drawn by their position in the candidate
    list, so a draw shrinks toward low indices."""
    bits = ambient("E8").ip_bits
    chosen, colors = list(chosen), list(colors)
    for _ in range(steps):
        meets, ortho = 0, [~0, ~0]
        for r, c in zip(chosen, colors):
            minus, zero, plus = bits[r]
            allowed &= minus | zero | plus
            meets |= minus | plus
            ortho[c] &= zero
        # a root orthogonal to color c that meets a chosen root joins color c
        cands = [(r, c) for c in (0, 1) for r in range(len(bits))
                 if (allowed & meets & ortho[c]) >> r & 1]
        while cands:
            r, c = cands.pop(draw(st.integers(0, len(cands) - 1)))
            if _eliminate([[_e8_ip(a, b) for b in chosen + [r]] for a in chosen + [r]]):
                chosen.append(r)
                colors.append(c)
                break
        else:
            break
    counts = [0, 0]
    vertices = []
    for c in colors:
        counts[c] += 1
        vertices.append(cl.VertexId("ab"[c], counts[c], (dg.ALPHA, dg.BETA)[c]))
    edges = tuple((vertices[i], vertices[j], _e8_ip(chosen[i], chosen[j]))
                  for j in range(len(chosen)) for i in range(j) if _e8_ip(chosen[i], chosen[j]))
    return cl.CarterDiagram("grown", tuple(vertices), edges)


@st.composite
def e8_root_subset_diagrams(draw, max_rank=8):
    """Diagrams grown as sets of E8 roots from one drawn root, so every draw
    is a Carter diagram (Carter, Compositio Math. 25 (1972) 1-59): positive
    definite, with an embedding into E8."""
    first = draw(st.integers(0, len(ambient("E8")) - 1))
    return _grown_diagram(draw, [first], [0], draw(st.integers(0, max_rank - 1)))


@lru_cache(maxsize=None)
def _e8_star() -> tuple:
    """A D4 star of E8 roots: a center and the first three roots, in index
    order, at inner product -1 with it and orthogonal to each other."""
    center = 0
    legs = []
    for r in range(len(ambient("E8"))):
        if _e8_ip(center, r) == -1 and all(_e8_ip(r, leg) == 0 for leg in legs):
            legs.append(r)
    return (center, *legs[:3])


@st.composite
def patterned_diagrams(draw, max_rank=8):
    """Diagrams grown as sets of E8 roots from a fixed D4 star, the center b1
    with three solid alpha legs, by roots orthogonal to the center.  The
    center keeps its three legs, so every draw has the D5(a1)/D4 pattern."""
    star = _e8_star()
    d = _grown_diagram(draw, star, [1, 0, 0, 0], draw(st.integers(0, max_rank - 4)),
                       allowed=ambient("E8").ip_bits[star[0]][1])
    assert d.pattern is not None, d
    return d
