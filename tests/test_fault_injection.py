"""Every check of the root-system oracle and of the linkage system fires:
the fault table.

Each entry installs one small fault with ``monkeypatch``: it changes a
private routine, or the data one stage hands to the next.  Then it runs one
command in process, ``carterlink verify`` on a named diagram in E8 or
``carterlink system`` or ``project`` on catalog diagrams, and expects exit 2
and the exact ``verification failure:`` line.  The entry computes the
witness that line names from the data without the fault; a root is named as
``RootSystem.name_root`` names it, here written by the test-side
``ref_root_text``.  There is one entry for each check of
``check_projection_laws`` and ``Embedding``, the checks that a realized
root's index names an ambient root, that no root is realized twice and that
its labels are a tuple of ints with one entry per vertex included.  A
realized root is its index and its labels, with no p of its own, so no entry
corrupts a p: the laws compute it.  The two moment laws of
``direct_linkage_labels`` are reached by the faults in the labels below.
There is one entry for each check of ``orbit`` that no other test reaches:
the places of gamma(4) and gamma(5) in a loctet (with a second entry that
misplaces gamma(4) alone), the loctet coverage of ``build_system``, and the
three checks of ``project_system``.  The loctet
laws that ``build_system`` does not check are stated in the docstring of
``orbit._generated_loctets``.  The restricted-form check is reached by two
faults: a wrong B^-1 and a wrong G.  The checks of ``linkage._closure`` are
reached by a faulty reflection (a label out of {-1, 0, 1}), a seed of form
exactly 2 admitted on D8 (a closure beyond the table), two closures of equal
p merged on E6(a1), D5 and D4(a1) (the (p, size) multiset, which also holds
the bare square to three orbits of 8), the table's count raised by 2 (the
count, short after the seeds of support 3) and a det B no root lattice of
that rank has.

Four entries fault the data that the checks read rather than a check: the
seed of form 2 above, one label of a realized root negated in
``roots._labels``, the same label negated on a realized root and on its
negative, and two bits of root 0's row of E8's ``ip_bits`` moved, one from
the 0-set to the +1-set and one from the -1-set to the 0-set.  The moment
laws of the label matrix L catch the last three before any root is skipped:
one wrong label breaks L^T 1 = 0, and the flip on a root and its negative
keeps it but breaks L^T L = 60 B off the diagonal.  The two moved bits keep
the row's counts; a moved bit that changes them breaks the hypothesis of the
moment laws, which ``RootSystem._scalar_moment`` checks, and exits 1 (tested
after the table).  So a flip that puts a realized root's labels at p = 2,
which the scan would drop, is caught too; ``test_oracle`` checks
every single flip of A5 and A6 in E8.  The line of a direct label vector
outside the enumeration is reached by the ``DirectLabels`` fakes of
``test_cli``.

These laws of the projection hold but are not checked, because earlier
checks on the same values force them, so no fault can reach a check of them:

- c.B.c = D lc for c = N labels, the form of the labels under B restricted:
  ``Embedding`` checks E_i.E_j = 4 B_ij off the diagonal, and every doubled
  root E has E.E = 8, so G = sum c_k E_k has |G|^2 = 4 c.B.c, and the
  restricted-form check |G|^2 = 4 D lc is the same identity;
- a label outside -1..1 in ``roots._labels``: ``RootSystem`` admits only
  roots of norm 2 with integral inner products, so |(x, y)| <= 2, with
  equality only for y = +-x, the two roots the scan labels 2 and -2;
- the mirror gamma_L - mu of norm 2: |gamma|^2 = 2, the restricted-form
  check |gamma_L|^2 = p and the check p + |mu|^2 = 2 give (gamma_L, mu) = 0,
  so |gamma_L - mu|^2 = p + |mu|^2 = 2;
- |mu|^2 constant on each p-class: p + |mu|^2 = 2 fixes it root by root;
- mu constant up to sign on each p-slice of an extension orbit: the orbits
  are read from the lattice keys (2D mu, N labels mod D), and a root is in
  the orbit of gamma when its key is k times gamma's for an integer k != 0;
  on one p-slice |mu|^2 = 2 - p fixes |k|, so every mu there is +-k mu(gamma);
- at most two roots of one orbit slice sharing a label vector, and those two
  differing by 2 mu: roots with one label vector share gamma_L, the slice law
  puts every mu in {mu0, -mu0}, and distinct roots have distinct mu;
- the orbit slices partitioning the realized roots, with sizes that add up
  per p to the p-classes: one pass over the keys in ascending |M|^2 pops
  each key as its slice takes it, so no root is counted twice or left out;
- the square law of ``square_diagonal_audit``, which counts and checks
  nothing: the 4 x 4 Gram matrix of a square (u, center, w, gamma) is a
  principal minor of [[B, v], [v^T, 2]], positive definite exactly when
  p < 2, and the law holds exactly when that minor is positive definite.
  ``verify`` audits after the label check, which puts every label vector
  among the linkage vectors (form < 2), and after the laws (p != 2 and
  p + |mu|^2 = 2); a flipped label is caught by the moment laws first.
"""

import pytest

import carterlink as cl
from fractions import Fraction

from carterlink import cli, linkage
from carterlink import diagram as dg
from carterlink import orbit
from carterlink import roots as rt
from carterlink.cli import main
from carterlink.linkage import form_num, reflect_at

from helpers import (_dot, ambient, embedding_in, labels_in, pc_of, ref_realized, ref_root,
                     ref_root_text, system_of)


def _inject(monkeypatch, fn, change):
    """Make ``roots.fn`` return its result passed through ``change``."""
    real = getattr(rt, fn)
    monkeypatch.setattr(rt, fn, lambda *args: change(real(*args)))


def _replaced(items, k, item):
    return items[:k] + (item,) + items[k + 1:]


def _inject_realized(monkeypatch, change):
    """Hand the realized roots of ``direct_linkage_labels``, passed through
    ``change``, to the checks; its distinct labels stay as they are."""
    _inject(monkeypatch, "direct_linkage_labels",
            lambda dl: dl._replace(realized=change(dl.realized)))


def _e8_root(r):
    """The witness text of the realized root ``r`` of an embedding in E8."""
    return ref_root_text(ambient("E8"), r.index)


def _embedding_length(monkeypatch):
    # Embedding: the root of the last vertex left out
    _inject(monkeypatch, "find_embedding",
            lambda e: rt.Embedding(e.pc, e.ambient, e.idx[:-1]))
    return ["verify", "E6(a1)"], "5 roots for 6 vertices of E6(a1)"


def _root_not_in_the_ambient(monkeypatch):
    # Embedding: a first root index one past the ambient's last root
    _inject(monkeypatch, "find_embedding",
            lambda e: rt.Embedding(e.pc, e.ambient, _replaced(e.idx, 0, len(e.ambient))))
    return ["verify", "D4(a1)"], "root of a1 is not a root of E8"


def _embedding_gram(monkeypatch):
    # Embedding: the roots of a2 and of the first neighbor of a1 swapped, so
    # the entry at (a1, a2) is an edge's where the diagram has none
    gram = pc_of("E6(a1)").gram
    k = next(j for j, b in enumerate(gram[0]) if j and b)
    assert cl.catalog("E6(a1)").vertices[1].id == "a2" and gram[0][1] == 0

    def change(e):
        idx = list(e.idx)
        idx[1], idx[k] = idx[k], idx[1]
        return rt.Embedding(e.pc, e.ambient, idx)

    _inject(monkeypatch, "find_embedding", change)
    return ["verify", "E6(a1)"], "embedding Gram mismatch at (a1, a2)"


def _root_index(monkeypatch):
    # check_projection_laws: the first realized root's index one past the
    # ambient's last root
    _inject_realized(monkeypatch, lambda realized: _replaced(
        realized, 0, realized[0]._replace(index=240)))
    return ["verify", "D4(a1)"], "E8: no root of index 240"


def _root_realized_twice(monkeypatch):
    # check_projection_laws: the first realized root repeated at the end
    r = labels_in("D4(a1)", "E8").realized[0]
    _inject_realized(monkeypatch, lambda realized: realized + (realized[0],))
    return ["verify", "D4(a1)"], f"{_e8_root(r)} is realized twice"


def _labels_type(monkeypatch):
    # check_projection_laws: the first realized root's labels as a list
    r = labels_in("D4(a1)", "E8").realized[0]
    _inject_realized(monkeypatch, lambda realized: _replaced(
        realized, 0, realized[0]._replace(labels=list(realized[0].labels))))
    return ["verify", "D4(a1)"], f"labels of {_e8_root(r)} are not a tuple of ints"


def _labels_length(monkeypatch):
    # check_projection_laws: a 0 appended to the first realized root's labels
    r = labels_in("D4(a1)", "E8").realized[0]
    _inject_realized(monkeypatch, lambda realized: _replaced(
        realized, 0, realized[0]._replace(labels=realized[0].labels + (0,))))
    return ["verify", "D4(a1)"], f"labels of {_e8_root(r)} have length 5, not 4"


def _root_in_the_span(monkeypatch):
    # check_projection_laws: an embedded root, with its labels, whose p is 2,
    # put first among the realized roots
    e = embedding_in("D4(a1)", "E8")
    extra = rt.RealizedLinkage(e.idx[0], tuple(e.pc.gram[0]))
    _inject_realized(monkeypatch, lambda realized: (extra,) + realized)
    return ["verify", "D4(a1)"], \
        f"{ref_root_text(e.ambient, e.idx[0])} does not extend the embedding"


def _inverse_form(monkeypatch):
    # check_projection_laws: B^-1 changed by an antisymmetric +-1 at (0, 1) and
    # (1, 0), which leaves every form labels . B^-1 labels, so p, as it is, but
    # not c = N labels, so G = sum c_k E_k and |G|^2 = 4 c.B.c differ from
    # 4 D lc; the first root with a nonzero label at a1 or a2 is the witness
    def change(e):
        num = [list(row) for row in e.pc.inv_num]
        num[0][1] += 1
        num[1][0] -= 1
        pc = cl.PartialCartan(e.pc.diagram, e.pc.det, e.pc.gram, tuple(map(tuple, num)),
                              e.pc.inv_den)
        return rt.Embedding(pc, e.ambient, e.idx)

    _inject(monkeypatch, "find_embedding", change)
    r = next(r for r in labels_in("E6(a1)", "E8").realized if r.labels[:2] != (0, 0))
    return ["verify", "E6(a1)"], f"restricted form differs from ambient on {_e8_root(r)}"


def _restricted_form(monkeypatch):
    # check_projection_laws: G, which is 2D gamma_L, offset by 1 in its first
    # coordinate in the laws' projection; the first realized root is the witness
    real = rt._label_projection

    def offset(*args):
        c, lc, g = real(*args)
        return c, lc, [g[0] + 1] + g[1:]

    monkeypatch.setattr(rt, "_label_projection", offset)
    r = labels_in("E6(a1)", "E8").realized[0]
    return ["verify", "E6(a1)"], f"restricted form differs from ambient on {_e8_root(r)}"


def _p_plus_mu_norm(monkeypatch):
    # check_projection_laws: one realized root given the label vector of another
    # with the same p; the laws project gamma by those labels, and as B^-1 is
    # positive definite and the label vectors differ, (gamma, gamma_L) < p for
    # that gamma_L, so |mu|^2 > 2 - p
    realized = labels_in("E6(a1)", "E8").realized
    p = {r.index: q for r, q, _, _ in ref_realized(embedding_in("E6(a1)", "E8"))}
    k, donor = next((k, b) for k, a in enumerate(realized) for b in realized
                    if p[b.index] == p[a.index] and b.labels != a.labels)
    bad = realized[k]._replace(labels=donor.labels)
    _inject_realized(monkeypatch, lambda realized: _replaced(realized, k, bad))
    return ["verify", "E6(a1)"], f"p + |mu|^2 != 2 for {_e8_root(realized[k])}"


def _lattice_test(monkeypatch):
    # check_projection_laws: the lattice test says no to every vector; the
    # first realized root whose mirror gamma_L - mu, by the coordinate
    # reference, is a root is the witness
    monkeypatch.setattr(rt.RootSystem, "in_root_lattice", lambda self, y: False)
    e8 = {ref_root(x) for x in cl.build_root_system("E8").doubled}
    r = next(r for r, _, gamma_l, mu in ref_realized(embedding_in("D4(a1)", "E8"))
             if tuple(a - b for a, b in zip(gamma_l, mu)) in e8)
    return ["verify", "D4(a1)"], \
        f"norm-2 lattice test disagrees with root membership for {_e8_root(r)}"


# -- the checks of orbit: build_system and project_system ------------------------


def _system_with(s, **fields):
    """The linkage system ``s`` with some of its fields replaced."""
    return orbit.LinkageSystem(**{**{f: getattr(s, f) for f in s._value}, **fields})


def _inject_system(monkeypatch, name, change):
    """Make ``orbit.build_system`` pass the system of the diagram ``name``
    through ``change``; the systems of other diagrams stay as they are."""
    real = orbit.build_system
    monkeypatch.setattr(orbit, "build_system",
                        lambda pc: change(real(pc)) if pc.diagram.name == name else real(pc))


def _coverage(monkeypatch):
    # build_system: the last gamma(8) candidate of each kind is dropped, so its
    # loctet is never grown; the least of those loctets' members is the witness
    loctets = system_of("E6(a1)").loctets
    last = [[loc for loc in loctets if loc.kind == kind][-1] for kind in orbit.LOCTET_TYPES]
    v = min(m for loc in last for m in loc.members)
    real = orbit._gamma8
    monkeypatch.setattr(orbit, "_gamma8", lambda pc, ijkb: real(pc, ijkb)[:-1])
    return ["system", "E6(a1)"], f"E6(a1): {v} has a pattern alpha label but no loctet"


def _loctet_swap(a, b):
    """build_system: gamma(a) and gamma(b) swapped in every generated loctet,
    which keeps each member set; the first loctet is the witness."""
    def fault(monkeypatch):
        first = system_of("E6(a1)").loctets[0]
        a1, a2 = cl.catalog("E6(a1)").pattern[:2]
        assert first.kind == "L12"
        real = orbit._generated_loctets

        def swapped(pc, pat):
            for loc in real(pc, pat):
                members = list(loc.members)
                members[a - 1], members[b - 1] = members[b - 1], members[a - 1]
                yield loc._replace(members=tuple(members))

        monkeypatch.setattr(orbit, "_generated_loctets", lambda pc, pat: tuple(swapped(pc, pat)))
        return ["system", "E6(a1)"], (
            f"E6(a1): in the L12 loctet of gamma(8) = {first.members[7]}, gamma(4) and gamma(5) "
            f"are not gamma(6) reflected at {a1} and {a2}")
    return fault


# -- the checks of linkage._closure ---------------------------------------------


def _pairs(pairs):
    return "[" + ", ".join(f"({p}, {n})" for p, n in pairs) + "]"


def _first_leaving(pc, reflect, seed):
    """The first (u, k, w) in the breadth-first order of ``linkage._orbits``
    from ``seed`` where w, u reflected at k by ``reflect``, has a label
    outside {-1, 0, 1}: such a w is never a node, so it is new when met."""
    hits = []

    def images(u):
        for k, x in enumerate(u):
            if x and not hits:
                w = reflect(pc, k, u)
                if max(map(abs, w)) > 1:
                    hits.append((u, k, w))
                else:
                    yield w

    dg.closure(seed, images)
    return hits[0]


def _reflection(monkeypatch):
    # linkage._orbits: reflect_at with the sign of dotted edges flipped, the
    # keys' steps included; the first seed, e_0, is of form < 2, and the first
    # reflection out of {-1, 0, 1}^l in its closure is the witness
    def flipped(pc, i, v):
        return tuple(x - v[i] * (-b if b == dg.DOTTED else b) for x, b in zip(v, pc.gram[i]))

    pc, d = pc_of("D5(a1)"), cl.catalog("D5(a1)")
    e0 = (1, 0, 0, 0, 0)
    assert form_num(pc, e0) < 2 * pc.inv_den
    u, k, w = _first_leaving(pc, flipped, e0)
    monkeypatch.setattr(linkage, "reflect_at", flipped)
    return ["system", "D5(a1)"], \
        f"D5(a1): reflection at {d.vertices[k]} leaves the linkage set: {u} -> {w}"


def _seed_admits_form_two(monkeypatch):
    # linkage._orbits: form_num reads 2D - 1 where the form is exactly 2, so
    # D8's first seed, e_0 at a spin end (form l/4 = 2), is admitted; its
    # closure, a spin orbit of 128 under the true reflections, exceeds D8's
    # 16 vectors of form < 2 and reads p = 2 - 1/D
    pc = pc_of("D8")
    e0 = (1,) + (0,) * 7
    assert form_num(pc, e0) == 2 * pc.inv_den
    size = len(dg.closure(e0, lambda u: (reflect_at(pc, k, u) for k, x in enumerate(u) if x)))
    p = Fraction(2 * pc.inv_den - 1, pc.inv_den)
    s = system_of("D8")
    table = _pairs(zip(s.component_p, map(len, s.components)))
    real = linkage.form_num
    monkeypatch.setattr(linkage, "form_num",
                        lambda pc, v: (lambda n: n - (n == 2 * pc.inv_den))(real(pc, v)))
    return ["system", "D8"], f"D8: the closures have (p, size) {_pairs([(p, size)])}, " \
        f"the D8 table {table}"


def _component_merge(argv, kind):
    """The fault on ``argv``'s diagram: ``linkage._orbits`` merges its first
    two closures of equal p, whose sizes are equal on E6(a1), D5 and D4(a1)."""

    def fault(monkeypatch):
        name = argv[1]
        s = system_of(name)
        table = sorted(zip(s.component_p, map(len, s.components)))
        i = next(i for i in range(len(table)) if table[i][0] == table[i + 1][0])
        got = sorted(table[:i] + [(table[i][0], 2 * table[i][1])] + table[i + 2:])
        real = linkage._orbits

        def merged(pc, total):
            found, orbits, arcs = real(pc, total)
            i, j = next((i, j) for j in range(len(orbits)) for i in range(j)
                        if orbits[i][0] == orbits[j][0])
            both = (orbits[i][0], orbits[i][1] + orbits[j][1])
            return found, [both if k == i else c for k, c in enumerate(orbits) if k != j], arcs

        monkeypatch.setattr(linkage, "_orbits", merged)
        return argv, f"{name}: the closures have (p, size) {_pairs(got)}, " \
            f"the {kind} table {_pairs(table)}"

    return fault


def _count_short(monkeypatch):
    # linkage._closure: the table's first orbit two larger, so the seeds of
    # support 3 are tried too, and all of them are nodes already or of form >= 2
    real = linkage._orbit_table

    def raised(l, det):
        kind, table = real(l, det)
        return kind, [(table[0][0], table[0][1] + 2)] + table[1:]

    monkeypatch.setattr(linkage, "_orbit_table", raised)
    n = len(system_of("E6(a1)").nodes)
    return ["system", "E6(a1)"], \
        f"E6(a1): the seeds of support at most 3 close to {n} linkage vectors, the E6 table has {n + 2}"


def _lattice_type(monkeypatch):
    # linkage._closure: the CLI's B of E7(a1) with det 2 read as 3; no root
    # lattice of rank 7 has det 3
    real = cli.build_partial_cartan

    def off(d):
        pc = real(d)
        return cl.PartialCartan(pc.diagram, pc.det + 1, pc.gram, pc.inv_num, pc.inv_den)

    assert pc_of("E7(a1)").det == 2
    monkeypatch.setattr(cli, "build_partial_cartan", off)
    return ["system", "E7(a1)"], "E7(a1): no root lattice of rank 7 has det 3"


_PROJECT = ["project", "D6(a1)", "D5(a1)", "--vertex", "b3"]


def _dropping_b3(v):
    """v without its label at b3, the last vertex of D6(a1)."""
    assert cl.catalog("D6(a1)").vertices[-1].id == "b3"
    return v[:-1]


def _projection_image(monkeypatch):
    # project_system: the base system loses its first node; the first node of
    # the extended system that projects onto it is the witness
    gone = system_of("D5(a1)").nodes[0]
    v = next(v for v in system_of("D6(a1)").nodes if _dropping_b3(v) == gone)
    _inject_system(monkeypatch, "D5(a1)", lambda s: _system_with(s, nodes=s.nodes[1:]))
    return _PROJECT, f"projection of {v} gives {gone}, not a linkage vector of D5(a1)"


def _projection_kernel(monkeypatch):
    # project_system: the extended system loses its two unit vectors at b3
    units = {(0,) * 5 + (1,), (0,) * 5 + (-1,)}
    assert units <= set(system_of("D6(a1)").nodes)
    _inject_system(monkeypatch, "D6(a1)", lambda s: _system_with(
        s, nodes=tuple(v for v in s.nodes if v not in units)))
    return _PROJECT, "kernel is [], expected the two unit vectors at b3"


def _projection_loctet(monkeypatch):
    # project_system: the base system loses its first loctet; the first loctet
    # of the extended system that projects onto it is the witness
    first = frozenset(system_of("D5(a1)").loctets[0].members)
    ei, loc = next((ei, loc) for ei, loc in enumerate(system_of("D6(a1)").loctets)
                   if frozenset(map(_dropping_b3, loc.members)) == first)
    _inject_system(monkeypatch, "D5(a1)", lambda s: _system_with(s, loctets=s.loctets[1:]))
    return _PROJECT, f"loctet {ei} ({loc.kind}) of D6(a1) does not project onto a loctet of D5(a1)"


# -- faults in the data the checks read: the label scan, ip_bits ----------------


def _label_flip(monkeypatch):
    # roots._labels: the first nonzero label of the first realized root
    # negated, which moves the sum of the labels at its vertex off 0
    r = labels_in("E6(a1)", "E8").realized[0]
    k = next(k for k, x in enumerate(r.labels) if x)
    real = rt._labels

    def change(e):
        labels = real(e)
        labels[r.index] = _replaced(r.labels, k, -r.labels[k])
        return labels

    monkeypatch.setattr(rt, "_labels", change)
    v = cl.catalog("E6(a1)").vertices[k]
    return ["verify", "E6(a1)"], f"labels at {v} sum to {-2 * r.labels[k]}, not 0"


def _antipodal_flip(monkeypatch):
    # roots._labels: the first nonzero label of the first realized root with
    # two nonzero labels negated on the root and on its negative; the sums
    # stay 0, and the first moment of two vertices that moves off
    # (2|Phi| / n) B = 60 B is the witness
    e = embedding_in("E6(a1)", "E8")
    r = next(r for r in labels_in("E6(a1)", "E8").realized if sum(map(bool, r.labels)) > 1)
    k = next(k for k, x in enumerate(r.labels) if x)
    neg = e.ambient.index[tuple(-c for c in e.ambient.doubled[r.index])]
    real = rt._labels

    def change(e):
        labels = real(e)
        for i in (r.index, neg):
            labels[i] = _replaced(labels[i], k, -labels[i][k])
        return labels

    cols, g, vs = list(zip(*change(e))), e.pc.gram, e.diagram.vertices
    i, j, moment = next((i, j, m) for i in range(len(g)) for j in range(i, len(g))
                        for m in [_dot(cols[i], cols[j])] if m != 60 * g[i][j])
    assert i != j
    monkeypatch.setattr(rt, "_labels", change)
    return ["verify", "E6(a1)"], \
        f"label moment at ({vs[i]}, {vs[j]}) is {moment}, not {60 * g[i][j]}"


def _move_ip_bits(monkeypatch, moves):
    """Make ``RootSystem._ip_bits`` of E8 move bit j of row i from its t-set to
    its u-set, for each (i, j, t, u) in ``moves``; t and u are -1, 0 or 1."""
    real = rt.RootSystem._ip_bits

    def change(self):
        rows = real(self)
        if self.name == "E8":
            for i, j, t, u in moves:
                row = list(rows[i])
                row[t + 1] ^= 1 << j
                row[u + 1] |= 1 << j
                rows = _replaced(rows, i, tuple(row))
        return rows

    monkeypatch.setattr(rt.RootSystem, "_ip_bits", change)


def _ip_bit(monkeypatch):
    # root 0's row of E8's ip_bits: its first root j of the 0-set moved to the
    # +1-set and its first root i of the -1-set to the 0-set, neither embedded;
    # the row keeps its counts, so RootSystem._scalar_moment holds, but root
    # 0 is embedded, and the sum of the labels at its vertex gains 2
    e = embedding_in("E6(a1)", "E8")
    minus, zero, _ = e.ambient.ip_bits[0]
    j = next(j for j in range(len(e.ambient)) if zero >> j & 1 and j not in e.idx)
    i = next(i for i in range(len(e.ambient)) if minus >> i & 1 and i not in e.idx)
    _move_ip_bits(monkeypatch, [(0, j, 0, 1), (0, i, -1, 0)])
    return ["verify", "E6(a1)"], f"labels at {e.diagram.vertices[e.idx.index(0)]} sum to 2, not 0"


# id: fault; each returns the command line and the failure line's message
FAULTS = {
    "embedding-length": _embedding_length,
    "root-not-in-the-ambient": _root_not_in_the_ambient,
    "embedding-gram": _embedding_gram,
    "root-index": _root_index,
    "root-realized-twice": _root_realized_twice,
    "labels-type": _labels_type,
    "labels-length": _labels_length,
    "root-in-the-span": _root_in_the_span,
    "inverse-form": _inverse_form,
    "restricted-form": _restricted_form,
    "p-plus-mu-norm": _p_plus_mu_norm,
    "lattice-test": _lattice_test,
    "loctet-coverage": _coverage,
    "loctet-swap": _loctet_swap(4, 5),
    "loctet-gamma4": _loctet_swap(1, 4),  # only gamma(4)'s key check fires
    "reflection-closure": _reflection,
    "seed-admits-form-two": _seed_admits_form_two,
    "component-merge-E6(a1)": _component_merge(["verify", "E6(a1)"], "E6"),
    "component-merge-D5": _component_merge(["verify", "D5"], "D5"),
    "component-merge-D4(a1)": _component_merge(["system", "D4(a1)"], "D4"),
    "count-short": _count_short,
    "lattice-type": _lattice_type,
    "projection-image": _projection_image,
    "projection-kernel": _projection_kernel,
    "projection-loctet": _projection_loctet,
    "label-flip": _label_flip,
    "antipodal-flip": _antipodal_flip,
    "ip-bit": _ip_bit,
}


@pytest.mark.parametrize("fault", FAULTS)
def test_each_check_fires_and_names_a_witness(fault, monkeypatch, capsys):
    argv, message = FAULTS[fault](monkeypatch)
    code = main(argv)
    assert (code, capsys.readouterr().err) == (2, f"verification failure: {message}\n")


def test_a_moved_ip_bit_that_changes_a_count_is_an_ambient_error(monkeypatch, capsys):
    # the bit of a root j moved from the 0-set to the +1-set of root 0, and
    # root 0's likewise in j's row: both rows have sum_r (r, y)^2 = 121, not
    # 120, and the label scan stops at root 0 before it reads a label
    zero = embedding_in("E6(a1)", "E8").ambient.ip_bits[0][1]
    j = (zero & -zero).bit_length() - 1
    _move_ip_bits(monkeypatch, [(0, j, 0, 1), (j, 0, 0, 1)])
    assert main(["verify", "E6(a1)"]) == 1
    assert capsys.readouterr().err == \
        "error: E8: sum_r (r, y)^2 is 121 at root 0, not 4|Phi| / n = 120\n"
