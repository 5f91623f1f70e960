"""Every check of the root-system oracle fires: the fault table.

Each entry installs one small fault with ``monkeypatch``: it changes a
private routine, or the data one stage hands to the next.  Then it runs
``carterlink verify`` in process on a named diagram in E8, and expects exit
2 and the exact ``verification failure:`` line.  The entry computes the
witness that line names from the data without the fault.  There is one entry
for each check of ``check_projection_laws``, ``square_diagonal_audit`` and
``Embedding``, and two for the check that a realized root is the ambient root
its index names: a gamma that is no root, and an index that names another.

These laws of the projection hold but are not checked, because earlier
checks on the same values force them, so no fault can reach a check of them:

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
  puts every mu in {mu0, -mu0}, and distinct roots have distinct mu.
"""

from fractions import Fraction

import pytest

import carterlink as cl
from carterlink import roots as rt
from carterlink.cli import main

from helpers import embedding_in, labels_in, pc_of


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


def _root_not_in_the_ambient(monkeypatch):
    # Embedding: a first root whose first coordinate is 1/3
    def change(e):
        bad = (Fraction(1, 3),) + e.roots[0][1:]
        return rt.Embedding(e.pc, e.ambient, _replaced(e.roots, 0, bad))

    _inject(monkeypatch, "find_embedding", change)
    return "D4(a1)", "root of a1 is not a root of E8"


def _embedding_gram(monkeypatch):
    # Embedding: the roots of a2 and of the first neighbor of a1 swapped, so
    # the entry at (a1, a2) is an edge's where the diagram has none
    gram = pc_of("E6(a1)").gram
    k = next(j for j, b in enumerate(gram[0]) if j and b)
    assert cl.catalog("E6(a1)").vertices[1].id == "a2" and gram[0][1] == 0

    def change(e):
        roots = list(e.roots)
        roots[1], roots[k] = roots[k], roots[1]
        return rt.Embedding(e.pc, e.ambient, tuple(roots))

    _inject(monkeypatch, "find_embedding", change)
    return "E6(a1)", "embedding Gram mismatch at (a1, a2)"


def _gamma_not_a_root(monkeypatch):
    # check_projection_laws: the first realized root with a coordinate 1/3
    r = labels_in("D4(a1)", "E8").realized[0]
    gamma = (Fraction(1, 3),) + r.gamma[1:]
    _inject_realized(monkeypatch, lambda realized: _replaced(
        realized, 0, realized[0]._replace(gamma=gamma)))
    return "D4(a1)", f"{gamma} is not root {r.index} of E8"


def _root_index(monkeypatch):
    # check_projection_laws: the first realized root's index names the second
    # realized root
    first, second = labels_in("D4(a1)", "E8").realized[:2]
    _inject_realized(monkeypatch, lambda realized: _replaced(
        realized, 0, realized[0]._replace(index=second.index)))
    return "D4(a1)", f"{first.gamma} is not root {second.index} of E8"


def _root_in_the_span(monkeypatch):
    # check_projection_laws: an embedded root (p = 2, mu = 0) with its true
    # projection data put first among the realized roots
    e = embedding_in("D4(a1)", "E8")
    gamma = e.roots[0]
    zero = (Fraction(0),) * len(gamma)
    labels = tuple(e.pc.gram[0])
    extra = rt.RealizedLinkage(gamma, labels, gamma, zero, Fraction(0), Fraction(2), e.idx[0])
    _inject_realized(monkeypatch, lambda realized: (extra,) + realized)
    return "D4(a1)", f"{gamma} does not extend the embedding"


def _form_mismatch(monkeypatch):
    # check_projection_laws: B^-1 changed by an antisymmetric +-1 at (0, 1) and
    # (1, 0), which leaves every form labels . B^-1 labels, so p, as it is; the
    # first root with a nonzero label at a1 or a2 is the witness
    def change(e):
        num = [list(row) for row in e.pc.inv_num]
        num[0][1] += 1
        num[1][0] -= 1
        pc = cl.PartialCartan(e.pc.diagram, e.pc.det, e.pc.gram, e.pc.prefix,
                              tuple(map(tuple, num)), e.pc.inv_den)
        return rt.Embedding(pc, e.ambient, e.roots)

    _inject(monkeypatch, "find_embedding", change)
    r = next(r for r in labels_in("E6(a1)", "E8").realized if r.labels[:2] != (0, 0))
    return "E6(a1)", f"form mismatch on labels of {r.gamma}"


def _restricted_form(monkeypatch):
    # check_projection_laws: gamma_L offset by 1 / 2D in its first coordinate
    # (G, which is 2D gamma_L, by 1) in the one routine both the label scan
    # and the laws use; the first realized root is the witness
    real = rt._label_projection

    def offset(*args):
        proj = real(*args)
        if proj is None:
            return None
        c, lc, g, gamma_l, p = proj
        return c, lc, [g[0] + 1] + g[1:], gamma_l, p

    monkeypatch.setattr(rt, "_label_projection", offset)
    r = labels_in("E6(a1)", "E8").realized[0]
    return "E6(a1)", f"restricted form differs from ambient on {r.gamma}"


def _projection_field(monkeypatch):
    # check_projection_laws: p of the first realized root one too large
    r = labels_in("E6(a1)", "E8").realized[0]
    _inject_realized(monkeypatch, lambda realized: _replaced(
        realized, 0, realized[0]._replace(p=realized[0].p + 1)))
    return "E6(a1)", f"projection data of {r.gamma} differ from a recomputation"


def _p_plus_mu_norm(monkeypatch):
    # check_projection_laws: one realized root given the label vector of another
    # with the same p, its gamma_L, mu and |mu|^2 recomputed from those labels;
    # as B^-1 is positive definite and the label vectors differ,
    # (gamma, gamma_L) < p, so |mu|^2 > 2 - p
    realized = labels_in("E6(a1)", "E8").realized
    k, donor = next((k, b) for k, a in enumerate(realized) for b in realized
                    if b.p == a.p and b.labels != a.labels)
    gamma = realized[k].gamma
    mu = tuple(a - b for a, b in zip(gamma, donor.gamma_L))
    bad = rt.RealizedLinkage(gamma, donor.labels, donor.gamma_L, mu, sum(a * a for a in mu),
                             donor.p, realized[k].index)
    _inject_realized(monkeypatch, lambda realized: _replaced(realized, k, bad))
    return "E6(a1)", f"p + |mu|^2 != 2 for {gamma}"


def _lattice_test(monkeypatch):
    # check_projection_laws: the lattice test says no to every vector; the
    # first realized root whose mirror gamma_L - mu is a root is the witness
    monkeypatch.setattr(rt.RootSystem, "_in_lattice", lambda self, y: False)
    e8 = set(cl.build_root_system("E8").roots)
    r = next(r for r in labels_in("D4(a1)", "E8").realized
             if tuple(a - b for a, b in zip(r.gamma_L, r.mu)) in e8)
    return "D4(a1)", f"norm-2 lattice test disagrees with root membership for {r.gamma}"


def _square_diagonal(monkeypatch):
    # square_diagonal_audit: the diagonal label negated on the first square it
    # checks whose diagonal is nonzero, which keeps every zero label zero
    d = cl.catalog("E6(a1)")
    g = pc_of("E6(a1)").gram
    realized = labels_in("E6(a1)", "E8").realized
    k, u, w, m = next((k, u, w, m) for k, r in enumerate(realized)
                      for u in range(len(d)) for w in range(u + 1, len(d))
                      if d.vertices[u].color == d.vertices[w].color and r.labels[u] and r.labels[w]
                      for m in range(len(d)) if g[u][m] and g[w][m] and m not in (u, w)
                      and r.labels[m])
    r = realized[k]
    labels = r.labels[:m] + (-r.labels[m],) + r.labels[m + 1:]
    real = rt.square_diagonal_audit

    def flipped(dl, e):
        bad = dl.realized[k]._replace(labels=labels)
        return real(dl._replace(realized=_replaced(dl.realized, k, bad)), e)

    monkeypatch.setattr(rt, "square_diagonal_audit", flipped)
    return "E6(a1)", (f"square ({d.vertices[u]}, {d.vertices[m]}, {d.vertices[w]}, {r.gamma}): "
                      f"diagonal {labels[m]}, expected {r.labels[m]}")


# id: fault; each returns the diagram name and the failure line's message
FAULTS = {
    "root-not-in-the-ambient": _root_not_in_the_ambient,
    "embedding-gram": _embedding_gram,
    "gamma-not-a-root": _gamma_not_a_root,
    "root-index": _root_index,
    "root-in-the-span": _root_in_the_span,
    "form-mismatch": _form_mismatch,
    "restricted-form": _restricted_form,
    "projection-field": _projection_field,
    "p-plus-mu-norm": _p_plus_mu_norm,
    "lattice-test": _lattice_test,
    "square-diagonal": _square_diagonal,
}


@pytest.mark.parametrize("fault", FAULTS)
def test_each_check_fires_and_names_a_witness(fault, monkeypatch, capsys):
    name, message = FAULTS[fault](monkeypatch)
    code = main(["verify", name])
    assert (code, capsys.readouterr().err) == (2, f"verification failure: {message}\n")
