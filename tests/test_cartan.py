import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings

import carterlink as cl
from carterlink.cartan import CartanError, _eliminate

from helpers import (CATALOG, SHUFFLE_SEEDS, inverse_is, pc_of, ref_det, ref_eliminate, ref_inverse,
                     shuffled, signed_bipartite_diagrams)
from reference_tables import TABLES


@pytest.mark.parametrize("name", CATALOG)
def test_gram_matrix_matches_reference(name):
    b_rows, _, _ = TABLES[name]
    assert pc_of(name).gram == tuple(map(tuple, b_rows))


@pytest.mark.parametrize("name", CATALOG)
def test_inverse_matches_reference(name):
    _, den, n_rows = TABLES[name]
    assert inverse_is(pc_of(name), den, n_rows)


def test_a1_matrix():
    pc = cl.build_partial_cartan(cl.catalog("A1"))
    assert pc.gram == ((2,),)
    assert (pc.inv_num, pc.inv_den) == (((1,),), 2)
    assert pc.det == 2


def test_e7_det_is_2():
    assert pc_of("E7").det == 2


def test_dynkin_matrices_are_classical():
    # no dotted edge: all off-diagonal entries are 0 or -1
    for name in ("D4", "D5", "D6", "D7", "E6", "E7"):
        b = pc_of(name).gram
        off = [x for i, row in enumerate(b) for j, x in enumerate(row) if i != j]
        assert set(off) <= {0, -1}


def test_determinant_families():
    for l in range(1, 13):
        assert cl.build_partial_cartan(cl.catalog(f"A{l}")).det == l + 1
    for l in range(4, 13):
        assert cl.build_partial_cartan(cl.dynkin_D(l)).det == 4
        for k in range(1, l - 2):
            assert cl.build_partial_cartan(cl.carter_D_ak(l, k)).det == 4


def test_inverse_diagonal_d_l_a_k():
    # central square alphas carry l/4; chain endpoints carry 1
    pc = cl.build_partial_cartan(cl.carter_D_ak(9, 2))
    assert cl.inverse_diagonal(pc, "a2") == Fraction(9, 4)
    assert cl.inverse_diagonal(pc, "a3") == Fraction(9, 4)
    assert cl.inverse_diagonal(pc, "t1") == 1
    assert cl.inverse_diagonal(pc, "f4") == 1
    # vertex with two chain vertices beyond it: d = 3
    assert cl.inverse_diagonal(pc, "f2") == 3


def test_inverse_diagonal_e6a1():
    assert cl.inverse_diagonal(pc_of("E6(a1)"), "b2") == Fraction(4, 3)


def test_inverse_diagonal_unknown_vertex():
    with pytest.raises(Exception):
        cl.inverse_diagonal(pc_of("D4"), "a7")


def test_simply_extendable():
    pc = cl.build_partial_cartan(cl.carter_D_ak(9, 2))
    assert cl.simply_extendable(pc, "t1")
    assert not cl.simply_extendable(pc, "f2")
    assert cl.simply_extendable(pc_of("E6(a1)"), "b2")
    assert not cl.simply_extendable(pc_of("E6(a1)"), "b1")


def test_non_positive_definite_rejected():
    # an extended Dynkin diagram has determinant 0
    tilde = cl.extend(cl.catalog("E8"), "b4")
    with pytest.raises(CartanError):
        cl.build_partial_cartan(tilde)


def test_gram_restriction_consistency():
    # Gram matrix of embedded roots equals the partial Cartan matrix
    from helpers import embedding_in
    emb = embedding_in("D6(a2)", "E8")
    g = cl.catalog("D6(a2)").gram()
    for i, x in enumerate(emb.doubled):  # doubled roots: the dot product is 4 times (x, y)
        for j, y in enumerate(emb.doubled):
            assert sum(a * b for a, b in zip(x, y)) == 4 * g[i][j]


# -- the integer core ------------------------------------------------------------


@pytest.mark.parametrize("name", CATALOG)
def test_core_matches_reference_tables(name):
    b_rows, den, n_rows = TABLES[name]
    pc = pc_of(name)
    assert pc.gram == tuple(map(tuple, b_rows))
    assert pc.inv_num == tuple(map(tuple, n_rows))
    assert pc.inv_den == den


def _assert_core_matches_reference(pc):
    b = pc.gram
    assert [[Fraction(x, pc.inv_den) for x in row] for row in pc.inv_num] == ref_inverse(b)
    assert pc.det == ref_det(b)


FAMILIES = ([f"A{l}" for l in range(1, 13)] + [f"D{l}" for l in range(4, 13)]
            + [f"D{l}(a{k})" for l in range(4, 13) for k in range(1, l - 2)])


@pytest.mark.parametrize("name", FAMILIES)
def test_core_matches_fraction_reference(name):
    # B is eliminated in vertex order, whatever that order is
    d = cl.catalog(name)
    for s in [d] + [shuffled(d, seed) for seed in SHUFFLE_SEEDS]:
        _assert_core_matches_reference(cl.build_partial_cartan(s))


@pytest.mark.parametrize("name", FAMILIES)
def test_elimination_matches_the_dense_reference(name):
    # the diagram, 3 shuffles, and each one-leaf extension of all four, most
    # of which are not positive definite, so rejection at the same step is
    # exercised too; B is taken in vertex order and in search order
    d = cl.catalog(name)
    for s in [d] + [shuffled(d, seed) for seed in SHUFFLE_SEEDS]:
        for e in [s] + [cl.extend(s, v) for v in s.vertices]:
            g, order = e.gram(), e.search_order
            for b in (g, [[g[i][j] for j in order] for i in order]):
                assert _eliminate(b) == ref_eliminate(b), (e.name, e.vertices)


@settings(max_examples=60, deadline=None)
@given(signed_bipartite_diagrams(max_rank=8))
def test_core_on_generated_diagrams(d):
    b = d.gram()
    minors = [ref_det([r[:k] for r in b[:k]]) for k in range(1, len(b) + 1)]
    if all(m > 0 for m in minors):
        _assert_core_matches_reference(cl.build_partial_cartan(d))
    else:
        with pytest.raises(CartanError):
            cl.build_partial_cartan(d)


def test_negative_determinant_rejected():
    # one beta vertex with five solid alpha leaves: det = 32 (2 - 5/2) = -16
    b1 = cl.VertexId("b", 1, "beta")
    leaves = tuple(cl.VertexId("a", i, "alpha") for i in range(1, 6))
    star = cl.CarterDiagram("star", leaves + (b1,), tuple((a, b1, -1) for a in leaves))
    assert ref_det(star.gram()) == -16
    with pytest.raises(CartanError, match="not positive definite"):
        cl.build_partial_cartan(star)


def test_a_diagram_returns_its_partial_cartan_while_it_is_alive():
    # the diagram holds its pc weakly: the same pc, with what it keeps, while
    # a caller holds it, and a new one once it is collected
    d = cl.catalog("E6(a1)")
    pc = cl.build_partial_cartan(d)
    assert cl.build_partial_cartan(d) is pc and pc.diagram is d
    cl.enumerate_linkages(pc)
    gone = weakref.ref(pc)
    del pc
    gc.collect()
    assert gone() is None
    fresh = cl.build_partial_cartan(d)
    assert fresh._linkages is None and fresh._extends == {}
    assert cl.build_partial_cartan(d) is fresh
