"""Exact linear algebra: the integer Cartan core against the Fraction
reference routines of ``helpers``, and those routines themselves."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

import carterlink as cl
from carterlink.cartan import LinalgError, _eliminate
from carterlink.linkage import form_num, form_value

from helpers import CATALOG, pc_of, ref_det, ref_inverse, ref_rank


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def test_det_identity():
    assert ref_det(_identity(3)) == 1


def test_det_d4a1_is_4():
    assert pc_of("D4(a1)").det == 4


def test_det_cartan_a3():
    assert cl.build_partial_cartan(cl.catalog("A3")).det == 4


def test_det_non_square_raises():
    with pytest.raises(ValueError):
        ref_det([[1, 2, 3], [4, 5, 6]])


def test_inverse_identity():
    assert ref_inverse(_identity(4)) == _identity(4)


def test_inverse_singular_raises():
    with pytest.raises(ValueError):
        ref_inverse([[1, 2], [2, 4]])


def test_inverse_d4a1_matches_table():
    pc = pc_of("D4(a1)")
    assert pc.inv_den == 2
    assert pc.inv_num == (
        (2, 0, 1, 1),
        (0, 2, -1, 1),
        (1, -1, 2, 0),
        (1, 1, 0, 2),
    )


def test_quad_form_e6a1_unit():
    pc = pc_of("E6(a1)")
    assert form_value(pc, [0, 0, 0, 0, 1, 0]) == Fraction(4, 3)


def test_quad_form_d5a1_unit():
    pc = pc_of("D5(a1)")
    assert form_value(pc, [0, 0, 0, 0, 1]) == 1


def test_quad_form_zero_vector():
    pc = pc_of("E7(a3)")
    assert form_value(pc, [0] * 7) == 0


def test_quad_form_dimension_mismatch():
    with pytest.raises(LinalgError, match="^vector of length 2 for rank 4$"):
        form_value(pc_of("D4"), [1, 2])
    with pytest.raises(LinalgError, match="^form of rank 4 on a vector of length 2$"):
        form_num(pc_of("D4"), [1, 2])  # the internal hot path keeps its own check


@pytest.mark.parametrize("name", CATALOG)
def test_inverse_roundtrip_and_det_product(name):
    # B N = D I in integers, and det B det B^-1 = 1
    pc = pc_of(name)
    n = len(pc)
    bn = [[sum(pc.gram[i][k] * pc.inv_num[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    assert bn == [[pc.inv_den * int(i == j) for j in range(n)] for i in range(n)]
    b_inv = [[Fraction(x, pc.inv_den) for x in row] for row in pc.inv_num]
    assert pc.det * ref_det(b_inv) == 1


@pytest.mark.parametrize("name", CATALOG)
def test_positive_definite(name):
    b = pc_of(name).gram
    assert _eliminate(b) is not None
    assert all(ref_det([r[:k] for r in b[:k]]) > 0 for k in range(1, len(b) + 1))


def test_rank_dependent_rows():
    assert ref_rank([[1, 2], [2, 4], [0, 1]]) == 2


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6)


@given(st.lists(st.lists(small_rationals, min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_inverse_property(rows):
    if ref_det(rows) == 0:
        with pytest.raises(ValueError):
            ref_inverse(rows)
    else:
        assert _mat_mul(rows, ref_inverse(rows)) == _identity(3)


@given(st.lists(st.integers(min_value=-1, max_value=1), min_size=6, max_size=6))
def test_quad_form_is_even(v):
    pc = pc_of("E6(a2)")
    assert form_value(pc, v) == form_value(pc, [-x for x in v])


def test_common_denominator():
    # D is the least common denominator of B^-1, so N and D share no factor
    for name in CATALOG + ["E8", "A12", "D12(a5)"]:
        pc = cl.build_partial_cartan(cl.catalog(name))
        entries = (Fraction(x, pc.inv_den) for row in pc.inv_num for x in row)
        assert pc.inv_den == lcm(*(x.denominator for x in entries)), name
