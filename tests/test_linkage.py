import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

import carterlink as cl
from carterlink import roots as rt
from carterlink.cartan import LinalgError
from carterlink.diagram import catalog_names
from carterlink.linkage import (_search, beta_unicolored, enumerate_linkages, form_num, form_value,
                                 group_by_p)

from helpers import (CATALOG, LARGE_RANK, SHUFFLE_SEEDS, count_prefixes, cycles_left_by,
                     e8_root_subset_diagrams, embedding_in, links_of, pc_of,
                     prefix_in_vertex_order, ref_inverse, ref_quad_form, shuffled)


EXPECTED_TOTALS = {
    "D4(a1)": 24, "D5(a1)": 42, "E6(a1)": 54, "E6(a2)": 54,
    "D6(a1)": 76, "D6(a2)": 76,
    "E7(a1)": 56, "E7(a2)": 56, "E7(a3)": 56, "E7(a4)": 56,
    "D7(a1)": 142, "D7(a2)": 142,
    "D4": 24, "D5": 42, "E6": 54, "D6": 76, "E7": 56, "D7": 142,
}


@pytest.mark.parametrize("name", CATALOG)
def test_linkage_totals(name):
    assert len(links_of(name)) == EXPECTED_TOTALS[name]


def test_e8_has_no_linkages():
    assert enumerate_linkages(cl.build_partial_cartan(cl.catalog("E8"))) == ()


def test_enumeration_is_sorted_and_nonzero():
    links = links_of("D5(a1)")
    assert list(links) == sorted(links)
    assert all(any(x != 0 for x in v) for v in links)


def test_enumeration_values_in_range():
    assert all(set(v) <= {-1, 0, 1} for v in links_of("E7(a4)"))


@pytest.mark.parametrize("name", CATALOG)
def test_negation_closure(name):
    links = set(links_of(name))
    assert {tuple(-x for x in v) for v in links} == links


def test_group_by_p_d5a1():
    pc = pc_of("D5(a1)")
    sets = group_by_p(pc, links_of("D5(a1)"))
    assert [(s.p, len(s)) for s in sets] == [(1, 10), (Fraction(5, 4), 32)]


def test_group_by_p_e7a3():
    pc = pc_of("E7(a3)")
    sets = group_by_p(pc, links_of("E7(a3)"))
    assert [(s.p, len(s)) for s in sets] == [(Fraction(3, 2), 56)]


def test_group_by_p_d7a1():
    pc = pc_of("D7(a1)")
    sets = group_by_p(pc, links_of("D7(a1)"))
    assert [(s.p, len(s)) for s in sets] == [(1, 14), (Fraction(7, 4), 128)]


def test_group_by_p_on_lists_and_non_linkage_vectors():
    pc = pc_of("D5(a1)")
    sets = group_by_p(pc, [[1, 0, 0, 0, 0], [1, 1, 1, 1, 1]])
    assert [(s.p, len(s)) for s in sets] == [(1, 1), (15, 1)]
    links = links_of("D5(a1)")
    mixed = [list(v) for v in links] + [[1, 1, 1, 1, 1], (0, 1, 1, 1, 1), (-1, 0, 1, 0, 1)]
    groups = group_by_p(pc, mixed)
    for es in groups:
        assert all(form_value(pc, v) == es.p for v in es.members)
    assert sum(map(len, groups)) == len(mixed)
    assert [(s.p, len(s)) for s in group_by_p(pc, links)] == [(1, 10), (Fraction(5, 4), 32)]
    with pytest.raises(LinalgError):
        group_by_p(pc, [(1, 0)])


def test_group_members_share_p():
    pc = pc_of("D6(a1)")
    for es in group_by_p(pc, links_of("D6(a1)")):
        assert all(form_value(pc, v) == es.p for v in es.members)
        assert 0 < es.p < 2


def test_beta_unicolored_e6a1():
    d = cl.catalog("E6(a1)")
    rep = beta_unicolored(d, links_of("E6(a1)"))
    assert set(rep.members) == {
        (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, -1, 0),
        (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, -1),
        (0, 0, 0, 0, 1, -1), (0, 0, 0, 0, -1, 1),
    }
    assert rep.center_label_always_zero is True


def test_beta_unicolored_e7a1_has_8():
    rep = beta_unicolored(cl.catalog("E7(a1)"), links_of("E7(a1)"))
    assert len(rep.members) == 8
    assert rep.center_label_always_zero is True


def test_beta_unicolored_d4a1():
    rep = beta_unicolored(cl.catalog("D4(a1)"), links_of("D4(a1)"))
    assert set(rep.members) == {(0, 0, 1, 0), (0, 0, -1, 0),
                                (0, 0, 0, 1), (0, 0, 0, -1)}
    assert rep.center_label_always_zero is False


@pytest.mark.parametrize("v", [(0,), (0, 0, 0, 0, 0, 1)], ids=["short", "long"])
def test_beta_unicolored_rejects_a_vector_of_another_length(v):
    # a short vector once leaked IndexError, and a long one whose alpha labels
    # vanish was returned as a member
    with pytest.raises(LinalgError, match=f"^D4 has rank 4, a vector has length {len(v)}$"):
        beta_unicolored(cl.catalog("D4"), [(0, 0, 1, 0), v])


@pytest.mark.parametrize("name", CATALOG)
def test_b1_label_zero_except_bare_square(name):
    rep = beta_unicolored(cl.catalog(name), links_of(name))
    assert rep.center_label_always_zero is (name != "D4(a1)")


@pytest.mark.parametrize("name", CATALOG)
def test_endpoint_bound(name):
    d = cl.catalog(name)
    alphas = [i for i, v in enumerate(d.vertices) if v.color == "alpha"]
    betas = [i for i, v in enumerate(d.vertices) if v.color == "beta"]
    for v in links_of(name):
        assert sum(v[i] != 0 for i in alphas) <= 3
        assert sum(v[i] != 0 for i in betas) <= 3


@pytest.mark.parametrize("name", [n for n in CATALOG if n != "D4(a1)"])
def test_c4_pattern_alpha_has_a_zero(name):
    d = cl.catalog(name)
    pat = [d.index_of(v) for v in d.pattern[:3]]
    for v in links_of(name):
        assert any(v[i] == 0 for i in pat)


def brute_force_linkages(pc):
    """The defining set, scanned over the whole grid with exact Fractions."""
    return tuple(
        v for v in itertools.product((-1, 0, 1), repeat=len(pc))
        if any(v) and form_value(pc, v) < 2
    )


@pytest.mark.parametrize("name", catalog_names() + ["D8(a1)", "A8"])
def test_enumeration_matches_brute_force(name):
    pc = cl.build_partial_cartan(cl.catalog(name))
    first = enumerate_linkages(pc)
    assert first == brute_force_linkages(pc)
    assert enumerate_linkages(pc) == first  # the second call reads the kept search


def double_sum_form_num(pc, v):
    """sum_ij v_i v_j N_ij for B^-1 = N / D, term by term."""
    l = len(v)
    return sum(v[i] * v[j] * pc.inv_num[i][j] for i in range(l) for j in range(l))


@pytest.mark.parametrize("name", CATALOG)
def test_form_num_is_the_double_sum_on_the_ternary_cube(name):
    pc = pc_of(name)
    assert all(form_num(pc, v) == double_sum_form_num(pc, v)
               for v in itertools.product((-1, 0, 1), repeat=len(pc)))


def test_form_num_is_the_double_sum_on_the_label_rows_in_e8():
    # the label scans call form_num on every distinct label row, among them
    # the rows with +-2 of the embedded roots and their negatives
    names = catalog_names()
    assert len(names) == 19
    twos = 0
    for name in names:
        e = embedding_in(name, "E8")
        for v in set(rt._labels(e)):
            assert form_num(e.pc, v) == double_sum_form_num(e.pc, v), (name, v)
            twos += 2 in v or -2 in v
    assert twos == 2 * sum(len(cl.catalog(name)) for name in names)


@settings(max_examples=25, deadline=None)
@given(e8_root_subset_diagrams())
def test_generated_enumeration_matches_brute_force(d):
    pc = cl.build_partial_cartan(d)
    first = enumerate_linkages(pc)
    assert first == brute_force_linkages(pc)
    assert enumerate_linkages(pc) is first
    assert enumerate_linkages(cl.build_partial_cartan(d)) == first


def test_build_system_reads_the_enumerated_search():
    pc = cl.build_partial_cartan(cl.catalog("E6(a1)"))
    nodes = enumerate_linkages(pc)
    assert cl.build_system(pc).nodes is nodes
    other = cl.build_partial_cartan(cl.catalog("D5(a1)"))
    assert cl.build_system(other).nodes is enumerate_linkages(other)
    assert enumerate_linkages(other) != nodes


def test_search_leaves_no_reference_cycle():
    pc = cl.build_partial_cartan(cl.catalog("A12"))  # a fresh pc, so the search runs
    assert cycles_left_by(lambda: enumerate_linkages(pc)) == 0


def test_kept_search_leaves_repr_eq_and_hash():
    pc = cl.build_partial_cartan(cl.catalog("D5(a1)"))
    before = (repr(pc), hash(pc))
    enumerate_linkages(pc)
    assert (repr(pc), hash(pc)) == before
    fresh = cl.build_partial_cartan(pc.diagram)
    assert pc == fresh and hash(pc) == hash(fresh)
    assert "_linkages" not in repr(pc)


@pytest.mark.parametrize("name, seed", [
    *(pytest.param(name, None, id=name) for name in ["D4(a1)", "E6(a2)", "E7(a4)", "A5"]),
    *(pytest.param(name, 1, id=f"{name}-shuffled") for name in ["D12(a1)", "A8"])])
def test_prefix_form_is_the_leading_block_inverse_form(name, seed):
    # The search prunes on this value, the least of the form of B^-1 over
    # real completions of the prefix; at full length it is the form itself.
    # The prefix runs in the search order, so the block is that of B permuted
    # by it.  Past 3^7 prefixes of one length, a seeded sample is checked.
    d = cl.catalog(name) if seed is None else shuffled(cl.catalog(name), seed)
    pc = cl.build_partial_cartan(d)
    order, rows, weights, den = pc.prefix
    assert order == d.search_order
    b = [[pc.gram[i][j] for j in order] for i in order]
    rng = random.Random(seed)
    for k in range(1, len(b) + 1):
        lead_inv = ref_inverse([r[:k] for r in b[:k]])
        vectors = itertools.product((-1, 0, 1), repeat=k) if k <= 7 else \
            [[rng.choice((-1, 0, 1)) for _ in range(k)] for _ in range(300)]
        for v in vectors:
            z = [sum(r * x for r, x in zip(row, v)) for row in rows[:k]]
            scaled = sum(w * zk * zk for w, zk in zip(weights, z))
            assert Fraction(scaled, den) == ref_quad_form(lead_inv, v)


@pytest.mark.parametrize("name", ["D4(a1)", "E7(a4)", "D12(a1)", "A8"])
def test_prefix_is_the_vertex_order_prefix_of_the_permuted_matrix(name):
    pc = cl.build_partial_cartan(shuffled(cl.catalog(name), 1))
    order = pc.prefix[0]
    b = [[pc.gram[i][j] for j in order] for i in order]
    assert pc.prefix[1:] == prefix_in_vertex_order(b)[1:]


# -- the search order ------------------------------------------------------------


def relabelled_search(d, seed):
    """``_search`` of d with its vertices shuffled by ``seed``, its vectors
    mapped back to d's coordinates and the pairs re-sorted."""
    s = shuffled(d, seed)
    at = [s.index_of(v) for v in d.vertices]
    found = zip(*_search(cl.build_partial_cartan(s)))
    pairs = sorted((tuple(w[i] for i in at), n) for w, n in found)
    return tuple(v for v, _ in pairs), tuple(n for _, n in pairs)


def assert_search_is_relabelling_invariant(d):
    want = _search(cl.build_partial_cartan(d))
    for seed in SHUFFLE_SEEDS:
        assert relabelled_search(d, seed) == want, (d.name, seed)
        if len(d) <= 8:
            pc = cl.build_partial_cartan(shuffled(d, seed))
            assert enumerate_linkages(pc) == brute_force_linkages(pc), (d.name, seed)


@pytest.mark.parametrize("name", catalog_names() + LARGE_RANK)
def test_search_is_relabelling_invariant(name):
    assert_search_is_relabelling_invariant(cl.catalog(name))


@pytest.mark.parametrize("name", catalog_names() + LARGE_RANK)
def test_sorted_vectors_obey_the_sign_law(name):
    # negation reverses the order with -1 < 0 < 1, so entry n-1-i of the
    # sorted tuple is the negative of entry i, in any vertex order
    d = cl.catalog(name)
    for s in [d] + [shuffled(d, seed) for seed in SHUFFLE_SEEDS]:
        links = enumerate_linkages(cl.build_partial_cartan(s))
        assert all(w == tuple(-x for x in v) for v, w in zip(links, reversed(links))), \
            (name, s.vertices)


@settings(max_examples=100, deadline=None)
@given(e8_root_subset_diagrams())
def test_generated_search_is_relabelling_invariant(d):
    assert_search_is_relabelling_invariant(d)


def test_search_order_visits_at_most_half_of_the_vertex_order_prefixes():
    in_order = in_vertex_order = 0
    for name in LARGE_RANK:
        for seed in SHUFFLE_SEEDS:
            pc = cl.build_partial_cartan(shuffled(cl.catalog(name), seed))
            in_order += count_prefixes(pc.prefix)
            in_vertex_order += count_prefixes(prefix_in_vertex_order(pc.gram))
    assert 2 * in_order <= in_vertex_order, (in_order, in_vertex_order)
