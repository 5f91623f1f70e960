import itertools
import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings

import carterlink as cl
from carterlink import diagram as dg, linkage, roots as rt
from carterlink.cartan import LinalgError
from carterlink.diagram import catalog_names
from carterlink.linkage import (_closure, _orbit_table, beta_unicolored, enumerate_linkages,
                                 form_num, form_value, group_by_p)

from helpers import (CATALOG, LARGE_RANK, SHUFFLE_SEEDS, cycles_left_by, e8_root_subset_diagrams,
                     embedding_in, links_of, pc_of, shuffled)


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
    with pytest.raises(LinalgError, match=f"^vector of length {len(v)} for rank 4$"):
        beta_unicolored(cl.catalog("D4"), [(0, 0, 1, 0), v])


# bad label vectors of rank 4, each with the message of ``linkage._vector``
_BAD_VECTORS = {
    # a set or dict was read in hash or key order
    "set": {1, 0, 2, 3},
    "frozenset": frozenset({1, 0, 2, 3}),
    "dict": {0: 1, 1: 0, 2: 0, 3: 0},
    "int": 5,
    "none": None,
    "str": "1000",
    "float-entry": (1.5, 0, 0, 0),
    "node-float-entry": (1.0, 0, 0, 0),  # equal to a D4 node, still not ints
    "bool-entry": (True, True, True, True),
    "unhashable-entry": ([1], 0, 0, 0),
    "length": (1, 0),
}

# the public readers of a label vector, each given one on D4
_READERS = {
    "group_by_p": lambda v: group_by_p(pc_of("D4"), [v]),
    "beta_unicolored": lambda v: beta_unicolored(cl.catalog("D4"), [v]),
    "form_value": lambda v: form_value(pc_of("D4"), v),
    "dual_reflect": lambda v: cl.dual_reflect(pc_of("D4"), "a1", v),
    "loctet_from_gamma8": lambda v: cl.loctet_from_gamma8(pc_of("D4"), v, "L12"),
}


@pytest.mark.parametrize("reader", _READERS)
@pytest.mark.parametrize("case", _BAD_VECTORS)
def test_every_reader_rejects_a_bad_label_vector(reader, case):
    v = _BAD_VECTORS[case]
    if not isinstance(v, (tuple, list)):
        message = f"{v!r} is not a sequence of ints"
    elif len(v) != 4:
        message = f"vector of length {len(v)} for rank 4"
    else:
        message = f"vector {v} has an entry that is not an int"
    with pytest.raises(LinalgError, match=f"^{re.escape(message)}$"):
        _READERS[reader](v)


def test_group_by_p_members_are_the_int_nodes():
    # a list member once stayed a list, so the set had no hash and did not
    # equal the set of tuples; a float tuple equal to a node is no label vector
    pc = pc_of("D5")
    (es,) = group_by_p(pc, [(1, 0, 0, 0, 0)])
    assert group_by_p(pc, [[1, 0, 0, 0, 0]]) == [es]
    assert hash(group_by_p(pc, [[1, 0, 0, 0, 0]])[0]) == hash(es)
    message = "vector (1.0, 0, 0, 0, 0) has an entry that is not an int"
    with pytest.raises(LinalgError, match=f"^{re.escape(message)}$"):
        group_by_p(pc, [(1.0, 0, 0, 0, 0)])


def test_group_by_p_reads_no_node_by_the_vector_check(monkeypatch):
    # the closure's own nodes go in as they are, unchecked, so the benchmark's
    # grouping pays no check
    def fail(l, v):
        raise AssertionError(f"{v} was checked")

    monkeypatch.setattr(linkage, "_vector", fail)
    for name in catalog_names() + LARGE_RANK:
        pc = pc_of(name)
        nodes = enumerate_linkages(pc)  # its own tuple is bucketed as it stands
        assert sum(map(len, group_by_p(pc, nodes))) == len(nodes)


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
    assert enumerate_linkages(pc) == first  # the second call reads the kept closure


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
    fresh = cl.build_partial_cartan(cl.catalog("D5(a1)"))  # pc.diagram would return pc
    assert pc == fresh and hash(pc) == hash(fresh)
    assert "_linkages" not in repr(pc)


# -- relabelling ----------------------------------------------------------------


def relabelled_search(d, seed):
    """The nodes and numerators of ``_closure`` of d with its vertices
    shuffled by ``seed``, mapped back to d's coordinates and re-sorted."""
    s = shuffled(d, seed)
    at = [s.index_of(v) for v in d.vertices]
    found = zip(*_closure(cl.build_partial_cartan(s))[:2])
    pairs = sorted((tuple(w[i] for i in at), n) for w, n in found)
    return tuple(v for v, _ in pairs), tuple(n for _, n in pairs)


def assert_search_is_relabelling_invariant(d):
    want = _closure(cl.build_partial_cartan(d))[:2]
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


# -- the minuscule-orbit table -----------------------------------------------------


# the catalog, A1-A12, D4-D12 and D_l(a_k) for l <= 12, each once
TABLE_NAMES = sorted(set(catalog_names() + [f"A{l}" for l in range(1, 13)]
                         + [f"D{l}" for l in range(4, 13)]
                         + [f"D{l}(a{k})" for l in range(4, 13) for k in range(1, l - 2)]))


@lru_cache(maxsize=None)
def weight_orbit_table(kind):
    """The sorted (p, size) of the weight orbits of the fundamental weights
    of form p < 2 of the Dynkin diagram ``kind``.  A W-orbit in the dual
    lattice holds one dominant weight, and a dominant weight of norm < 2 is
    a fundamental one, so these are the orbits of the linkage vectors of
    every diagram of that type."""
    pc = pc_of(kind)
    return sorted((p, len(cl.weight_orbit(pc, v))) for v in pc.diagram.vertices
                  for p in [cl.inverse_diagonal(pc, v)] if p < 2)


def assert_orbit_table(d, kind=None):
    """The type read from (l, det B) is ``kind``, when given, and both its
    table and the system's components are the weight orbits of that type."""
    pc = cl.build_partial_cartan(d)
    read, table = _orbit_table(len(pc), pc.det)
    assert kind in (None, read), (d.name, read)
    assert table == weight_orbit_table(read), d.name
    s = cl.build_system(pc)
    assert sorted(zip(s.component_p, map(len, s.components))) == table, d.name


@pytest.mark.parametrize("name", TABLE_NAMES)
def test_the_orbit_table_is_the_weight_orbits_of_the_type(name):
    # a diagram named X or X(a_k) has the root lattice of type X
    d = cl.catalog(name)
    for s in [d, shuffled(d, 1), shuffled(d, 2)]:
        assert_orbit_table(s, name.split("(")[0])


@settings(max_examples=60, deadline=None)
@given(e8_root_subset_diagrams())
def test_generated_orbit_table_is_the_weight_orbits_of_the_type(d):
    assert_orbit_table(d)


def test_orbit_table_entries():
    third, half, three_quarters = Fraction(4, 3), Fraction(3, 2), Fraction(3, 4)
    assert _orbit_table(1, Fraction(2)) == ("A1", [(Fraction(1, 2), 2)])
    assert _orbit_table(3, Fraction(4)) == ("A3", [(three_quarters, 4)] * 2 + [(1, 6)])
    assert _orbit_table(7, Fraction(8))[1][-2:] == [(Fraction(15, 8), 56)] * 2
    assert _orbit_table(4, Fraction(4)) == ("D4", [(1, 8)] * 3)
    assert _orbit_table(7, Fraction(4)) == ("D7", [(1, 14)] + [(Fraction(7, 4), 64)] * 2)
    assert _orbit_table(8, Fraction(4)) == ("D8", [(1, 16)])
    assert _orbit_table(6, Fraction(3)) == ("E6", [(third, 27)] * 2)
    assert _orbit_table(7, Fraction(2)) == ("E7", [(half, 56)])
    assert _orbit_table(8, Fraction(1)) == ("E8", [])
    assert _orbit_table(5, Fraction(3)) is None and _orbit_table(3, Fraction(3)) is None


# -- the walk over one vector of each +- pair ----------------------------------------


def reference_closure(pc):
    """``_closure``'s nodes, nums, edges and components, from a plain
    breadth-first closure (``diagram.closure``) that reflects every node, seeded
    by every vector of support at most 3 and form < 2; each node's numerator is
    its own ``form_num``, and each edge is read from its end with label 1."""
    l, orbits = len(pc), []
    for s in (1, 2, 3):
        for support, signs in itertools.product(itertools.combinations(range(l), s),
                                                itertools.product((1, -1), repeat=s)):
            seed = [0] * l
            for i, x in zip(support, signs):
                seed[i] = x
            seed = tuple(seed)
            if form_num(pc, seed) < 2 * pc.inv_den and not any(seed in o for o in orbits):
                orbits.append(dg.closure(seed, lambda u: (linkage.reflect_at(pc, k, u)
                                                          for k, x in enumerate(u) if x)))
    nodes = tuple(sorted(set().union(*orbits)))
    at = {v: i for i, v in enumerate(nodes)}
    ids = [t.id for t in pc.diagram.vertices]
    edges = sorted(tuple(sorted((at[v], at[linkage.reflect_at(pc, k, v)]))) + (ids[k],)
                   for v in nodes for k, x in enumerate(v) if x == 1)
    return (nodes, tuple(form_num(pc, v) for v in nodes), tuple(edges),
            tuple(sorted(tuple(sorted(map(at.__getitem__, o))) for o in orbits)))


@pytest.mark.parametrize("name", TABLE_NAMES)
def test_the_walk_is_the_plain_closure(name):
    # TABLE_NAMES holds the 21 catalog_pipeline names; the A_l orbits at k
    # and l+1-k (k != l+1-k), E6's two and the D5 and D7 spin orbits come in
    # dual pairs, and the others are self-dual
    d = cl.catalog(name)
    for s in [d, shuffled(d, 1), shuffled(d, 2)]:
        pc = cl.build_partial_cartan(s)
        assert tuple(_closure(pc)) == reference_closure(pc), (name, s.vertices)


@pytest.mark.parametrize("name, calls", [("E6", 26), ("A7", 89)])
def test_the_walk_reflects_one_vector_of_each_pair(name, calls, monkeypatch):
    # E6 has 54 nodes, A7 184; reflecting every node took 52 and 178 calls
    counted, real = [], linkage.reflect_at
    monkeypatch.setattr(linkage, "reflect_at", lambda *a: counted.append(a) or real(*a))
    _closure(cl.build_partial_cartan(cl.catalog(name)))
    assert len(counted) == calls
