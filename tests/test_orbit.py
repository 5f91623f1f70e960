import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import carterlink as cl
from carterlink import diagram as dg
from carterlink import linkage, orbit
from carterlink.cartan import CartanError
from carterlink.linkage import _closure, form_num, form_value

from helpers import (CATALOG, cycles_left_by, e8_root_subset_diagrams, form_at_most_two,
                     links_of, patterned_diagrams, pc_of, shuffled, system_of)


# -- dual reflections -----------------------------------------------------------


def test_dual_reflect_d4a1_example():
    pc = pc_of("D4(a1)")
    assert cl.dual_reflect(pc, "a1", (1, 0, 0, 0)) == (-1, 0, 1, 1)


def test_dual_reflect_fixes_zero_coordinate():
    pc = pc_of("E6(a2)")
    v = (0, 1, -1, 0, 1, 0)
    assert cl.dual_reflect(pc, "a1", v) == v
    # reflect_at has no branch for v_t = 0: its formula subtracts 0 * column t
    for v in (*links_of("E6(a2)"), (0,) * 6, (0, 3, -5, 0, 7, 0)):
        for t, x in zip(pc.diagram.vertices, v):
            if x == 0:
                assert cl.dual_reflect(pc, t, v) == v, (v, t)


def test_dual_reflect_gamma8_to_gamma7():
    # s*_{a3} applied to an L12 eighth diagram flips a3 and feeds b1
    pc = pc_of("E6(a1)")
    g8 = (0, 0, 1, 0, 0, -1)
    g7 = cl.dual_reflect(pc, "a3", g8)
    assert g7[2] == -1 and g7[3] == 1


names = st.sampled_from(CATALOG)


@given(names, st.data())
def test_dual_reflect_involution(name, data):
    pc = pc_of(name)
    l = len(pc)
    v = tuple(data.draw(st.integers(min_value=-2, max_value=2)) for _ in range(l))
    t = data.draw(st.sampled_from(pc.diagram.vertices))
    assert cl.dual_reflect(pc, t, cl.dual_reflect(pc, t, v)) == v


@given(names, st.data())
def test_dual_reflect_preserves_form(name, data):
    pc = pc_of(name)
    l = len(pc)
    v = tuple(data.draw(st.integers(min_value=-2, max_value=2)) for _ in range(l))
    t = data.draw(st.sampled_from(pc.diagram.vertices))
    assert form_value(pc, cl.dual_reflect(pc, t, v)) == form_value(pc, v)


@pytest.mark.parametrize("name", CATALOG)
def test_linkage_set_closed_under_reflections(name):
    pc = pc_of(name)
    nodes = set(links_of(name))
    for v in nodes:
        for t in pc.diagram.vertices:
            assert cl.dual_reflect(pc, t, v) in nodes


def _reflection_edges(pc, nodes):
    """The system's edge set, from the public dual_reflect over every
    (node, vertex) pair."""
    index = {v: i for i, v in enumerate(nodes)}
    edges = set()
    for i, v in enumerate(nodes):
        for t in pc.diagram.vertices:
            w = cl.dual_reflect(pc, t, v)
            if w != v:
                edges.add((min(i, index[w]), max(i, index[w]), t.id))
    return tuple(sorted(edges))


def _assert_components_of_the_edges(s):
    """The components are those of the graph of the edges, each sorted, in sorted order."""
    comps = _components(len(s.nodes), s.edges)
    assert s.components == tuple(sorted(tuple(sorted(c)) for c in comps))


@pytest.mark.parametrize("name", dg.catalog_names())
def test_build_system_edges_match_public_reflection(name):
    s = system_of(name)
    assert s.edges == _reflection_edges(s.pc, s.nodes)
    _assert_components_of_the_edges(s)


def _assert_key_law(pc, nodes):
    """The law by which ``linkage._orbits`` finds nodes: for every node v and
    k with v_k > 0, K(v) - s_k = K(reflect_at(pc, k, v)), K(-v) = -K(v), and
    over the nodes with these reflections and negatives, keys are distinct
    exactly when the vectors are.  Returns the reflections that are not nodes."""
    key, steps = linkage._keying(pc)
    node_set = frozenset(nodes)
    vectors, leaving = set(nodes), []
    for v in nodes:
        neg = tuple(-x for x in v)
        assert key(neg) == -key(v), v
        vectors.add(neg)
        for k, x in enumerate(v):
            if x > 0:
                w = linkage.reflect_at(pc, k, v)
                assert key(v) - steps[k] == key(w), (v, k, w)
                vectors.add(w)
                if w not in node_set:
                    leaving.append(w)
    assert len({key(u) for u in vectors}) == len(vectors)
    return leaving


# a grown set has the pattern in about 1 draw of 20, a patterned one in every draw
generated_diagrams = st.one_of(e8_root_subset_diagrams(), patterned_diagrams())


@settings(max_examples=60, deadline=None)
@given(generated_diagrams)
def test_edges_match_public_reflection_on_generated_diagrams(d):
    pc = cl.build_partial_cartan(d)
    assert cl.build_system(pc).edges == _reflection_edges(pc, cl.enumerate_linkages(pc))
    _assert_components_of_the_edges(cl.build_system(pc))
    assert _assert_key_law(pc, cl.enumerate_linkages(pc)) == []


PIPELINE_NAMES = dg.catalog_names() + ["D8(a1)", "D9(a2)"]  # the catalog_pipeline benchmark's


@pytest.mark.parametrize("name", PIPELINE_NAMES)
def test_key_law_on_catalog(name):
    assert _assert_key_law(pc_of(name), links_of(name)) == []


@pytest.mark.parametrize("name, base3_aliases", [("D4(a1)", 2), ("D4", 1), ("D5", 1), ("E6", 1)])
def test_key_law_on_sets_that_reflections_leave(name, base3_aliases):
    # the form <= 2 sets, which some reflections leave: their keys must differ
    # from every node's; a base-3 key, one-to-one on {-1, 0, 1}^l only, would
    # alias this many of them with a node
    pc = pc_of(name)
    nodes = form_at_most_two(pc)
    leaving = _assert_key_law(pc, nodes)
    key3 = lambda v: sum(x * 3 ** i for i, x in enumerate(v))
    node_keys3 = set(map(key3, nodes))
    assert sum(key3(w) in node_keys3 for w in leaving) == base3_aliases


# -- systems ---------------------------------------------------------------------


EXPECTED = {
    # name: (component sizes, p per component, loctets, outside)
    "D4(a1)": ([8, 8, 8], {"1"}, 3, 0),
    "D4": ([8, 8, 8], {"1"}, 3, 0),
    "D5(a1)": ([10, 16, 16], {"1", "5/4"}, 5, 2),
    "D5": ([10, 16, 16], {"1", "5/4"}, 5, 2),
    "E6(a1)": ([27, 27], {"4/3"}, 6, 6),
    "E6(a2)": ([27, 27], {"4/3"}, 6, 6),
    "E6": ([27, 27], {"4/3"}, 6, 6),
    "D6(a1)": ([12, 32, 32], {"1", "3/2"}, 9, 4),
    "D6(a2)": ([12, 32, 32], {"1", "3/2"}, 9, 4),
    "D6": ([12, 32, 32], {"1", "3/2"}, 9, 4),
    "E7(a1)": ([56], {"3/2"}, 6, 8),
    "E7(a2)": ([56], {"3/2"}, 6, 8),
    "E7(a3)": ([56], {"3/2"}, 6, 8),
    "E7(a4)": ([56], {"3/2"}, 6, 8),
    "E7": ([56], {"3/2"}, 6, 8),
    "D7(a1)": ([14, 64, 64], {"1", "7/4"}, 17, 6),
    "D7(a2)": ([14, 64, 64], {"1", "7/4"}, 17, 6),
    "D7": ([14, 64, 64], {"1", "7/4"}, 17, 6),
}


@pytest.mark.parametrize("name", CATALOG)
def test_system_structure(name):
    sizes, ps, n_loctets, outside = EXPECTED[name]
    s = system_of(name)
    assert sorted(len(c) for c in s.components) == sizes
    assert {str(p) for p in s.component_p} == ps
    assert len(s.loctets) == n_loctets
    assert len(s.unicolored) == outside


def test_system_d10a3_wind_rose():
    pc = cl.build_partial_cartan(cl.carter_D_ak(10, 3))
    s = cl.build_system(pc)
    assert len(s.nodes) == 20
    assert len(s.components) == 1
    assert len(s.loctets) == 1


def _grown(d, l):
    """``d`` grown by ``extend`` at its last vertex up to rank l."""
    while len(d) < l:
        d = cl.extend(d, d.vertices[-1])
    return d


@pytest.mark.parametrize("l", [16, 20, 24])
def test_wind_rose_beyond_the_catalog_bound(l):
    pc = cl.build_partial_cartan(_grown(cl.carter_D_ak(12, 3), l))
    s = cl.build_system(pc)
    assert len(s.nodes) == 2 * l
    assert len(s.components) == 1 and s.component_p == (Fraction(1),)
    vectors, nums = _closure(pc)[:2]
    assert nums == tuple(form_num(pc, v) for v in vectors)


@pytest.mark.parametrize("l", [16, 20, 24])
def test_a_chain_beyond_the_catalog_bound(l):
    # the A_l chain has the most vectors: (l + 1)(l + 2), in four orbits
    pc = cl.build_partial_cartan(_grown(cl.catalog("A12"), l))
    vectors, nums = _closure(pc)[:2]
    assert len(vectors) == (l + 1) * (l + 2)
    assert nums == tuple(form_num(pc, v) for v in vectors)


@pytest.mark.parametrize("l", range(8, 13))
def test_wind_rose_structure(l):
    for k in range(1, (l - 2) // 2 + 1):
        d = cl.carter_D_ak(l, k)
        pc = cl.build_partial_cartan(d)
        s = cl.build_system(pc)
        assert len(s.nodes) == 2 * l
        assert len(s.components) == 1 and s.component_p == (Fraction(1),)
        assert len(s.loctets) == 1
        # four unit vectors, sitting exactly at the two chain endpoints
        ts = [v for v in d.vertices if v.kind == "t"]
        fs = [v for v in d.vertices if v.kind == "f"]
        ends = {d.index_of(ts[-1]) if ts else d.index_of("b2"),
                d.index_of(fs[-1]) if fs else d.index_of("b1")}
        units = [v for v in s.nodes if sum(x != 0 for x in v) == 1]
        assert len(units) == 4
        assert {v.index(1) if 1 in v else v.index(-1) for v in units} == ends
        # the rest outside the loctet: two nonzero labels on adjacent vertices
        loctet_members = set(s.loctets[0].members)
        gram = d.gram()
        for v in s.nodes:
            if v in loctet_members or v in units:
                continue
            support = [i for i, x in enumerate(v) if x != 0]
            assert len(support) == 2
            assert gram[support[0]][support[1]] != 0


@pytest.mark.parametrize("name", CATALOG)
def test_loctet_partition(name):
    d = cl.catalog(name)
    s = system_of(name)
    seen: dict = {}
    for i, loc in enumerate(s.loctets):
        assert len(set(loc.members)) == 8
        for m in loc.members:
            assert m not in seen, "loctets overlap"
            seen[m] = i
    assert set(s.unicolored) | set(seen) == set(s.nodes)
    if d.pattern is not None:
        pat = [d.index_of(v) for v in d.pattern[:3]]
        for v in s.nodes:
            has_pattern_alpha = any(v[i] != 0 for i in pat)
            assert has_pattern_alpha == (v in seen)


def test_component_p_constant():
    s = system_of("D7(a2)")
    for comp, p in zip(s.components, s.component_p):
        assert {form_value(s.pc, s.nodes[i]) for i in comp} == {p}


def test_d4a1_loctets_are_components():
    s = system_of("D4(a1)")
    comp_sets = {frozenset(s.nodes[i] for i in c) for c in s.components}
    assert {frozenset(loc.members) for loc in s.loctets} == comp_sets
    assert all(loc.kind == "D4" for loc in s.loctets)


def test_d4_dynkin_loctets_are_components():
    s = system_of("D4")
    comp_sets = {frozenset(s.nodes[i] for i in c) for c in s.components}
    assert {frozenset(loc.members) for loc in s.loctets} == comp_sets
    assert {loc.kind for loc in s.loctets} == {"L12", "L13", "L23"}


@pytest.mark.parametrize("l", range(1, 13))
def test_build_system_on_chains(l):
    # a chain has no pattern: components and p, but no loctets
    s = cl.build_system(cl.build_partial_cartan(cl.catalog(f"A{l}")))
    assert s.nodes and s.loctets == () and s.unicolored == s.nodes
    for comp, p in zip(s.components, s.component_p):
        assert {form_value(s.pc, s.nodes[i]) for i in comp} == {p}


@pytest.mark.parametrize("name", dg.catalog_names())
def test_simple_extensions_build_with_a_derived_pattern(name):
    # the pattern is read from the extended diagram itself, so it cannot go
    # stale: the diagram and its JSON round trip agree, and the system builds
    d = cl.catalog(name)
    pc = cl.build_partial_cartan(d)
    for v in d.vertices:
        if not cl.simply_extendable(pc, v):
            continue
        ext = cl.extend(d, v)
        s = cl.build_system(cl.build_partial_cartan(ext))
        assert ext.pattern == dg.from_json(dg.to_json(ext)).pattern, (name, v.id)
        assert orbit.from_json(orbit.to_json(s)) == s, (name, v.id)


@pytest.mark.parametrize("name", dg.catalog_names())
def test_extension_determinant_law(name):
    # det B_ext = det B * (2 - (B^-1)_vv) for a solid leaf at v, so B_ext is
    # positive definite exactly where (B^-1)_vv < 2: project_system relies on it
    pc = cl.build_partial_cartan(cl.catalog(name))
    for v in pc.diagram.vertices:
        law = pc.det * (2 - cl.inverse_diagonal(pc, v))
        try:
            ext = cl.build_partial_cartan(cl.extend(pc.diagram, v))
        except CartanError:
            assert law <= 0, (name, v.id)
            continue
        assert ext.det == law > 0, (name, v.id)


def test_empty_system_is_legal():
    s = cl.build_system(cl.build_partial_cartan(cl.catalog("E8")))
    assert s.nodes == () and s.loctets == () and s.components == ()


# -- gamma(8) and loctets --------------------------------------------------------


def test_gamma8_candidates_e6a1():
    pc = pc_of("E6(a1)")
    assert set(cl.gamma8_candidates(pc, "L12")) == {(0, 0, 1, 0, 0, -1),
                                                    (0, 0, 1, 0, -1, -1)}
    assert set(cl.gamma8_candidates(pc, "L13")) == {(0, 1, 0, 0, 0, 0),
                                                    (0, 1, 0, 0, 1, -1)}
    l23 = set(cl.gamma8_candidates(pc, "L23"))
    assert len(l23) == 2 and all(v[0] == 1 for v in l23)


def test_gamma8_requires_pattern():
    with pytest.raises(orbit.UnsupportedDiagram):
        cl.gamma8_candidates(pc_of("D4(a1)"), "L12")


def test_loctet_construction_shape():
    pc = pc_of("E6(a1)")
    loc = cl.loctet_from_gamma8(pc, (0, 0, 1, 0, 0, -1), "L12")
    g8, g7, g6 = loc.members[7], loc.members[6], loc.members[5]
    assert g8 == (0, 0, 1, 0, 0, -1)
    assert (g7[2], g7[3]) == (-1, 1)
    assert (g6[0], g6[1], g6[3]) == (1, 1, -1)
    assert loc.members[0] == tuple(-x for x in g8)
    assert loc.members[1] == tuple(-x for x in g7)
    assert loc.members[2] == tuple(-x for x in g6)
    nodes = set(links_of("E6(a1)"))
    assert set(loc.members) <= nodes and len(set(loc.members)) == 8


def test_loctet_gamma6_l23_pattern():
    pc = pc_of("E7(a1)")
    for g8 in cl.gamma8_candidates(pc, "L23"):
        loc = cl.loctet_from_gamma8(pc, g8, "L23")
        g6 = loc.members[5]
        assert (g6[1], g6[2], g6[3]) == (1, 1, -1)


def test_d4_loctet_is_the_four_coordinate_spindle():
    # branch-point diagram on 4 vertices: the loctet members are exactly the
    # classic spindle restricted to (a1, a2, a3, b1)
    pc = pc_of("D4")
    loc = cl.loctet_from_gamma8(pc, (0, 0, 1, 0), "L12")
    assert loc.members == (
        (0, 0, -1, 0), (0, 0, 1, -1), (-1, -1, 0, 1), (-1, 1, 0, 0),
        (1, -1, 0, 0), (1, 1, 0, -1), (0, 0, -1, 1), (0, 0, 1, 0))


def test_loctet_members_must_be_linkage_vectors(monkeypatch):
    # the public constructor rejects a vector that grows no loctet of the
    # system; a closure that loses a loctet member falls short of the table
    pc = pc_of("E6(a1)")
    with pytest.raises(ValueError, match=re.escape(
            "(0, 0, 1, 0, 2, 0) is not a gamma(8) candidate of kind L12")):
        cl.loctet_from_gamma8(pc, (0, 0, 1, 0, 2, 0), "L12")
    gone = cl.loctet_from_gamma8(pc, cl.gamma8_candidates(pc, "L12")[0], "L12").members[0]
    real = linkage._orbits

    def losing(pc, total):
        found, orbits, arcs = real(pc, total)
        k = next(k for k, v in found.items() if v == gone)
        del found[k]
        return found, [(n, [m for m in members if m != k]) for n, members in orbits], arcs

    monkeypatch.setattr(linkage, "_orbits", losing)
    with pytest.raises(orbit.VerificationError, match=re.escape(
            "E6(a1): the seeds of support at most 3 close to 53 linkage vectors, "
            "the E6 table has 54")):
        cl.build_system(cl.build_partial_cartan(cl.catalog("E6(a1)")))  # pc keeps its closure


# (diagram, g8 of kind L12): vectors that are not gamma(8) candidates; the
# first two grow eight linkage vectors that are no loctet of the system
_NON_CANDIDATES = {
    "e6a1-negated-labels": ("E6(a1)", (0, 0, -1, 0, 0, 1)),
    "d7a1-negated-labels": ("D7(a1)", (0, 0, -1, -1, 0, 0, 1)),
    "e6a1-label-at-a1": ("E6(a1)", (1, 0, 0, 0, 0, 0)),
    "e6a1-label-2": ("E6(a1)", (0, 0, 1, 0, 2, 0)),
}


@pytest.mark.parametrize("case", _NON_CANDIDATES)
def test_loctet_from_gamma8_rejects_a_non_candidate(case):
    name, g8 = _NON_CANDIDATES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(str(g8))} is not a gamma\\(8\\) "
                                         "candidate of kind L12$"):
        cl.loctet_from_gamma8(pc_of(name), g8, "L12")


@pytest.mark.parametrize("name", [n for n in dg.catalog_names() if cl.catalog(n).pattern])
def test_loctet_from_gamma8_is_the_systems_loctet(name):
    pc = pc_of(name)
    for kind in orbit.LOCTET_TYPES:
        grown = [cl.loctet_from_gamma8(pc, g8, kind) for g8 in cl.gamma8_candidates(pc, kind)]
        assert grown == [loc for loc in system_of(name).loctets if loc.kind == kind]


# gamma(1..8) on (a_i, a_j, a_k, b1) for a loctet of kind L_ij, whatever the
# other labels of gamma(8) are
_LOCTET_SIGNATURE = ((0, 0, -1, 0), (0, 0, 1, -1), (-1, -1, 0, 1), (-1, 1, 0, 0),
                     (1, -1, 0, 0), (1, 1, 0, -1), (0, 0, -1, 1), (0, 0, 1, 0))


def test_every_generated_loctet_reads_the_signature_table():
    # the law that lets build_system drop its distinctness and pattern-alpha
    # checks: eight distinct rows, each nonzero on a pattern alpha
    assert len(set(_LOCTET_SIGNATURE)) == 8 and all(any(r[:3]) for r in _LOCTET_SIGNATURE)
    names = dg.catalog_names() + [n for l in range(4, 13)
                                  for n in [f"D{l}(a{k})" for k in range(1, l - 2)] + [f"D{l}"]]
    count = 0
    for name in names:
        d = cl.catalog(name)
        for loc in system_of(name).loctets:
            if loc.kind == "D4":
                continue
            i, j = (int(c) - 1 for c in loc.kind[1:])
            roles = [d.index_of(d.pattern[r]) for r in (i, j, 3 - i - j, 3)]
            assert tuple(tuple(m[r] for r in roles) for m in loc.members) == _LOCTET_SIGNATURE
            count += 1
    assert count == 318  # 139 in the catalog, 179 in the D_l(a_k) and D_l (D4-D7 twice)


def test_build_system_rejects_a_loctet_generated_twice(monkeypatch):
    real = orbit._gamma8
    monkeypatch.setattr(orbit, "_gamma8", lambda pc, ijkb: real(pc, ijkb) * 2)
    with pytest.raises(orbit.VerificationError, match="^E6\\(a1\\): .* lies in two distinct loctets$"):
        cl.build_system(cl.build_partial_cartan(cl.catalog("E6(a1)")))


def test_build_system_names_the_closures_whose_p_differs(monkeypatch):
    # the form numerator of the first seed, (1, 0, 0, 0), off by 1: its
    # closure, one of D4's three orbits of 8 at p = 1, reads p = 3/2
    real = linkage.form_num
    monkeypatch.setattr(linkage, "form_num", lambda pc, v: real(pc, v) + (tuple(v) == (1, 0, 0, 0)))
    with pytest.raises(orbit.VerificationError, match=re.escape(
            "D4: the closures have (p, size) [(1, 8), (1, 8), (3/2, 8)], "
            "the D4 table [(1, 8), (1, 8), (1, 8)]")):
        cl.build_system(cl.build_partial_cartan(cl.catalog("D4")))


# (call, error type, message): the input checks of the public orbit routines
_INPUT_ERRORS = {
    "dual-reflect-length": (lambda: cl.dual_reflect(pc_of("D4(a1)"), "a1", (1, 0)),
                            ValueError, "vector of length 2 for rank 4"),
    # once returned (-1.5, 0.0, 0.0, 1.5)
    "dual-reflect-float": (lambda: cl.dual_reflect(pc_of("D4(a1)"), "a1", (1.5, 0, 0, 0)),
                           ValueError, "vector (1.5, 0, 0, 0) has an entry that is not an int"),
    # once leaked TypeError
    "dual-reflect-str": (lambda: cl.dual_reflect(pc_of("D4(a1)"), "a1", ("1", 0, 0, 0)),
                         ValueError, "vector ('1', 0, 0, 0) has an entry that is not an int"),
    # once leaked TypeError: has no len()
    "dual-reflect-int": (lambda: cl.dual_reflect(pc_of("D4(a1)"), "a1", 5),
                         ValueError, "5 is not a sequence of ints"),
    "dual-reflect-none": (lambda: cl.dual_reflect(pc_of("D4(a1)"), "a1", None),
                          ValueError, "None is not a sequence of ints"),
    "node-index": (lambda: system_of("D4").node_index((2, 0, 0, 0)),
                   ValueError, "(2, 0, 0, 0) is not a node of the linkage system"),
    # once leaked TypeError: unhashable type
    "node-index-unhashable": (lambda: system_of("D4").node_index([[1]]),
                              ValueError, "[[1]] is not a node of the linkage system"),
    # once leaked TypeError: 'int' object is not iterable
    "node-index-int": (lambda: system_of("D4").node_index(5),
                       ValueError, "5 is not a node of the linkage system"),
    "node-index-none": (lambda: system_of("D4").node_index(None),
                        ValueError, "None is not a node of the linkage system"),
    # once found node 8 of A3, (0, 1, -1), the order the set iterates in
    "node-index-set": (lambda: system_of("A3").node_index({0, 1, -1}),
                       ValueError, "{0, 1, -1} is not a node of the linkage system"),
    "gamma8-kind": (lambda: cl.gamma8_candidates(pc_of("E6(a1)"), "L14"), ValueError,
                    "loctet kind must be one of ('L12', 'L13', 'L23'), got 'L14'"),
    "loctet-length": (lambda: cl.loctet_from_gamma8(pc_of("E6(a1)"), (0, 0, 1), "L12"),
                      ValueError, "vector of length 3 for rank 6"),
    # once leaked TypeError: has no len()
    "loctet-int": (lambda: cl.loctet_from_gamma8(pc_of("E6(a1)"), 5, "L12"),
                   ValueError, "5 is not a sequence of ints"),
    # once returned the loctet of (0, 0, 1, 0)
    "loctet-float": (lambda: cl.loctet_from_gamma8(pc_of("D4"), (0.0, 0.0, 1.0, 0.0), "L12"),
                     ValueError, "vector (0.0, 0.0, 1.0, 0.0) has an entry that is not an int"),
    "json-not-an-object": (lambda: orbit.from_json("[1, 2]"),
                           dg.DiagramError, "system JSON must be an object"),
    "json-diagram-not-an-object": (lambda: orbit.from_json(json.dumps(
        {**json.loads(orbit.to_json(system_of("D4"))), "diagram": [1, 2]})),
        dg.DiagramError, "diagram JSON must be an object"),
    "json-missing-edges": (lambda: orbit.from_json(json.dumps(
        {k: v for k, v in json.loads(orbit.to_json(system_of("D4"))).items() if k != "edges"})),
        dg.DiagramError, "system JSON is missing 'edges'"),
}


@pytest.mark.parametrize("case", _INPUT_ERRORS)
def test_orbit_input_checks_name_the_fault(case):
    call, error, message = _INPUT_ERRORS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_node_index_finds_the_node_equal_to_a_float_vector():
    # no int check: to_json and to_dot look up every loctet member by it
    sys = system_of("D4")
    i = sys.nodes.index((1, 0, 0, 0))
    assert sys.node_index((1.0, 0, 0, 0)) == sys.node_index([1, 0, 0, 0]) == i


@pytest.mark.parametrize("name", [n for n in CATALOG if n != "D4(a1)"])
def test_loctet_generating_relations(name):
    # gamma(7) = s*_{a_k} gamma(8), gamma(6) = s*_{b1} gamma(7),
    # gamma(4)/gamma(5) = s*_{a_i}/s*_{a_j} gamma(6), negatives for 1..3
    pc = pc_of(name)
    d = pc.diagram
    roles = {"L12": ("12", 2), "L13": ("13", 1), "L23": ("23", 0)}
    for loc in system_of(name).loctets:
        ij, k = roles[loc.kind]
        i, j = int(ij[0]) - 1, int(ij[1]) - 1
        a = d.pattern[:3]
        b1 = d.pattern[3]
        g = loc.members
        assert g[6] == cl.dual_reflect(pc, a[k], g[7])
        assert g[5] == cl.dual_reflect(pc, b1, g[6])
        assert g[3] == cl.dual_reflect(pc, a[i], g[5])
        assert g[4] == cl.dual_reflect(pc, a[j], g[5])
        for n_, m_ in ((0, 7), (1, 6), (2, 5)):
            assert g[n_] == tuple(-x for x in g[m_])
        # the eighth member carries a_k = 1, a_i = a_j = 0, b1 = 0
        idx = [d.index_of(v) for v in a] + [d.index_of(b1)]
        assert g[7][idx[k]] == 1
        assert g[7][idx[i]] == g[7][idx[j]] == g[7][idx[3]] == 0


# -- projections -----------------------------------------------------------------


def test_projection_d6a1_to_d5a1():
    rep = cl.project_system(system_of("D6(a1)"), "b3", pc_of("D5(a1)"))
    assert len(rep.kernel) == 2
    fiber_sizes = sorted(len(v) for v in rep.fibers().values())
    assert fiber_sizes == [1, 2, 2, 2, 2]
    ext_loctets = system_of("D6(a1)").loctets
    for ei, bi in rep.loctet_pairs:
        assert ext_loctets[ei].kind == rep.base_system.loctets[bi].kind


def test_projection_e7_to_e6a1():
    for ext in ("E7(a1)", "E7(a2)"):
        rep = cl.project_system(system_of(ext), "b4", pc_of("E6(a1)"))
        assert len(rep.kernel) == 2
        assert len(rep.loctet_pairs) == 6


def test_projection_rejects_wrong_base():
    with pytest.raises(Exception):
        cl.project_system(system_of("E7(a1)"), "b4", pc_of("D6(a1)"))


def test_projection_rejects_non_leaf():
    with pytest.raises(Exception):
        cl.project_system(system_of("E7(a1)"), "b1", pc_of("E6(a1)"))


# every positive definite leaf extension of these projects or breaks a hypothesis
_EXTENDED = dg.catalog_names() + [f"A{l}" for l in range(1, 8)] + \
    ["D8"] + [f"D8(a{k})" for k in (1, 2, 3)]


def test_projection_of_every_leaf_extension_is_a_result_or_a_broken_hypothesis():
    # (B_ext^-1)_nn = 1 / (2 - (B^-1)_vv) at the leaf n, so its unit vector is
    # a linkage exactly when (B^-1)_vv < 3/2; no input ends in VerificationError
    outcomes = {"projects": 0, "inverse-diagonal": 0, "pattern": 0}
    for name in _EXTENDED:
        base = pc_of(name)
        for v in base.diagram.vertices:
            try:
                ext = cl.build_partial_cartan(cl.extend(base.diagram, v))
            except CartanError:
                continue
            vv = cl.inverse_diagonal(base, v)
            if vv >= Fraction(3, 2):
                broken, message = "inverse-diagonal", (
                    f"projection needs (B^-1)_vv < 3/2 at the attach vertex; "
                    f"{name} has (B^-1)_vv = {vv} at {v}")
            elif ext.diagram.pattern and not base.diagram.pattern:
                broken, message = "pattern", (
                    f"projection needs a pattern in the base when the extension has one; "
                    f"{ext.diagram.name} has one, {name} has none")
            else:
                rep = cl.project_system(cl.build_system(ext), ext.diagram.vertices[-1], base)
                assert len(rep.kernel) == 2, (name, v.id)
                outcomes["projects"] += 1
                continue
            with pytest.raises(dg.DiagramError, match=f"^{re.escape(message)}$"):
                cl.project_system(cl.build_system(ext), ext.diagram.vertices[-1], base)
            outcomes[broken] += 1
    assert outcomes == {"projects": 55, "inverse-diagonal": 30, "pattern": 6}


def _chain_ends(d):
    fs = [v for v in d.vertices if v.kind == "f"]
    ts = [v for v in d.vertices if v.kind == "t"]
    return [fs[-1] if fs else d.vertex("b1"), ts[-1] if ts else d.vertex("b2")]


@pytest.mark.parametrize("l", range(6, 11))
def test_projection_chain_families(l):
    for k in (1, 2):
        if k > (l - 1) - 3:
            continue
        base = cl.carter_D_ak(l - 1, k)
        target = cl.carter_D_ak(l, k)
        ext = next(cl.extend(base, at) for at in _chain_ends(base)
                   if cl.isomorphic(cl.extend(base, at), target))
        ext_sys = cl.build_system(cl.build_partial_cartan(ext))
        rep = cl.project_system(ext_sys, ext.vertices[-1],
                                cl.build_partial_cartan(base))
        assert len(rep.kernel) == 2


# -- export ----------------------------------------------------------------------


def test_dot_export_mentions_all_nodes():
    s = system_of("D4(a1)")
    dot = orbit.to_dot(s)
    assert dot.count("n0 ") >= 1
    assert dot.count("subgraph cluster_") == 3
    assert "--" in dot


@pytest.mark.parametrize("field", ["loctets", "unicolored"])
def test_export_names_a_loctet_member_or_unicolored_vector_that_is_no_node(field):
    # the LinkageSystem constructor checks neither; to_json once leaked a bare
    # KeyError: (9, 9, 9, 9) where to_dot raised this ValueError
    s = system_of("D4")
    bad = (9, 9, 9, 9)
    value = (orbit.Loctet("L12", (bad,) * 8),) if field == "loctets" else (bad,)
    hand = orbit.LinkageSystem(**{**{f: getattr(s, f) for f in s._value}, field: value})
    message = f"^{re.escape(str(bad))} is not a node of the linkage system$"
    with pytest.raises(ValueError, match=message):
        orbit.to_json(hand)
    if field == "loctets":  # to_dot draws no unicolored vector
        with pytest.raises(ValueError, match=message):
            orbit.to_dot(hand)


def test_system_json_roundtrip():
    for name in dg.catalog_names():
        s = system_of(name)
        text = orbit.to_json(s)
        back = orbit.from_json(text)
        assert back == s, name
        assert orbit.to_json(back) == text, name


@pytest.mark.parametrize("name", ["D4", "D5(a1)", "E6(a1)"])
def test_a_system_built_from_its_value_serializes_alike(name):
    # the node positions that loctets and unicolored nodes are written by are read from nodes
    s = system_of(name)
    again = orbit.LinkageSystem(**{f: getattr(s, f) for f in s._value})
    assert again == s and orbit.to_json(again) == orbit.to_json(s)


@settings(max_examples=60, deadline=None)
@given(generated_diagrams)
def test_generated_systems_roundtrip_and_search_numerators(d):
    pc = cl.build_partial_cartan(d)
    nodes, nums = _closure(pc)[:2]
    assert nums == tuple(form_num(pc, v) for v in nodes)
    s = cl.build_system(pc)
    assert orbit.from_json(orbit.to_json(s)) == s


def _put(*path, value):
    def corrupt(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return corrupt


def _relabel_edge(doc):
    edge = doc["edges"][0]
    edge[2] = next(v["id"] for v in doc["diagram"]["vertices"] if v["id"] != edge[2])


def _components(n, edges):
    """The node sets of the components of the graph on 0..n-1 with ``edges``."""
    adj = [[] for _ in range(n)]
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)
    return {frozenset(dg.closure(i, adj.__getitem__)) for i in range(n)}


def _drop_edge_keeping_components(doc):
    n, edges = len(doc["nodes"]), doc["edges"]
    for k in range(len(edges)):
        if _components(n, edges[:k] + edges[k + 1:]) == _components(n, edges):
            del edges[k]
            return
    raise AssertionError("every edge is a bridge")


def _first_one_to(value):
    def corrupt(doc):
        node = next(v for v in doc["nodes"] if 1 in v)
        node[node.index(1)] = value
    return corrupt


# well formed, but not the system of the diagram: each must raise VerificationError
CORRUPTIONS = {
    "extra-node": lambda doc: doc["nodes"].append([5, 5, 5, 5, 5]),
    "short-node": _put("nodes", 0, value=[1, 0]),
    "component-p": _put("component_p", 0, value="7/3"),
    "no-edges": _put("edges", value=[]),
    "edge-relabeled": _relabel_edge,
    "edge-dropped-components-kept": _drop_edge_keeping_components,
    "loctet-permuted": lambda doc: doc["loctets"][0]["members"].reverse(),
}

# malformed shapes and indices out of range: a well-formed document whose field
# is malformed makes a failed claim too, with the same witnesses
SHAPE_CORRUPTIONS = {
    "loctet-999": _put("loctets", 0, "members", 0, value=999),
    "unicolored-999": _put("unicolored", 0, value=999),
    "loctet-minus-1": _put("loctets", 0, "members", 0, value=-1),
    "nodes-not-a-list": _put("nodes", value=5),
    "edges-not-a-list": _put("edges", value=5),
    "edge-of-two": _put("edges", 0, value=[0, 1]),
    "component-not-a-list": _put("components", value=[5]),
    "loctet-not-an-object": _put("loctets", value=["x"]),
    "component-p-not-a-fraction": _put("component_p", value=["abc"]),
    "node-entry-float": _first_one_to(1.0),
    "node-entry-bool": _first_one_to(True),
}
CORRUPTIONS.update(SHAPE_CORRUPTIONS)


_LOCTET = '{"kind": "L12", "members": [17, 23, 1, 8, 32, 40, 18, 24]}'
_MEMBERS = ", 23, 1, 8, 32, 40, 18, 24]}"
_NODE = "[-1, -1, 0, 1, -1]"

# each mismatch raises "system JSON of D5(a1): <field> differ from the rebuilt
# system: <witness>"; the field and the witness of each, entries as JSON text
REBUILT = "differ from the rebuilt system:"
WITNESSES = {
    "extra-node": f"nodes {REBUILT} 43 nodes in the document, 42 rebuilt",
    "short-node": f"nodes {REBUILT} nodes[0] is [1, 0] in the document, {_NODE} rebuilt",
    "component-p":
        f'component_p {REBUILT} component_p[0] is "7/3" in the document, "5/4" rebuilt',
    "no-edges": f"edges {REBUILT} 0 edges in the document, 50 rebuilt",
    "edge-relabeled":
        f'edges {REBUILT} edges[0] is [0, 3, "a1"] in the document, [0, 3, "b2"] rebuilt',
    "edge-dropped-components-kept":
        f'edges {REBUILT} edges[0] is [0, 8, "a2"] in the document, [0, 3, "b2"] rebuilt',
    "loctet-permuted": f'loctets {REBUILT} loctets[0] is {{"kind": "L12", "members": '
                       f'[24, 18, 40, 32, 8, 1, 23, 17]}} in the document, {_LOCTET} rebuilt',
    "loctet-999": f'loctets {REBUILT} loctets[0] is {{"kind": "L12", "members": [999{_MEMBERS} '
                  f"in the document, {_LOCTET} rebuilt",
    "unicolored-999": f"unicolored {REBUILT} unicolored[0] is 999 in the document, 20 rebuilt",
    "loctet-minus-1": f'loctets {REBUILT} loctets[0] is {{"kind": "L12", "members": [-1{_MEMBERS} '
                      f"in the document, {_LOCTET} rebuilt",
    "nodes-not-a-list": f"nodes {REBUILT} nodes is 5 in the document, not a list",
    "edges-not-a-list": f"edges {REBUILT} edges is 5 in the document, not a list",
    "edge-of-two": f'edges {REBUILT} edges[0] is [0, 1] in the document, [0, 3, "b2"] rebuilt',
    "component-not-a-list": f"components {REBUILT} components[0] is 5 in the document, "
                            "[0, 3, 7, 8, 12, 14, 16, 18, 22, 24, 28, 30, 32, 35, 39, 40] rebuilt",
    "loctet-not-an-object":
        f'loctets {REBUILT} loctets[0] is "x" in the document, {_LOCTET} rebuilt',
    "component-p-not-a-fraction":
        f'component_p {REBUILT} component_p[0] is "abc" in the document, "5/4" rebuilt',
    "node-entry-float":
        f"nodes {REBUILT} nodes[0] is [-1, -1, 0, 1.0, -1] in the document, {_NODE} rebuilt",
    "node-entry-bool":
        f"nodes {REBUILT} nodes[0] is [-1, -1, 0, true, -1] in the document, {_NODE} rebuilt",
}


@pytest.mark.parametrize("probe", CORRUPTIONS)
def test_system_json_rejects_corruption(probe):
    doc = json.loads(orbit.to_json(system_of("D5(a1)")))
    CORRUPTIONS[probe](doc)
    message = f"system JSON of D5(a1): {WITNESSES[probe]}"
    with pytest.raises(orbit.VerificationError, match=f"^{re.escape(message)}$"):
        orbit.from_json(json.dumps(doc))


# fractions equal to the rebuilt p, 5/4 and 1/2, that to_json does not write; once accepted
@pytest.mark.parametrize("name, p", [("D5(a1)", "10/8"), ("A1", "0.5")])
def test_system_json_rejects_a_non_canonical_fraction(name, p):
    s = system_of(name)
    doc = json.loads(orbit.to_json(s))
    doc["component_p"][0] = p
    message = (f"system JSON of {name}: component_p {REBUILT} component_p[0] is \"{p}\" in the "
               f"document, \"{s.component_p[0]}\" rebuilt")
    with pytest.raises(orbit.VerificationError, match=f"^{re.escape(message)}$"):
        orbit.from_json(json.dumps(doc))


def _loctet_keys_reversed(text):
    doc = json.loads(text)
    doc["loctets"] = [dict(reversed(loc.items())) for loc in doc["loctets"]]
    return json.dumps(doc)


@pytest.mark.parametrize("name", PIPELINE_NAMES)
def test_system_json_accepts_what_to_json_and_the_cli_write(name):
    # the last two differ from to_json's text, so they are checked field by field
    s = system_of(name)
    texts = (orbit.to_json(s), orbit.to_json(s, indent=2) + "\n", _loctet_keys_reversed(
        orbit.to_json(s)))
    assert len(set(texts)) == (3 if s.loctets else 2)
    for text in texts:
        assert orbit.from_json(text) == s


def _count_decodes(monkeypatch) -> list:
    """The text of each call of ``diagram._decode``, the full decode of a document, from here on."""
    calls, real = [], dg._decode
    monkeypatch.setattr(dg, "_decode", lambda text, **k: calls.append(text) or real(text, **k))
    return calls


@pytest.mark.parametrize("name", PIPELINE_NAMES)
def test_system_json_reads_to_jsons_own_text_by_its_diagram_alone(name, monkeypatch):
    d = cl.catalog(name)
    systems = [cl.build_system(cl.build_partial_cartan(x))
               for x in (d, shuffled(d, 1), shuffled(d, 2))]
    texts = list(map(orbit.to_json, systems))
    calls = _count_decodes(monkeypatch)
    for s, text in zip(systems, texts):
        assert orbit.from_json(text) == s
    assert calls == []


def test_system_json_reads_other_texts_by_the_full_decode(monkeypatch):
    # the indented and reordered texts that the CLI test above accepts, and a
    # second space after "diagram":, which the first path's raw_decode would not
    # skip, one full decode each
    s = system_of("D5(a1)")
    texts = (orbit.to_json(s, indent=2) + "\n", _loctet_keys_reversed(orbit.to_json(s)),
             orbit.to_json(s).replace('"diagram": ', '"diagram":  ', 1))
    calls = _count_decodes(monkeypatch)
    for text in texts:
        assert orbit.from_json(text) == s
    assert calls == list(texts)


def test_system_json_builds_a_reordered_text_once(monkeypatch):
    # the first path reads this text's diagram and builds its system; the full
    # decode finds the same diagram and reuses that system
    s = system_of("D5(a1)")
    text = _loctet_keys_reversed(orbit.to_json(s))
    builds, real = [], orbit.build_system
    monkeypatch.setattr(orbit, "build_system", lambda pc: builds.append(pc) or real(pc))
    assert orbit.from_json(text) == s
    assert len(builds) == 1


@pytest.mark.parametrize("repeat", [False, True], ids=["kept", "decode"])
def test_a_kept_error_leaves_no_reference_cycle(repeat):
    # the first path's diagram fails; the full decode then passes and that
    # error is raised ("kept"), or it raises its repeated-key error ("decode")
    text = orbit.to_json(system_of("D4(a1)")).replace('"id": "a1"', '"id": "x1"', 1)
    if repeat:
        text = text.replace('"nodes": ', '"nodes": [], "nodes": ', 1)

    def read():
        try:
            orbit.from_json(text)
        except dg.DiagramError:
            pass

    assert cycles_left_by(read) == 0


@pytest.mark.parametrize("name", ["D4", "E6(a1)", "D5(a1)", "A1"])
def test_both_readers_accept_the_utf8_bytes_of_to_jsons_text(name):
    # the system reader once called str.startswith on bytes and raised TypeError
    s = system_of(name)
    assert dg.from_json(dg.to_json(s.pc.diagram).encode()) == s.pc.diagram
    assert orbit.from_json(orbit.to_json(s).encode()) == s


def test_system_json_rejects_to_jsons_text_cut_short():
    with pytest.raises(dg.DiagramError, match="^invalid JSON: "):
        orbit.from_json(orbit.to_json(system_of("D5(a1)"))[:-1])


def test_system_json_names_an_eighth_key_before_its_diagram_fails_to_build():
    # the 4-cycle with every edge solid is the affine A3, not positive definite
    doc = json.loads(orbit.to_json(system_of("D4(a1)")))
    for e in doc["diagram"]["edges"]:
        e["sign"] = "solid"
    with pytest.raises(CartanError):
        orbit.from_json(json.dumps(doc))
    with pytest.raises(dg.DiagramError, match="^invalid JSON: "):
        orbit.from_json(json.dumps(doc)[:-1])
    doc["extra"] = 1
    with pytest.raises(dg.DiagramError, match="^system JSON: unknown key 'extra' "):
        orbit.from_json(json.dumps(doc))


# a repeated key's last value is the real one; once read as D4 and accepted
@pytest.mark.parametrize("key, first", [("name", '"name": "bogus", '),
                                         ("nodes", '"nodes": [[9, 9]], ')])
def test_system_json_rejects_a_repeated_key(key, first):
    text = orbit.to_json(system_of("D4"))
    where = text.index(f'"{key}": ')
    with pytest.raises(dg.DiagramError, match=f"^JSON object repeats key '{key}'$"):
        orbit.from_json(text[:where] + first + text[where:])


# the bytes are not UTF-8, and cut UTF-16: they once leaked UnicodeDecodeError
@pytest.mark.parametrize("parse", [dg.from_json, orbit.from_json], ids=["diagram", "system"])
@pytest.mark.parametrize("text", ["{", "nul", b'{"name": \xff}', b"\xff\xfe{"])
def test_from_json_rejects_invalid_json(parse, text):
    with pytest.raises(dg.DiagramError, match="^invalid JSON: "):
        parse(text)


def test_system_json_rejects_a_same_color_edge_in_its_diagram():
    doc = json.loads(orbit.to_json(system_of("D5(a1)")))
    doc["diagram"]["edges"].append({"u": "a1", "v": "a2", "sign": "solid"})
    with pytest.raises(dg.DiagramError, match=r"^D5\(a1\): edge a1-a2 joins two alpha vertices$"):
        orbit.from_json(json.dumps(doc))


def test_system_json_rejects_unknown_key():
    doc = json.loads(orbit.to_json(system_of("D4")))
    doc["extra"] = 1
    with pytest.raises(Exception, match="unknown key"):
        orbit.from_json(json.dumps(doc))
