import json
import re

import pytest
from hypothesis import given, settings, strategies as st

import carterlink as cl
from carterlink import diagram as dg
from carterlink import orbit
from carterlink.cartan import CartanError

from helpers import (C4_CATALOG, CATALOG, LARGE_RANK, SHUFFLE_SEEDS, color_swapped,
                     cycles_left_by, e8_root_subset_diagrams, pc_of, realizes_isomorphism,
                     ref_detect_pattern, ref_find_isomorphism, ref_gram, ref_neighbors,
                     ref_normalized_edges, ref_search_order, shuffled, signed_bipartite_diagrams,
                     switched)


def test_catalog_d4a1_shape():
    d = cl.catalog("D4(a1)")
    assert [v.id for v in d.vertices] == ["a1", "a2", "b1", "b2"]
    signs = {(u.id, v.id): s for u, v, s in d.edges}
    assert signs == {("a1", "b1"): dg.SOLID, ("a1", "b2"): dg.SOLID,
                     ("a2", "b1"): dg.DOTTED, ("a2", "b2"): dg.SOLID}


def test_catalog_a1_is_single_vertex():
    d = cl.catalog("A_1")
    assert len(d.vertices) == 1 and not d.edges


def test_catalog_name_spellings():
    assert cl.catalog("E6(a1)").name == cl.catalog("E6a1").name == "E6(a1)"
    assert cl.catalog("D_10(a_3)").name == "D10(a3)"


def test_catalog_unknown_name():
    with pytest.raises(dg.DiagramError):
        cl.catalog("F4")
    with pytest.raises(dg.DiagramError):
        cl.catalog("E9")
    with pytest.raises(dg.DiagramError):
        cl.catalog("A13")
    for name in ("A5(a1)", "E9(a1)"):  # only the D family takes a parameter
        with pytest.raises(dg.DiagramError, match=rf"^unknown diagram name '{re.escape(name)}'$"):
            cl.catalog(name)
    for name in (5, 8):  # not a str: once leaked AttributeError from str.strip
        with pytest.raises(dg.DiagramError, match=f"^unknown diagram name {name}$"):
            cl.catalog(name)


@pytest.mark.parametrize("name", CATALOG + ["E8", "A1", "A5", "D9", "D10(a3)"])
def test_catalog_validates(name):
    # built, so checked: bicolored, connected, with distinct ids
    d = cl.catalog(name)
    assert all(u.color != v.color for u, v, _ in d.edges)
    assert len(dg.closure(d.vertices[0], lambda v: (w for w, _ in ref_neighbors(d, v)))) == len(d)
    assert len({v.id for v in d.vertices}) == len(d)


def test_validate_reports_same_color_edge():
    a1, a2 = dg.VertexId("a", 1, dg.ALPHA), dg.VertexId("a", 2, dg.ALPHA)
    with pytest.raises(dg.DiagramError, match="^bad: edge a1-a2 joins two alpha vertices$"):
        dg.CarterDiagram("bad", (a1, a2), ((a1, a2, dg.SOLID),))


def test_validate_reports_disconnected():
    vs = (dg.VertexId("a", 1, dg.ALPHA), dg.VertexId("b", 1, dg.BETA),
          dg.VertexId("a", 2, dg.ALPHA), dg.VertexId("b", 2, dg.BETA))
    with pytest.raises(dg.DiagramError, match="^two-edges: diagram is disconnected$"):
        dg.CarterDiagram("two-edges", vs, ((vs[0], vs[1], dg.SOLID), (vs[2], vs[3], dg.SOLID)))


@settings(max_examples=60, deadline=None)
@given(signed_bipartite_diagrams(max_rank=8), st.data())
def test_validate_connectivity_matches_an_edge_scan(d, data):
    # dropping a drawn subset of the edges leaves a connected or a split diagram;
    # the constructor rejects exactly the split ones
    kept = tuple(data.draw(st.lists(st.sampled_from(d.edges), unique=True))) if d.edges else ()
    reach = dg.closure(d.vertices[0], lambda v: (w for e in kept if v in e[:2] for w in e[:2]))
    if len(reach) < len(d):
        with pytest.raises(dg.DiagramError, match="^generated: diagram is disconnected$"):
            dg.CarterDiagram(d.name, d.vertices, kept)
    else:
        assert dg.CarterDiagram(d.name, d.vertices, kept).edges == ref_normalized_edges(
            d.vertices, kept)


def test_validate_reports_empty_diagram():
    with pytest.raises(dg.DiagramError, match="^x: diagram has no vertices$"):
        dg.from_json('{"name": "x", "vertices": [], "edges": []}')


@pytest.mark.parametrize("vertices,message", [
    ([("a1", "alpha"), ("b1", "beta"), ("a2", "alpha")], "diagram is disconnected"),
    # the edge names t1 by id and reaches the beta copy, so the alpha one stays apart
    ([("a1", "alpha"), ("t1", "alpha"), ("t1", "beta")],
     "diagram is disconnected; duplicate vertex ids"),
], ids=["disconnected", "t1-in-both-colors"])
def test_json_rejects_a_malformed_graph(vertices, message):
    text = json.dumps({"name": "x", "vertices": [{"id": i, "color": c} for i, c in vertices],
                       "edges": [{"u": "a1", "v": vertices[1][0], "sign": "solid"}]})
    with pytest.raises(dg.DiagramError, match=f"^x: {message}$"):
        dg.from_json(text)


@pytest.mark.parametrize("key", ["vertices", "edges"])
def test_json_rejects_non_list_vertices_and_edges(key):
    doc = {"name": "x", "vertices": [], "edges": []}
    doc[key] = 5
    with pytest.raises(dg.DiagramError, match="must be a list"):
        dg.from_json(json.dumps(doc))


# -- parametric D_l(a_k) -------------------------------------------------------


def test_carter_d_ak_bare_square():
    d = cl.carter_D_ak(4, 1)
    assert len(d.vertices) == 4
    assert cl.isomorphic(d, cl.catalog("D4(a1)"), allow_switching=False)


@pytest.mark.parametrize("lk,target", [
    ((5, 1), "D5(a1)"), ((6, 1), "D6(a1)"), ((6, 2), "D6(a2)"),
    ((7, 1), "D7(a1)"), ((7, 2), "D7(a2)"),
])
def test_carter_d_ak_matches_tabled(lk, target):
    # plain permutation equivalence, no sign switching needed
    assert cl.isomorphic(cl.carter_D_ak(*lk), cl.catalog(target),
                         allow_switching=False)


def test_carter_d_ak_9_3():
    pc = cl.build_partial_cartan(cl.carter_D_ak(9, 3))
    assert len(pc) == 9 and pc.det == 4


def test_carter_d_ak_parameter_range():
    with pytest.raises(dg.DiagramError):
        cl.carter_D_ak(4, 2)
    with pytest.raises(dg.DiagramError):
        cl.carter_D_ak(5, 0)


_ABOVE = dg.MAX_RANK + 1


@pytest.mark.parametrize("build,args,message", [
    (dg.dynkin_A, (_ABOVE,), f"A_l needs 1 <= l <= {dg.MAX_RANK}, got {_ABOVE}"),
    (dg.dynkin_D, (_ABOVE,), f"D_l needs 4 <= l <= {dg.MAX_RANK}, got {_ABOVE}"),
    (dg.carter_D_ak, (_ABOVE, 2),
     f"D{_ABOVE}(a2): rank {_ABOVE} exceeds the supported bound {dg.MAX_RANK}"),
], ids=["A", "D", "D(a2)"])
def test_named_families_reject_a_rank_above_the_bound(build, args, message):
    with pytest.raises(dg.DiagramError, match=f"^{re.escape(message)}$"):
        build(*args)


@pytest.mark.parametrize("l", range(4, 13))
def test_carter_d_ak_mirror_parameter(l):
    for k in range(1, l - 2):
        assert cl.isomorphic(cl.carter_D_ak(l, k), cl.carter_D_ak(l, l - k - 2))


@pytest.mark.parametrize("name", [n for n in C4_CATALOG if n != "D4(a1)"])
def test_predefined_pattern_on_c4(name):
    d = cl.catalog(name)
    a1, a2, a3, b1 = d.pattern
    signs = {frozenset((u.id, v.id)): s for u, v, s in d.edges}
    for a in (a1, a2, a3):
        assert signs[frozenset((a.id, b1.id))] == dg.SOLID
    # a2 and a3 close the 4-cycle through b2: dotted and solid respectively
    assert signs[frozenset((a2.id, "b2"))] == dg.DOTTED
    assert signs[frozenset((a3.id, "b2"))] == dg.SOLID


@pytest.mark.parametrize("name", CATALOG + ["E8", "D9", "D10(a3)", "A4"])
def test_pattern_detection_matches_construction(name):
    # the roles the constructions lay out: a1, a2, a3, b1 in the tables and
    # D_l, f1 for a1 in D_l(a_k), none in the bare square and the chains
    d = cl.catalog(name)
    roles = {"D4(a1)": None, "A4": None, "D10(a3)": ("f1", "a2", "a3", "b1")}
    expected = roles.get(name, ("a1", "a2", "a3", "b1"))
    assert d.pattern == (expected and tuple(map(d.vertex, expected)))
    assert dg.detect_pattern(d) == d.pattern


# -- extension -----------------------------------------------------------------


def test_extend_a1_gives_a2():
    d = cl.extend(cl.catalog("A1"), "a1")
    assert cl.isomorphic(d, cl.catalog("A2"), allow_switching=False)


def test_extend_d5a1_chain_end_gives_d6a1():
    base = cl.catalog("D5(a1)")
    ext = cl.extend(base, "a1")
    assert ext.gram() == cl.catalog("D6(a1)").gram()


def test_extend_e6a1_at_small_diagonal_vertex_gives_e7a1():
    base = pc_of("E6(a1)")
    assert cl.inverse_diagonal(base, "a1") < 2
    ext = cl.extend(base.diagram, "a1")
    assert ext.gram() == cl.catalog("E7(a1)").gram()


def test_extend_unknown_vertex():
    with pytest.raises(dg.DiagramError):
        cl.extend(cl.catalog("D4"), "a9")


# -- isomorphism ----------------------------------------------------------------


def test_switching_needed_for_mirrored_square():
    # same underlying graph, dotted edge moved to the degree-3 side
    a2, a3 = dg.VertexId("a", 2, dg.ALPHA), dg.VertexId("a", 3, dg.ALPHA)
    b1, b2 = dg.VertexId("b", 1, dg.BETA), dg.VertexId("b", 2, dg.BETA)
    f1 = dg.VertexId("f", 1, dg.ALPHA)
    flipped = dg.CarterDiagram("flipped", (a2, a3, b1, b2, f1), (
        (a2, b1, dg.DOTTED), (a3, b1, dg.SOLID), (a3, b2, dg.SOLID),
        (a2, b2, dg.SOLID), (b1, f1, dg.SOLID)))
    reference = cl.carter_D_ak(5, 1)
    assert not cl.isomorphic(flipped, reference, allow_switching=False)
    assert cl.isomorphic(flipped, reference, allow_switching=True)


def test_not_isomorphic_different_family():
    assert not cl.isomorphic(cl.catalog("E6(a1)"), cl.catalog("D6(a1)"))


def test_find_isomorphism_gives_table_permutation():
    mapping = cl.find_isomorphism(cl.carter_D_ak(6, 2), cl.catalog("D6(a2)"),
                                  allow_switching=False)
    assert {u.id: v.id for u, v in mapping.items()} == {
        "a2": "a2", "a3": "a3", "b1": "b1", "b2": "b2", "t1": "a4", "f1": "a1"}


def test_find_isomorphism_none_for_mismatch():
    assert cl.find_isomorphism(cl.catalog("D4"), cl.catalog("D4(a1)")) is None


def _small_variants():
    """The catalog and family diagrams of rank <= 5, each with its
    single-vertex switchings and two shuffles."""
    names = ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "D4(a1)", "D5(a1)"]
    for d in [cl.catalog(n) for n in names] + [cl.carter_D_ak(4, 1), cl.carter_D_ak(5, 1),
                                               cl.carter_D_ak(5, 2)]:
        yield d
        yield from (switched(d, v) for v in d.vertices)
        yield from (shuffled(d, seed) for seed in (1, 2))


@pytest.mark.parametrize("allow_switching", [True, False])
def test_find_isomorphism_verdicts_match_brute_force(allow_switching):
    small = list(_small_variants())
    verdicts = set()
    for d1 in small:
        for d2 in small:
            m = cl.find_isomorphism(d1, d2, allow_switching)
            found = ref_find_isomorphism(d1, d2, allow_switching) is not None
            assert (m is not None) == found, (d1.name, d2.name)
            assert m is None or realizes_isomorphism(m, d1, d2, allow_switching)
            verdicts.add(found)
    assert verdicts == {True, False}


@settings(max_examples=60, deadline=None)
@given(st.one_of(e8_root_subset_diagrams(), signed_bipartite_diagrams(max_rank=10)), st.data())
def test_find_isomorphism_mappings_realize_the_gram_equality(d, data):
    # d against a drawn relabeling of itself: its vertices shuffled, then some switched
    other = cl.CarterDiagram(d.name, tuple(data.draw(st.permutations(d.vertices))), d.edges)
    m = cl.find_isomorphism(d, other, allow_switching=False)
    assert m is not None and realizes_isomorphism(m, d, other, allow_switching=False)
    for v in data.draw(st.lists(st.sampled_from(d.vertices), unique=True)):
        other = switched(other, v)
    m = cl.find_isomorphism(d, other)
    assert m is not None and realizes_isomorphism(m, d, other)
    m = cl.find_isomorphism(d, other, allow_switching=False)
    assert m is None or realizes_isomorphism(m, d, other, allow_switching=False)


def test_find_isomorphism_leaves_no_reference_cycle():
    d1, d2 = cl.catalog("D12(a3)"), cl.catalog("D12(a7)")
    assert cycles_left_by(lambda: cl.find_isomorphism(d1, d2)) == 0


# -- JSON -----------------------------------------------------------------------


@pytest.mark.parametrize("name", CATALOG + ["E8", "A3", "D9(a2)"])
def test_json_roundtrip(name):
    d = cl.catalog(name)
    back = dg.from_json(dg.to_json(d))
    assert back.vertices == d.vertices
    assert back.edges == d.edges
    assert back.pattern == d.pattern


def test_json_rejects_unknown_key():
    text = dg.to_json(cl.catalog("D4")).replace('"name"', '"nam"', 1)
    with pytest.raises(dg.DiagramError, match="unknown key"):
        dg.from_json(text)


def test_json_rejects_unknown_vertex_key():
    import json
    doc = json.loads(dg.to_json(cl.catalog("D4")))
    doc["vertices"][0]["flavor"] = "up"
    with pytest.raises(dg.DiagramError, match="flavor"):
        dg.from_json(json.dumps(doc))


def test_json_rejects_bad_sign():
    import json
    doc = json.loads(dg.to_json(cl.catalog("D4")))
    doc["edges"][0]["sign"] = "wavy"
    with pytest.raises(dg.DiagramError, match="sign"):
        dg.from_json(json.dumps(doc))


def test_json_rejects_color_conflict():
    text = '{"name": "x", "vertices": [{"id": "a1", "color": "beta"}], "edges": []}'
    with pytest.raises(dg.DiagramError, match="conflicts"):
        dg.from_json(text)


def test_vertex_lookup_by_object_and_id():
    d = cl.catalog("E6(a1)")
    for i, v in enumerate(d.vertices):
        assert d.index_of(v) == d.index_of(v.id) == i
        assert d.vertex(v.id) is v
    with pytest.raises(dg.DiagramError, match="unknown vertex 'a9'"):
        d.index_of("a9")
    with pytest.raises(dg.DiagramError, match="unknown vertex a1"):
        d.vertex(dg.VertexId("a", 1, dg.BETA))


def test_vertex_index_is_not_part_of_the_value():
    d = cl.catalog("D5(a1)")
    assert "_index" not in repr(d) and "_gram" not in repr(d)
    assert d.pattern is not None  # computed and kept, yet not part of the value
    twin = cl.CarterDiagram(d.name, d.vertices, tuple(reversed(d.edges)))
    assert twin == d and hash(twin) == hash(d) and "pattern" not in repr(d)


# -- the Gram matrix, built once -----------------------------------------------

_A1, _A2, _B1 = dg.VertexId("a", 1, dg.ALPHA), dg.VertexId("a", 2, dg.ALPHA), dg.VertexId("b", 1, dg.BETA)


@pytest.mark.parametrize("edges,message", [
    # each edge is checked for its endpoints, a self loop, its sign and a
    # duplicate, in that order, so an edge with several faults names the first
    (((_A1, dg.VertexId("b", 9, dg.BETA), 7),), "edge endpoint not a vertex"),
    (((_A1, _A1, 7),), "self loop at a1"),
    (((_A1, _B1, 7),), "bad edge sign 7"),
    (((_A1, _B1, dg.SOLID), (_B1, _A1, 7)), "bad edge sign 7"),
    (((_A1, _B1, dg.SOLID), (_B1, _A1, dg.DOTTED)), "duplicate edge b1-a1"),
    (((_A1, _B1, dg.SOLID), (_A2, _A2, 7), (_B1, _A1, 7)), "self loop at a2"),
    # a sign equal to -1 or 1 by value but not an int
    (((_A1, _B1, -1.0),), "bad edge sign -1.0"),
    (((_A1, _B1, 1.0),), "bad edge sign 1.0"),
    (((_A1, _B1, dg.SOLID), (_A2, _B1, True)), "bad edge sign True"),
    # a plain tuple equal to the VertexId b1
    (((_A1, ("b", 1, dg.BETA), dg.SOLID),), "edge endpoint not a vertex"),
])
def test_edge_checks_and_their_order(edges, message):
    with pytest.raises(dg.DiagramError, match=f"^x: {message}$"):
        dg.CarterDiagram("x", (_A1, _A2, _B1), edges)


@pytest.mark.parametrize("vertex", ["a1", ("a", 1, dg.ALPHA)])
def test_vertices_must_be_vertex_ids(vertex):
    message = f"x: vertex {vertex!r} is not a VertexId"
    with pytest.raises(dg.DiagramError, match=f"^{re.escape(message)}$"):
        dg.CarterDiagram("x", (vertex,), ())


_ID_RULE = "(want a<k>, b<k>, t<k> or f<k>)"


@pytest.mark.parametrize("vertices,message", [
    ((dg.VertexId("a", 1, "gamma"),), "vertices[0]: color must be 'alpha' or 'beta', got 'gamma'"),
    ((dg.VertexId("a", 1, dg.BETA), dg.VertexId("b", 1, dg.ALPHA)),
     "vertices[0]: id 'a1' conflicts with color 'beta'"),
    ((dg.VertexId("q", 1, dg.ALPHA),), f"vertices[0]: bad id 'q1' {_ID_RULE}"),
    ((dg.VertexId("a", -1, dg.ALPHA),), f"vertices[0]: bad id 'a-1' {_ID_RULE}"),
    ((dg.VertexId("a", True, dg.ALPHA),), f"vertices[0]: bad id 'aTrue' {_ID_RULE}"),
    ((dg.VertexId("t", 1, "gamma"), dg.VertexId("t", 2, "delta")),
     "vertices[0]: color must be 'alpha' or 'beta', got 'gamma'"),
    # checked before the vertex is hashed, which would leak TypeError
    ((dg.VertexId("a", [1], dg.ALPHA),), f"vertices[0]: bad id 'a[1]' {_ID_RULE}"),
], ids=["gamma", "a-beta-b-alpha", "kind-q", "index-minus-one", "index-true", "gamma-delta",
        "index-list"])
def test_vertices_obey_the_json_rules(vertices, message):
    # each vertex obeys the rules from_json reads ids and colors by, so
    # to_json never writes a document that from_json rejects
    edges = ((vertices[0], vertices[1], dg.SOLID),) if len(vertices) > 1 else ()
    with pytest.raises(dg.DiagramError, match=f"^{re.escape(message)}$"):
        dg.CarterDiagram("x", vertices, edges)


@pytest.mark.parametrize("name", [1, None, b"x", "x\ty", 'x"', "x\\"])
def test_names_must_be_printable_text_without_quotes(name):
    message = f'bad diagram name {name!r} (want printable text without " or \\)'
    with pytest.raises(dg.DiagramError, match=f"^{re.escape(message)}$"):
        dg.CarterDiagram(name, (_A1,), ())


def test_duplicate_vertex_names_the_first_repeat():
    # b1 repeats before a1 does
    with pytest.raises(dg.DiagramError, match="^x: duplicate vertex b1$"):
        dg.CarterDiagram("x", (_A1, _B1, _A2, _B1, _A1), ())


def test_construction_lists_every_problem_in_order():
    # a same-color edge that also leaves b1 apart, and t1 listed in both colors
    t1a, t1b = dg.VertexId("t", 1, dg.ALPHA), dg.VertexId("t", 1, dg.BETA)
    with pytest.raises(dg.DiagramError, match="^x: edge a1-a2 joins two alpha vertices; "
                                              "diagram is disconnected; duplicate vertex ids$"):
        dg.CarterDiagram("x", (_A1, _A2, _B1, t1a, t1b),
                         ((_A1, _A2, dg.SOLID), (t1a, t1b, dg.SOLID)))


def _agrees_with_references(d, raw_edges) -> None:
    """d, built from raw_edges, against the edge-scanning references."""
    assert d.edges == ref_normalized_edges(d.vertices, raw_edges)
    assert d.gram() is d.gram()
    assert d.gram() == ref_gram(d)
    assert dg.detect_pattern(d) == d.pattern == ref_detect_pattern(d)
    assert d.search_order is d.search_order
    assert d.search_order == tuple(ref_search_order(d))
    try:
        pc = cl.build_partial_cartan(d)
    except CartanError:
        return
    assert pc.gram is d.gram()


def _shuffled(data, d) -> tuple:
    """d's edges in a drawn order, each pair drawn either way round."""
    edges = data.draw(st.permutations(d.edges))
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return tuple((v, u, s) if f else (u, v, s) for (u, v, s), f in zip(edges, flips))


@settings(max_examples=60, deadline=None)
@given(st.one_of(e8_root_subset_diagrams(), signed_bipartite_diagrams(max_rank=8)), st.data())
def test_gram_rows_agree_with_edge_scans_on_generated_diagrams(d, data):
    raw = _shuffled(data, d)
    _agrees_with_references(cl.CarterDiagram(d.name, d.vertices, raw), raw)


def _catalog_variants():
    """Every catalog diagram, its single-leaf extensions, its single-vertex
    switchings and its color swap: among them D5 and E6(a1) negated at a1,
    E6(a1) negated at b1, and D5, D5(a1) and E7 with the colors swapped."""
    for name in dg.catalog_names():
        d = cl.catalog(name)
        yield d
        yield color_swapped(d)
        for v in d.vertices:
            yield dg.extend(d, v)
            yield switched(d, v)


@pytest.mark.parametrize("d", list(_catalog_variants()), ids=lambda d: d.name)
def test_gram_rows_agree_with_edge_scans_on_catalog_variants(d):
    raw = tuple((v, u, s) for u, v, s in reversed(d.edges))
    _agrees_with_references(cl.CarterDiagram(d.name, d.vertices, raw), raw)
    _agrees_with_references(d, d.edges)


def test_json_reads_back_every_catalog_variant():
    # the constructor accepts only what from_json reads back
    for d in _catalog_variants():
        assert dg.from_json(dg.to_json(d)) == d, d.name


def _assert_connectivity_first(d) -> None:
    """The search order is a permutation, and each vertex after the first
    meets an earlier one, so every prefix induces a connected subdiagram."""
    order, g = d.search_order, d.gram()
    assert sorted(order) == list(range(len(d)))
    for k in range(1, len(order)):
        assert any(g[order[k]][j] for j in order[:k]), (d.name, order[:k + 1])


@pytest.mark.parametrize("name", dg.catalog_names() + LARGE_RANK)
def test_search_order_prefixes_are_connected(name):
    for seed in (None,) + SHUFFLE_SEEDS:
        d = cl.catalog(name) if seed is None else shuffled(cl.catalog(name), seed)
        _assert_connectivity_first(d)
        assert d.search_order == tuple(ref_search_order(d))


@settings(max_examples=60, deadline=None)
@given(st.one_of(e8_root_subset_diagrams(), signed_bipartite_diagrams(max_rank=10)),
       st.randoms(use_true_random=False))
def test_search_order_prefixes_are_connected_on_generated_diagrams(d, rng):
    vertices = list(d.vertices)
    rng.shuffle(vertices)
    _assert_connectivity_first(d)
    _assert_connectivity_first(cl.CarterDiagram(d.name, tuple(vertices), d.edges))


@pytest.mark.parametrize("name", dg.catalog_names() + LARGE_RANK)
def test_building_and_the_cartan_core_leave_the_search_order_uncomputed(name):
    # only the placement searches read the order: the constructor checks
    # connectivity by closure, and the Cartan core eliminates B in vertex order
    d = cl.catalog(name)
    built = [d, dg.from_json(dg.to_json(d)), cl.CarterDiagram(d.name, d.vertices, d.edges),
             shuffled(d, 1)] + [dg.extend(d, v) for v in d.vertices]
    for e in built:
        try:
            cl.build_partial_cartan(e)
        except CartanError:  # most one-leaf extensions
            pass
        assert "search_order" not in e.__dict__, (e.name, e.vertices)
    sys = cl.build_system(cl.build_partial_cartan(d))
    back = orbit.from_json(orbit.to_json(sys))
    for e in (d, sys.pc.diagram, back.pc.diagram):
        assert "search_order" not in e.__dict__


def test_placement_searches_compute_the_search_order_once_and_keep_it():
    d = cl.catalog("E6(a1)")
    assert cl.find_embedding(d, cl.build_root_system("E8")) is not None
    assert "search_order" in d.__dict__ and d.search_order is d.search_order
    d1 = cl.carter_D_ak(6, 2)
    assert cl.find_isomorphism(d1, cl.catalog("D6(a2)")) is not None
    assert "search_order" in d1.__dict__ and d1.search_order is d1.search_order
