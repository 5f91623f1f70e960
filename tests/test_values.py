"""The value classes of the package: equal values compare and hash equal,
the repr is the text the package has always printed, assigning or deleting
a field raises AttributeError, and a named tuple's ``_replace`` gives an
equal value.

The records are named tuples; the classes that validate, derive or cache
(and ``ExtensionSet``, whose length is its member count) are plain classes,
and ``diagram._Value`` writes their value methods once.
"""

import pytest

import carterlink as cl
from carterlink import cartan, diagram as dg, linkage, orbit, roots as rt

# RootSystem compares by identity, so both copies of the values share these
_AMBIENT = {name: cl.build_root_system(name) for name in ("A1", "A2")}


def _values():
    """One instance of each value class, built afresh on every call."""
    a1, a2 = cl.catalog("A1"), cl.catalog("A2")
    pc1, pc2 = cl.build_partial_cartan(a1), cl.build_partial_cartan(a2)
    vectors = cl.enumerate_linkages(pc2)
    system = cl.build_system(pc2)
    e11 = cl.find_embedding(a1, _AMBIENT["A1"])
    e12 = cl.find_embedding(a1, _AMBIENT["A2"])
    dl12 = rt.direct_linkage_labels(e12)
    return {
        dg.VertexId: dg.VertexId("a", 1, dg.ALPHA),
        dg.CarterDiagram: a2,
        cartan.PartialCartan: pc2,
        linkage.ExtensionSet: cl.group_by_p(pc2, vectors)[0],
        linkage.BetaUnicolored: cl.beta_unicolored(a2, vectors),
        orbit.Loctet: cl.build_system(cl.build_partial_cartan(cl.catalog("D4(a1)"))).loctets[0],
        orbit.LinkageSystem: system,
        orbit.ProjectionReport: cl.project_system(system, "b1", pc1),
        rt.Embedding: e11,
        rt.RealizedLinkage: dl12.realized[0],
        rt.DirectLabels: rt.direct_linkage_labels(e11),
        rt.LawsReport: rt.check_projection_laws(dl12, e12),
        rt.SquareAudit: rt.square_diagonal_audit(dl12, e12),
        rt.IndependenceReport: cl.embedding_independence(a1, _AMBIENT["A2"], 2),
    }


_FIRST, _SECOND = _values(), _values()

_A = "VertexId(kind='a', index=1, color='alpha')"
_B = "VertexId(kind='b', index=1, color='beta')"
_PC1 = (f"PartialCartan(diagram=CarterDiagram(name='A1', vertices=({_A},), edges=()), "
        "det=Fraction(2, 1))")
_A2 = f"CarterDiagram(name='A2', vertices=({_A}, {_B}), edges=(({_A}, {_B}, -1),))"
_PC2 = f"PartialCartan(diagram={_A2}, det=Fraction(3, 1))"
_E11 = f"Embedding(pc={_PC1}, ambient=RootSystem(A1, 2 roots), idx=(0,))"
_VECTORS = "((-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0))"

# class -> (a field, the repr of its instance in ``_values``)
VALUES = {
    dg.VertexId: ("kind", _A),
    dg.CarterDiagram: ("name", _A2),
    cartan.PartialCartan: ("det", _PC2),
    linkage.ExtensionSet: ("p", f"ExtensionSet(p=Fraction(2, 3), members={_VECTORS})"),
    linkage.BetaUnicolored: ("center", f"BetaUnicolored(members=((0, -1), (0, 1)), center={_B}, "
                                       "center_label_always_zero=False)"),
    orbit.Loctet: ("kind", "Loctet(kind='D4', members=((-1, -1, 0, 1), (-1, 1, 1, 0), "
                           "(0, 0, -1, 0), (0, 0, 0, -1), (0, 0, 0, 1), (0, 0, 1, 0), "
                           "(1, -1, -1, 0), (1, 1, 0, -1)))"),
    orbit.LinkageSystem: ("nodes", (
        f"LinkageSystem(pc={_PC2}, nodes={_VECTORS}, edges=((0, 4, 'a1'), (1, 2, 'b1'), "
        "(1, 5, 'a1'), (3, 4, 'b1')), components=((0, 3, 4), (1, 2, 5)), "
        f"component_p=(Fraction(2, 3), Fraction(2, 3)), loctets=(), unicolored={_VECTORS})")),
    orbit.ProjectionReport: ("kernel", (
        f"ProjectionReport(dropped={_B}, attach={_A}, base_system=LinkageSystem(pc={_PC1}, "
        "nodes=((-1,), (1,)), edges=((0, 1, 'a1'),), components=((0, 1),), "
        "component_p=(Fraction(1, 2),), loctets=(), unicolored=((-1,), (1,))), "
        "kernel=((0, -1), (0, 1)), image_count=4, distinct_images=2, loctet_pairs=())")),
    rt.Embedding: ("doubled", _E11),
    rt.RealizedLinkage: ("labels", "RealizedLinkage(index=1, labels=(1,))"),
    rt.DirectLabels: ("labels", f"DirectLabels(embedding={_E11}, realized=(), labels=())"),
    rt.LawsReport: ("orbit_count", (
        "LawsReport(p_classes=((Fraction(1, 2), 4),), orbit_count=1, "
        "orbits=((Fraction(1, 2), Fraction(3, 2), 4),), mirror_roots=4)")),
    rt.SquareAudit: ("checked", "SquareAudit(checked=0, with_diagonal=0, without_diagonal=0)"),
    rt.IndependenceReport: ("embeddings", "IndependenceReport(embeddings=2, labels=((-1,), (1,)), "
                                          "label_sets=(((-1,), (1,)),))"),
}

NAMED_TUPLES = {dg.VertexId, linkage.BetaUnicolored, orbit.Loctet, orbit.ProjectionReport,
                rt.RealizedLinkage, rt.DirectLabels, rt.LawsReport, rt.SquareAudit,
                rt.IndependenceReport}


def test_the_table_covers_every_value_class():
    # every public class of the package but the exceptions and RootSystem,
    # which compares by identity
    found = {c for m in (dg, cartan, linkage, orbit, rt) for c in vars(m).values()
             if isinstance(c, type) and c.__module__ == m.__name__
             and not c.__name__.startswith("_") and not issubclass(c, Exception)
             and c is not rt.RootSystem}
    assert found == set(VALUES)


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_value_semantics(cls):
    field, text = VALUES[cls]
    a, b = _FIRST[cls], _SECOND[cls]
    assert type(a) is cls and a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == text
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b
    assert isinstance(a, tuple) == (cls in NAMED_TUPLES)
    if cls in NAMED_TUPLES:
        assert a._replace(**{field: getattr(b, field)}) == a
    else:  # __eq__ answers NotImplemented to another class, and so does a tuple
        assert a.__eq__(a._fields()) is NotImplemented and a != a._fields()


def test_the_plain_classes_take_their_value_methods_from_one_base():
    plain = set(VALUES) - NAMED_TUPLES
    assert len(plain) == 5 and all(issubclass(c, dg._Value) for c in plain)
    for cls in plain:
        own = {"__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"} & set(vars(cls))
        assert not own, (cls.__name__, own)


def test_extension_set_length_is_its_member_count():
    es = _FIRST[linkage.ExtensionSet]
    assert len(es) == len(es.members) == 6


def test_vertex_ids_order_as_kind_index_color():
    vs = [dg.VertexId("b", 1, dg.BETA), dg.VertexId("a", 10, dg.ALPHA),
          dg.VertexId("a", 2, dg.ALPHA), dg.VertexId("a", 2, dg.BETA)]
    assert [str(v) for v in sorted(vs)] == ["a2", "a2", "a10", "b1"]
    assert sorted(vs)[:2] == [vs[2], vs[3]] and vs[2] < vs[3]
    assert dg.VertexId("t", 3, dg.BETA).id == "t3"
