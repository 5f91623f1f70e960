"""Acceptance suite: one test per criterion, one printed line per pass.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; each
test asserts exact values (no tolerances anywhere: all arithmetic is exact)
and the stated wall-clock budget.
"""

import time
from fractions import Fraction

import carterlink as cl
from carterlink import roots as rt
from carterlink.linkage import beta_unicolored, form_value, group_by_p
from carterlink.orbit import gamma8_candidates, project_system

from helpers import CATALOG, ambient, inverse_is, labels_in, links_of, pc_of, system_of
from reference_tables import TABLES


def _report(num: int, text: str, t0: float) -> None:
    print(f"ACCEPTANCE {num}: PASS  ({text}; {time.perf_counter() - t0:.2f}s)")


def test_criterion_1_table_fidelity():
    t0 = time.perf_counter()
    for name, (b_rows, den, n_rows) in TABLES.items():
        pc = pc_of(name)
        assert pc.gram == tuple(map(tuple, b_rows)), name
        assert inverse_is(pc, den, n_rows), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"{len(TABLES)} tabled B and B^-1 pairs exact", t0)


def test_criterion_2_counts_and_p_values():
    t0 = time.perf_counter()
    rows = {
        "D4(a1)": ([(1, 8), (1, 8), (1, 8)]),
        "D4": ([(1, 8), (1, 8), (1, 8)]),
        "D5(a1)": ([(1, 10), (Fraction(5, 4), 16), (Fraction(5, 4), 16)]),
        "D5": ([(1, 10), (Fraction(5, 4), 16), (Fraction(5, 4), 16)]),
        "E6(a1)": ([(Fraction(4, 3), 27), (Fraction(4, 3), 27)]),
        "E6(a2)": ([(Fraction(4, 3), 27), (Fraction(4, 3), 27)]),
        "E6": ([(Fraction(4, 3), 27), (Fraction(4, 3), 27)]),
        "D6(a1)": ([(1, 12), (Fraction(3, 2), 32), (Fraction(3, 2), 32)]),
        "D6(a2)": ([(1, 12), (Fraction(3, 2), 32), (Fraction(3, 2), 32)]),
        "D6": ([(1, 12), (Fraction(3, 2), 32), (Fraction(3, 2), 32)]),
        "E7(a1)": ([(Fraction(3, 2), 56)]),
        "E7(a2)": ([(Fraction(3, 2), 56)]),
        "E7(a3)": ([(Fraction(3, 2), 56)]),
        "E7(a4)": ([(Fraction(3, 2), 56)]),
        "E7": ([(Fraction(3, 2), 56)]),
        "D7(a1)": ([(1, 14), (Fraction(7, 4), 64), (Fraction(7, 4), 64)]),
        "D7(a2)": ([(1, 14), (Fraction(7, 4), 64), (Fraction(7, 4), 64)]),
        "D7": ([(1, 14), (Fraction(7, 4), 64), (Fraction(7, 4), 64)]),
    }
    checked = 0
    for name, expected in rows.items():
        s = system_of(name)
        got = sorted((p, len(c)) for p, c in zip(s.component_p, s.components))
        assert got == sorted(expected), name
        checked += 1
    for l in range(8, 13):
        families = [cl.dynkin_D(l)] + [
            cl.carter_D_ak(l, k) for k in range(1, (l - 2) // 2 + 1)]
        for d in families:
            s = cl.build_system(cl.build_partial_cartan(d))
            assert [len(c) for c in s.components] == [2 * l], d.name
            assert s.component_p == (Fraction(1),), d.name
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, f"{checked} table rows reproduced", t0)


def test_criterion_3_loctet_counts():
    t0 = time.perf_counter()
    expected = {"D5(a1)": 5, "D6(a1)": 9, "D6(a2)": 9,
                "E6(a1)": 6, "E6(a2)": 6,
                "E7(a1)": 6, "E7(a2)": 6, "E7(a3)": 6, "E7(a4)": 6}
    for name, count in expected.items():
        assert len(system_of(name).loctets) == count, name
    for name in ("D4", "D4(a1)"):
        s = system_of(name)
        assert len(s.components) == 3 and len(s.loctets) == 3
        comp_sets = {frozenset(s.nodes[i] for i in c) for c in s.components}
        assert {frozenset(loc.members) for loc in s.loctets} == comp_sets
    for l in range(8, 13):
        for k in range(1, (l - 2) // 2 + 1):
            s = cl.build_system(cl.build_partial_cartan(cl.carter_D_ak(l, k)))
            assert len(s.loctets) == 1, (l, k)
    _report(3, "loctet counts match every figure caption", t0)


def test_criterion_4_worked_example_sets():
    t0 = time.perf_counter()
    pc = pc_of("E6(a1)")
    assert set(gamma8_candidates(pc, "L12")) == {(0, 0, 1, 0, 0, -1),
                                                 (0, 0, 1, 0, -1, -1)}
    assert set(gamma8_candidates(pc, "L13")) == {(0, 1, 0, 0, 0, 0),
                                                 (0, 1, 0, 0, 1, -1)}
    six = {(0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, -1),
           (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, -1, 0),
           (0, 0, 0, 0, 1, -1), (0, 0, 0, 0, -1, 1)}
    for name in ("E6(a1)", "E6(a2)"):
        rep = beta_unicolored(cl.catalog(name), links_of(name))
        assert set(rep.members) == six, name
    eight = {(0, 0, 0, 0, 1, -1, 0), (0, 0, 0, 0, -1, 1, 0),
             (0, 0, 0, 0, 0, 1, -1), (0, 0, 0, 0, 0, -1, 1),
             (0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0, -1),
             (0, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, -1, 0, 0)}
    rep = beta_unicolored(cl.catalog("E7(a1)"), links_of("E7(a1)"))
    assert set(rep.members) == eight
    _report(4, "gamma(8) and beta-unicolored sets match the worked examples", t0)


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    for name in CATALOG:
        assert set(labels_in(name, "E8").labels) == set(links_of(name)), name
    for l in (5, 6, 7):
        for k in range(1, (l - 2) // 2 + 1):
            d = cl.carter_D_ak(l, k)
            pc = cl.build_partial_cartan(d)
            emb = cl.find_embedding(d, ambient(f"D{l + 1}"))
            dl = cl.direct_linkage_labels(emb)
            p1 = next(s for s in group_by_p(pc, cl.enumerate_linkages(pc)) if s.p == 1)
            assert set(dl.labels) == set(p1.members), (l, k)
    # the bare square realizes exactly one full 8-node component in D5
    dl = labels_in("D4(a1)", "D5")
    s = system_of("D4(a1)")
    assert frozenset(dl.labels) in {frozenset(s.nodes[i] for i in c)
                                    for c in s.components}
    # subset law in other ambients
    for name in CATALOG:
        emb = cl.find_embedding(cl.catalog(name), ambient("E7"))
        if emb is not None:
            assert set(cl.direct_linkage_labels(emb).labels) <= set(links_of(name))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(5, "direct labels match enumeration in E8 and D-type ambients", t0)


def test_criterion_6_negative_results():
    t0 = time.perf_counter()
    assert links_of("E8") == ()
    for n in range(6, 11):
        assert cl.find_embedding(cl.catalog("E6"), ambient(f"D{n}")) is None, n
    _report(6, "E8 linkage set empty; E6 embeds in no D_n (n = 6..10)", t0)


def _chain_ends(d):
    fs = [v for v in d.vertices if v.kind == "f"]
    ts = [v for v in d.vertices if v.kind == "t"]
    return [fs[-1] if fs else d.vertex("b1"), ts[-1] if ts else d.vertex("b2")]


def test_criterion_7_projection_theorem():
    t0 = time.perf_counter()
    rep = project_system(system_of("D6(a1)"), "b3", pc_of("D5(a1)"))
    assert len(rep.kernel) == 2
    assert sorted(len(v) for v in rep.fibers().values()) == [1, 2, 2, 2, 2]
    ext_loctets = system_of("D6(a1)").loctets
    for ei, bi in rep.loctet_pairs:
        assert ext_loctets[ei].kind == rep.base_system.loctets[bi].kind
    for ext in ("E7(a1)", "E7(a2)"):
        rep = project_system(system_of(ext), "b4", pc_of("E6(a1)"))
        assert len(rep.kernel) == 2 and len(rep.loctet_pairs) == 6
    for l in range(6, 11):
        for k in (1, 2):
            if k > (l - 1) - 3:
                continue
            base = cl.carter_D_ak(l - 1, k)
            target = cl.carter_D_ak(l, k)
            ext = next(cl.extend(base, at) for at in _chain_ends(base)
                       if cl.isomorphic(cl.extend(base, at), target))
            ext_sys = cl.build_system(cl.build_partial_cartan(ext))
            rep = project_system(ext_sys, ext.vertices[-1],
                                 cl.build_partial_cartan(base))
            assert len(rep.kernel) == 2, (l, k)
    _report(7, "projections verified incl. the 2:1 loctet collapse onto D5(a1)", t0)


def test_criterion_8_weight_systems():
    t0 = time.perf_counter()
    for vertex in ("b2", "b3"):
        orb = cl.weight_orbit(pc_of("E6"), vertex)
        assert len(orb) == 27
        s = system_of("E6")
        comps = {frozenset(s.nodes[i] for i in c) for c in s.components}
        assert frozenset(orb) in comps
    assert len(cl.weight_orbit(pc_of("E7"), "a4")) == 56
    for l in range(4, 13):
        pc = cl.build_partial_cartan(cl.dynkin_D(l))
        vec = next(v for v in pc.diagram.vertices if cl.inverse_diagonal(pc, v) == 1)
        orb = cl.weight_orbit(pc, vec)
        assert len(orb) == 2 * l, l
        s = cl.build_system(pc)
        comps = {frozenset(s.nodes[i] for i in c) for c in s.components}
        assert frozenset(orb) in comps, l
    _report(8, "weight orbits are 27/56/2l and equal linkage components", t0)


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    for name in CATALOG:
        pc = pc_of(name)
        nodes = set(links_of(name))
        alphas = [i for i, v in enumerate(pc.diagram.vertices) if v.color == "alpha"]
        betas = [i for i, v in enumerate(pc.diagram.vertices) if v.color == "beta"]
        assert {tuple(-x for x in v) for v in nodes} == nodes, name
        for v in nodes:
            assert sum(v[i] != 0 for i in alphas) <= 3
            assert sum(v[i] != 0 for i in betas) <= 3
            for t in pc.diagram.vertices:
                w = cl.dual_reflect(pc, t, v)
                assert w in nodes
                assert cl.dual_reflect(pc, t, w) == v
                assert form_value(pc, w) == form_value(pc, v)
        s = system_of(name)
        membership: dict = {}
        for i, loc in enumerate(s.loctets):
            for m in loc.members:
                assert m not in membership, "overlapping loctets"
                membership[m] = i
        assert set(s.unicolored) | set(membership) == set(s.nodes)
        if pc.diagram.pattern is not None:
            pat = [pc.diagram.index_of(v) for v in pc.diagram.pattern[:3]]
            for v in s.nodes:
                assert any(v[i] != 0 for i in pat) == (v in membership)
    for name in ("D5(a1)", "E6(a1)"):
        dl = labels_in(name, "E8")
        audit = rt.square_diagonal_audit(dl, dl.embedding)
        assert audit.checked > 0
    for l in range(1, 13):
        assert cl.build_partial_cartan(cl.catalog(f"A{l}")).det == l + 1
    for l in range(4, 13):
        assert cl.build_partial_cartan(cl.dynkin_D(l)).det == 4
        for k in range(1, l - 2):
            assert cl.build_partial_cartan(cl.carter_D_ak(l, k)).det == 4
    _report(9, "involution, closure, endpoint, partition, audit, determinant laws", t0)
