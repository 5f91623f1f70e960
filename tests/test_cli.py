import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import carterlink as cl
from carterlink import diagram as dg
from carterlink import orbit
from carterlink import roots as rt
from carterlink.cartan import CartanError
from carterlink.cli import _vec, main

from helpers import CATALOG, ref_det, shuffled, switched, system_of
from reference_tables import TABLES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_lists_names(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "D4(a1)" in out and "E7(a4)" in out and "E8" in out


def test_catalog_bounds_follow_max_rank(capsys, monkeypatch):
    monkeypatch.setattr(dg, "MAX_RANK", 9)
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert out.endswith("A<l>            for 1 <= l <= 9\n"
                        "D<l>            for 4 <= l <= 9\n"
                        "D<l>(a<k>)      for 4 <= l <= 9, 1 <= k <= l-3\n")


def test_cartan_det(capsys):
    code, out, _ = run(capsys, "cartan", "D4(a1)", "--det")
    assert code == 0
    assert "det = 4" in out


def test_cartan_inverse_prefix(capsys):
    code, out, _ = run(capsys, "cartan", "E6a1", "--inverse")
    assert code == 0
    assert "(1/3) *" in out


def test_linkages_count(capsys):
    code, out, _ = run(capsys, "linkages", "E6(a1)")
    assert code == 0
    assert "54 linkage vectors" in out


def test_linkages_group_by_p(capsys):
    code, out, _ = run(capsys, "linkages", "D5(a1)", "--group-by-p")
    assert code == 0
    assert "p = 1: 10 vectors" in out
    assert "p = 5/4: 32 vectors" in out


def test_linkages_beta_unicolored(capsys):
    code, out, _ = run(capsys, "linkages", "E7(a1)", "--beta-unicolored")
    assert code == 0
    assert "beta-unicolored: 8" in out


def test_system_summary(capsys):
    code, out, _ = run(capsys, "system", "E6(a1)")
    assert code == 0
    assert "nodes: 54" in out and "components: 2" in out and "loctets: 6" in out


def test_system_json_roundtrip(capsys):
    code, out, _ = run(capsys, "system", "E6(a1)", "--format", "json")
    assert code == 0
    back = orbit.from_json(out)
    assert len(back.nodes) == 54


def test_system_dot(capsys):
    code, out, _ = run(capsys, "system", "D4(a1)", "--format", "dot")
    assert code == 0
    assert out.startswith('graph "D4(a1)"')


def test_system_out_file(tmp_path, capsys):
    target = tmp_path / "sys.json"
    code, _, _ = run(capsys, "system", "D4", "--format", "json", "--out", str(target))
    assert code == 0
    assert len(orbit.from_json(target.read_text()).nodes) == 24


def test_system_summary_out_file(tmp_path, capsys):
    target = tmp_path / "summary.txt"
    code, out, err = run(capsys, "system", "E6(a1)", "--out", str(target))
    assert (code, out, err) == (0, "", "")
    _, summary, _ = run(capsys, "system", "E6(a1)")
    assert target.read_text() == summary
    assert summary.startswith("linkage system of E6(a1)\n")


def test_linkages_views_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["linkages", "E7(a1)", "--group-by-p", "--beta-unicolored"])
    out = capsys.readouterr()
    assert exc.value.code == 1
    assert out.out == ""
    assert "not allowed with argument" in out.err


def test_loctets_lists_candidates(capsys):
    code, out, _ = run(capsys, "loctets", "E6(a1)")
    assert code == 0
    assert "L12: 2 gamma(8) candidates" in out
    assert "gamma(8) = (0,0,1,0,0,-1)" in out


def test_extendable(capsys):
    code, out, _ = run(capsys, "extendable", "E6(a1)")
    assert code == 0
    assert "b2: (B^-1)_vv = 4/3  ->  extendable" in out
    assert "b1: (B^-1)_vv = 10/3  ->  not extendable" in out


def test_project(capsys):
    code, out, _ = run(capsys, "project", "D6(a1)", "D5(a1)", "--vertex", "b3")
    assert code == 0
    assert "kernel: (0,0,0,0,0,-1), (0,0,0,0,0,1)" in out


def test_verify_e8_empty(capsys):
    code, out, _ = run(capsys, "verify", "E8")
    assert code == 0
    assert "0 enumerated linkage vectors" in out


def test_verify_e6a1(capsys):
    code, out, _ = run(capsys, "verify", "E6(a1)", "--ambient", "E8")
    assert code == 0
    assert "distinct direct labels: 54" in out
    assert "0 violations" in out


def test_plain_verify_prints_no_label_set_line(capsys):
    # with one trial, the default, verify reads one embedding, so it says
    # nothing of label sets
    for trials in ([], ["--trials", "1"]):
        assert run(capsys, "verify", "D5", *trials) == (0, (
            "D5: 42 enumerated linkage vectors\n"
            "embedded D5 into E8\n"
            "  distinct direct labels: 42 (of 42 enumerated)\n"
            "  realized components: 3 of 3\n"
            "  projection laws hold; p = 1 (60), p = 5/4 (128); 7 extension orbits\n"
            "  square audit: 120 squares, 60 with diagonal, 60 without, 0 violations\n"), "")


def test_verify_no_embedding(capsys):
    code, out, _ = run(capsys, "verify", "E6", "--ambient", "D8")
    assert code == 0
    assert "no embedding" in out


def test_verify_chain_diagram(capsys):
    code, out, _ = run(capsys, "verify", "A3", "--ambient", "A5")
    assert code == 0
    assert "realized components: 2 of 3" in out
    assert "chain" not in out


def test_system_chain_diagram(capsys):
    code, out, err = run(capsys, "system", "A4")
    assert code == 0 and err == ""
    assert "components: 4" in out and "loctets: 0" in out and "outside loctets: 30" in out
    code, _, err = run(capsys, "loctets", "A4")
    assert code == 1 and "pattern" in err


def test_switched_diagram_is_checked_like_its_catalog_twin(capsys, tmp_path):
    # D5 with the root a1 negated: no pattern, so no loctets, but verify
    # still checks the components and the E8 equality
    doc = json.loads(dg.to_json(cl.catalog("D5")))
    for e in doc["edges"]:
        if "a1" in (e["u"], e["v"]):
            e["sign"] = "dotted"
    path = tmp_path / "d5_a1_negated.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "realized components: 3 of 3" in out and "chain" not in out
    code, out, _ = run(capsys, "system", str(path))
    assert code == 0 and "loctets: 0" in out
    code, _, err = run(capsys, "loctets", str(path))
    assert code == 1 and "pattern" in err


def test_verify_of_a_shuffled_file_prints_what_verify_of_the_name_prints(capsys, tmp_path):
    # the extension orbits are counted per embedding class, not per vertex order
    path = tmp_path / "d7a1_shuffled.json"
    path.write_text(dg.to_json(shuffled(cl.catalog("D7(a1)"), 1)))
    assert run(capsys, "verify", str(path)) == run(capsys, "verify", "D7(a1)")


def test_weights(capsys):
    code, out, _ = run(capsys, "weights", "E6", "--vertex", "b2")
    assert code == 0
    assert "27 vectors" in out


def test_usage_error_exit_1(capsys):
    code, _, err = run(capsys, "cartan", "F4")
    assert code == 1
    assert "error" in err


def test_json_file_source(tmp_path, capsys):
    for name in ("d.json", "d4a1"):  # a file that exists is read, whatever its name
        path = tmp_path / name
        path.write_text(dg.to_json(cl.catalog("D4(a1)")))
        code, out, _ = run(capsys, "linkages", str(path))
        assert (code, out.splitlines()[0]) == (0, "D4(a1): 24 linkage vectors")


def test_a_missing_json_file_is_an_os_error(tmp_path, capsys):
    # a name ending in .json is a path, never a catalog name
    path = tmp_path / "x.json"
    code, out, err = run(capsys, "cartan", str(path))
    assert (code, out, err) == (1, "", f"error: [Errno 2] No such file or directory: '{path}'\n")


def test_bad_json_file_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "vertices": [], "edges": [], "junk": 1}')
    code, _, err = run(capsys, "linkages", str(path))
    assert code == 1
    assert "unknown key" in err


def test_empty_diagram_exit_1(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"name": "x", "vertices": [], "edges": []}')
    code, out, err = run(capsys, "cartan", str(path))
    assert (code, out, err) == (1, "", "error: x: diagram has no vertices\n")


_D4 = json.loads(dg.to_json(cl.catalog("D4")))
_D4_VERTICES = _D4["vertices"]


def _d4_with(**changes):
    """The D4 diagram JSON with some of its keys replaced or, given None, dropped."""
    return {k: v for k, v in {**_D4, **changes}.items() if v is not None}


def _d4_with_edge(**changes):
    """The D4 diagram JSON with some keys of its first edge replaced."""
    return _d4_with(edges=[{**_D4["edges"][0], **changes}] + _D4["edges"][1:])


def _d4_with_id(vid):
    """The D4 diagram JSON with ``vid`` in place of the id of its first vertex, a1."""
    return _d4_with(vertices=[{"id": vid, "color": "alpha"}] + _D4_VERTICES[1:])


_QUOTED_NAME = 'D4 "x\\" y'
_NAME_RULE = '(want printable text without " or \\)'


def _e6a1_with_b3_dotted():
    doc = json.loads(dg.to_json(cl.catalog("E6(a1)")))
    next(e for e in doc["edges"] if "b3" in (e["u"], e["v"]))["sign"] = "dotted"
    return doc


def _solid_4_cycle():
    """The 4-cycle a1-b1-a2-b2 with every edge solid: a Carter diagram whose
    form is not positive definite."""
    return {"name": "C4",
            "vertices": [{"id": v, "color": "alpha" if v[0] == "a" else "beta"}
                         for v in ("a1", "a2", "b1", "b2")],
            "edges": [{"u": a, "v": b, "sign": "solid"}
                      for a in ("a1", "a2") for b in ("b1", "b2")]}


# (command, document for its first argument, rest of the command, error line)
INPUT_REJECTIONS = {
    "not-an-object": ("cartan", [1, 2], (), "diagram JSON must be an object"),
    "missing-edges": ("cartan", _d4_with(edges=None), (), "diagram JSON is missing 'edges'"),
    "bad-color": ("cartan", _d4_with(vertices=[{"id": "a1", "color": "red"}] + _D4_VERTICES[1:]),
                  (), "vertices[0]: color must be 'alpha' or 'beta', got 'red'"),
    "bad-vertex-id": ("cartan", _d4_with_id("x1"), (),
                      "vertices[0]: bad id 'x1' (want a<k>, b<k>, t<k> or f<k>)"),
    "edge-to-unknown-vertex": ("cartan", _d4_with(edges=[{"u": "a1", "v": "b9", "sign": "solid"}]),
                               (), "edges[0]: unknown vertex 'b9'"),
    "vertex-not-an-object": ("cartan", _d4_with(vertices=["a1"] + _D4_VERTICES[1:]),
                             (), "vertices[0] must be an object"),
    "vertex-without-color": ("cartan", _d4_with(vertices=[{"id": "a1"}] + _D4_VERTICES[1:]),
                             (), "vertices[0] is missing 'color'"),
    "edge-without-sign": ("cartan", _d4_with(edges=[{"u": "a1", "v": "b1"}] + _D4["edges"][1:]),
                          (), "edges[0] is missing 'sign'"),
    "repeated-vertex": ("cartan", _d4_with(vertices=_D4_VERTICES + _D4_VERTICES[:1]),
                        (), "D4: duplicate vertex a1"),
    "same-color-edge": ("cartan", _d4_with(edges=_D4["edges"] + [{"u": "a1", "v": "a2",
                                                                  "sign": "solid"}]),
                        (), "D4: edge a1-a2 joins two alpha vertices"),
    "disconnected": ("cartan", _d4_with(edges=_D4["edges"][:2]), (), "D4: diagram is disconnected"),
    "project-dotted-leaf": ("project", _e6a1_with_b3_dotted(), ("D5(a1)", "--vertex", "b3"),
                            "b3 is not a simple-extension leaf"),
    # inputs outside the projection's hypotheses, which exited 2 as if a claim had failed
    "project-leaf-not-a-linkage": (
        "project", json.loads(dg.to_json(cl.catalog("E8"))), ("E7", "--vertex", "b4"),
        "projection needs (B^-1)_vv < 3/2 at the attach vertex; E7 has (B^-1)_vv = 3/2 at a4"),
    "project-base-without-pattern": (
        "project", json.loads(dg.to_json(cl.catalog("D4"))), ("A3", "--vertex", "a3"),
        "projection needs a pattern in the base when the extension has one; "
        "D4 has one, A3 has none"),
    "verify-ambient-above-max-rank": (
        "verify", json.loads(dg.to_json(cl.catalog("A3"))), ("--ambient", f"D{dg.MAX_RANK + 1}"),
        f"D_n supports 2 <= n <= {dg.MAX_RANK}, got {dg.MAX_RANK + 1}"),
    "verify-ambient-empty": ("verify", json.loads(dg.to_json(cl.catalog("A3"))), ("--ambient", ""),
                             "unsupported root system ''"),
    "verify-ambient-unknown": ("verify", json.loads(dg.to_json(cl.catalog("A3"))),
                               ("--ambient", "X9"), "unsupported root system 'X9'"),
    "system-out-empty": ("system", _D4, ("--out", ""),
                         "[Errno 2] No such file or directory: ''"),
    # a list or object where an edge needs a string
    "edge-u-list": ("cartan", _d4_with_edge(u=["a1"]), (), "edges[0]: unknown vertex ['a1']"),
    "edge-u-object": ("cartan", _d4_with_edge(u={"id": "a1"}), (),
                      "edges[0]: unknown vertex {'id': 'a1'}"),
    "edge-v-list": ("cartan", _d4_with_edge(v=["b1"]), (), "edges[0]: unknown vertex ['b1']"),
    "edge-v-object": ("cartan", _d4_with_edge(v={"id": "b1"}), (),
                      "edges[0]: unknown vertex {'id': 'b1'}"),
    "edge-sign-list": ("cartan", _d4_with_edge(sign=["solid"]), (),
                       "edges[0]: sign must be 'solid' or 'dotted', got ['solid']"),
    "edge-sign-object": ("cartan", _d4_with_edge(sign={"solid": 1}), (),
                         "edges[0]: sign must be 'solid' or 'dotted', got {'solid': 1}"),
    # ids that are not the id of the vertex read from them, and a name that is no string
    "vertex-id-trailing-newline": ("cartan", _d4_with_id("a1\n"), (),
                                   "vertices[0]: bad id 'a1\\n' (want a<k>, b<k>, t<k> or f<k>)"),
    "vertex-id-arabic-indic-digit": (
        "cartan", _d4_with_id("a\u0661"), (),
        "vertices[0]: bad id 'a\u0661' (want a<k>, b<k>, t<k> or f<k>)"),
    "vertex-id-leading-zero": ("cartan", _d4_with_id("a01"), (),
                               "vertices[0]: bad id 'a01' (want a<k>, b<k>, t<k> or f<k>)"),
    "name-not-a-string": ("cartan", _d4_with(name={"k": 1}), (),
                          "diagram JSON: 'name' must be a string, got {'k': 1}"),
    # names that the DOT graph and the first line of ``system`` could not quote
    "name-with-quotes": ("system", _d4_with(name=_QUOTED_NAME), ("--format", "dot"),
                         f"bad diagram name {_QUOTED_NAME!r} {_NAME_RULE}"),
    "name-with-a-newline": ("system", _d4_with(name="D4\nz"), (),
                            f"bad diagram name 'D4\\nz' {_NAME_RULE}"),
    "not-positive-definite": ("cartan", _solid_4_cycle(), (),
                              "C4: the partial Cartan matrix is not positive definite"),
}


@pytest.mark.parametrize("case", INPUT_REJECTIONS)
def test_cli_rejects_bad_input(case, tmp_path, capsys):
    command, doc, rest, message = INPUT_REJECTIONS[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, command, str(path), *rest) == (1, "", f"error: {message}\n")


def test_diagram_json_cli_roundtrip(tmp_path, capsys):
    # the JSON printed for a diagram parses back to an equal diagram
    d = cl.catalog("E7(a3)")
    path = tmp_path / "e7a3.json"
    path.write_text(dg.to_json(d))
    code, out, _ = run(capsys, "system", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    back = dg.from_json(json.dumps(doc["diagram"]))
    assert back.edges == d.edges


def test_missing_subcommand_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


# --trials value: the reason argparse's error line gives
_BAD_TRIALS = {"0": "must be at least 1, got 0", "-3": "must be at least 1, got -3",
               "abc": "invalid int value: 'abc'"}


@pytest.mark.parametrize("trials", _BAD_TRIALS)
def test_verify_rejects_trials_below_1(capsys, trials):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "D4(a1)", "--trials", trials])
    out = capsys.readouterr()
    assert exc.value.code == 1
    assert out.out == ""
    assert out.err.endswith(f"\nerror: argument --trials: {_BAD_TRIALS[trials]}\n")


def test_verify_bad_ambient_prints_nothing(capsys):
    code, out, err = run(capsys, "verify", "D4(a1)", "--ambient", "E9")
    assert code == 1
    assert out == ""
    assert "E9" in err


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports carterlink from src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), check=True)


def test_cli_import_does_not_load_numpy():
    _run_fresh("import carterlink.cli, sys; assert 'numpy' not in sys.modules")


@pytest.mark.parametrize("module", ["carterlink.cli", "carterlink"])
def test_import_does_not_load_dataclasses_or_inspect(module):
    # importing dataclasses, which imports inspect, cost each CLI call about 10 ms
    _run_fresh(f"import {module}, sys; loaded = {{'dataclasses', 'inspect'}} & set(sys.modules); "
               "assert not loaded, loaded")


def _grid(rows):
    cells = [[str(x) for x in row] for row in rows]
    width = max(len(x) for row in cells for x in row)
    return ["  [ " + "  ".join(x.rjust(width) for x in row) + " ]" for row in cells]


@pytest.mark.parametrize("name", CATALOG)
def test_cartan_inverse_det_matches_reference_tables(capsys, name):
    b_rows, den, n_rows = TABLES[name]
    ids = ", ".join(v.id for v in cl.catalog(name).vertices)
    want = [f"B_L of {name}  (vertices: {ids})", *_grid(b_rows), "inverse:",
            *([f"(1/{den}) *"] if den > 1 else []), *_grid(n_rows),
            f"det = {ref_det(b_rows)}"]
    code, out, err = run(capsys, "cartan", name, "--inverse", "--det")
    assert (code, err) == (0, "")
    assert out == "\n".join(want) + "\n"


def test_rank_7_diagrams_are_a7_exactly_when_det_is_8():
    # verify reads A7 from det B; the table: the rank-6 names extended at every
    # vertex, and the rank-7 names with a shuffle and every single-vertex switching
    names = [n for n in dg.catalog_names() + ["A6", "A7"] if len(cl.catalog(n)) in (6, 7)]
    ds = []
    for d in map(cl.catalog, names):
        if len(d) == 6:
            ds += [dg.extend(d, v) for v in d.vertices]
        else:
            ds += [d, shuffled(d, 1)] + [switched(d, v) for v in d.vertices]
    pcs = []
    for d in ds:
        try:
            pcs.append(cl.build_partial_cartan(d))
        except CartanError:
            pass
    a7 = cl.catalog("A7")
    assert len(pcs) == 108 and sum(pc.det == 8 for pc in pcs) == 11
    for pc in pcs:
        assert dg.isomorphic(pc.diagram, a7) == (pc.det == 8), pc.diagram.name


@pytest.mark.parametrize("argv", [("A7",), ("D6(a1)", "--ambient", "E7")])
def test_verify_accepts_several_embedding_classes(capsys, argv):
    # A7 in E8 and D6(a1) in E7 each embed in two classes with different
    # label sets; outside the E8 equality claim that is not a failure
    code, out, err = run(capsys, "verify", *argv, "--trials", "3")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == (
        "  distinct label sets: 2 across 3 embeddings, each inside the enumerated set")


def test_verify_label_sets_must_agree_under_e8_equality(capsys, monkeypatch):
    # a second class realizing one whole component of E6(a1): each set is held
    # to the E8 equality, so the second fails it
    real = rt.embedding_independence
    s = system_of("E6(a1)")
    comp = tuple(sorted(s.nodes[i] for i in s.components[0]))

    def two_classes(d, amb, trials):
        rep = real(d, amb, trials)
        return rt.IndependenceReport(rep.embeddings, rep.labels, (rep.labels, comp))

    monkeypatch.setattr(rt, "embedding_independence", two_classes)
    code, _, err = run(capsys, "verify", "E6(a1)", "--trials", "2")
    assert (code, err) == (2, "verification failure: trial labels over E8 differ from the "
                              "enumerated set for E6(a1): "
                              f"{_vec(_first_node_outside_component_0())} is not realized\n")


def test_verify_trial_labels_must_cover_whole_components(capsys, monkeypatch):
    real = rt.embedding_independence
    kept = []

    def partial(d, amb, trials):
        rep = real(d, amb, trials)
        kept.append(rep.labels[0])
        return rt.IndependenceReport(rep.embeddings, rep.labels, (rep.labels[:1],))

    monkeypatch.setattr(rt, "embedding_independence", partial)
    code, _, err = run(capsys, "verify", "D6(a1)", "--ambient", "E7", "--trials", "2")
    assert code == 2
    assert "trial labels cover a component of D6(a1) only partially" in err
    s = system_of("D6(a1)")
    comp = next(c for c in s.components if kept[0] in {s.nodes[i] for i in c})
    witness = next(s.nodes[i] for i in comp if s.nodes[i] != kept[0])
    assert err.endswith(f": {_vec(witness)} is missing\n")


def _drop_first_component(monkeypatch, name):
    """Direct labels of ``name`` that lose the first component of its system."""
    s = system_of(name)
    dropped = {s.nodes[i] for i in s.components[0]}
    real = rt.direct_linkage_labels

    def drop(*args):
        dl = real(*args)
        return rt.DirectLabels(dl.embedding, dl.realized,
                               tuple(v for v in dl.labels if v not in dropped))

    monkeypatch.setattr(rt, "direct_linkage_labels", drop)
    return s


@pytest.mark.parametrize("name", ["A5", "A6", "D7", "E7", "E7(a1)", "D7(a1)"])
def test_verify_catches_a_dropped_component_of_a_short_chain(capsys, monkeypatch, name):
    # only A7 has two classes of embeddings in E8, so the E8 equality holds for
    # the other diagrams of rank <= 7: direct labels that lose one whole
    # component fail it
    s = _drop_first_component(monkeypatch, name)
    code, _, err = run(capsys, "verify", name)
    assert (code, err) == (2, "verification failure: direct labels over E8 differ from the "
                              f"enumerated set for {name}: {_vec(s.nodes[0])} is not realized\n")


@pytest.mark.parametrize("name,realized", [("A7", "5 of 6"), ("D8", "0 of 1")])
def test_verify_of_a7_or_of_rank_8_allows_a_dropped_component(capsys, monkeypatch, name, realized):
    # A7, read from the lattice type of its closure's table, has two classes
    # of embeddings in E8; the roots of a diagram of rank 8 span E8, so no
    # root of E8 extends them.  Neither is held to the E8 equality.
    _drop_first_component(monkeypatch, name)
    code, out, err = run(capsys, "verify", name)
    assert (code, err) == (0, "")
    assert f"  realized components: {realized}\n" in out


_OUTSIDE = (5, 0, 0, 0, 0, 0)  # an E6(a1) label vector that is no linkage


def _direct_outside(dl):
    return rt.DirectLabels(dl.embedding, dl.realized, dl.labels + (_OUTSIDE,))


def _direct_one_component(dl):
    s = system_of("E6(a1)")
    comp = {s.nodes[i] for i in s.components[0]}
    return rt.DirectLabels(dl.embedding, dl.realized, tuple(v for v in dl.labels if v in comp))


def _trial_outside(rep):
    return rt.IndependenceReport(rep.embeddings, rep.labels, (rep.labels + (_OUTSIDE,),))


def _first_node_outside_component_0():
    s = system_of("E6(a1)")
    return next(v for v in s.nodes if v not in {s.nodes[i] for i in s.components[0]})


@pytest.mark.parametrize("fn,fake,message", [
    ("direct_linkage_labels", _direct_outside,
     lambda: f"direct labels of E6(a1) in E8 leave the enumerated set: {_vec(_OUTSIDE)}"),
    ("direct_linkage_labels", _direct_one_component,
     lambda: "direct labels over E8 differ from the enumerated set for E6(a1): "
             f"{_vec(_first_node_outside_component_0())} is not realized"),
    ("embedding_independence", _trial_outside,
     lambda: f"trial labels of E6(a1) in E8 leave the enumerated set: {_vec(_OUTSIDE)}"),
], ids=["direct-outside", "direct-one-component", "trial-outside"])
def test_verify_failures_name_a_witness(capsys, monkeypatch, fn, fake, message):
    real = getattr(rt, fn)
    monkeypatch.setattr(rt, fn, lambda *args: fake(real(*args)))
    code, _, err = run(capsys, "verify", "E6(a1)", "--trials", "2")
    assert (code, err) == (2, f"verification failure: {message()}\n")
