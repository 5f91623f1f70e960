"""Workload definitions: seeded inputs, the timed body of each operation, and
the summary the correctness gate compares with ``golden.json``.

Every library input is a cataloged diagram whose vertex and edge order the
seed shuffles; it reaches the program only as diagram JSON text through
``diagram.from_json``, the path a user-supplied file takes.  Only public
names of ``carterlink`` are used, so the benchmark keeps working when
private modules change.

An operation's ``body`` is timed; it receives the run's ``Tracer`` and
makes every call into a layer through ``tr.call(name, fn, *args)``, so
that a traced run records a span per call.  ``summary`` runs after the
timer stops and returns permutation-invariant facts about the result;
``gate`` compares them with the facts recorded from the unshuffled catalog
diagrams.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from carterlink import cartan, diagram, linkage, orbit, roots

from cli_probe import PROBE_MARK
from spans import Tracer, now

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"

WORKLOADS = ("catalog_pipeline", "large_rank", "e8_oracle", "cli_oneshot")


class Mismatch(AssertionError):
    """An operation gave a result that differs from the recorded facts."""


@dataclass(frozen=True)
class Op:
    label: str  # key into golden.json; names the canonical diagram(s)
    rank: int
    body: Callable[[Tracer], Any]
    summary: Callable[[Any], dict]


# -- inputs ------------------------------------------------------------------


def _shuffle_edges(doc: dict, rng: random.Random) -> None:
    rng.shuffle(doc["edges"])
    for e in doc["edges"]:
        if rng.random() < 0.5:
            e["u"], e["v"] = e["v"], e["u"]


def _shuffled_doc(name: str, rng: random.Random) -> dict:
    doc = json.loads(diagram.to_json(diagram.catalog(name)))
    rng.shuffle(doc["vertices"])
    _shuffle_edges(doc, rng)
    return doc


def _extended_doc(ext: str, base_doc: dict, dropped: str, rng: random.Random) -> dict:
    """``ext`` with the base's vertex order and the dropped leaf inserted.

    ``project_system`` needs the extended order minus the leaf to equal the
    base order, so the base's permutation is carried over."""
    doc = json.loads(diagram.to_json(diagram.catalog(ext)))
    by_id = {v["id"]: v for v in doc["vertices"]}
    order = [by_id[v["id"]] for v in base_doc["vertices"]]
    order.insert(rng.randrange(len(order) + 1), by_id[dropped])
    doc["vertices"] = order
    _shuffle_edges(doc, rng)
    return doc


def _canonical_doc(name: str, rng: random.Random) -> dict:
    return json.loads(diagram.to_json(diagram.catalog(name)))


# -- library operations ---------------------------------------------------------


def _p_classes(groups) -> list:
    return [[str(es.p), len(es.members)] for es in groups]


def _system_facts(s: orbit.LinkageSystem) -> dict:
    return {
        "nodes": len(s.nodes),
        "edges": len(s.edges),
        "components": sorted([str(p), len(c)] for c, p in zip(s.components, s.component_p)),
        "loctets": len(s.loctets),
        "unicolored": len(s.unicolored),
    }


def _same_system(a: orbit.LinkageSystem, b: orbit.LinkageSystem) -> bool:
    return (a.pc.diagram.vertices == b.pc.diagram.vertices
            and a.pc.diagram.edges == b.pc.diagram.edges
            and (a.nodes, a.edges, a.components, a.component_p, a.loctets, a.unicolored)
            == (b.nodes, b.edges, b.components, b.component_p, b.loctets, b.unicolored))


def system_op(name: str, text: str, roundtrip: bool) -> Op:
    """cartan, enumerate, group_by_p, build_system; optionally the JSON round trip."""

    def body(tr):
        d = tr.call("diagram.from_json", diagram.from_json, text)
        pc = tr.call("cartan.build_partial_cartan", cartan.build_partial_cartan, d)
        vecs = tr.call("linkage.enumerate_linkages", linkage.enumerate_linkages, pc)
        groups = tr.call("linkage.group_by_p", linkage.group_by_p, pc, vecs)
        s = tr.call("orbit.build_system", orbit.build_system, pc)
        back = None
        if roundtrip:
            text_out = tr.call("orbit.to_json", orbit.to_json, s)
            back = tr.call("orbit.from_json", orbit.from_json, text_out)
        return vecs, groups, s, back

    def summary(out):
        vecs, groups, s, back = out
        facts = {"vectors": len(vecs), "p_classes": _p_classes(groups), **_system_facts(s)}
        if roundtrip:
            facts["roundtrip"] = _same_system(s, back)
        return facts

    return Op(f"system {name}", len(diagram.catalog(name)), body, summary)


def chain_op(name: str, text: str) -> Op:
    """A_l has no linkage-system structure: enumerate and group only."""

    def body(tr):
        d = tr.call("diagram.from_json", diagram.from_json, text)
        pc = tr.call("cartan.build_partial_cartan", cartan.build_partial_cartan, d)
        vecs = tr.call("linkage.enumerate_linkages", linkage.enumerate_linkages, pc)
        return vecs, tr.call("linkage.group_by_p", linkage.group_by_p, pc, vecs)

    def summary(out):
        vecs, groups = out
        return {"vectors": len(vecs), "p_classes": _p_classes(groups)}

    return Op(f"chain {name}", len(diagram.catalog(name)), body, summary)


def project_op(ext: str, base: str, dropped: str, ext_text: str, base_text: str) -> Op:
    def body(tr):
        ext_d = tr.call("diagram.from_json", diagram.from_json, ext_text)
        base_d = tr.call("diagram.from_json", diagram.from_json, base_text)
        ext_pc = tr.call("cartan.build_partial_cartan", cartan.build_partial_cartan, ext_d)
        base_pc = tr.call("cartan.build_partial_cartan", cartan.build_partial_cartan, base_d)
        ext_sys = tr.call("orbit.build_system", orbit.build_system, ext_pc)
        rep = tr.call("orbit.project_system", orbit.project_system, ext_sys, dropped, base_pc)
        return ext_sys, rep

    def summary(out):
        ext_sys, rep = out
        d = ext_sys.pc.diagram
        di = d.index_of(dropped)
        unit = tuple(1 if i == di else 0 for i in range(len(d)))
        kinds = [(ext_sys.loctets[e].kind, rep.base_system.loctets[b].kind)
                 for e, b in rep.loctet_pairs]
        return {
            "nodes": len(ext_sys.nodes),
            "edges": len(ext_sys.edges),
            "kernel_is_unit_pair": list(rep.kernel) == sorted([unit, tuple(-x for x in unit)]),
            "image_count": rep.image_count,
            "distinct_images": rep.distinct_images,
            "fibers": sorted(len(v) for v in rep.fibers().values()),
            "loctet_kinds_kept": all(a == b for a, b in kinds),
        }

    return Op(f"project {ext}>{base}@{dropped}", len(diagram.catalog(ext)), body, summary)


def weights_op(name: str, vertex: str, text: str) -> Op:
    def body(tr):
        d = tr.call("diagram.from_json", diagram.from_json, text)
        pc = tr.call("cartan.build_partial_cartan", cartan.build_partial_cartan, d)
        return tr.call("roots.weight_orbit", roots.weight_orbit, pc, vertex)

    def summary(out):
        return {"weight_vectors": len(out), "distinct": len(set(out)) == len(out)}

    return Op(f"weights {name}@{vertex}", len(diagram.catalog(name)), body, summary)


def verify_op(name: str, text: str, e8: roots.RootSystem) -> Op:
    """What ``carterlink verify <diagram> --ambient E8 --trials 3`` does."""

    def body(tr):
        d = tr.call("diagram.from_json", diagram.from_json, text)
        pc = tr.call("cartan.build_partial_cartan", cartan.build_partial_cartan, d)
        enum = tr.call("linkage.enumerate_linkages", linkage.enumerate_linkages, pc)
        emb = tr.call("roots.find_embedding", roots.find_embedding, d, e8)
        if emb is None:
            raise Mismatch(f"{name} does not embed into E8")
        dl = tr.call("roots.direct_linkage_labels", roots.direct_linkage_labels, emb)
        labels = set(dl.labels)
        if not labels <= set(enum):
            raise Mismatch(f"direct labels of {name} leave the enumerated set")
        s = tr.call("orbit.build_system", orbit.build_system, pc) if enum else None
        realized = 0
        for comp in s.components if s is not None else ():
            members = {s.nodes[i] for i in comp}
            inter = members & labels
            if inter and inter != members:
                raise Mismatch(f"direct labels cover a component of {name} only partially")
            realized += bool(inter)
        laws = tr.call("roots.check_projection_laws", roots.check_projection_laws, dl, emb)
        audit = tr.call("roots.square_diagonal_audit", roots.square_diagonal_audit, dl, emb)
        indep = tr.call("roots.embedding_independence", roots.embedding_independence, d, e8, 3)
        return d, enum, dl, s, realized, laws, audit, indep

    def summary(out):
        d, enum, dl, s, realized, laws, audit, indep = out
        labels = set(dl.labels)
        # LawsReport.orbit_count depends on the vertex order, so it is not gated.
        return {
            "vectors": len(enum),
            "labels": len(labels),
            "labels_vs_enumeration": "equal" if labels == set(enum) else "subset",
            "realized": len(dl.realized),
            "realized_components": realized,
            "components": len(s.components) if s is not None else 0,
            "p_classes": [[str(p), n] for p, n in laws.p_classes],
            "square_audit": [audit.checked, audit.with_diagonal, audit.without_diagonal],
            "independence": [indep.embeddings, set(indep.labels) == labels],
        }

    return Op(f"verify {name}", len(diagram.catalog(name)), body, summary)


# -- CLI operations --------------------------------------------------------------

# The README's CLI lines, except ``verify``.
CLI_LINES = (
    ("catalog",),
    ("cartan", "D4(a1)", "--inverse", "--det"),
    ("linkages", "D5(a1)", "--group-by-p"),
    ("system", "E6(a1)"),
    ("system", "E6(a1)", "--format", "json"),
    ("system", "D4(a1)", "--format", "dot", "--out", "d4a1.dot"),
    ("loctets", "E6(a1)"),
    ("extendable", "D9(a2)"),
    ("project", "D6(a1)", "D5(a1)", "--vertex", "b3"),
    ("weights", "E6", "--vertex", "b2"),
)

OUT_DIR = ROOT / ".perfbench_out"
CLI_PROBE = Path(__file__).resolve().parent / "cli_probe.py"


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_op(args: tuple) -> Op:
    """One CLI process; its stdout, stderr and any --out file must match the
    golden output byte for byte.

    Untraced, the process is ``python -m carterlink.cli``.  Traced, it is
    ``cli_probe.py``, which reports when its import of ``carterlink.cli``
    and its call of ``main`` started and ended; the rest of the process's
    wall time is interpreter start-up and shutdown."""

    def body(tr):
        entry = [str(CLI_PROBE)] if tr.enabled else ["-m", "carterlink.cli"]
        start = now()
        proc = subprocess.run([sys.executable, *entry, *args], cwd=OUT_DIR, env=cli_env(),
                              capture_output=True, text=True, timeout=120)
        end = now()
        stderr = proc.stderr
        if tr.enabled:
            stderr, _, marks = stderr.rpartition(PROBE_MARK)
            t_import, t_main, t_done = json.loads(marks)
            tr.record("cli.interpreter", start, t_import)
            tr.record("cli.import", t_import, t_main)
            tr.record("cli.main", t_main, t_done)
            tr.record("cli.interpreter", t_done, end)
        return proc.returncode, proc.stdout, stderr

    def summary(out):
        code, stdout, stderr = out
        facts = {"returncode": code, "stdout": stdout, "stderr": stderr}
        if "--out" in args:
            path = OUT_DIR / args[args.index("--out") + 1]
            facts["out_file"] = path.read_text(encoding="utf-8")
            path.unlink()
        return facts

    return Op("cli " + " ".join(args), 0, body, summary)


# -- workloads -------------------------------------------------------------------

# One projection per extended 4-cycle diagram of the tables (E7(a4) has none).
PROJECTIONS = (
    ("E6(a1)", "D5(a1)", "b3"), ("D6(a1)", "D5(a1)", "b3"), ("D6(a2)", "D5(a1)", "a4"),
    ("E7(a1)", "E6(a1)", "b4"), ("E7(a2)", "E6(a1)", "b4"), ("E7(a3)", "E6(a2)", "b4"),
    ("D7(a1)", "D6(a1)", "a4"), ("D7(a2)", "D6(a2)", "b3"),
)
# E6/E7/E8 minuscule and adjoint-size orbits, and the 2l orbit at an end of D_l.
WEIGHTS = (("E6", "b2"), ("E7", "a4"), ("E8", "b4"), ("E7", "a3"),
           ("D4", "a1"), ("D5", "b2"), ("D6", "a4"), ("D7", "b3"))


def build(workload: str, seed: int, tr: Tracer,
          shuffle: bool = True) -> tuple[list[Op], str]:
    """The ops of one pass and the sha256 of every input they were built from.

    The same seed gives byte-identical inputs; ``shuffle=False`` gives the
    canonical inputs the golden facts were recorded from.  Set-up calls into
    the program (the E8 root system) go through ``tr``."""
    rng = random.Random(f"{workload}:{seed}")
    doc_of = _shuffled_doc if shuffle else _canonical_doc
    inputs: list[str] = []

    def text(name: str) -> str:
        inputs.append(json.dumps(doc_of(name, rng)))
        return inputs[-1]

    ops: list[Op] = []
    if workload == "catalog_pipeline":
        for name in diagram.catalog_names() + ["D8(a1)", "D9(a2)"]:
            ops.append(system_op(name, text(name), roundtrip=True))
        for ext, base, dropped in PROJECTIONS:
            base_doc = doc_of(base, rng)
            ext_doc = _extended_doc(ext, base_doc, dropped, rng) if shuffle \
                else _canonical_doc(ext, rng)
            inputs += [json.dumps(ext_doc), json.dumps(base_doc)]
            ops.append(project_op(ext, base, dropped, inputs[-2], inputs[-1]))
        for name, vertex in WEIGHTS:
            ops.append(weights_op(name, vertex, text(name)))
    elif workload == "large_rank":
        for l in (10, 11, 12):
            for k in range(1, l - 2):
                ops.append(system_op(f"D{l}(a{k})", text(f"D{l}(a{k})"), roundtrip=False))
            ops.append(system_op(f"D{l}", text(f"D{l}"), roundtrip=False))
            ops.append(chain_op(f"A{l}", text(f"A{l}")))
    elif workload == "e8_oracle":
        e8 = tr.call("roots.build_root_system", roots.build_root_system, "E8")
        for name in diagram.catalog_names():
            ops.append(verify_op(name, text(name), e8))
    elif workload == "cli_oneshot":
        OUT_DIR.mkdir(exist_ok=True)
        ops = [cli_op(args) for args in CLI_LINES]
        inputs = [" ".join(args) for args in CLI_LINES]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    digest = hashlib.sha256("\n".join(inputs).encode()).hexdigest()
    return ops, digest


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def gate(op: Op, out: Any, golden: dict) -> dict:
    """Raise Mismatch unless the op's facts equal the recorded ones."""
    facts = op.summary(out)
    want = golden.get(op.label)
    if facts != want:
        raise Mismatch(f"{op.label}: got {facts}, expected {want}")
    return facts
