"""Smoke test of the pipeline benchmark.

    python -m pytest perfbench

Runs a short pass of every workload on a fixed seed (the lowest-rank
operation of each kind, every CLI line) through the same gate the benchmark
uses, checks that the seed alone fixes the inputs, runs the full command on
the cheapest workload in both modes, and checks that the benchmark reaches
the program only through public names.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SEED = 20101005
PRIVATE_MODULE = "_" + "kernels"
KERNEL_VAR = "CARTERLINK_" + "KERNEL"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def short_pass(ops):
    """The lowest-rank op of each kind, and every CLI line."""
    chosen = {}
    for op in ops:
        kind = op.label if op.label.startswith("cli ") else op.label.split()[0]
        if kind not in chosen or op.rank < chosen[kind].rank:
            chosen[kind] = op
    return list(chosen.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_pass_passes_the_gate(workload):
    tr = Tracer(False)
    golden = workloads.load_golden()
    ops, _ = workloads.build(workload, SEED, tr)
    for op in short_pass(ops):
        workloads.gate(op, op.body(tr), golden)


@pytest.mark.parametrize("workload", ["catalog_pipeline", "large_rank", "e8_oracle"])
def test_inputs_depend_only_on_the_seed(workload):
    tr = Tracer(False)
    first = workloads.build(workload, SEED, tr)[1]
    assert workloads.build(workload, SEED, tr)[1] == first
    assert workloads.build(workload, SEED + 1, tr)[1] != first


def test_workload_names_agree():
    names = tuple(w["name"] for w in BENCHMARK["workloads"])
    assert names == workloads.WORKLOADS == run.WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "catalog_pipeline",
         "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert "catalog_pipeline fail_ratio 0 ratio" in lines


def test_only_public_names_of_the_program_are_used():
    for path in HERE.glob("*.py"):
        text = path.read_text()
        assert PRIVATE_MODULE not in text, path
        tree = ast.parse(text)
        for node in ast.walk(tree):
            # the environment record may read the kernel variable; nothing may set it
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Constant) and child.value == KERNEL_VAR:
                    reads = isinstance(node, ast.Call) and ast.unparse(node.func) == "os.environ.get"
                    assert reads or isinstance(node, ast.Dict) and child in node.keys, path
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("carterlink"):
                assert not any(part.startswith("_") for part in node.module.split(".")), path
                assert not any(a.name.startswith("_") for a in node.names), path
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.startswith("carterlink"):
                        assert not any(p.startswith("_") for p in a.name.split(".")), path
            if isinstance(node, ast.Attribute):
                parts = ast.unparse(node).split(".")
                if parts[0] in {"carterlink", "cartan", "diagram", "linkage", "orbit", "roots"}:
                    assert not any(p.startswith("_") for p in parts[1:]), (path, parts)
