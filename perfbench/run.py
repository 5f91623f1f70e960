#!/usr/bin/env python3
"""carterlink pipeline benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload catalog_pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` a separate traced run reports the per-layer metrics.  Every
metric is printed by name with its unit, then an environment record, and
last a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 0 when the run completed (``correct`` tells whether
every operation passed its check), 2 when it could not run.  See README.md
in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from spans import now, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("catalog_pipeline", "large_rank", "e8_oracle", "cli_oneshot")
# set-up is measured in this many fresh processes and reported as the median
SETUP_RUNS = 3
# The host probe's reading on the reference host (2-vCPU VM, see README.md)
# when nothing else loads it.
REFERENCE_PROBE_MS = 1.25
# How much the program slows when the probe slows: on the reference host a
# probe k times slower came with ops about k**0.8 times slower (fitted over
# every op of all four workloads; 0.6 for the numpy-heavy large_rank, 0.9
# for catalog_pipeline).
HOST_ELASTICITY = 0.8
DEADLINE_S = 170.0
NPROC = len(os.sched_getaffinity(0))  # before the run pins itself to one CPU

LAYERS = (
    "diagram.from_json", "cartan.build_partial_cartan",
    "linkage.enumerate_linkages", "linkage.group_by_p",
    "orbit.build_system", "orbit.project_system", "orbit.to_json", "orbit.from_json",
    "roots.weight_orbit", "roots.find_embedding", "roots.direct_linkage_labels",
    "roots.check_projection_laws", "roots.square_diagonal_audit",
    "roots.embedding_independence",
    "cli.interpreter", "cli.import", "cli.main",
)
COUNTS = {"linkage.vectors": "vectors", "orbit.nodes": "nodes", "orbit.edges": "edges",
          "roots.realized": "realized", "roots.weight_vectors": "weight_vectors"}


class RunError(RuntimeError):
    pass


def spawn(args, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(now())]
    # its own process group, so that a kill also reaches the CLI processes it runs
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError("worker ran past the deadline")
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def quartile_spread(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / q2


def host_adjusted(seconds: float, probe_ms: float) -> float:
    """A wall time scaled to the reference host's speed.

    Other tenants of a shared host slow everything on it by up to ~1.9x, in
    stretches from a fraction of a second to tens of seconds, so the share
    of a run spent slow differs from run to run.  The probe, read right
    before and after each timed op, tells how slow the host was; on a quiet
    reference host the scale factor is 1."""
    return seconds * (REFERENCE_PROBE_MS / probe_ms) ** HOST_ELASTICITY


def tail_index(n: int) -> int:
    """Index, in n sorted samples, of the highest percentile that has at
    least ten samples beyond it."""
    return max(0, n - 11)


def timing_metrics(latencies: list[tuple[str, float]], setups: list[float]) -> dict:
    by_op: dict[str, list[float]] = {}
    for label, seconds in latencies:
        by_op.setdefault(label, []).append(seconds)
    # Each op's median over the passes first, so that a stretch of slow host
    # shorter than half the run moves no op's figure.
    typical = [statistics.median(v) for v in by_op.values()]
    pooled = sorted(seconds for _, seconds in latencies)
    return {
        "ops_per_s": (len(typical) / sum(typical), "1/s"),
        "op_ms_p50": (statistics.median(typical) * 1000, "ms"),
        "op_ms_tail": (pooled[tail_index(len(pooled))] * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }


def end_to_end(res: dict, setups: list[dict]) -> tuple[dict, dict]:
    """The metrics from host-adjusted times, and the wall-clock ones beside them."""
    adjusted = [(label, host_adjusted(s, (before + after) / 2))
                for label, s, before, after in res["latencies"]]
    metrics = timing_metrics(adjusted, [host_adjusted(r["setup_s"],
                                                      statistics.mean(r["setup_calib_ms"]))
                                        for r in setups])
    metrics["peak_rss_mb"] = (res["peak_rss_kb"] / 1024, "MB")
    wall = timing_metrics([(label, s) for label, s, _, _ in res["latencies"]],
                          [r["setup_s"] for r in setups])
    n = len(adjusted)
    extra = {"fail_ratio": (res["failed"] / res["attempted"], "ratio"),
             **{f"{name}_wall": value for name, value in wall.items()},
             "tail_percentile": 100 * (tail_index(n) + 1) / n, "samples": n,
             "setup_s_each": [r["setup_s"] for r in setups]}
    return metrics, extra


def per_layer(res: dict) -> tuple[dict, dict]:
    spans = res["spans"]
    n = len(res["traced_latencies"])
    op_spans = [s for s in spans if s["op"] is not None]
    own = self_times(op_spans)
    setup = self_times([s for s in spans if s["op"] is None])
    metrics = {f"{name}_ms": (own.get(name, 0.0) * 1000 / n, "ms") for name in LAYERS}
    metrics["roots.build_root_system_ms"] = (setup.get("roots.build_root_system", 0.0) * 1000,
                                             "ms")
    metrics["bench.uncovered_ms"] = (own.get("op", 0.0) * 1000 / n, "ms")
    metrics["bench.op_ms"] = (sum(res["traced_latencies"]) * 1000 / n, "ms")
    metrics["trace.overhead_ratio"] = (
        sum(t for _, t, _, _ in res["latencies"]) / n / (sum(res["traced_latencies"]) / n),
        "ratio")
    for name, key in COUNTS.items():
        metrics[name] = (res["counts"].get(key, 0), "count")
    metrics["host.calib_ms"] = (statistics.median(res["calib_ms"]), "ms")
    metrics["host.calib_spread"] = (quartile_spread(res["calib_ms"]), "ratio")
    layer_ms = {k: v for k, (v, _) in metrics.items() if k[:-3] in LAYERS}
    top = max(layer_ms, key=layer_ms.get)
    base = metrics["bench.op_ms"][0]
    modules: dict[str, float] = {}
    for k, v in layer_ms.items():
        modules[k.split(".")[0]] = modules.get(k.split(".")[0], 0.0) + v / base
    extra = {"dominant_layer": top, "dominant_share": layer_ms[top] / base,
             "shares": {k: round(v / base, 4) for k, v in layer_ms.items() if v},
             "module_shares": {k: round(v, 4) for k, v in modules.items() if v}}
    return metrics, extra


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment(res: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "CARTERLINK_KERNEL": os.environ.get("CARTERLINK_KERNEL"),
        "nproc": NPROC,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "host.calib_ms_median": statistics.median(res["calib_ms"]),
        "host.calib_ms_spread": quartile_spread(res["calib_ms"]),
        "host.calib_samples": len(res["calib_ms"]),
        "inputs_sha256": res["inputs_sha256"],
        "passes": res["passes"],
        "ops_per_pass": res["ops_per_pass"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = now() + DEADLINE_S
    # One CPU for the whole run, the CLI processes included: the probe then
    # reads the speed of the CPU that the measured work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not (ROOT / "src" / "carterlink" / "__init__.py").is_file():
        sys.stderr.write(f"no carterlink sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    # Build step: byte-compile once, so that no worker pays for it in set-up.
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    try:
        if args.trace:
            res = spawn(args, deadline, setup_only=False)
            metrics, extra = per_layer(res)
        else:
            setups = [spawn(args, deadline, setup_only=True) for _ in range(SETUP_RUNS - 1)]
            res = spawn(args, deadline, setup_only=False)
            metrics, extra = end_to_end(res, setups + [res])
    except (RunError, OSError, ValueError, KeyError) as e:
        sys.stderr.write(f"benchmark run failed: {e}\n")
        return 2

    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps(res["spans"]))
        extra["spans_file"] = str(spans_file.relative_to(ROOT))
    for name, (value, unit) in {**metrics, **{k: v for k, v in extra.items()
                                              if isinstance(v, tuple)}}.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              **{k: v for k, v in extra.items() if not isinstance(v, tuple)},
              **environment(res), "errors": res["errors"]}
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
