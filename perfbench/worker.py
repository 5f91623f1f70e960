"""One measured process of a benchmark run; ``run.py`` starts it.

The worker sets up (imports the program, builds the seeded inputs and runs
one untimed warm-up operation per distinct rank), then runs whole passes
over the workload's operations in a seeded order until ``--seconds`` have
passed, and at least two.  It is a closed loop: one client, one operation at a time.  Each
operation is timed, then checked against ``golden.json`` outside the timer.
Right before and right after each timed operation, and between the steps of
set-up, it reads the host probe (``host.calib``, a fixed pure-Python loop),
so that ``run.py`` can scale each time by the host's speed at that moment.
With ``--trace 1`` each operation runs twice in a row, untraced and traced,
so the two can be compared.

The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from spans import Tracer, now

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src on the path)

# At least two passes, so that op_ms_tail (ten samples beyond it) sits at or
# above the 73rd percentile even for e8_oracle's 19 ops per pass.  A traced
# pass runs every op twice.
MIN_PASSES = 2
# Stop starting passes after this long, so that a run ends within 180 s on a
# host far slower than expected.
MAX_MEASURE_S = 120.0


def calib_ms() -> float:
    start = now()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
    return (now() - start) * 1000


def probe() -> float:
    """The host probe in ms: the faster of two runs of the calibration loop,
    so that one interrupt does not count as a slow host."""
    return min(calib_ms(), calib_ms())


class Runner:
    def __init__(self, golden: dict) -> None:
        self.golden = golden
        self.errors: list[str] = []
        self.facts: dict[str, dict] = {}
        self.calib: list[float] = []  # every probe reading, in order
        self.probe_s = 0.0  # time spent reading the probe

    def probe(self) -> float:
        start = now()
        self.calib.append(probe())
        self.probe_s += now() - start
        return self.calib[-1]

    def run(self, op: workloads.Op, op_id: str, tr: Tracer) -> tuple[float, float, bool]:
        """Time one operation, read the probe, then gate the result.

        Returns (seconds, probe ms right after the operation, passed)."""
        first = len(tr.spans)
        start = now()
        try:
            out = op.body(tr)
        except Exception:
            end = now()
            after = self.probe()
            tr.close_op(op_id, start, end, first)
            self._fail(op_id, traceback.format_exc())
            return end - start, after, False
        end = now()
        after = self.probe()
        tr.close_op(op_id, start, end, first)
        try:
            self.facts[op.label] = workloads.gate(op, out, self.golden)
        except Exception:
            self._fail(op_id, traceback.format_exc())
            return end - start, after, False
        return end - start, after, True

    def _fail(self, op_id: str, text: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(f"{op_id}: {text}")
            sys.stderr.write(f"operation {op_id} failed:\n{text}\n")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = Tracer(bool(args.trace))
    plain = Tracer(False)
    runner = Runner(workloads.load_golden())
    runner.probe()
    ops, digest = workloads.build(args.workload, args.seed, tracer)
    runner.probe()
    seen_ranks: set[int] = set()
    for op in ops:
        if op.rank not in seen_ranks:
            seen_ranks.add(op.rank)
            runner.run(op, f"warmup:{op.label}", plain)
    if runner.errors:
        return 1
    # From the parent's spawn to the first timed operation, less the probe's own time.
    setup_s = now() - args.spawned_at - runner.probe_s
    setup_calib = runner.calib[:]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_calib_ms": setup_calib}))
        return 0

    order = random.Random(f"order:{args.workload}:{args.seed}")
    latencies, traced_latencies = [], []
    attempted = failed = passes = 0
    start = now()
    min_passes = 1 if tracer.enabled else MIN_PASSES
    while passes < min_passes or (now() - start < args.seconds and now() - start < MAX_MEASURE_S):
        batch = ops[:]
        order.shuffle(batch)
        for i, op in enumerate(batch):
            op_id = f"{passes}:{i}:{op.label}"
            before = runner.probe()
            seconds, after, ok = runner.run(op, op_id, plain)
            latencies.append((op.label, seconds, before, after))
            attempted += 1
            failed += not ok
            if tracer.enabled:
                seconds, _, ok = runner.run(op, op_id, tracer)
                traced_latencies.append(seconds)
                attempted += 1
                failed += not ok
        passes += 1

    who = resource.RUSAGE_CHILDREN if args.workload == "cli_oneshot" else resource.RUSAGE_SELF
    counts = {}
    for facts in runner.facts.values():
        for key in ("vectors", "nodes", "edges", "realized", "weight_vectors"):
            counts[key] = counts.get(key, 0) + facts.get(key, 0)
    import numpy  # already loaded by the program; only its version is read

    print(json.dumps({
        "setup_s": setup_s,
        "setup_calib_ms": setup_calib,
        "latencies": latencies,
        "traced_latencies": traced_latencies,
        "attempted": attempted,
        "failed": failed,
        "errors": runner.errors,
        "passes": passes,
        "ops_per_pass": len(ops),
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        "calib_ms": runner.calib,
        "inputs_sha256": digest,
        "numpy": numpy.__version__,
        "counts": counts,
        "spans": tracer.spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
