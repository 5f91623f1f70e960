#!/usr/bin/env python3
"""Write golden.json: the facts every benchmark operation must reproduce.

    python3 perfbench/record_golden.py

The facts come from the unshuffled catalog diagrams and the README's CLI
lines, and a few of them are checked here against the paper's tables
(the same values tests/test_acceptance.py pins).  The committed file was
recorded before any optimisation; re-record it only for an intended output
change, and say so where the change is described.
"""

import json
import sys
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

# Component (p, size) multisets, loctet counts and weight-orbit sizes from the tables.
TABLE = {
    "system E6(a1)": {"components": [["4/3", 27], ["4/3", 27]], "loctets": 6},
    "system D6(a1)": {"components": [["1", 12], ["3/2", 32], ["3/2", 32]], "loctets": 9},
    "system E7(a4)": {"components": [["3/2", 56]], "loctets": 6},
    "system D7(a2)": {"components": [["1", 14], ["7/4", 64], ["7/4", 64]]},
    "system E8": {"components": [], "loctets": 0},
    "system D12(a5)": {"components": [["1", 24]], "loctets": 1},
    "weights E6@b2": {"weight_vectors": 27},
    "weights E7@a4": {"weight_vectors": 56},
    "weights D7@b3": {"weight_vectors": 14},
}


def main() -> int:
    golden = {}
    tr = Tracer(False)
    for workload in workloads.WORKLOADS:
        ops, _ = workloads.build(workload, 0, tr, shuffle=False)
        for op in ops:
            golden[op.label] = op.summary(op.body(tr))
    for label, want in TABLE.items():
        got = {k: golden[label][k] for k in want}
        if got != want:
            sys.stderr.write(f"{label}: {got} differs from the table {want}\n")
            return 1
    # one op per line, so that a diff names the ops whose facts changed
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(golden.items())]
    workloads.GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(golden)} entries to {workloads.GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
