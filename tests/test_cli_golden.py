"""Pins the stdout, stderr and exit code of the CLI over a sweep of commands.

``cli_golden.json`` holds one record per command: its argv and the sha256 of
its exit code, stdout and stderr.  The sweep is ``catalog``; for every catalog
name plus a few larger diagrams, ``cartan --inverse --det``, ``extendable``,
``linkages`` (plain, ``--group-by-p``, ``--beta-unicolored``), ``system``
(text, json, dot) and ``loctets``; the eight projections of the perfbench
pipeline; and four weight orbits.  Re-record it with
``PYTHONPATH=src python tests/test_cli_golden.py``; only a change that means to
alter the output of one of these commands should do so.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from carterlink import diagram as dg
from carterlink.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

LARGER = ("D12(a5)", "D12", "D9(a2)", "D8(a1)", "A12")

PROJECTIONS = (
    ("E6(a1)", "D5(a1)", "b3"), ("D6(a1)", "D5(a1)", "b3"), ("D6(a2)", "D5(a1)", "a4"),
    ("E7(a1)", "E6(a1)", "b4"), ("E7(a2)", "E6(a1)", "b4"), ("E7(a3)", "E6(a2)", "b4"),
    ("D7(a1)", "D6(a1)", "a4"), ("D7(a2)", "D6(a2)", "b3"),
)

WEIGHTS = (("E6", "b2"), ("E7", "a4"), ("E8", "b4"), ("D7", "b3"))


def _commands() -> list[list[str]]:
    cmds = [["catalog"]]
    for name in dg.catalog_names() + list(LARGER):
        cmds += [["cartan", name, "--inverse", "--det"], ["extendable", name],
                 ["linkages", name], ["linkages", name, "--group-by-p"],
                 ["linkages", name, "--beta-unicolored"],
                 ["system", name], ["system", name, "--format", "json"],
                 ["system", name, "--format", "dot"], ["loctets", name]]
    cmds += [["project", ext, base, "--vertex", v] for ext, base, v in PROJECTIONS]
    return cmds + [["weights", name, "--vertex", v] for name, v in WEIGHTS]


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()], ensure_ascii=False)
    return {"argv": argv, "sha256": hashlib.sha256(blob.encode("utf-8")).hexdigest()}


def test_cli_transcript_is_byte_identical():
    golden = json.loads(GOLDEN.read_text())
    assert [rec["argv"] for rec in golden] == _commands()
    for rec in golden:
        assert _run(rec["argv"]) == rec


if __name__ == "__main__":
    records = [_run(argv) for argv in _commands()]
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n")
    sys.stdout.write(f"wrote {len(records)} records to {GOLDEN}\n")
