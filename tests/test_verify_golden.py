"""Pins the stdout, stderr and exit code of ``carterlink verify`` byte for byte.

``verify_golden.json`` holds one record per command: the 19 catalog names in
E8, E7 and D8 with ``--trials 3``, plus A7 in E8 and D6(a1) in E7, whose
embeddings fall in more than one class.  Re-record it with
``PYTHONPATH=src python tests/test_verify_golden.py``; only a change that
means to alter the output of ``verify`` should do so.
"""

import contextlib
import io
import json
import sys
from functools import lru_cache
from pathlib import Path

from carterlink import diagram as dg
from carterlink import roots as rt
from carterlink.cli import main

GOLDEN = Path(__file__).with_name("verify_golden.json")


def _commands() -> list[list[str]]:
    cmds = [["verify", name, "--ambient", amb, "--trials", "3"]
            for amb in ("E8", "E7", "D8") for name in dg.catalog_names()]
    return cmds + [["verify", "A7", "--ambient", "E8", "--trials", "3"],
                   ["verify", "D6(a1)", "--ambient", "E7", "--trials", "3"]]


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "out": out.getvalue(), "err": err.getvalue()}


def test_verify_transcript_is_byte_identical(monkeypatch):
    # Building E8's inner-product bitsets is most of a command's time; the
    # three ambients are built once here instead of 59 times.
    monkeypatch.setattr(rt, "build_root_system", lru_cache(maxsize=None)(rt.build_root_system))
    golden = json.loads(GOLDEN.read_text())
    assert [rec["argv"] for rec in golden] == _commands()
    for rec in golden:
        assert _run(rec["argv"]) == rec


if __name__ == "__main__":
    records = [_run(argv) for argv in _commands()]
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n")
    sys.stdout.write(f"wrote {len(records)} records to {GOLDEN}\n")
