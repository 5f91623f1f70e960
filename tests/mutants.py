"""Mutation sweep of ``src/carterlink``: does some test fail when one operator
of the program is changed?

A site is a comparison operator, an arithmetic operator (``+ - * // %``), a
boolean operator (``and``/``or``), a ``not`` or an int constant.  Each site
gives one mutant:

    <  <=  >  >=  ==  !=  is  is not  in  not in   the boundary or the negation
    +  -                                            swapped
    *  //  %                                        * -> //, // -> *, % -> //
    and  or                                         swapped
    not x                                           x
    n                                               n + 1

The mutated module is written back by ``ast.unparse`` into a temporary copy
of ``src/``, ``tests/``, ``perfbench/`` and ``BENCHMARK.json``, so the tests
(which find ``src/`` next to themselves) import it.  Tier-1 must pass with
the modules only written back, or the sweep stops before its first mutant.
The module's own test file runs first, with ``-x``; only a mutant that
passes it runs the full tier-1 suite.  Two mutants run at a time.  A run
that exceeds ``--timeout`` counts as killed (``diagram.py:267``'s
``left[0]`` made ``left[1]`` loops forever).  A mutant that survives both
runs is a gap in the tests, code that nothing needs, or an equivalent
mutant.

Each mutant is one JSON line on stdout.  Run from the root of
the repository, for instance on one function:

    python tests/mutants.py --module cli --function cmd_verify
    python tests/mutants.py --module roots --lines 200-260 --list

Standard library only.  pytest does not collect this file, and tier-1 does
not run it: the whole of ``src/`` takes about 100 minutes of CPU time.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "carterlink"
COPIED = ("src", "tests", "perfbench", "BENCHMARK.json")
# the test file that runs first for a mutant of each module
OWN_TESTS = {"cartan": "tests/test_cartan.py", "cli": "tests/test_cli.py",
             "diagram": "tests/test_diagram.py", "linkage": "tests/test_linkage.py",
             "orbit": "tests/test_orbit.py", "roots": "tests/test_oracle.py"}
TIER1 = ["--continue-on-collection-errors"]
MAX_WORKERS = 2

_COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
            ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
            ast.In: ast.NotIn, ast.NotIn: ast.In}
_OPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
        ast.Mod: ast.FloorDiv, ast.And: ast.Or, ast.Or: ast.And}
_TEXT = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
         ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
         ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
         ast.FloorDiv: "//", ast.Mod: "%", ast.And: "and", ast.Or: "or"}


def _sites(tree: ast.AST):
    """Yield (node, function, from, to, apply) for each site of ``tree`` in a
    fixed order; ``apply()`` makes the mutant in place."""
    def visit(node, parent, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            func = f"{func}.{node.name}" if func else node.name
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in _COMPARE:
                    new = _COMPARE[type(op)]
                    yield node, func, _TEXT[type(op)], _TEXT[new], \
                        lambda k=k, new=new: node.ops.__setitem__(k, new())
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in _OPS:
            new = _OPS[type(node.op)]
            yield node, func, _TEXT[type(node.op)], _TEXT[new], \
                lambda: setattr(node, "op", new())
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node, func, "not", "", lambda: _replace(parent, node, node.operand)
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, func, str(node.value), str(node.value + 1), \
                lambda: setattr(node, "value", node.value + 1)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, node, func)
    yield from visit(tree, None, "")


def _replace(parent: ast.AST, old: ast.AST, new: ast.AST) -> None:
    """Put ``new`` where ``parent`` holds ``old``."""
    for field, value in ast.iter_fields(parent):
        if value is old:
            setattr(parent, field, new)
        elif isinstance(value, list):
            value[:] = [new if x is old else x for x in value]


def _tree(module: str) -> ast.AST:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def list_sites(module: str) -> list[dict]:
    """The sites of ``module``, each as a dict with its number ``site``."""
    return [{"module": module, "site": i, "line": node.lineno, "col": node.col_offset,
             "function": func, "from": was, "to": now}
            for i, (node, func, was, now, _) in enumerate(_sites(_tree(module)))]


def mutant_source(module: str, site: int) -> str:
    """The source of ``module`` with site number ``site`` mutated."""
    tree = _tree(module)
    for i, (*_, apply) in enumerate(_sites(tree)):
        if i == site:
            apply()
            return ast.unparse(tree)
    raise IndexError(f"{module} has no site {site}")


def _pytest(where: Path, args: list[str], timeout: float) -> str:
    """Run pytest in ``where``: 'passed', 'failed' or 'timeout'."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(where / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    proc = subprocess.Popen(cmd, cwd=where, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return "passed" if proc.wait(timeout=timeout) == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"


def _copy(tmp: str, sources: dict[str, str]) -> Path:
    """A copy of the tree in ``tmp``, with ``sources[m]`` as module m."""
    where = Path(tmp)
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, where / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy(ROOT / name, where / name)
    for module, source in sources.items():
        (where / "src" / "carterlink" / f"{module}.py").write_text(source + "\n", encoding="utf-8")
    return where


def run_mutant(site: dict, timeout: float) -> dict:
    """Write the mutant into a fresh copy of the tree and run its tests."""
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="carterlink-mutant-") as tmp:
        where = _copy(tmp, {site["module"]: mutant_source(site["module"], site["site"])})
        stage, verdict = "own", _pytest(where, [OWN_TESTS[site["module"]]], timeout)
        if verdict == "passed":
            stage, verdict = "tier1", _pytest(where, TIER1, timeout)
    result = "survived" if verdict == "passed" else "killed"
    return dict(site, result=result, stage=stage, timeout=verdict == "timeout",
                seconds=round(time.monotonic() - start, 1))


def unmutated_passes(modules, timeout: float) -> bool:
    """Whether tier-1 passes with the modules only written back by
    ``ast.unparse``; else every mutant would count as killed."""
    with tempfile.TemporaryDirectory(prefix="carterlink-mutant-") as tmp:
        where = _copy(tmp, {m: ast.unparse(_tree(m)) for m in modules})
        if _pytest(where, TIER1, timeout) == "passed":
            return True
    print(f"tier-1 fails with {', '.join(modules)} only written back", file=sys.stderr)
    return False


def _line_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("-")
    return int(lo), int(hi or lo)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--module", action="append", choices=sorted(OWN_TESTS),
                   help="a module of carterlink (repeatable; default: all)")
    p.add_argument("--function", action="append",
                   help="a function or method, as in 'cmd_verify' or 'RootSystem.__init__', "
                        "with what it encloses (repeatable)")
    p.add_argument("--lines", type=_line_range, action="append",
                   help="a line or line range, as in 188 or 180-200 (repeatable)")
    p.add_argument("--list", action="store_true", help="list the sites; run nothing")
    p.add_argument("--timeout", type=float, default=300.0, help="seconds per pytest run")
    args = p.parse_args(argv)

    sites = [s for m in (args.module or sorted(OWN_TESTS)) for s in list_sites(m)]
    if args.function:
        sites = [s for s in sites if any(s["function"] == f or s["function"].startswith(f + ".")
                                         for f in args.function)]
    if args.lines:
        sites = [s for s in sites if any(lo <= s["line"] <= hi for lo, hi in args.lines)]
    if args.list:
        for s in sites:
            print(json.dumps(s), flush=True)
        return 0
    modules = sorted({s["module"] for s in sites})
    if not unmutated_passes(modules, args.timeout):
        return 1
    survived = 0
    with ThreadPoolExecutor(MAX_WORKERS) as pool:
        for r in pool.map(lambda s: run_mutant(s, args.timeout), sites):
            survived += r["result"] == "survived"
            print(json.dumps(r), flush=True)
    print(f"{len(sites)} mutants, {len(sites) - survived} killed, {survived} survived",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
