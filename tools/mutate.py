"""Seeded mutation pilot for the gspinlab package (stdlib only; not part of Tier-1).

Each mutant changes one AST site of one module: a comparison swap
(< and <=, > and >=, == and !=, in and not in, is and is not), + and -,
// and *, ``and`` and ``or``, a dropped ``not`` (``not x`` becomes
``not not x``), or an int literal off by one (0 becomes 1; 1 and 2 become
one smaller). The sites of each module are drawn with a seeded generator,
and the mutants run one at a time against a temporary copy of the
repository's ``src/``, ``tests/`` and ``tools/``; ``src/`` itself is
never written. Every run is the whole ``tests/`` suite. A mutant is killed
when the tests fail or time out, and it survives when they pass. A survivor
is either an equivalent mutant or a behaviour no test checks.

    python tools/mutate.py finite_groups --seed 2026 --sites 20 --timeout 120

Exit status: 0 when every mutant was killed, 1 when some survived, 2 when
the unmutated copy already fails its tests.
"""
from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "gspinlab"

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.FloorDiv: ast.Mult, ast.Mult: ast.FloorDiv,
    ast.And: ast.Or, ast.Or: ast.And,
}

Site = Tuple[int, Optional[int]]  # (node number in ast.walk order, comparison operator index)


def find_sites(tree: ast.AST) -> List[Site]:
    sites: List[Site] = []
    for number, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            sites.extend((number, k) for k, op in enumerate(node.ops) if type(op) in SWAPS)
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            sites.append((number, None))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            sites.append((number, None))
        elif isinstance(node, ast.Constant) and type(node.value) is int and node.value in (0, 1, 2):
            sites.append((number, None))
    return sites


def mutate(source: str, site: Site) -> Tuple[str, int, str]:
    """The source with ``site`` mutated, the site's line and a before -> after text."""
    tree = ast.parse(source)
    number, k = site
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == number)
    before = ast.unparse(node)
    if isinstance(node, ast.Compare):
        node.ops[k] = SWAPS[type(node.ops[k])]()
    elif isinstance(node, ast.UnaryOp):
        node.operand = ast.UnaryOp(ast.Not(), node.operand)
    elif isinstance(node, ast.Constant):
        node.value = node.value - 1 if node.value else 1
    else:
        node.op = SWAPS[type(node.op)]()
    after = ast.unparse(node)
    return ast.unparse(ast.fix_missing_locations(tree)), node.lineno, f"{before} -> {after}"


def run_tests(copy: Path, timeout: float) -> Tuple[str, str]:
    """('passed' | 'failed' | 'timeout', the first failing test or '')."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"]
    proc = subprocess.Popen(
        cmd, cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout", ""
    if proc.returncode == 0:
        return "passed", ""
    failed = [line.split()[1] for line in out.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return "failed", failed[0] if failed else f"exit {proc.returncode}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help=f"module names inside {PACKAGE}")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--sites", type=int, default=20, help="mutants per module")
    parser.add_argument("--timeout", type=float, default=120.0, help="seconds per test run")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
        for part in ("src", "tests", "tools"):  # tests run the tools' recorders
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        status, first = run_tests(copy, args.timeout)
        if status != "passed":
            print(f"the unmutated copy does not pass: {status} {first}", file=sys.stderr)
            return 2
        survivors = total = 0
        for module in args.modules:
            path = copy / "src" / PACKAGE / f"{module}.py"
            source = path.read_text(encoding="utf-8")
            sites = find_sites(ast.parse(source))
            rng = random.Random(f"{args.seed}/{module}")
            for site in sorted(rng.sample(sites, min(args.sites, len(sites)))):
                mutant, line, change = mutate(source, site)
                path.write_text(mutant, encoding="utf-8")
                try:
                    status, first = run_tests(copy, args.timeout)
                finally:
                    path.write_text(source, encoding="utf-8")
                verdict = "SURVIVED" if status == "passed" else f"killed ({status})"
                print(f"{module}.py:{line}: {change}: {verdict} {first}".rstrip(), flush=True)
                survivors += status == "passed"
                total += 1
        print(f"{total - survivors} of {total} mutants killed, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
