"""Internal consistency checks must not depend on ``assert`` statements,
which ``python -O`` strips."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import gspinlab

PACKAGE = Path(gspinlab.__file__).resolve().parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == [], "assert statements vanish under python -O: " + ", ".join(found)


def test_verify_paper_passes_under_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "gspinlab.cli", "verify-paper", "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True
