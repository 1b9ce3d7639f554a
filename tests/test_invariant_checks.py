"""Invariants of the package source: internal consistency checks must not
depend on ``assert`` statements, which ``python -O`` strips, no module
keeps an import it never uses or imports inside a function, no module
dispatches on ``isinstance(..., tuple)`` or imports ``fractions``,
``decimal``, ``importlib`` or ``argparse``, a cold start loads none of
``dataclasses``, ``inspect``, ``argparse``, ``gettext`` and ``locale``, cold
``verify-paper`` and ``packets`` runs load none of ``fractions``, ``decimal``,
``argparse``, ``gettext`` and ``locale``, ``from gspinlab import *`` binds only
public names, and every private module-level helper is used somewhere in
the package."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gspinlab

PACKAGE = Path(gspinlab.__file__).resolve().parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == [], "assert statements vanish under python -O: " + ", ".join(found)


def _unused_imports(tree: ast.Module) -> list:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_module_level_imports():
    # __init__.py imports only to re-export
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found += [f"{path.name}:{line} {name}" for line, name in _unused_imports(tree)]
    assert found == [], "unused imports: " + ", ".join(found)


def _private_helpers_and_uses():
    """Module-level ``_``-prefixed functions and classes, and the names each top-level
    statement reads, keyed by the statement's own definition (None for the rest)."""
    helpers, uses = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (path.name, top.name)
                if top.name.startswith("_") and not top.name.startswith("__"):
                    helpers.append(owner)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    uses.add((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    uses.add((node.attr, owner))
                elif isinstance(node, ast.alias):
                    uses.add((node.name, owner))
    return helpers, uses


def test_every_private_helper_is_used():
    # a helper whose last caller went is dead code; its own body does not count
    helpers, uses = _private_helpers_and_uses()
    assert len(helpers) > 50
    dead = [
        f"{module}:{name}"
        for module, name in helpers
        if not any(used == name and owner != (module, name) for used, owner in uses)
    ]
    assert dead == [], "private helpers nothing uses: " + ", ".join(dead)


def test_no_imports_inside_functions():
    # a function-level import escapes the unused-import check above
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == [], "imports inside functions: " + ", ".join(sorted(set(found)))


def _imports_of(names: set) -> list:
    """Where package modules import any of the top-level modules ``names``."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] in names for m in modules):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_imports_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, and each decorator
    # generates and execs its methods at import; records are __slots__ classes
    found = _imports_of({"dataclasses"})
    assert found == [], "dataclasses imported at: " + ", ".join(found)


def test_no_module_imports_fractions_or_decimal():
    # Q(i) runs on int triples and int matrices; fractions would pull in
    # decimal at every cold start
    found = _imports_of({"fractions", "decimal"})
    assert found == [], "fractions or decimal imported at: " + ", ".join(found)


def test_star_import_binds_only_public_names():
    namespace = {}
    exec("from gspinlab import *", namespace)
    assert {"search_isomorphisms", "s_groups", "packet_sizes"} <= set(namespace)
    assert [name for name in gspinlab.__all__ if name.startswith("_")] == []


def test_no_module_imports_importlib():
    # presets open their data files by path; importlib.resources would load
    # pathlib, tempfile, shutil and their imports at every cold start. The
    # CLI reads argv from its verb table; argparse would load gettext and locale
    found = _imports_of({"importlib", "argparse"})
    assert found == [], "importlib or argparse imported at: " + ", ".join(found)


def test_cold_presets_load_no_importlib_resources():
    # -S: a site .pth may import importlib.resources before gspinlab loads
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(PACKAGE.parent)
    code = (
        "import sys, gspinlab.cli; from gspinlab import presets; "
        "presets.datum('GSpin4'); presets.scenario_dict('gspin6-klein'); "
        "print('importlib.resources' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_cli_import_loads_no_dataclasses_or_inspect():
    # -S: a site .pth may import locale before gspinlab loads
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(PACKAGE.parent)
    code = (
        "import sys; before = set(sys.modules); import gspinlab.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "gspinlab.cli" in loaded
    absent = ("dataclasses", "inspect", "argparse", "gettext", "locale")
    assert [m for m in absent if m in loaded] == []


@pytest.mark.parametrize(
    "argv", [["verify-paper", "--json"], ["packets", "gspin6-klein", "--json"]]
)
def test_cold_commands_load_no_fractions_or_decimal(argv):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(PACKAGE.parent)
    code = (
        "import contextlib, io, sys\n"
        "import gspinlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = gspinlab.cli.main({argv!r})\n"
        "absent = ('fractions', 'decimal', 'argparse', 'gettext', 'locale')\n"
        "print(code, *[m for m in absent if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


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


def test_no_module_dispatches_on_tuple():
    # every group element is one GaussianMatrix; products are block-diagonal
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and any(
                    isinstance(t, ast.Name) and t.id == "tuple"
                    for t in ast.walk(node.args[1])
                )
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], "isinstance(..., tuple) at: " + ", ".join(found)
