"""Byte-identity guard: every ``tools/cli_outputs.py`` invocation against its golden.

``goldens/cli_outputs.json`` holds the tool's record of the CLI: the exit
code, stdout and stderr of each invocation, in text and ``--json``. The
working tree is recorded once with the tool's own ``record()`` and compared
invocation by invocation, so a failure names the invocation and shows the
golden beside the new output. The golden is read, never written here. A
change that means to alter an output regenerates it with

    python tools/cli_outputs.py tests/goldens/cli_outputs.json

and lists the diff.
"""
import importlib.util
import json
from pathlib import Path

import pytest

from gspinlab import presets

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = json.loads((ROOT / "tests" / "goldens" / "cli_outputs.json").read_text(encoding="utf-8"))


def _tool():
    spec = importlib.util.spec_from_file_location("cli_outputs", ROOT / "tools" / "cli_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


TOOL = _tool()


@pytest.fixture(scope="module")
def recorded():
    return TOOL.record(ROOT / "src")


def test_goldens_cover_every_scenario(tmp_path):
    runs = TOOL.invocations(ROOT / "src" / "gspinlab" / "data", tmp_path)
    commands = [" ".join(argv).replace(str(tmp_path), "<tmp>") for argv in runs]
    assert len(set(commands)) == len(commands)
    assert sorted(GOLDENS) == sorted(commands)
    scenarios = [name[: -len(".json")] for name in presets.scenario_names()]
    assert {f"packets {s}{flag}" for s in scenarios for flag in ("", " --json")} <= set(GOLDENS)


@pytest.mark.parametrize("command", sorted(GOLDENS))
def test_catalogue_output_matches_golden(command, recorded):
    got, want = recorded.get(command, {}), GOLDENS[command]
    keys = ("exit", "stdout", "stderr")
    assert tuple(got.get(k) for k in keys) == tuple(want[k] for k in keys)
