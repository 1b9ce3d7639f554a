"""Byte-identity guard: the shipped catalogue commands against stored goldens.

The goldens are the benchmark's recorded outputs of ``verify-paper --json``
and ``packets <scenario> --json`` for every shipped scenario; they are read,
never written.
"""
import json
from pathlib import Path

import pytest

from gspinlab import presets
from gspinlab.cli import main

GOLDENS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "goldens" / "catalogue.json").read_text(
        encoding="utf-8"
    )
)["ops"]
COMMANDS = ["verify-paper --json"] + [
    f"packets {name[: -len('.json')]} --json" for name in presets.scenario_names()
]


def test_goldens_cover_every_scenario():
    assert sorted(GOLDENS) == sorted(COMMANDS)
    assert len(COMMANDS) == 12


@pytest.mark.parametrize("command", COMMANDS)
def test_catalogue_output_matches_golden(command, capsys):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == GOLDENS[command]["exit"]
    assert out == GOLDENS[command]["stdout"]
