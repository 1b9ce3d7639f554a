"""Byte-identity guard: ``params <witness>`` against stored goldens.

The catalogue goldens never print a twist list; these do. They hold
stdout, stderr and the exit code of ``params <w>`` and ``params <w> --json``
for every shipped parameter witness, and are read, never written.
"""
import json
from pathlib import Path

import pytest

from gspinlab import presets
from gspinlab.cli import main

GOLDENS = json.loads(
    (Path(__file__).resolve().parent / "goldens" / "params.json").read_text(encoding="utf-8")
)["ops"]


def _parameter_witnesses():
    return [w for w in presets.witness_names() if presets.witness(w).get("kind") == "parameter"]


def test_goldens_cover_every_parameter_witness():
    commands = [f"params {w}{flag}" for w in _parameter_witnesses() for flag in ("", " --json")]
    assert sorted(GOLDENS) == sorted(commands)
    assert len(commands) == 8


@pytest.mark.parametrize("command", sorted(GOLDENS))
def test_params_output_matches_golden(command, capsys):
    code = main(command.split())
    out, err = capsys.readouterr()
    assert (code, out, err) == (
        GOLDENS[command]["exit"],
        GOLDENS[command]["stdout"],
        GOLDENS[command]["stderr"],
    )
