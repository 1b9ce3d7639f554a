"""Byte-identity guard: ``params <witness>`` against the CLI golden.

These are the outputs that print a twist list: stdout, stderr and the exit
code of ``params <w>`` and ``params <w> --json`` for every shipped parameter
witness, run one by one and read from ``goldens/cli_outputs.json``.
"""
import json
from pathlib import Path

import pytest

from gspinlab import presets
from gspinlab.cli import main

GOLDENS = json.loads(
    (Path(__file__).resolve().parent / "goldens" / "cli_outputs.json").read_text(encoding="utf-8")
)


def _parameter_witnesses():
    return [w for w in presets.witness_names() if presets.witness(w).get("kind") == "parameter"]


COMMANDS = [f"params {w}{flag}" for w in _parameter_witnesses() for flag in ("", " --json")]


def test_goldens_cover_every_parameter_witness():
    assert set(COMMANDS) <= set(GOLDENS)
    assert len(COMMANDS) == 8


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_params_output_matches_golden(command, capsys):
    code = main(command.split())
    out, err = capsys.readouterr()
    assert (code, out, err) == (
        GOLDENS[command]["exit"],
        GOLDENS[command]["stdout"],
        GOLDENS[command]["stderr"],
    )
