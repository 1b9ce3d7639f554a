"""``catalogue``: cold command-line runs, one child process at a time, of
``verify-paper --json`` and ``packets <name> --json`` for every shipped
scenario. The seed only permutes the order.

These are the user-facing reference commands. This is the only workload
that measures ``cli``, import and ``presets`` on every call, and every
process starts cold, so in-process caches cannot help. Each output must
match the stored one byte for byte. Each command runs under
``cli_child.py``, which samples the host's speed while the command runs.
"""
from __future__ import annotations

import json
import random
import subprocess
from pathlib import Path
from typing import List, Optional, Tuple

from harness import ROOT, DeadlineExceeded, Op, child_env, python

NAME = "catalogue"
DEADLINE_S = 120.0
# The commands do not depend on the seed, so every output is compared with
# the stored one, on every pass.
SEED_FREE_OUTPUTS = True
IMPORT_CODE = "import gspinlab, gspinlab.cli"
PRESETS_CODE = (
    "from gspinlab import presets\n"
    "for name in presets.scenario_names():\n"
    "    presets.scenario_dict(name)\n"
)
SCENARIOS_DIR = ROOT / "src" / "gspinlab" / "data" / "scenarios"
CHILD = Path(__file__).resolve().parent.parent / "cli_child.py"
SPEED_DIR = Path(__file__).resolve().parent.parent / "out" / "speed"


def commands() -> List[List[str]]:
    names = sorted(p.stem for p in SCENARIOS_DIR.glob("*.json"))
    return [["verify-paper", "--json"]] + [["packets", n, "--json"] for n in names]


class Generator:
    def __init__(self, seed: int) -> None:
        self.seed = seed

    def spec(self, index: int) -> dict:
        order = commands()
        random.Random(f"{NAME}:{self.seed}:{index}").shuffle(order)
        return {"ops": [{"argv": argv} for argv in order]}


def bind(seed: int):
    return Generator(seed).spec, build


def _run(argv: List[str], speed_file: Path, trace_file: Optional[Path]):
    speed_file.unlink(missing_ok=True)
    cmd = [python(), str(CHILD), str(speed_file), str(trace_file or "-"), *argv]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=DEADLINE_S,
        )
    except subprocess.TimeoutExpired:
        raise DeadlineExceeded() from None
    return done.returncode, done.stdout, done.stderr


def _speed(speed_file: Path) -> Optional[Tuple[float, List[float]]]:
    """What the child's sampler wrote; nothing if it was stopped."""
    if not speed_file.exists():
        return None
    cost, *samples = (float(x) for x in speed_file.read_text("utf-8").split())
    speed_file.unlink()
    return cost, samples


def _check(argv: List[str], data: dict) -> List[str]:
    if data["stderr"]:
        return [f"stderr: {data['stderr'][:200]}"]
    try:
        payload = json.loads(data["stdout"])
    except ValueError:
        return ["output is not JSON"]
    if argv[0] == "verify-paper":
        ok = payload["ok"] and all(item["ok"] for item in payload["items"])
        return [] if ok and data["exit"] == 0 else ["verify-paper reports a failed item"]
    want = 0 if payload["consistent"] else 1
    return [] if data["exit"] == want else [f"exit {data['exit']}, expected {want}"]


def build(spec: dict, trace_dir: Optional[Path] = None) -> List[Op]:
    SPEED_DIR.mkdir(parents=True, exist_ok=True)
    ops = []
    for i, item in enumerate(spec["ops"]):
        argv = item["argv"]
        speed_file = SPEED_DIR / f"op{i:02d}.txt"
        trace_file = None if trace_dir is None else trace_dir / f"op{i:02d}.json"
        ops.append(Op(
            " ".join(argv),
            lambda argv=argv, speed_file=speed_file, trace_file=trace_file: _run(argv, speed_file, trace_file),
            lambda out: {"exit": out[0], "stdout": out[1], "stderr": out[2]},
            lambda data, argv=argv: _check(argv, data),
            speed=lambda speed_file=speed_file: _speed(speed_file),
        ))
    return ops
