"""Record what the gspinlab CLI prints, for diffing two checkouts (stdlib only; not part of Tier-1).

Runs ``gspinlab.cli.main`` in process over a fixed list of invocations, each
in text and ``--json``, and writes one JSON object: the argument string maps
to the exit code, stdout and stderr. The list:

- ``verify-paper``;
- ``packets`` for every shipped scenario;
- ``packets`` for every shipped scenario with every parameter witness put in
  its ``witness`` field (a file in a temporary folder, shown as ``<tmp>``);
- ``datum NAME ACTION`` for every datum preset and action;
- ``iso search`` over every ordered pair of datum presets, with no
  constraint, ``--det +1``, ``--det -1``, ``--fix-delta`` and both;
- ``iso check`` for every map preset, on its domain and codomain;
- ``exact`` for every sequence preset;
- ``params`` and ``group gen|id|table --preset`` for every witness preset.

Record each side with its own ``src/`` and compare the two files:

    python tools/cli_outputs.py /tmp/new.json
    python tools/cli_outputs.py /tmp/old.json --src ../parent/src
    diff /tmp/old.json /tmp/new.json
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]

DATUM_ACTIONS = ("describe", "center", "dual", "sc-center", "roots")
ISO_CONSTRAINTS = (
    (), ("--det", "+1"), ("--det", "-1"), ("--fix-delta",),
    ("--fix-delta", "--det", "+1"), ("--fix-delta", "--det", "-1"),
)
GROUP_ACTIONS = ("gen", "id", "table")


def invocations(data: Path, tmp: Path) -> List[List[str]]:
    def names(file: str) -> List[str]:
        return list(json.loads((data / file).read_text("utf-8")))

    maps = json.loads((data / "maps.json").read_text("utf-8"))
    witnesses = json.loads((data / "witnesses.json").read_text("utf-8"))
    parameters = sorted(k for k, v in witnesses.items() if v.get("kind") == "parameter")
    scenarios = sorted(p.stem for p in (data / "scenarios").glob("*.json"))
    data_names = names("root_data.json")
    runs: List[List[str]] = [["verify-paper"]]
    runs += [["packets", s] for s in scenarios]
    for s in scenarios:
        record = json.loads((data / "scenarios" / f"{s}.json").read_text("utf-8"))
        for w in parameters:
            path = tmp / f"{s}+{w}.json"
            path.write_text(json.dumps({**record, "witness": w}), encoding="utf-8")
            runs.append(["packets", str(path)])
    runs += [["datum", d, a] for d in data_names for a in DATUM_ACTIONS]
    runs += [
        ["iso", "search", d1, d2, *c] for d1 in data_names for d2 in data_names for c in ISO_CONSTRAINTS
    ]
    runs += [["iso", "check", m["domain"], m["codomain"], "--map", k] for k, m in maps.items()]
    runs += [["exact", s] for s in names("sequences.json")]
    for w in sorted(witnesses):
        runs.append(["params", w])
        runs += [["group", a, "--preset", w] for a in GROUP_ACTIONS]
    return [argv + extra for argv in runs for extra in ([], ["--json"])]


def record(src: Path) -> Dict[str, dict]:
    sys.path.insert(0, str(src))
    from gspinlab import cli

    out: Dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for argv in invocations(src / "gspinlab" / "data", Path(tmp)):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            key = " ".join(argv).replace(tmp, "<tmp>")
            out[key] = {
                "exit": code,
                "stdout": stdout.getvalue().replace(tmp, "<tmp>"),
                "stderr": stderr.getvalue().replace(tmp, "<tmp>"),
            }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="JSON file to write")
    ap.add_argument("--src", default=str(ROOT / "src"), help="the src/ folder to import gspinlab from")
    args = ap.parse_args()
    outputs = record(Path(args.src).resolve())
    Path(args.out).write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(outputs)} invocations written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
