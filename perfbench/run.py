"""gspinlab benchmark: one workload, one seed, one process, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory. Workloads: lattice, catalogue (see README.md).
Inputs are generated from the seed before timing. The run repeats passes
over the workload's fixed operation list, each pass with fresh inputs,
until the next pass would end after ``--seconds``; at least one pass
always runs. Times are reported at a reference host speed (see
``reference.py``); the record also holds them as measured. With
``--trace 1`` half the time runs untraced and the same passes are then
repeated traced, which gives the per-layer metrics and the tracing
overhead.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. The line before it,
prefixed ``RESULT``, is the full record (environment, sample counts, tail
percentile, failures); it is also written to ``perfbench/out/``.
Exit code 0 when the run completed (even with wrong outputs, which make
``correct`` false), 2 on a usage or set-up error.
"""
from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracing  # noqa: E402
from harness import ROOT, SRC, STOPPED, Deadline, Outcome, Speed, compare_golden, run_op  # noqa: E402

WORKLOADS = ("lattice", "catalogue")
DEFAULT_SEED = 1
SETUP_SAMPLES = 20  # half before the passes, half after
GOLDENS = HERE / "goldens"
OUT = HERE / "out"

class SetupError(Exception):
    pass


# ---------------------------------------------------------------------------
# set-up


def setup_samples(mod, count: int) -> List[List[float]]:
    """(total, presets part, total as measured) seconds of fresh
    interpreters getting ready; the first two at the reference speed, from
    two reference samples the interpreter takes once it is ready."""
    code = (
        "import time\n"
        "t0 = time.perf_counter()\n"
        f"{mod.IMPORT_CODE}\n"
        "t1 = time.perf_counter()\n"
        f"{mod.PRESETS_CODE}"
        "t2 = time.perf_counter()\n"
        "import sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "from reference import REF_S, reference_seconds\n"
        "f = 2 * REF_S / (reference_seconds() + reference_seconds())\n"
        "print((t2 - t0) * f, (t2 - t1) * f, t2 - t0)\n"
    )
    out = []
    for _ in range(count):
        done = subprocess.run(
            [harness.python(), "-c", code], cwd=ROOT, env=harness.child_env(),
            capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise SetupError(f"set-up interpreter failed: {done.stderr.strip()[-500:]}")
        out.append([float(x) for x in done.stdout.split()])
    return out


class Workload:
    """A workload module bound to one seed and to its goldens.

    Each module in ``workloads/`` provides ``bind(seed)``, which loads the
    presets it uses and returns (spec of pass i, operations of a spec).
    """

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.mod = importlib.import_module(f"workloads.{name}")
        self.spec, self.build = self.mod.bind(seed)
        path = GOLDENS / f"{name}.json"
        self.golden = json.loads(path.read_text("utf-8")) if path.exists() else None

    def ops(self, index: int, trace_dir: Optional[Path] = None):
        return self.build(self.spec(index), trace_dir)

    def golden_for(self, index: int, outcome: Outcome) -> Optional[dict]:
        """Stored outcome to compare against, if any: every pass for a
        workload whose outputs do not depend on the seed, otherwise the
        first pass of the default seed."""
        if self.golden is None:
            return None
        if self.mod.SEED_FREE_OUTPUTS or (
            self.seed == self.golden["seed"] and index == 0
        ):
            return self.golden["ops"].get(outcome.key)
        return None


# ---------------------------------------------------------------------------
# measurement


class Pass:
    """What a pass keeps: per-operation latencies and counts, not outputs,
    so that memory does not grow with the number of passes (outcomes and
    digests only where asked for).

    Latencies and ``wall`` are at the reference speed (``raw_*`` as
    measured). Operations stopped at their deadline are left out of them:
    their time is the deadline, not the program's. They are counted in
    ``misses``; in ``failed`` too unless they hit the known defect
    (``known``)."""

    def __init__(self, index: int, outcomes: List[Outcome], keep: str = "", scale: float = 1.0) -> None:
        self.index = index
        self.scale = scale  # mean factor to the reference speed
        self.keys = tuple(sys.intern(o.key) for o in outcomes)
        done = [o for o in outcomes if o.status not in STOPPED]
        self.timed_keys = tuple(sys.intern(o.key) for o in done)
        self.seconds = array("d", (o.scaled for o in done))
        self.raw_seconds = array("d", (o.seconds for o in done))
        self.wall = sum(self.seconds)
        self.raw_wall = sum(self.raw_seconds)
        self.failed = sum(1 for o in outcomes if o.failed)
        self.misses = sum(1 for o in outcomes if o.status in STOPPED)
        self.known = sum(1 for o in outcomes if o.status == "blowup")
        self.refusals = sum(1 for o in outcomes if o.status.startswith("refused:") and not o.problems)
        self.problems = [f"{o.key}: {msg}" for o in outcomes for msg in o.problems]
        self.digests = tuple(o.digest for o in outcomes) if keep == "digests" else None
        self.outcomes = outcomes if keep == "outcomes" else None
        self.layers: Optional[dict] = None
        self.spans: Optional[dict] = None  # operation key -> spans


def run_passes(
    wl: Workload,
    budget: float,
    speed: Speed,
    indices: Optional[List[int]] = None,
    tracer=None,
    keep: str = "",
) -> List[Pass]:
    """Passes until the next one would end after ``budget`` seconds."""
    passes: List[Pass] = []
    durations: List[float] = []  # whole passes, deadline misses and checks included
    start = time.perf_counter()
    trace_dir = OUT / "trace" if (tracer is not None and wl.name == "catalogue") else None
    with Deadline() as deadline:
        if tracer is not None:
            deadline.on_fire.append(tracer.on_deadline)
        index = 0
        while True:
            pass_start = time.perf_counter()
            pass_index = indices[len(passes)] if indices is not None else index
            if trace_dir is not None:
                shutil.rmtree(trace_dir, ignore_errors=True)
                trace_dir.mkdir(parents=True)
            ops = wl.ops(pass_index, trace_dir)
            if tracer is not None:
                tracer.reset()
            outcomes = []
            for op in ops:
                sample = speed.tick()
                outcome = run_op(op, deadline, wl.mod.DEADLINE_S)
                outcome.sample = sample
                if tracer is not None:
                    tracer.end_op()
                golden = wl.golden_for(pass_index, outcome)
                if golden is not None:
                    outcome.problems += compare_golden(outcome, golden)
                outcomes.append(outcome)
            this = Pass(pass_index, outcomes, keep, speed.scale_pass(outcomes))
            if tracer is not None:
                _trace_results(this, outcomes, tracer, trace_dir)
            del ops, outcomes
            passes.append(this)
            index += 1
            now = time.perf_counter()
            durations.append(now - pass_start)
            if indices is not None and len(passes) >= len(indices):
                break
            if now - start + statistics.median(durations) > budget:
                break
    if trace_dir is not None:
        shutil.rmtree(trace_dir, ignore_errors=True)
    return passes


def _trace_results(p: Pass, outcomes: List[Outcome], tracer, trace_dir: Optional[Path]) -> None:
    """Per-layer numbers and spans of a traced pass: from this process, or
    added up from the catalogue's children. Layer times are scaled by the
    pass's mean factor to the reference speed; spans stay as measured."""
    if trace_dir is None:
        p.layers = tracer.summary()
        p.layers["cli.invocations"] = 0
        p.layers["cli.exit_nonzero"] = 0
        p.spans = {"pass": tracer.span_records()}
    else:
        _child_results(p, outcomes, trace_dir)
    for key in p.layers:
        if key.endswith("_s"):
            p.layers[key] *= p.scale


def _child_results(p: Pass, outcomes: List[Outcome], trace_dir: Path) -> None:
    files = {o.key: trace_dir / f"op{i:02d}.json" for i, o in enumerate(outcomes)}
    # a child stopped at its deadline leaves no file
    parts = {key: json.loads(f.read_text("utf-8")) for key, f in files.items() if f.exists()}
    p.layers = tracing.merge([part["summary"] for part in parts.values()])
    p.layers["cli.invocations"] = len(outcomes)
    p.layers["cli.exit_nonzero"] = sum(
        1 for o in outcomes if o.status != "ok" or o.data["exit"] != 0
    )
    p.spans = {key: part["spans"] for key, part in parts.items()}


# ---------------------------------------------------------------------------
# reporting


def _times(passes: List[Pass], setup: List[List[float]], raw: bool) -> Dict[str, tuple]:
    """(value, sample count) of each timed end-to-end metric."""
    latencies = [p.raw_seconds if raw else p.seconds for p in passes]
    return {
        "setup_s": (statistics.median(s[2 if raw else 0] for s in setup), len(setup)),
        "wall_s": (statistics.median(p.raw_wall if raw else p.wall for p in passes), len(passes)),
        "op_p50_s": (statistics.median(statistics.median(ts) for ts in latencies), len(passes)),
        "op_tail_s": (statistics.median(harness.tail_percentile(ts)[0] for ts in latencies), len(passes)),
    }


def end_to_end(passes: List[Pass], setup: List[List[float]]) -> Dict[str, dict]:
    """Times at the reference speed, with ``raw`` as measured. The median
    and tail latencies are taken in each pass, over its finished
    operations, and their medians over passes are reported: pooled over a
    run, the middle and the tail would fall on the extremes of a few
    operations, and the tail's percentile would move with the number of
    passes."""
    raw = _times(passes, setup, raw=True)
    out = {
        name: {"value": value, "unit": "s", "samples": n, "raw": raw[name][0]}
        for name, (value, n) in _times(passes, setup, raw=False).items()
    }
    out["op_tail_s"]["percentile"] = "per pass, " + harness.tail_percentile(passes[-1].seconds)[1]
    out["peak_rss_mb"] = {"value": harness.peak_rss_mb(), "unit": "MiB", "samples": 1}
    return out


LAYER_UNITS = {"_s": "s", "_ratio": "ratio", "_bits": "bits"}


def _layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(untraced: List[Pass], traced: List[Pass], setup: List[List[float]]) -> Dict[str, dict]:
    keys = traced[0].layers.keys()
    out = {}
    for key in keys:
        values = [p.layers[key] for p in traced]
        out[key] = {"value": statistics.median(values), "unit": _layer_unit(key), "samples": len(values)}
    out["presets.load_s"] = {
        "value": statistics.median(s[1] for s in setup), "unit": "s", "samples": len(setup)}
    base = {p.index: p.wall for p in untraced}
    deltas = [p.wall - base[p.index] for p in traced]
    out["trace.overhead_s"] = {"value": statistics.median(deltas), "unit": "s", "samples": len(deltas)}
    return out


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-goldens", action="store_true",
                    help="store the default seed's first-pass outputs as the goldens")
    args = ap.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # SNF outputs can have huge entries

    try:
        wl = _start(args)
        if args.write_goldens:
            return _write_goldens(wl)
        speed = Speed()
        setup = setup_samples(wl.mod, SETUP_SAMPLES // 2)
        budget = args.seconds if not args.trace else args.seconds / 2
        keep = "digests" if args.trace else ""
        untraced = run_passes(wl, budget, speed, keep=keep)
        traced: List[Pass] = []
        if args.trace:
            with tracing.Tracer() as tracer:
                traced = run_passes(wl, budget, speed, [p.index for p in untraced], tracer, keep=keep)
        setup += setup_samples(wl.mod, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    runs = untraced + traced
    problems = [line for p in runs for line in p.problems]
    # traced runs must give the same outputs as the untraced runs
    first = {p.index: p.digests for p in untraced}
    for p in traced:
        for key, got, want in zip(p.keys, p.digests, first[p.index]):
            if got is not None and want is not None and got != want:
                problems.append(f"{key}: traced output differs from untraced output")
    attempted = sum(len(p.keys) for p in runs)
    failed = sum(p.failed for p in runs)
    correct = not problems

    e2e = end_to_end(untraced, setup)
    record = {
        "schema": harness.SCHEMA,
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": harness.environment(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "deadline_misses": sum(p.misses for p in runs),
        "known_defect_misses": sum(p.known for p in runs),
        "expected_refusals": sum(p.refusals for p in runs),
        "deadline_s": wl.mod.DEADLINE_S,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "ops_per_pass": len(untraced[0].keys),
        "reference": {
            "nominal_s": harness.REF_S,
            "median_s": statistics.median(speed.samples),
            "samples": len(speed.samples),
        },
        "end_to_end": e2e,
        "per_layer": per_layer(untraced, traced, setup) if args.trace else None,
        "slots": [[key, t] for key, t in harness.slot_medians(untraced).items()],
        "problems": problems[:50],
    }
    _print_report(record)
    OUT.mkdir(exist_ok=True)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", "utf-8")
    if traced:
        (OUT / f"{name}-spans.json").write_text(json.dumps(traced[-1].spans) + "\n", "utf-8")
    print("RESULT " + json.dumps(record, sort_keys=True))
    chosen = record["per_layer"] if args.trace else e2e
    metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in chosen.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _start(args) -> Workload:
    if not (SRC / "gspinlab" / "__init__.py").is_file():
        raise SetupError(f"no gspinlab sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import gspinlab

    if Path(gspinlab.__file__).resolve().parent != (SRC / "gspinlab").resolve():
        raise SetupError(f"imported gspinlab from {gspinlab.__file__}, not from {SRC}")
    return Workload(args.workload, args.seed)


def _print_report(r: dict) -> None:
    print(
        f"workload {r['workload']} seed {r['seed']} trace {r['trace']}: "
        f"{r['passes']} pass(es) of {r['ops_per_pass']} operations (+{r['traced_passes']} traced); "
        f"attempted {r['attempted']}, failed {r['failed']} "
        f"(failed_ratio {r['failed_ratio']:.4f}); {r['deadline_misses']} deadline misses "
        f"at {r['deadline_s']} s, {r['known_defect_misses']} of them the known SNF blow-up; "
        f"expected refusals {r['expected_refusals']}, correct {r['correct']}"
    )
    ref = r["reference"]
    print(f"  reference computation: median {ref['median_s']:.6g} s over {ref['samples']} samples, "
          f"nominal {ref['nominal_s']} s")
    for name, m in r["end_to_end"].items():
        extra = f" {m['percentile']}" if "percentile" in m else ""
        raw = f"; as measured {m['raw']:.6g}" if "raw" in m else ""
        print(f"  {name:<16} {m['value']:.6g} {m['unit']} (n={m['samples']}{raw}){extra}")
    for name, m in (r["per_layer"] or {}).items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    for line in r["problems"][:10]:
        print(f"  problem: {line}")


def _write_goldens(wl: Workload) -> int:
    if wl.seed != DEFAULT_SEED:
        raise SetupError("goldens are written for the default seed only")
    GOLDENS.mkdir(exist_ok=True)
    wl.golden = None
    [first] = run_passes(wl, 0.0, Speed(), keep="outcomes")
    ops = {}
    for o in first.outcomes:
        if o.problems:
            raise SetupError(f"{o.key}: {o.problems}")
        ops[o.key] = {"status": o.status, "digest": o.digest}
        if wl.mod.SEED_FREE_OUTPUTS:
            ops[o.key].update(o.data)
    payload = {"workload": wl.name, "seed": DEFAULT_SEED, "ops": ops}
    (GOLDENS / f"{wl.name}.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"wrote goldens for {wl.name}: {len(ops)} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
