"""The tracer changes no output and puts every original function back."""
import json
import sys

import pytest

import gspinlab
from gspinlab import presets
from gspinlab.gaussian import GaussianMatrix
from harness import ROOT, Deadline, run_op
from tracing import TARGETS, Tracer
from workloads import catalogue, lattice


def _bindings():
    """Every gspinlab module attribute and class attribute the tracer may touch."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "gspinlab":
            for key, value in vars(mod).items():
                out[(name, key)] = value
    out[("GaussianMatrix", "__mul__")] = GaussianMatrix.__dict__["__mul__"]
    return out


def test_wrappers_restore_the_original_functions():
    before = _bindings()
    with Tracer() as tracer:
        assert tracer._patches
        assert GaussianMatrix.__dict__["__mul__"] is not before[("GaussianMatrix", "__mul__")]
        assert gspinlab.smith_normal_form is not before[("gspinlab", "smith_normal_form")]
        from gspinlab import root_datum

        assert root_datum.smith_normal_form is gspinlab.lattice.smith_normal_form
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_wrappers_are_restored_after_an_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_every_target_exists():
    import importlib

    for module, path, _, _ in TARGETS:
        if module == "gspinlab.cli":
            continue
        obj = importlib.import_module(module)
        for part in path.split("."):
            obj = getattr(obj, part)


def _digests(ops, tracer=None):
    out = []
    with Deadline() as deadline:
        if tracer is not None:
            deadline.on_fire.append(tracer.on_deadline)
        for op in ops:
            outcome = run_op(op, deadline, 30.0)
            assert not outcome.problems, (outcome.key, outcome.problems)
            out.append((outcome.status, outcome.digest))
    return out


def _lattice_ops():
    spec = lattice.Generator(2).spec(0)
    spec = {"ops": spec["ops"][:-1]}  # without the input that never finishes
    data = {
        "data": {n: presets.datum(n) for n in ("GSpin4", "G4", "GSpin6", "G6")},
        "sequences": {n: presets.sequence(n) for n in lattice.SHIPPED_SEQUENCES},
    }
    return lattice.build(spec, data)


def test_traced_outputs_equal_untraced_outputs():
    ops = _lattice_ops()
    plain = _digests(ops)
    with Tracer() as tracer:
        traced = _digests(ops, tracer)
        assert tracer.calls
    assert traced == plain


def test_traced_cli_output_equals_untraced_output():
    out_dir = ROOT / "perfbench" / "out" / "test-trace"
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = {"ops": [{"argv": ["packets", "gspin6-trivial", "--json"]}]}
    plain = _digests(catalogue.build(spec))
    traced = _digests(catalogue.build(spec, out_dir))
    assert traced == plain
    summary = (out_dir / "op00.json").read_text()
    assert '"packets.scenario_report_s"' in summary


def test_reported_metrics_are_the_declared_ones():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    extra = {"cli.invocations", "cli.exit_nonzero", "presets.load_s", "trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == set(Tracer().summary()) | extra
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "wall_s", "op_p50_s", "op_tail_s", "peak_rss_mb"}
