"""Outcomes are classified as success, expected refusal, known-defect
miss, deadline miss or failure; the deadline stops work the library would
not stop; times are scaled by the host-speed samples around them."""
import time

from gspinlab.finite_groups import FieldInsufficientError

import harness
from harness import (
    REF_S,
    Deadline,
    Op,
    Outcome,
    Speed,
    compare_golden,
    run_op,
    slot_medians,
    tail_percentile,
)
from run import Pass


def _run(op, seconds=5.0):
    with Deadline() as deadline:
        return run_op(op, deadline, seconds)


def _raise(exc):
    def run():
        raise exc
    return run


def test_success_with_good_output():
    out = _run(Op("k", lambda: 3, check=lambda d: [] if d == 3 else ["bad"]))
    assert out.status == "ok" and not out.failed and out.digest


def test_wrong_output_is_a_failure():
    out = _run(Op("k", lambda: 2, check=lambda d: [] if d == 3 else ["bad"]))
    assert out.failed and out.problems


def test_expected_refusal_is_not_a_failure():
    out = _run(Op("k", _raise(FieldInsufficientError("x")), expect="FieldInsufficientError"))
    assert out.status == "refused:FieldInsufficientError" and not out.failed


def test_refusal_where_success_was_expected_is_a_failure():
    out = _run(Op("k", _raise(ValueError("x"))))
    assert out.failed and out.problems


def test_success_where_refusal_was_expected_is_a_failure():
    out = _run(Op("k", lambda: 1, expect="ValueError"))
    assert out.failed and out.problems


def test_undocumented_exception_is_a_failure():
    out = _run(Op("k", _raise(KeyError("x"))))
    assert out.status.startswith("error:KeyError") and out.problems


def test_deadline_stops_a_busy_operation():
    def spin():
        while True:
            pass

    start = time.perf_counter()
    out = _run(Op("k", spin), seconds=0.05)
    assert out.status == "deadline" and out.failed and not out.problems
    assert time.perf_counter() - start < 2


def test_known_defect_miss_is_counted_but_not_a_failure():
    def spin():
        while True:
            pass

    out = _run(Op("k", spin, known_defect=True), seconds=0.05)
    assert out.status == "blowup" and not out.failed and not out.problems


def test_deadline_is_not_swallowed_by_broad_handlers():
    def guarded():
        try:
            while True:
                pass
        except Exception:
            return "quiet result"

    out = _run(Op("k", guarded), seconds=0.05)
    assert out.status == "deadline"


def test_golden_comparison():
    out = _run(Op("k", lambda: [1, 2]))
    assert compare_golden(out, {"status": "ok", "digest": out.digest}) == []
    assert compare_golden(out, {"status": "ok", "digest": "0"})
    assert compare_golden(out, {"status": "deadline", "digest": None}) == []


def test_tail_percentile():
    value, label = tail_percentile(range(100))
    assert value == 89 and label.startswith("p90.0")
    value, label = tail_percentile([3, 1, 2])
    assert value == 3 and label.startswith("max")


def test_stopped_operations_are_left_out_of_latencies():
    outcomes = [
        Outcome("a", "deadline", 0.5, scaled=0.25),
        Outcome("b", "ok", 0.25, scaled=0.125),
        Outcome("c", "refused:ValueError", 0.125, scaled=0.0625),
        Outcome("d", "blowup", 0.5, scaled=0.25),
    ]
    p = Pass(0, outcomes)
    assert p.wall == 0.1875 and p.raw_wall == 0.375
    assert p.failed == 1 and p.misses == 2 and p.known == 1
    assert slot_medians([p]) == {"b": 0.125, "c": 0.0625}


def test_times_are_scaled_by_the_speed_samples_around_them(monkeypatch):
    monkeypatch.setattr(harness, "reference_seconds", iter([0.001, 0.003]).__next__)
    speed = Speed(every=3600.0)
    assert speed.tick() == 0 and speed.tick() == 0  # the second one is not due
    parent = Outcome("a", "ok", 0.5, sample=0)
    child = Outcome("b", "ok", 0.5, ref=0.004)  # sampled its own speed
    speed.scale_pass([parent, child])  # closes the pass with a sample
    assert list(speed.samples) == [0.001, 0.003]
    assert parent.scaled == 0.5 * REF_S / 0.002
    assert child.scaled == 0.5 * REF_S / 0.004
