"""Closed-loop runner: one client, one operation at a time, no threads.

An operation is a zero-argument callable plus what it is expected to do:
succeed, or refuse with one named, documented exception. Each operation
runs under a per-operation deadline enforced from outside the library with
``SIGALRM``; an operation past its deadline is stopped and counted as
failed, unless it is marked as hitting the known SNF blow-up. Outputs are
checked outside the timed region. Times are scaled to a reference host
speed (``Speed``).
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from reference import EVERY_S, REF_S, reference_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The documented refusals. ValueError counts only where an operation
# expects it (scenario validation); anywhere else it is a failure.
DOCUMENTED_REFUSALS = (
    "FieldInsufficientError",
    "NotEllipticError",
    "NormalizationError",
    "CapExceededError",
    "ValueError",
)

SCHEMA = "gspinlab-perfbench/2"


class DeadlineExceeded(BaseException):
    """Raised by the alarm handler. A BaseException, so that library code
    that catches ``Exception`` cannot turn a stopped operation into a
    quiet result."""


class Deadline:
    """Arms ``SIGALRM`` around one call; ``on_fire`` hooks run first."""

    def __init__(self) -> None:
        self.on_fire: List[Callable[[], None]] = []
        self._previous = None

    def __enter__(self) -> "Deadline":
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _fire(self, signum, frame) -> None:
        for hook in self.on_fire:
            hook()
        raise DeadlineExceeded()

    def call(self, fn: Callable[[], Any], seconds: float) -> Any:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Op:
    """One operation of a workload.

    ``run`` does the library work and returns its raw result; ``render``
    turns that into plain JSON data (outside the timed region); ``check``
    returns a list of invariant violations for a rendered output.
    ``expect`` is ``"ok"`` or the class name of the expected refusal.
    ``known_defect`` marks an operation that may run into the known SNF
    coefficient blow-up: stopped at its deadline, it ends as ``"blowup"``,
    which is counted but is not a failure.
    """

    key: str
    run: Callable[[], Any]
    render: Callable[[Any], Any] = lambda out: out
    check: Callable[[Any], List[str]] = lambda data: []
    expect: str = "ok"
    known_defect: bool = False
    # (seconds, samples) of the reference sampled while the operation ran,
    # if it did so itself (a child process); read after it ends
    speed: Optional[Callable[[], Optional[Tuple[float, List[float]]]]] = None


# statuses of operations stopped at their deadline
STOPPED = ("deadline", "blowup")


@dataclass
class Outcome:
    key: str
    # "ok" | "refused:<Type>" | "deadline" | "blowup" | "error:<Type>: <msg>"
    status: str
    seconds: float  # as measured
    digest: Optional[str] = None
    data: Any = None
    problems: List[str] = field(default_factory=list)
    scaled: float = 0.0  # at the reference speed, set by ``Speed.scale_pass``
    sample: int = 0  # index of the speed sample taken last before it
    ref: Optional[float] = None  # mean reference time sampled while it ran

    @property
    def failed(self) -> bool:
        """A deadline miss outside the known defect, or a wrong outcome
        (which has problems)."""
        return self.status == "deadline" or bool(self.problems)


def digest(data: Any) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def classify(op: Op, status: str, data: Any = None) -> List[str]:
    """Problems with an operation's outcome, given its expectation."""
    if status in STOPPED:
        return []
    if status.startswith("error:"):
        return [f"undocumented exception {status[6:]}"]
    if status.startswith("refused:"):
        got = status[len("refused:"):]
        if got != op.expect:
            want = "success" if op.expect == "ok" else op.expect
            return [f"refused with {got}, expected {want}"]
        return []
    if op.expect != "ok":
        return [f"succeeded, expected refusal {op.expect}"]
    return op.check(data)


def run_op(op: Op, deadline: Deadline, seconds: float) -> Outcome:
    start = time.perf_counter()
    data = None
    try:
        raw = deadline.call(op.run, seconds)
        status = "ok"
    except DeadlineExceeded:
        status = "blowup" if op.known_defect else "deadline"
    except Exception as exc:  # classified below; never swallowed
        name = type(exc).__name__
        status = f"refused:{name}" if name in DOCUMENTED_REFUSALS else f"error:{name}: {exc}"
    elapsed = time.perf_counter() - start
    out = Outcome(op.key, status, elapsed)
    measured = op.speed() if op.speed is not None else None
    if measured:
        cost, samples = measured
        out.seconds -= cost
        out.ref = statistics.fmean(samples)
    if status == "ok":
        data = op.render(raw)
        out.data, out.digest = data, digest(data)
    out.problems = classify(op, status, data)
    return out


def compare_golden(outcome: Outcome, golden: Dict[str, Any]) -> List[str]:
    """Exact comparison against a stored outcome. A stored or current
    deadline miss carries no output and is not compared."""
    if outcome.status in STOPPED or golden["status"] in STOPPED:
        return []
    if outcome.status != golden["status"] or outcome.digest != golden["digest"]:
        return [f"differs from golden: {outcome.status} {outcome.digest} vs {golden['status']} {golden['digest']}"]
    return []


# ---------------------------------------------------------------------------
# host speed

class Speed:
    """Host speed, sampled between operations (see ``reference``).

    A sample is taken before an operation when the last one is at least
    ``every`` seconds old, and after every pass. A time measured between two
    samples is scaled by ``REF_S`` over their mean, unless the operation
    sampled the reference itself while it ran (``Outcome.ref``).
    """

    def __init__(self, every: float = EVERY_S) -> None:
        self.every = every
        self.samples = array("d")
        self._at = float("-inf")

    def sample(self) -> int:
        self.samples.append(reference_seconds())
        self._at = time.perf_counter()
        return len(self.samples) - 1

    def tick(self) -> int:
        """Sample if one is due; the index of the last sample."""
        if time.perf_counter() - self._at >= self.every:
            return self.sample()
        return len(self.samples) - 1

    def factor(self, index: int) -> float:
        """Scale for a time measured after sample ``index`` and before the
        next sample."""
        around = self.samples[index:index + 2]
        return REF_S * len(around) / sum(around)

    def scale_pass(self, outcomes: List["Outcome"]) -> float:
        """Close a pass with a sample, set every ``scaled`` time, and return
        the pass's mean factor."""
        self.sample()
        factors = [REF_S / o.ref if o.ref else self.factor(o.sample) for o in outcomes]
        for o, f in zip(outcomes, factors):
            o.scaled = o.seconds * f
        return statistics.fmean(factors) if factors else 1.0


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(samples: Sequence[float]):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, label)``. With n sorted samples, the (n-11)-th has
    ten samples above it, at percentile 100*(n-10)/n. Below 21 samples that
    percentile is under the median, which is no tail, so the maximum is
    given instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 21:
        return xs[-1], f"max (n={n}; fewer than 21 samples)"
    return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f} (n={n})"


def slot_medians(passes) -> Dict[str, float]:
    """Per-operation latency: the median over passes of each operation
    slot, matched by key, in the order first seen. Each pass has
    ``timed_keys`` and ``seconds``; a slot that never finished is absent."""
    by_key: Dict[str, List[float]] = {}
    for p in passes:
        for key, t in zip(p.timed_keys, p.seconds):
            by_key.setdefault(key, []).append(t)
    return {key: statistics.median(ts) for key, ts in by_key.items()}


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------------
# environment record


def _git_commit() -> Optional[str]:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gspinlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> Dict[str, Any]:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's sources only."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def python() -> str:
    return sys.executable or "python3"
