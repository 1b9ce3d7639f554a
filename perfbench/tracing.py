"""Spans and counters recorded from outside the library.

``Tracer.install`` wraps public functions of the ``gspinlab`` modules by
patching module globals (every loaded ``gspinlab`` module that holds the
same function object, so calls between modules are seen too) and a few
methods at class level, such as ``GaussianMatrix.__mul__``. ``restore``
puts every original back.

Each call records a span: name, layer, start, end and the span that
caused it. A layer's self time is the span time minus the part its child
spans cover. Hot leaf functions (matrix products) only add to aggregates,
so that memory does not grow with every product.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = (
    "lattice",
    "root_datum",
    "morphisms",
    "gaussian",
    "finite_groups",
    "centralizers",
    "packets",
    "presets",
    "cli",
)

_CONSTRUCTORS = (
    "gl_datum",
    "sl_datum",
    "pgl_datum",
    "gspin_datum",
    "product_datum",
    "similitude_kernel_datum",
    "central_quotient_datum",
    "central_torus_quotient_datum",
)
_PRESETS = (
    "datum",
    "datum_map",
    "sequence",
    "witness",
    "witness_parameter",
    "witness_generators",
    "realization_data",
    "scenario_names",
    "scenario_dict",
)

# (module, attribute path, span name, hot)
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("gspinlab.gaussian", "GaussianMatrix.__mul__", "gaussian.matmul", True),
    ("gspinlab.gaussian", "qi_nullspace", "gaussian.nullspace", False),
    ("gspinlab.finite_groups", "generate_closure", "finite_groups.closure", False),
    ("gspinlab.finite_groups", "FiniteMatrixGroup.conjugacy_classes", "finite_groups.classes", False),
    ("gspinlab.finite_groups", "FiniteMatrixGroup.center", "finite_groups.center", False),
    ("gspinlab.finite_groups", "FiniteMatrixGroup.character_table", "finite_groups.table", False),
    ("gspinlab.finite_groups", "irreps_with_central_character", "finite_groups.central_filter", False),
    ("gspinlab.finite_groups", "group_id", "finite_groups.group_id", False),
    ("gspinlab.centralizers", "ParameterImage.__post_init__", "centralizers.param_build", False),
    ("gspinlab.centralizers", "twisted_centralizer_space", "centralizers.twisted_solve", False),
    ("gspinlab.centralizers", "s_groups", "centralizers.s_groups", False),
    ("gspinlab.centralizers", "verify_extension", "centralizers.verify_extension", False),
    ("gspinlab.packets", "packet_sizes", "packets.packet_sizes", False),
    ("gspinlab.packets", "scenario_report", "packets.scenario_report", False),
    ("gspinlab.packets", "canonical_group_for_label", "packets.canonical_build", False),
    ("gspinlab.lattice", "smith_normal_form", "lattice.snf", False),
    ("gspinlab.lattice", "kernel_basis", "lattice.kernel", False),
    ("gspinlab.lattice", "cokernel_structure", "lattice.cokernel", False),
    ("gspinlab.lattice", "solve_integral", "lattice.solve", False),
    *(("gspinlab.root_datum", name, "root_datum.construct", False) for name in _CONSTRUCTORS),
    ("gspinlab.root_datum", "center_structure", "root_datum.center", False),
    ("gspinlab.root_datum", "dual_sc_center", "root_datum.center", False),
    ("gspinlab.root_datum", "verify_exact_sequence", "root_datum.exact_sequence", False),
    ("gspinlab.morphisms", "search_isomorphisms", "morphisms.search", False),
    *(("gspinlab.presets", name, "presets.load", False) for name in _PRESETS),
    ("gspinlab.cli", "main", "cli.main", False),
)

REFUSALS = ("FieldInsufficientError", "CapExceededError")


class Tracer:
    def __init__(self) -> None:
        self.stack: List[list] = []  # [span id, layer, child seconds]
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._next_id = 0
        self._twists: Dict[Tuple[Optional[int], tuple], bool] = {}
        self._refusals_seen: set = set()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def reset(self) -> None:
        """Start a fresh measurement window (one pass)."""
        self.stack.clear()
        self.spans.clear()
        self.calls.clear()
        self.seconds.clear()
        self.self_seconds.clear()
        self.counts.clear()
        self._twists.clear()
        self._refusals_seen.clear()

    def end_op(self) -> None:
        """Drop frames left open by an operation stopped mid-bookkeeping."""
        self.stack.clear()
        self._refusals_seen.clear()

    def on_deadline(self) -> None:
        """Attribute a deadline miss to the innermost open layer."""
        if self.stack:
            self.counts[self.stack[-1][1] + ".deadline_misses"] += 1

    def _wrap(self, fn: Callable, name: str, hot: bool, after: Optional[Callable]) -> Callable:
        layer = name.split(".", 1)[0]
        stack, spans = self.stack, self.spans
        calls, seconds, self_seconds = self.calls, self.seconds, self.self_seconds
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            tracer._next_id += 1
            span_id = tracer._next_id
            parent = stack[-1][0] if stack else None
            frame = [span_id, layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._note_refusal(layer, exc)
                raise
            finally:
                end = clock()
                dur = end - start
                if stack and stack[-1] is frame:
                    stack.pop()
                if stack:
                    stack[-1][2] += dur
                calls[name] += 1
                seconds[name] += dur
                self_seconds[layer] += dur - frame[2]
                if not hot:
                    spans.append((span_id, parent, name, start, end))
            if after is not None:
                after(parent, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _note_refusal(self, layer: str, exc: BaseException) -> None:
        if layer == "finite_groups" and type(exc).__name__ in REFUSALS:
            if id(exc) not in self._refusals_seen:
                self._refusals_seen.add(id(exc))
                self.counts["finite_groups.refusals"] += 1

    # -- counters attached to particular functions ----------------------

    def _after_closure(self, parent, args, group) -> None:
        self.counts["finite_groups.closure_elements"] += group.order

    def _after_twisted_solve(self, parent, args, basis) -> None:
        key = (parent, tuple(args[1]))
        dead = not basis
        self._twists[key] = self._twists.get(key, False) or dead

    def _after_snf(self, parent, args, result) -> None:
        bits = max(
            (abs(x).bit_length() for m in result for row in m.iter_rows() for x in row),
            default=0,
        )
        if bits > self.counts["lattice.snf_max_bits"]:
            self.counts["lattice.snf_max_bits"] = bits

    def _after_search(self, parent, args, maps) -> None:
        self.counts["morphisms.maps_found"] += len(maps)

    # -- patching --------------------------------------------------------

    def install(self) -> "Tracer":
        afters = {
            "finite_groups.closure": self._after_closure,
            "centralizers.twisted_solve": self._after_twisted_solve,
            "lattice.snf": self._after_snf,
            "morphisms.search": self._after_search,
        }
        try:
            for module_name, path, name, hot in TARGETS:
                if module_name not in sys.modules and module_name == "gspinlab.cli":
                    continue
                module = importlib.import_module(module_name)
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(original, name, hot, afters.get(name)))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(original, name, hot, afters.get(name))
                for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "gspinlab"]:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)
        except BaseException:
            self.restore()
            raise
        return self

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- summary -----------------------------------------------------------

    def span_records(self) -> List[dict]:
        """The window's spans, times in seconds from its first span."""
        t0 = min((sp[3] for sp in self.spans), default=0.0)
        return [
            {"id": i, "parent": parent, "name": name, "start": start - t0, "end": end - t0}
            for i, parent, name, start, end in self.spans
        ]

    def summary(self) -> Dict[str, float]:
        """Raw per-layer numbers for the current measurement window."""
        s, c = self.seconds, self.calls
        tried = len(self._twists)
        dead = sum(1 for d in self._twists.values() if d)
        out = {
            "gaussian.matmul_calls": c["gaussian.matmul"],
            "gaussian.matmul_s": s["gaussian.matmul"],
            "gaussian.nullspace_s": s["gaussian.nullspace"],
            "finite_groups.closure_s": s["finite_groups.closure"],
            "finite_groups.closure_elements": self.counts["finite_groups.closure_elements"],
            "finite_groups.classes_s": s["finite_groups.classes"],
            "finite_groups.center_s": s["finite_groups.center"],
            "finite_groups.table_s": s["finite_groups.table"],
            "finite_groups.table_calls": c["finite_groups.table"],
            "finite_groups.central_filter_s": s["finite_groups.central_filter"],
            "finite_groups.group_id_s": s["finite_groups.group_id"],
            "finite_groups.refusals": self.counts["finite_groups.refusals"],
            "centralizers.param_build_s": s["centralizers.param_build"],
            "centralizers.twisted_solve_s": s["centralizers.twisted_solve"],
            "centralizers.twists_tried": tried,
            "centralizers.twists_dead": dead,
            "centralizers.dead_twist_ratio": dead / tried if tried else 0.0,
            "centralizers.s_groups_s": s["centralizers.s_groups"],
            "centralizers.verify_extension_s": s["centralizers.verify_extension"],
            "packets.packet_sizes_s": s["packets.packet_sizes"],
            "packets.scenario_report_s": s["packets.scenario_report"],
            "packets.canonical_builds": c["packets.canonical_build"],
            "lattice.snf_s": s["lattice.snf"],
            "lattice.snf_calls": c["lattice.snf"],
            "lattice.snf_max_bits": self.counts["lattice.snf_max_bits"],
            "lattice.deadline_misses": self.counts["lattice.deadline_misses"],
            "lattice.kernel_s": s["lattice.kernel"],
            "lattice.cokernel_s": s["lattice.cokernel"],
            "lattice.solve_s": s["lattice.solve"],
            "root_datum.construct_s": s["root_datum.construct"],
            "root_datum.center_s": s["root_datum.center"],
            "root_datum.exact_sequence_s": s["root_datum.exact_sequence"],
            "morphisms.search_s": s["morphisms.search"],
            "morphisms.maps_found": self.counts["morphisms.maps_found"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_seconds[layer]
        return out


def merge(summaries: List[Dict[str, float]]) -> Dict[str, float]:
    """Add up summaries of several processes (catalogue children)."""
    total: Dict[str, float] = dict.fromkeys(Tracer().summary(), 0)
    for one in summaries:
        for key, value in one.items():
            if key == "lattice.snf_max_bits":
                total[key] = max(total[key], value)
            else:
                total[key] += value
    tried = total["centralizers.twists_tried"]
    total["centralizers.dead_twist_ratio"] = total["centralizers.twists_dead"] / tried if tried else 0.0
    return total
