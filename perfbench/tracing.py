"""Outside-in tracer: wraps the package's public functions from the benchmark.

Nothing inside src/ is instrumented.  While installed, every listed public
function is replaced, in every pseudospin.* namespace that binds it, by a
wrapper that records a span (layer, function, start, end, parent, op id).
Rebinding every namespace matters: cli imports names directly, and the
bloch handler's lambdas look up rhs_* in cli's globals at call time.
uninstall() puts the originals back before any timed run.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from typing import NamedTuple

# layer -> public functions traced in it
TRACED = {
    "cli": ("run", "emit_trajectory"),
    "dynamics": (
        "evolve_trajectory",
        "evolve_state",
        "bloch_canonical",
        "bloch_eta",
        "integrate",
        "rhs_damped_precession",
        "rhs_llg",
        "rhs_llg_spin_torque",
    ),
    "linalg": ("evolve_operator", "spectrum", "validate_metric"),
    "metric": ("build_isometry", "canonical_limit_field", "canonical_rotation", "is_pseudo_hermitian"),
    "rabi": (
        "classify_regime",
        "ph_condition_residual",
        "ph_condition_residual_spin_valve",
        "solve_suppression_B",
        "solve_suppression_spin_valve",
        "rabi_amplitude",
        "ph_rabi_amplitude",
    ),
    "grassmann": ("correspondence_suite", "verify_correspondence", "dirac_bracket", "quantize"),
}

# Work sizes read from a call's arguments or result: samples, RK4 steps, rows.
SIZERS = {
    "evolve_trajectory": lambda args, result: len(result),
    "integrate": lambda args, result: len(result) - 1,
    "emit_trajectory": lambda args, result: len(args[0]),
}


class Span(NamedTuple):
    sid: int
    parent: int  # 0 for an op's root span
    op: int
    layer: str
    name: str
    start: float
    end: float
    size: int
    ok: bool


def _namespaces():
    return [m for n, m in list(sys.modules.items()) if n == "pseudospin" or n.startswith("pseudospin.")]


class Tracer:
    """Records spans while installed; spans stay in memory until the caller writes them.

    Spans are kept as plain tuples of numbers and strings, which the garbage
    collector stops tracking; hundreds of thousands of tracked objects would
    make every full collection, traced or not, slower as the run goes on.
    """

    def __init__(self):
        self.spans: list[tuple] = []  # Span fields, in order
        self.op = 0  # set by the benchmark before each cli.run call
        self._root = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list = []

    def _wrap(self, layer, name, fn):
        sizer = SIZERS.get(name)

        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            if layer == "cli" and name == "run":
                parent, self._root = 0, sid
            else:
                # A pool thread starts with an empty stack: its spans belong to the op's root.
                parent = stack[-1] if stack else self._root
            stack.append(sid)
            ok, size = False, 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if ok and sizer is not None:
                    size = sizer(args, result)
                self.spans.append((sid, parent, self.op, layer, name, start, end, size, ok))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _namespaces()
        by_module = {m.__name__: m for m in modules}
        for layer, names in TRACED.items():
            home = by_module[f"pseudospin.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def wrapped_names() -> list[str]:
    """Names in any pseudospin namespace that are still bound to a tracer wrapper."""
    return [
        f"{m.__name__}.{attr}"
        for m in _namespaces()
        for attr, value in vars(m).items()
        if getattr(value, "__qualname__", "").endswith("_wrap.<locals>.traced")
    ]


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, covered_to = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > covered_to:
            total += end - max(start, covered_to)
            covered_to = end
    return total


def layer_metrics(spans: list[tuple], passes: int, points: int, eta_trajectories: int) -> dict:
    """Per-layer counts and times per pass over the scenario set.

    points is the number of Rabi records (sweep points and rabi reports)
    and eta_trajectories the number of metric-evolve ops in the traced
    passes, both read from the ops and their outputs.

    A layer's self time is the sum over its spans of the span's duration
    minus the union of its direct children's intervals; children in pool
    threads overlap, so the union (not the sum) is subtracted.
    """
    spans = [Span._make(s) for s in spans]
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    calls: dict = {}
    total: dict = {}
    size: dict = {}
    self_s = {layer: 0.0 for layer in TRACED}
    solved = 0
    for s in spans:
        dur = s.end - s.start
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + dur
        size[s.name] = size.get(s.name, 0) + s.size
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.sid, ())]
        self_s[s.layer] += dur - union_length(kids)
        solved += s.ok and s.name.startswith("solve_suppression")
    # Outermost rabi spans (their parent is outside the layer): busy time and overlap.
    layer_of = {s.sid: s.layer for s in spans}
    rabi = [(s.start, s.end) for s in spans if s.layer == "rabi" and layer_of.get(s.parent) != "rabi"]
    rabi_union = union_length(rabi)

    def n(*names):
        return sum(calls.get(x, 0) for x in names) // passes

    def t(name):
        return total.get(name, 0.0) / passes

    def us_per(name):
        return 1e6 * total.get(name, 0.0) / size[name] if size.get(name) else 0.0

    solves = calls.get("solve_suppression_B", 0) + calls.get("solve_suppression_spin_valve", 0)
    return {
        "cli.run.calls": (n("run"), "count"),
        "cli.self_s": (self_s["cli"] / passes, "s"),
        "cli.emit_trajectory.s": (t("emit_trajectory"), "s"),
        "cli.emit_trajectory.us_per_row": (us_per("emit_trajectory"), "us"),
        "dynamics.evolve_trajectory.s": (t("evolve_trajectory"), "s"),
        "dynamics.evolve_trajectory.us_per_sample": (us_per("evolve_trajectory"), "us"),
        "dynamics.evolve_state.calls": (n("evolve_state"), "count"),
        "dynamics.bloch_canonical.calls": (n("bloch_canonical"), "count"),
        "dynamics.bloch_eta.calls": (n("bloch_eta"), "count"),
        "dynamics.integrate.s": (t("integrate"), "s"),
        "dynamics.integrate.us_per_step": (us_per("integrate"), "us"),
        "dynamics.rhs.calls": (n("rhs_damped_precession", "rhs_llg", "rhs_llg_spin_torque"), "count"),
        "dynamics.self_s": (self_s["dynamics"] / passes, "s"),
        "linalg.evolve_operator.calls": (n("evolve_operator"), "count"),
        "linalg.spectrum.calls": (n("spectrum"), "count"),
        "linalg.validate_metric.calls": (n("validate_metric"), "count"),
        "linalg.validate_metric.per_trajectory": (
            calls.get("validate_metric", 0) / eta_trajectories if eta_trajectories else 0.0,
            "ratio"),
        "linalg.self_s": (self_s["linalg"] / passes, "s"),
        "metric.build_isometry.calls": (n("build_isometry"), "count"),
        "metric.canonical_limit_field.calls": (n("canonical_limit_field"), "count"),
        "metric.canonical_rotation.calls": (n("canonical_rotation"), "count"),
        "metric.is_pseudo_hermitian.calls": (n("is_pseudo_hermitian"), "count"),
        "metric.self_s": (self_s["metric"] / passes, "s"),
        "rabi.classify_regime.calls": (n("classify_regime"), "count"),
        "rabi.ph_condition_residual.calls": (
            n("ph_condition_residual", "ph_condition_residual_spin_valve"), "count"),
        "rabi.solve_suppression.calls": (solves // passes, "count"),
        "rabi.solve_suppression.solved_ratio": (
            solved / solves if solves else 0.0, "ratio"),
        "rabi.amplitude.calls": (n("rabi_amplitude", "ph_rabi_amplitude"), "count"),
        "rabi.us_per_point": (1e6 * rabi_union / points if points else 0.0, "us"),
        "rabi.overlap_ratio": (sum(b - a for a, b in rabi) / rabi_union if rabi_union else 0.0, "ratio"),
        "rabi.self_s": (self_s["rabi"] / passes, "s"),
        "grassmann.correspondence_suite.s": (t("correspondence_suite"), "s"),
        "grassmann.verify_correspondence.calls": (n("verify_correspondence"), "count"),
        "grassmann.dirac_bracket.calls": (n("dirac_bracket"), "count"),
        "grassmann.quantize.calls": (n("quantize"), "count"),
        "grassmann.self_s": (self_s["grassmann"] / passes, "s"),
    }


def write_spans(spans: list[tuple], path, ops: int) -> None:
    """Write the spans of the first traced pass (op ids below ops) as CSV."""
    with open(path, "w") as fh:
        fh.write(",".join(Span._fields) + "\n")
        for s in map(Span._make, spans):
            if s.op < ops:
                fh.write(f"{s.sid},{s.parent},{s.op},{s.layer},{s.name},{s.start!r},{s.end!r},"
                         f"{s.size},{int(s.ok)}\n")
