"""Spans and counts around cmhier's public functions, from outside the program.

A Tracer replaces every module binding of each target function (so both
`hierarchy.min_gap` and `flows.min_gap` are traced) with a wrapper that
records a span: name, start, end and parent span. Spans
are kept in flat arrays until the run ends; self time is a span's duration
minus the durations of its direct children. Leaving the `with` block puts
every original function back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# layer -> public functions whose calls and self time are per-layer metrics
CALL_METRICS = {
    "hierarchy": ("min_gap", "hamiltonian_grad", "hamiltonian", "invariants"),
    "flows": ("integrate_flow", "evolve_path", "commutator_defect", "poisson_bracket", "noether_charge"),
    "numerics": ("linear_solve", "newton_solve"),
    "discrete": ("discrete_step", "corner_solve", "build_plaquette", "build_lattice_sheet",
                 "sheet_corner_residuals"),
    "semidiscrete": ("tau_velocities", "evolve_chain"),
}
VERIFY_SECTIONS = (
    "_involution", "_commuting_flows", "_invariant_drift", "_lax_checks", "_two_body_gap_law",
    "_discrete_orbit", "_plaquettes", "_noether", "_generalized_el", "_semidiscrete_checks",
    "_closure_diagnostics",
)
OTHER_TARGETS = {
    "verify": VERIFY_SECTIONS,
    "sampling": ("random_phase_state",),
    "cli": ("run_scenario", "_write_rows", "_write_report"),
    "scenario": ("parse_scenario",),
}


def _targets():
    for layer, names in list(CALL_METRICS.items()) + list(OTHER_TARGETS.items()):
        for name in names:
            yield layer, name


def _span_name(layer: str, name: str) -> str:
    return f"{layer}.{name.lstrip('_')}"


def _grad_pairs(args, kwargs, result) -> tuple[str, float]:
    state = kwargs.get("state", args[1] if len(args) > 1 else None)
    return "hierarchy.hamiltonian_grad.pairs", float(len(state.x) ** 2)


def _rk4_steps(args, kwargs, result) -> tuple[str, float]:
    return "flows.rk4_steps", float(len(result.samples) - 1)


# span name -> work counter read from the call's arguments or result
WORK_COUNTERS = {
    "hierarchy.hamiltonian_grad": _grad_pairs,
    "flows.integrate_flow": _rk4_steps,
    "flows.evolve_path": _rk4_steps,
}


def _program_modules():
    return [m for name, m in list(sys.modules.items()) if name == "cmhier" or name.startswith("cmhier.")]


class Tracer:
    """Span-recording wrappers for every module binding of the target functions.

    Building a Tracer finds the bindings; entering it installs the wrappers
    and leaving it puts the originals back. It can be entered again, and its
    spans accumulate across entries.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_idx = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []   # targets the program no longer defines
        self._stack = [-1]
        # (module, attribute, original, wrapper) for every binding of a target
        self.bindings: list[tuple[object, str, object, object]] = []
        homes = {}
        for layer in list(CALL_METRICS) + list(OTHER_TARGETS):
            try:
                homes[layer] = importlib.import_module(f"cmhier.{layer}")
            except ImportError:
                homes[layer] = None
        modules = _program_modules()
        for layer, name in _targets():
            original = getattr(homes[layer], name, None)
            if original is None:
                self.missing.append(_span_name(layer, name))
                continue
            wrapper = self._wrap(_span_name(layer, name), original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.bindings.append((module, attr, original, wrapper))

    def _wrap(self, span: str, fn):
        idx = len(self.names)
        self.names.append(span)
        counter = WORK_COUNTERS.get(span)
        stack, name_idx, parent, start, end = self._stack, self.name_idx, self.parent, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_idx.append(idx)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if counter is not None:
                key, amount = counter(args, kwargs, result)
                self.work[key] += amount
            return result

        wrapper.__traced__ = fn
        return wrapper

    def __enter__(self):
        for module, attr, _, wrapper in self.bindings:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, original)
        return False

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        names = np.frombuffer(self.name_idx, dtype=np.int64)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def child_calls(self, child: str, parent: str) -> int:
        """Number of `child` spans whose direct parent is a `parent` span."""
        if child not in self.names or parent not in self.names:
            return 0
        names = np.frombuffer(self.name_idx, dtype=np.int64)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        mask = (names == self.names.index(child)) & (parents >= 0)
        return int(np.sum(names[parents[mask]] == self.names.index(parent)))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run; functions never called read 0."""
    stats = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def get(span):
        return stats.get(span, empty)

    def per_call(numerator, calls):
        return numerator / calls if calls else 0.0

    m: dict[str, float] = {}
    for layer, names in CALL_METRICS.items():
        for name in names:
            s = get(f"{layer}.{name}")
            m[f"{layer}.{name}.calls"] = s["calls"]
            m[f"{layer}.{name}.self_s"] = s["self_s"]
    grad_s = get("hierarchy.hamiltonian_grad")["total_s"]
    m["hierarchy.hamiltonian_grad.pairs_per_s"] = per_call(tracer.work["hierarchy.hamiltonian_grad.pairs"], grad_s)
    m["flows.rk4_steps"] = tracer.work["flows.rk4_steps"]
    m["numerics.newton_solve.linear_solves_per_call"] = per_call(
        tracer.child_calls("numerics.linear_solve", "numerics.newton_solve"), get("numerics.newton_solve")["calls"])
    m["discrete.corner_solve.newton_per_call"] = per_call(
        tracer.child_calls("numerics.newton_solve", "discrete.corner_solve"), get("discrete.corner_solve")["calls"])
    for section in VERIFY_SECTIONS:
        m[f"verify.{section.lstrip('_')}.s"] = get(f"verify.{section.lstrip('_')}")["total_s"]
    m["sampling.random_phase_state.calls"] = get("sampling.random_phase_state")["calls"]
    m["cli.run_scenario.self_s"] = get("cli.run_scenario")["self_s"]
    m["cli.write.self_s"] = get("cli.write_rows")["self_s"] + get("cli.write_report")["self_s"]
    m["scenario.parse_scenario.self_s"] = get("scenario.parse_scenario")["self_s"]
    return m
