"""Span recorders wrapped around the public entry points of each `unipc` module.

Nothing under `src/` changes: `install()` replaces each entry point, in every
`unipc` module namespace that binds it, with a wrapper that records a span
(id, parent id, name, start, end), and `uninstall()` puts the originals back.
An entry point that the package no longer has is reported as absent.

Spans are kept in memory as tuples and written as JSONL when the run ends.
A span's self time is its duration minus the durations of its child spans.

The `schedule` and `model` layers record only calls that enter the layer from
outside it: the bisection inside `t_of_lambda` calls `lam` tens of times per
inversion, and a data-prediction evaluator calls the noise evaluator it wraps,
so `model.call` counts model evaluations as the solver sees them (its NFE).
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (layer, owner, attribute, span name).  Owner is a module path or
# "module:Class" for methods; the layer is the first part of the span name.
ENTRY_POINTS = (
    ("schedule", "unipc.schedule:NoiseSchedule", "log_alpha", "schedule.log_alpha"),
    ("schedule", "unipc.schedule:NoiseSchedule", "alpha", "schedule.alpha"),
    ("schedule", "unipc.schedule:NoiseSchedule", "sigma", "schedule.sigma"),
    ("schedule", "unipc.schedule:NoiseSchedule", "lam", "schedule.lam"),
    ("schedule", "unipc.schedule:NoiseSchedule", "alpha_sigma_lambda", "schedule.alpha_sigma_lambda"),
    ("schedule", "unipc.schedule:NoiseSchedule", "t_of_lambda", "schedule.t_of_lambda"),
    ("schedule", "unipc.schedule", "make_time_grid", "schedule.make_time_grid"),
    ("coeffs", "unipc.coeffs", "bh_value", "coeffs.bh_value"),
    ("coeffs", "unipc.coeffs", "varphi", "coeffs.varphi"),
    ("coeffs", "unipc.coeffs", "psi", "coeffs.psi"),
    ("coeffs", "unipc.coeffs", "phi_vector", "coeffs.phi_vector"),
    ("coeffs", "unipc.coeffs", "g_vector", "coeffs.g_vector"),
    ("coeffs", "unipc.coeffs", "solve_weights", "coeffs.solve_weights"),
    ("coeffs", "unipc.coeffs", "varying_coefficient_matrix", "coeffs.varying_coefficient_matrix"),
    ("model", "unipc.model:ModelEvaluator", "__call__", "model.call"),
    ("model", "unipc.model", "dynamic_threshold", "model.dynamic_threshold"),
    ("model", "unipc.model", "exact_solution_xfree", "model.exact_solution_xfree"),
    ("solver", "unipc.solver", "sample", "solver.sample"),
    ("solver", "unipc.solver", "predict", "solver.predict"),
    ("solver", "unipc.solver", "correct", "solver.correct"),
    ("solver", "unipc.solver", "unified_update", "solver.unified_update"),
    ("solver", "unipc.solver", "ddim_step", "solver.ddim_step"),
    ("study", "unipc.study", "run_study", "study.run_study"),
    ("study", "unipc.study", "reference_solution", "study.reference_solution"),
    ("study", "unipc.study", "fit_order", "study.fit_order"),
    ("study", "unipc.study", "emit", "study.emit"),
    ("cli", "unipc.cli", "main", "cli.main"),
)

# Layers whose calls from inside the same layer are not recorded.
BOUNDARY_ONLY = frozenset({"schedule", "model"})

FORWARD_MAPS = ("log_alpha", "alpha", "sigma", "lam", "alpha_sigma_lambda")


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[tuple[int, str]] = [(0, "")]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        stack, spans = self._stack, self.spans
        boundary_only = layer in BOUNDARY_ONLY

        def wrapper(*args, **kwargs):
            parent, parent_layer = stack[-1]
            if boundary_only and parent_layer == layer:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            stack.append((sid, layer))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name: str):
        """Context manager recording a span opened by the benchmark itself."""
        return _BenchSpan(self, name)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point that exists; record the rest as absent."""
        self.absent = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "unipc" or key.startswith("unipc."))]
        for layer, owner, attr, name in ENTRY_POINTS:
            target = _resolve(owner)
            original = getattr(target, attr, None) if target is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(original, name, layer)
            if isinstance(target, type):
                self._patch(target, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in sorted(self.spans, key=lambda s: s[0]):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


class _BenchSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.sid = t._next_id
        t._next_id += 1
        self.parent = t._stack[-1][0]
        t._stack.append((self.sid, "bench"))
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        t = self.tracer
        t._stack.pop()
        t.spans.append((self.sid, self.parent, self.name, self.start, end))
        return False


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = sys.modules.get(module_name)
    if module is None or not class_name:
        return module
    return getattr(module, class_name, None)


class SpanTable:
    """Durations, self times and ancestry of a finished set of spans."""

    def __init__(self, spans):
        self.name = {sid: name for sid, _, name, _, _ in spans}
        self.parent = {sid: parent for sid, parent, _, _, _ in spans}
        self.duration = {sid: end - start for sid, _, _, start, end in spans}
        children = dict.fromkeys(self.name, 0.0)
        for sid, parent, _, start, end in spans:
            if parent in children:
                children[parent] += end - start
        self.self_time = {sid: self.duration[sid] - children[sid] for sid in self.name}
        self._below: dict[str, set[int]] = {}

    def below(self, name: str) -> set[int]:
        """Ids of the spans that have a span called `name` among their ancestors."""
        if name not in self._below:
            found: set[int] = set()
            for sid in sorted(self.name):  # a parent's id is smaller than its children's
                parent = self.parent[sid]
                if parent in found or self.name.get(parent) == name:
                    found.add(sid)
            self._below[name] = found
        return self._below[name]

    def total_self(self, ids) -> float:
        return sum(self.self_time[i] for i in ids)

    def total_duration(self, ids) -> float:
        return sum(self.duration[i] for i in ids)
