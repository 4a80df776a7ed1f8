"""Out-of-process tracing: spans around calls into each layer of plate_fsi.

The package source is not instrumented.  Instead each traced function is
replaced by a timing wrapper in every namespace where calling code looks
it up (``plate_fsi.cli.solve_traces`` as well as
``plate_fsi.frequency.solve_traces``; ``numpy.fft.rfftn``; class
attributes such as ``ModeStepper.__init__``).  Wrappers are installed
after ``import plate_fsi.cli``, so import time carries no tracing cost.

Each span records its id, its parent's id, its name and its start and end
time.  A span's self time is its duration minus the durations of its
direct children, so the self times of one operation add up to the traced
part of its wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (span, module, attribute): module-level functions.  The wrapper replaces
# every reference to the same function object in the loaded plate_fsi
# modules, which is where the callers look it up.
FUNCTIONS = [
    ("cli.write", "plate_fsi.cli", "_write_steps_csv"),
    ("cli.write", "plate_fsi.cli", "_write_fields_csv"),
    ("fixpoint", "plate_fsi.timedomain.fixpoint", "fixed_point_solve"),
    ("fixpoint.norm", "plate_fsi.timedomain.fixpoint", "state_surrogate_norm"),
    ("nonlin", "plate_fsi.timedomain.nonlin", "nonlinear_momentum"),
    ("nonlin", "plate_fsi.timedomain.nonlin", "nonlinear_divergence"),
    ("nonlin", "plate_fsi.timedomain.nonlin", "nonlinear_plate_load"),
    ("grid.tan_deriv", "plate_fsi.timedomain.grid", "tangential_derivative"),
    ("fft", "numpy.fft", "rfftn"),
    ("fft", "numpy.fft", "irfftn"),
    ("frequency.solve_traces", "plate_fsi.frequency", "solve_traces"),
    ("frequency.build_profile", "plate_fsi.frequency", "build_profile"),
    ("frequency.residual_report", "plate_fsi.frequency", "residual_report"),
    ("polygon.parabolicity", "plate_fsi.polygon", "check_parabolicity"),
]

# (span, module, class, method)
METHODS = [
    ("stepper.build", "plate_fsi.timedomain.stepper", "ModeStepper", "__init__"),
    ("stepper.mode_solve", "plate_fsi.timedomain.stepper", "ModeStepper", "step"),
    ("stepper.step", "plate_fsi.timedomain.stepper", "LinearStepper", "step"),
]

# span -> (count metric or None, self-time metric)
SPAN_METRICS = {
    "cli.import": (None, "cli.import_s"),
    "cli.command": (None, "cli.command_s"),
    "cli.write": (None, "cli.write_s"),
    "stepper.build": ("stepper.modes_built", "stepper.build_s"),
    "stepper.mode_solve": ("stepper.mode_solves", "stepper.mode_solve_s"),
    "stepper.step": ("stepper.steps", "stepper.step_self_s"),
    "fixpoint": (None, "fixpoint.self_s"),
    "fixpoint.norm": ("fixpoint.norm_calls", "fixpoint.norm_s"),
    "nonlin": ("nonlin.calls", "nonlin.s"),
    "grid.tan_deriv": ("grid.tan_deriv_calls", "grid.tan_deriv_s"),
    "fft": ("fft.calls", "fft.s"),
    "frequency.solve_traces": ("frequency.points", "frequency.solve_traces_s"),
    "frequency.build_profile": (None, "frequency.build_profile_s"),
    "frequency.residual_report": (None, "frequency.residual_report_s"),
    "polygon.parabolicity": (None, "polygon.parabolicity_s"),
}


class Tracer:
    """Collects spans in memory; :meth:`drain` folds them into per-span totals."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every target that the loaded package still defines.

        A target that a later version of the package renames or removes is
        listed in :attr:`missing` and its metrics read zero.
        """
        for name, module_name, attr in FUNCTIONS:
            module = _module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            traced = self.wrap(name, original)
            for owner in _namespaces(module):
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, traced)
        for name, module_name, cls_name, attr in METHODS:
            cls = getattr(_module(module_name), cls_name, None)
            original = None if cls is None else cls.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{module_name}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, self.wrap(name, original))

    def drain(self) -> dict[str, list[float]]:
        """Return ``{span: [count, self_s]}`` for the spans so far and forget them."""
        child_time: dict[int, float] = {}
        for _, parent, _, start, end in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: dict[str, list[float]] = {}
        for sid, _, name, start, end in self.spans:
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child_time.get(sid, 0.0)
        self.spans.clear()
        return totals


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _namespaces(home):
    yield home
    for name, module in list(sys.modules.items()):
        if module is not home and (name == "plate_fsi" or name.startswith("plate_fsi.")):
            yield module


def merge(into: dict[str, list[float]], totals: dict[str, list[float]]) -> None:
    for name, (count, self_s) in totals.items():
        entry = into.setdefault(name, [0, 0.0])
        entry[0] += count
        entry[1] += self_s


def layer_metrics(totals: dict[str, list[float]], ops: int) -> dict[str, float]:
    """Per-operation counts and self times under the benchmark's metric names."""
    out: dict[str, float] = {}
    for span, (count_name, time_name) in SPAN_METRICS.items():
        count, self_s = totals.get(span, (0, 0.0))
        if count_name is not None:
            out[count_name] = count / ops
        out[time_name] = self_s / ops
    return out
