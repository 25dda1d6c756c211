"""Span tracing of the package's public functions, installed from outside the package.

Modules import these functions by name (``from .linalg import solve_linear``),
so :meth:`Tracer.install` puts the timing wrapper into every ``maxent_steer``
module namespace that holds the function object, and :meth:`Tracer.uninstall`
puts the originals back. Spans stay in memory. A span's self time is its
duration minus the time of the wrapped calls it made. The linalg kernels run
thousands of times per operation, so they are aggregated but not kept as
individual spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

TRACED = {
    "specio": ("load_spec", "save_policy", "load_policy", "write_trajectory_csv", "write_ellipse_csv"),
    "system": ("validate_assumptions",),
    "steering": ("solve_coupled_lyapunov", "optimal_density_policy", "mean_steering", "general_policy"),
    "lqr": ("riccati_backward", "lqr_policy"),
    "pinned": ("bridge_verify", "pinned_moments_controller", "conditional_gaussian_oracle",
               "point_to_point_policy"),
    "simulate": ("sample_ensemble", "propagate_policy_moments"),
    "linalg": ("solve_linear", "sym_eig", "gaussian_condition"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_dtype(name):
    def hook(counters, args, kwargs, _result):
        ext = np.asarray(args[0]).dtype != np.float64
        counters[f"{name}.calls_ext" if ext else f"{name}.calls_f64"] += 1
    return hook


def _csv_written(rows_of):
    def hook(counters, args, kwargs, _result):
        counters["specio.csv_rows"] += rows_of(args, kwargs)
        counters["specio.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
    return hook


def _refused(counters, _args, _kwargs, report):
    counters["system.validate_assumptions.refused"] += 0 if report.feasible else 1


def _paths(counters, _args, _kwargs, ens):
    counters["simulate.sample_ensemble.paths"] += ens.sample_count


def _moments_bytes(counters, _args, _kwargs, moments):
    counters["pinned.moments_bytes"] += moments.cov.nbytes


def _trajectory_rows(args, kwargs):
    count, steps, _ = np.shape(_arg(args, kwargs, 1, "states"))
    return count * steps + 1


def _ellipse_rows(args, kwargs):
    return len(_arg(args, kwargs, 1, "angles")) + 1


# counts computed from the arguments or the result of a wrapped call
HOOKS = {
    "system.validate_assumptions": _refused,
    "simulate.sample_ensemble": _paths,
    "pinned.pinned_moments_controller": _moments_bytes,
    "pinned.conditional_gaussian_oracle": _moments_bytes,
    "specio.write_trajectory_csv": _csv_written(_trajectory_rows),
    "specio.write_ellipse_csv": _csv_written(_ellipse_rows),
    "linalg.solve_linear": _count_dtype("linalg.solve_linear"),
    "linalg.sym_eig": _count_dtype("linalg.sym_eig"),
}


class Tracer:
    """Collects self time, call counts and spans while ``record`` is true."""

    def __init__(self):
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.spans = []  # [name, op id, parent span index, start ns, end ns]
        self.record = True
        self.op_id = None
        self._stack = []  # [child ns, span index, start ns]
        self._patches = []

    def _enter(self, name, keep):
        index = self._stack[-1][1] if self._stack else None
        if keep and self.record:
            self.spans.append([name, self.op_id, index, 0, 0])
            index = len(self.spans) - 1
        frame = [0, index, time.perf_counter_ns()]
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame, keep):
        end = time.perf_counter_ns()
        self._stack.pop()
        duration = end - frame[2]
        if self._stack:
            self._stack[-1][0] += duration
        if self.record:
            self.self_ns[name] += duration - frame[0]
            self.calls[name] += 1
            if keep:
                self.spans[frame[1]][3:] = [frame[2], end]

    @contextmanager
    def span(self, name):
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(name, frame, True)

    def _wrap(self, name, fn):
        keep = not name.startswith("linalg.")
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, keep)
            if hook is not None and self.record:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "maxent_steer" or key.startswith("maxent_steer."))]
        for layer, names in TRACED.items():
            source = sys.modules[f"maxent_steer.{layer}"]
            for fn_name in names:
                original = getattr(source, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def ms(self, name) -> float:
        return self.self_ns[name] / 1e6

    def span_records(self):
        return [
            {"name": n, "op": op, "parent": parent, "start_ms": start / 1e6, "dur_ms": (end - start) / 1e6}
            for n, op, parent, start, end in self.spans
        ]
