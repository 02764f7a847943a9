"""In-memory span tracer that wraps public names of the ``augburgers`` modules.

The wrapped names are listed here, in the benchmark, not in the program.  A
name is replaced in every ``augburgers`` module namespace that binds the same
object (``from .grid import norm`` makes ``scheme.norm`` such a binding), so
calls made through any module are seen.  A listed name that the package no
longer has is reported as absent.

A span is ``[name, start, end, parent index, run id]``; spans of one command
share a run id.  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

import numpy as np

PACKAGE = "augburgers"

# (module, public name) pairs wrapped at the layer boundaries.  ``backend``
# and ``_kernels_py`` sit under ``scheme.rhs`` and are measured through it.
WRAPPED = (
    ("cli", "main"),
    ("scheme", "run"),
    ("scheme", "step_euler"),
    ("scheme", "stable_dt"),
    ("scheme", "rhs"),
    ("kernel", "choose_n"),
    ("kernel", "build"),
    ("grid", "make_grid"),
    ("grid", "project_initial"),
    ("grid", "norm"),
    ("grid", "mass"),
    ("analysis", "scaled_profile_error"),
    ("analysis", "gns_inequality_check"),
    ("analysis", "series_lemma_check"),
    ("analysis", "pde_residual"),
    ("profile", "sample_on_grid"),
    ("profile", "eval"),
    ("initial", "sine_bumps"),
    ("initial", "box_pair"),
)

LAYERS = ("scheme", "kernel", "grid", "analysis", "profile", "initial", "cli")

_TINY = float(np.finfo(np.float64).tiny)


def state_properties(values: np.ndarray) -> dict[str, float]:
    """Nonzero cells, smallest nonzero |u| and subnormal cells of a state."""
    av = np.abs(values)
    nz = av[av > 0.0]
    return {
        "nonzero_cells": int(nz.size),
        "min_abs_nonzero": float(nz.min()) if nz.size else 0.0,
        "subnormal_cells": int(np.count_nonzero(nz < _TINY)),
    }


class Tracer:
    """Wraps the listed names while installed and records spans and counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = 0
        self.cell_terms = 0
        self.cell_terms_absent = False
        self.reports_kept = 0
        self.run_finals: list[dict[str, float]] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._hooks = {"scheme.rhs": self._count_rhs, "scheme.run": self._keep_run}

    def reset(self, run_id: int) -> None:
        self.spans = []
        self.run_id = run_id
        self.cell_terms = 0
        self.reports_kept = 0
        self.run_finals = []

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        self.absent = []
        for mod_name, attr in WRAPPED:
            name = f"{mod_name}.{attr}"
            try:
                mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(mod, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched = []

    def _wrap(self, name, fn):
        stack, hook = self._stack, self._hooks.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans_now = tracer.spans
            idx = len(spans_now)
            spans_now.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, tracer.run_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans_now[idx][2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _count_rhs(self, args, kwargs, result) -> None:
        # Multiply-adds of the direct memory sum: n * min(N, n - 1) per call.
        config = kwargs.get("config", args[2] if len(args) > 2 else None)
        try:
            n = config.grid.num_cells
            big_n = config.quadrature.n_terms
        except AttributeError:
            self.cell_terms_absent = True
            return
        self.cell_terms += n * min(big_n, n - 1)

    def _keep_run(self, args, kwargs, result) -> None:
        reports = getattr(result, "step_reports", None)
        snapshots = getattr(result, "snapshots", None)
        if reports is not None:
            self.reports_kept += len(reports)
        if snapshots:
            self.run_finals.append(state_properties(np.asarray(snapshots[-1][1].values)))

    def metrics(self) -> dict[str, float]:
        """Per-name calls, inclusive and self seconds, per-layer self seconds
        and the counters of the recorded command."""
        spans = self.spans
        child = [0.0] * len(spans)
        in_run = [False] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                in_run[i] = in_run[parent]
            if name == "scheme.run":
                in_run[i] = True
        out: dict[str, float] = {}
        for mod_name, attr in WRAPPED:
            name = f"{mod_name}.{attr}"
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        steps_in_run = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            self_s = dur - child[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            out[f"{name.split('.')[0]}.self_s"] += self_s
            # Inclusive time counts only the outermost span of a name.
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out[f"{name}.s"] += dur
            if name == "scheme.step_euler" and parent >= 0 and in_run[parent]:
                steps_in_run += 1
        out["scheme.rhs.cell_terms"] = 0 if self.cell_terms_absent else self.cell_terms
        out["scheme.reports_kept_ratio"] = self.reports_kept / steps_in_run if steps_in_run else 0.0
        first = self.run_finals[0] if self.run_finals else state_properties(np.zeros(0))
        for key, value in first.items():
            out[f"state.{key}"] = value
        return out
