"""Spans around the program's public functions, and the per-layer metrics derived from them.

The tracer replaces module attributes with timing wrappers while a
phase is recorded and puts the originals back afterwards, so the
program runs unmodified outside `Tracer.recording`.  A wrapper sits
where one module calls another (for example `commbounds.optimize`
calling `erf_min_bound` from `commbounds.approx`), or where the
benchmark calls the program.  Each call becomes a span: name, phase,
start, end and the index of the enclosing span.  Spans are kept in
compact arrays in memory and written out once, when the run ends.
Counts (rejections, sample points, LP iterations) are taken in the same
wrappers.

A layer's self time is its spans' time minus the time of their direct
child spans.  Counts are reported per pass of the phase that made them,
so they do not grow with the run's length; in a phase whose passes
repeat the same inputs they repeat exactly for a fixed seed.
"""

from __future__ import annotations

import importlib
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _rejected(args, result, error):
    return {"rejected": 1} if error is not None or result.degenerate else None


def _iterations(args, result, error):
    return None if error is not None else {"iterations": result.nit}


def _size(args):
    return f"n{len(args[0])}"


# (module, attribute, span name, label from the arguments, counts from the call)
TARGETS = (
    ("commbounds.optimize", "erf_min_bound", "approx.erf_min_bound", None, _rejected),
    ("commbounds.optimize", "pattern_search", "optimize.pattern_search", None, None),
    ("commbounds.optimize", "certify_mixture", "approx.certify_mixture", None, None),
    ("commbounds.optimize", "load_witnesses", "witnesses.load_witnesses", None, None),
    ("commbounds.optimize", "certify_grid", "optimize.certify_grid", None, None),
    (
        "commbounds.optimize",
        "optimize_grid",
        "optimize.optimize_grid",
        None,
        lambda args, result, error: {"nodes": len(args[0])},
    ),
    (
        "commbounds.approx",
        "mixture_residual",
        "approx.mixture_residual",
        None,
        lambda args, result, error: {"points": np.size(args[0])},
    ),
    ("commbounds.witnesses", "load_witnesses", "witnesses.load_witnesses", None, None),
    ("commbounds.witnesses", "fit_witness", "witnesses.fit_witness", None, None),
    ("commbounds.witnesses", "linprog", "witnesses.linprog", None, _iterations),
    ("commbounds.stitch", "global_constant", "stitch.global_constant", None, None),
    ("commbounds.stitch", "sqrt_constant", "stitch.sqrt_constant", None, None),
    ("commbounds.formulas", "optimize_pq_f1", "formulas.optimize_pq_f1", None, None),
    ("commbounds.formulas", "pq_f1_bound", "formulas.pq_f1_bound", None, None),
    ("commbounds.matrixlab", "hermitian_eig", "matrixlab.hermitian_eig", _size, None),
    ("commbounds.matrixlab", "singular_values", "matrixlab.singular_values", None, None),
    ("commbounds.matrixlab", "ui_norm", "matrixlab.ui_norm", None, None),
    ("commbounds.matrixlab", "monte_carlo_campaign", "matrixlab.monte_carlo_campaign", None, None),
    ("commbounds.matrixlab", "verify_conjecture_ratio", "matrixlab.verify_conjecture_ratio", None, None),
)


class Tracer:
    """Spans and counts of one run, grouped by phase."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.phases: list[str] = []
        self.passes: dict[str, int] = {}
        self.name = array("H")
        self.phase = array("B")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # (phase index, span name, count key) -> total
        self.counts: dict[tuple[int, str, str], float] = defaultdict(float)
        self._ids: dict[str, int] = {}
        self._stack = [-1]
        self._current = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, base: str, label, count):
        name, phase, parent, start, end, stack = (
            self.name, self.phase, self.parent, self.start, self.end, self._stack
        )
        counts, base_id = self.counts, self._id(base)

        def wrapper(*args, **kwargs):
            index = len(start)
            name.append(self._id(f"{base}.{label(args)}") if label else base_id)
            phase.append(self._current)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            result = error = None
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end[index] = perf_counter()
                stack.pop()
                if count and (made := count(args, result, error)):
                    for key, value in made.items():
                        counts[(self._current, base, key)] += value

        return wrapper

    @contextmanager
    def recording(self, phase: str):
        """Record spans of the phase; the caller sets `passes[phase]` when it ends."""
        if phase not in self.phases:
            self.phases.append(phase)
        self._current = self.phases.index(phase)
        originals = []
        try:
            for module_name, attr, base, label, count in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, base, label, count))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "phase": np.frombuffer(self.phase, dtype=np.uint8),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            phases=np.array(self.phases),
            passes=np.array([self.passes.get(p, 0) for p in self.phases]),
            **self.arrays(),
        )


class _Spans:
    """Vectorised views of a tracer's spans."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        self.tracer = tracer
        self.name, self.phase, self.parent = a["name"], a["phase"], a["parent"]
        self.dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=self.dur.size
        )
        self.self_time = self.dur - child
        self.passes = np.array([max(tracer.passes.get(p, 1), 1) for p in tracer.phases] or [1])

    def mask(self, prefix: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.tracer.names) if n == prefix or n.startswith(prefix + ".")]
        return np.isin(self.name, ids)

    def per_pass(self, prefix: str) -> float:
        """Spans per pass, summed over the phases that made them."""
        spans = np.bincount(self.phase[self.mask(prefix)], minlength=self.passes.size)
        return float((spans / self.passes).sum())

    def mean(self, prefix: str) -> float:
        m = self.mask(prefix)
        return float(self.dur[m].mean()) if m.any() else 0.0

    def count_per_pass(self, base: str, key: str) -> float:
        return sum(
            value / max(self.tracer.passes.get(self.tracer.phases[p], 1), 1)
            for (p, name, k), value in self.tracer.counts.items()
            if name == base and k == key
        )

    def count(self, base: str, key: str) -> float:
        return sum(v for (_, name, k), v in self.tracer.counts.items() if name == base and k == key)

    def self_per_pass(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, name in enumerate(self.tracer.names):
            m = self.name == i
            if m.any():
                out[name] = float((self.self_time[m] / self.passes[self.phase[m]]).sum())
        return out


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """Per-layer metrics (name -> (value, unit)) and each span name's self seconds per pass."""
    s = _Spans(tracer)
    erf_in_search = s.mask("approx.erf_min_bound") & np.isin(
        s.parent, np.flatnonzero(s.mask("optimize.pattern_search"))
    )
    metrics = {
        "approx.erf_min_bound.calls": (s.per_pass("approx.erf_min_bound"), "count"),
        "approx.erf_min_bound.us_per_call": (1e6 * s.mean("approx.erf_min_bound"), "us"),
        "approx.erf_min_bound.rejected": (s.count_per_pass("approx.erf_min_bound", "rejected"), "count"),
        "approx.certify_mixture.calls": (s.per_pass("approx.certify_mixture"), "count"),
        "approx.certify_mixture.ms_per_call": (1e3 * s.mean("approx.certify_mixture"), "ms"),
        "approx.mixture_residual.points": (s.count_per_pass("approx.mixture_residual", "points"), "count"),
        "optimize.certify_grid.s": (s.mean("optimize.certify_grid"), "s"),
        "optimize.optimize_grid.ms_per_node": (
            1e3 * _ratio(
                float(s.dur[s.mask("optimize.optimize_grid")].sum()),
                s.count("optimize.optimize_grid", "nodes"),
            ),
            "ms",
        ),
        "optimize.pattern_search.evals_per_node": (
            _ratio(float(erf_in_search.sum()), float(s.mask("optimize.pattern_search").sum())),
            "count",
        ),
        "witnesses.load_witnesses.ms": (1e3 * s.mean("witnesses.load_witnesses"), "ms"),
        "witnesses.linprog.s_per_fit": (s.mean("witnesses.linprog"), "s"),
        "witnesses.linprog.iterations": (
            _ratio(s.count("witnesses.linprog", "iterations"), float(s.mask("witnesses.linprog").sum())),
            "count",
        ),
        "stitch.global_constant.ms": (1e3 * s.mean("stitch.global_constant"), "ms"),
        "stitch.sqrt_constant.ms": (1e3 * s.mean("stitch.sqrt_constant"), "ms"),
        "formulas.optimize_pq_f1.ms_per_node": (1e3 * s.mean("formulas.optimize_pq_f1"), "ms"),
        "formulas.pq_f1_bound.calls_per_node": (
            _ratio(
                float(s.mask("formulas.pq_f1_bound").sum()),
                float(s.mask("formulas.optimize_pq_f1").sum()),
            ),
            "count",
        ),
        "matrixlab.hermitian_eig.calls": (s.per_pass("matrixlab.hermitian_eig"), "count"),
    }
    for n in range(2, 7):
        metrics[f"matrixlab.hermitian_eig.us_per_call.n{n}"] = (
            1e6 * s.mean(f"matrixlab.hermitian_eig.n{n}"),
            "us",
        )
    self_times = s.self_per_pass()
    metrics.update(
        {
            "matrixlab.singular_values.us_per_call": (1e6 * s.mean("matrixlab.singular_values"), "us"),
            "matrixlab.ui_norm.calls": (s.per_pass("matrixlab.ui_norm"), "count"),
            "matrixlab.monte_carlo_campaign.self_s": (
                self_times.get("matrixlab.monte_carlo_campaign", 0.0),
                "s",
            ),
            "matrixlab.verify_conjecture_ratio.us_per_call": (
                1e6 * s.mean("matrixlab.verify_conjecture_ratio"),
                "us",
            ),
        }
    )
    return metrics, self_times
