"""Derivative-free parameter tuning of the pointwise bound over a c-grid.

The kernel parameters (a, b) that minimize the pointwise bound have no
closed form, so they are found by a deterministic coordinate pattern
search: poll the axis directions (+a, -a, +b, -b) with a common step,
accept the first strict improvement, expand the step on success and
shrink it on failure, and stop when the step falls below a floor or the
evaluation budget runs out.  The grid driver chains warm starts from one
node to the next (the minimizer moves slowly in c), or runs nodes
independently, optionally in parallel, when an external warm-start table
supplies every starting point.  Only the c * a term of the bound depends
on c, so one grid search remembers the c-independent spread of every
(a, b) it has evaluated and scores a repeated poll without root finding.
Every returned node is re-certified by a fresh bound evaluation at the
final parameters so the reported constant is reproducible bit for bit.

`certify_grid` is the search-free certifier: every node takes the lower
envelope of the committed Gaussian-mixture witnesses and the resolvent
bound 1 + c.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from commbounds.approx import (
    DEGENERATE_VALUE,
    DomainViolation,
    GaussianParams,
    MixtureParams,
    NoSignChange,
    RootValidationFailed,
    ToleranceConfig,
    certify_mixture,
    erf_min_bound,
    f1,
    node_value,
)
from commbounds.witnesses import load_witnesses

__all__ = [
    "PatternSearchConfig",
    "BoundPoint",
    "pattern_search",
    "pattern_search_nd",
    "build_paper_grid",
    "optimize_grid",
    "certify_grid",
]


@dataclass(frozen=True)
class PatternSearchConfig:
    """Step-control settings for the coordinate pattern search."""

    initial_step: float = 0.5
    shrink: float = 0.5
    expand: float = 2.0
    min_step: float = 1e-9
    max_evals: int = 20000
    lower_bounds: tuple[float, float] = (1e-8, 1e-8)

    def __post_init__(self) -> None:
        if not (0.0 < self.min_step < self.initial_step):
            raise DomainViolation("min_step must satisfy 0 < min_step < initial_step")
        if not (0.0 < self.shrink < 1.0 <= self.expand):
            raise DomainViolation("step factors must satisfy 0 < shrink < 1 <= expand")
        if self.max_evals < 1:
            raise DomainViolation("max_evals must be at least 1")


@dataclass(frozen=True)
class BoundPoint:
    """One certified grid node: location c, constant C_k, and its parameters.

    params is the approximant that certifies C_k: a single Gaussian, a
    Gaussian mixture, or None when C_k is the resolvent bound 1 + c.
    """

    c: float
    C_k: float
    params: GaussianParams | MixtureParams | None
    degenerate: bool = False


def _clamp(point: tuple[float, ...], lower, upper) -> tuple[float, ...]:
    out = []
    for value, lo, hi in zip(point, lower, upper):
        if lo is not None and value < lo:
            value = lo
        if hi is not None and value > hi:
            value = hi
        out.append(value)
    return tuple(out)


def pattern_search_nd(
    objective: Callable[[tuple[float, ...]], float],
    start: Sequence[float],
    cfg: PatternSearchConfig | None = None,
    lower: Sequence[float | None] | None = None,
    upper: Sequence[float | None] | None = None,
) -> tuple[float, ...]:
    """Minimize a total objective over box-clamped coordinates.

    Fully deterministic: the poll order is +x0, -x0, +x1, -x1, ... with
    first-improvement acceptance.  The objective must return a finite
    penalty (rather than raise) on inputs it dislikes.  Returns the best
    point seen, which is never worse than the clamped start.
    """
    if cfg is None:
        cfg = PatternSearchConfig()
    dim = len(start)
    lower = tuple(lower) if lower is not None else (None,) * dim
    upper = tuple(upper) if upper is not None else (None,) * dim
    best = _clamp(tuple(float(v) for v in start), lower, upper)
    f_best = objective(best)
    evals = 1
    step = cfg.initial_step
    while step >= cfg.min_step and evals < cfg.max_evals:
        improved = False
        for axis in range(dim):
            for sign in (1.0, -1.0):
                cand = list(best)
                cand[axis] += sign * step
                cand_t = _clamp(tuple(cand), lower, upper)
                if cand_t == best or not all(math.isfinite(v) for v in cand_t):
                    continue
                value = objective(cand_t)
                evals += 1
                if value < f_best:
                    best, f_best = cand_t, value
                    improved = True
                    break
                if evals >= cfg.max_evals:
                    break
            if improved or evals >= cfg.max_evals:
                break
        step = step * cfg.expand if improved else step * cfg.shrink
    return best


def pattern_search(
    objective: Callable[[GaussianParams], float],
    start: GaussianParams,
    cfg: PatternSearchConfig | None = None,
) -> GaussianParams:
    """Minimize an objective over kernel parameters, clamped above lower_bounds."""
    if cfg is None:
        cfg = PatternSearchConfig()

    def wrapped(point: tuple[float, ...]) -> float:
        return objective(GaussianParams(point[0], point[1]))

    a, b = pattern_search_nd(wrapped, (start.a, start.b), cfg, lower=cfg.lower_bounds)
    return GaussianParams(a, b)


def build_paper_grid() -> list[float]:
    """Return the three-segment certification grid on [0.0195, 40].

    Spacing is 0.0005 up to 1.5, then 0.005 up to 10, then 0.05 up to 40;
    every node is generated by integer index arithmetic so the endpoints
    are exact and there is no cumulative drift.
    """
    grid = [(195 + 5 * k) / 10000.0 for k in range(2962)]
    grid += [(15000 + 50 * k) / 10000.0 for k in range(1, 1701)]
    grid += [(100000 + 500 * k) / 10000.0 for k in range(1, 601)]
    return grid


_DEFAULT_START = (0.9, 0.5)


def _certify_node(
    c: float,
    start: tuple[float, float],
    cfg: PatternSearchConfig,
    tol: ToleranceConfig | None,
    spreads: dict[tuple[float, float], float | None],
) -> BoundPoint:
    """Search from the given start, then re-certify the winning parameters.

    Rejected or degenerate parameter pairs score +inf during the search
    (the poll skips non-finite values).  The degenerate sentinel itself
    cannot be used as the penalty: for small c the genuine bound exceeds
    it, which would make the rejected region look like an optimum.

    spreads maps (a, b) to ErfMinOutcome.spread, or to None for a
    rejected or degenerate pair; it is only valid for one tolerance
    setting and for positive finite c.  A known pair is scored as
    (spread + c * a) / f1(c), the same operations erf_min_bound performs,
    so the search path does not depend on what spreads already holds.
    """
    scale = f1(c)

    def penalized(params: GaussianParams) -> float:
        key = (params.a, params.b)
        if key in spreads:
            spread = spreads[key]
            return math.inf if spread is None else (spread + c * params.a) / scale
        try:
            outcome = erf_min_bound(c, params, tol)
        except (RootValidationFailed, DomainViolation, NoSignChange):
            spreads[key] = None
            return math.inf
        spreads[key] = outcome.spread
        if outcome.degenerate:
            return math.inf
        return outcome.value

    best = pattern_search(penalized, GaussianParams(*start), cfg)
    try:
        outcome = erf_min_bound(c, best, tol)
    except (RootValidationFailed, DomainViolation, NoSignChange):
        return BoundPoint(c, DEGENERATE_VALUE, best, True)
    return BoundPoint(c, outcome.value, best, outcome.degenerate)


def _certify_node_star(args) -> BoundPoint:
    return _certify_node(*args, {})


def optimize_grid(
    grid: Sequence[float],
    cfg: PatternSearchConfig | None = None,
    warm_start: Mapping[float, GaussianParams] | None = None,
    threads: int = 1,
    tol: ToleranceConfig | None = None,
) -> list[BoundPoint]:
    """Certify every node of a strictly increasing positive c-grid.

    Each node starts the search from warm_start[c] when that entry
    exists, otherwise from the previous node's optimum (the first node
    falls back to (0.9, 0.5)).  When the warm-start table covers every
    node the searches are independent and are distributed over a process
    pool for threads > 1; outputs are identical to the sequential run.
    The sequential run evaluates each (a, b) at most once per call (see
    _certify_node); the pool memoises within each node only.
    A node whose final certification is rejected or degenerate is
    reported as a degenerate BoundPoint carrying the sentinel constant.
    """
    if cfg is None:
        cfg = PatternSearchConfig()
    grid = [float(c) for c in grid]
    if not grid:
        return []
    if not all(math.isfinite(c) and c > 0.0 for c in grid):
        raise DomainViolation("grid values must be positive and finite")
    if any(u >= v for u, v in zip(grid, grid[1:])):
        raise DomainViolation("grid values must be strictly increasing")

    full_table = warm_start is not None and all(c in warm_start for c in grid)
    if full_table and threads > 1:
        jobs = [(c, (warm_start[c].a, warm_start[c].b), cfg, tol) for c in grid]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(_certify_node_star, jobs, chunksize=64))

    points: list[BoundPoint] = []
    previous = _DEFAULT_START
    spreads: dict[tuple[float, float], float | None] = {}
    for c in grid:
        if warm_start is not None and c in warm_start:
            start = (warm_start[c].a, warm_start[c].b)
        else:
            start = previous
        point = _certify_node(c, start, cfg, tol, spreads)
        points.append(point)
        previous = (point.params.a, point.params.b)
    return points


def certify_grid(grid: Sequence[float]) -> list[BoundPoint]:
    """Certify every node with the committed Gaussian-mixture witnesses.

    The oscillation and amplitude of a witness do not depend on c, so
    each witness is certified once; a node's constant is the smallest
    node_value over the witnesses, or the resolvent bound 1 + c (rounded
    upward) when that is smaller.  The resolvent bound follows from
    f1(A)X - X f1(B) = (A+1)^-1 (AX - XB) (B+1)^-1 and is reported with
    params None.  Nodes are independent, so each constant does not
    depend on the order of the grid; points come back in grid order.
    """
    cs = np.array([float(c) for c in grid])
    if not np.all(np.isfinite(cs) & (cs > 0.0)):
        raise DomainViolation("grid values must be positive and finite")
    if cs.size == 0:
        return []
    witnesses = load_witnesses()
    certificates = [certify_mixture(w) for w in witnesses]
    osc = np.array([cert.osc for cert in certificates])
    amplitude = np.array([cert.L for cert in certificates])
    values = node_value(cs[:, None], osc, amplitude)
    best = values.argmin(axis=1)
    envelope = values[np.arange(cs.size), best]
    resolvent = np.nextafter(cs + 1.0, np.inf)
    return [
        BoundPoint(float(c), float(r), None)
        if r < m
        else BoundPoint(float(c), float(m), witnesses[k])
        for c, k, m, r in zip(cs, best, envelope, resolvent)
    ]
