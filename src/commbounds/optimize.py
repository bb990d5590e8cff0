"""Derivative-free parameter tuning of the pointwise bound over a c-grid.

The kernel parameters (a, b) that minimize the pointwise bound have no
closed form, so they are found by a deterministic coordinate pattern
search: poll the axis directions (+a, -a, +b, -b) with a common step,
accept the first strict improvement, expand the step on success and
shrink it on failure, and stop when the step falls below a floor or the
evaluation budget runs out.  The grid driver chains warm starts from one
node to the next (the minimizer moves slowly in c).  Only the c * a term
of the bound depends on c, so one grid search remembers the
c-independent spread of every (a, b) it has evaluated and scores every
poll, first or repeated, from that spread; a node's constant is the
score of its winning parameters, which is erf_min_bound's value there
bit for bit.

`certify_grid` is the search-free certifier: every node takes the lower
envelope of the committed Gaussian-mixture witnesses and the resolvent
bound 1 + c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from commbounds.approx import (
    DomainViolation,
    GaussianParams,
    MixtureParams,
    NoSignChange,
    RootValidationFailed,
    certify_mixture,
    erf_min_bound,
    f1,
    node_value,
)
from commbounds.witnesses import load_witnesses

__all__ = [
    "BoundPoint",
    "pattern_search",
    "pattern_search_nd",
    "build_paper_grid",
    "optimize_grid",
    "certify_grid",
]


# Step control of the coordinate pattern search.
_INITIAL_STEP = 0.5
_SHRINK = 0.5
_EXPAND = 2.0
_MIN_STEP = 1e-9
_MAX_EVALS = 20000
_LOWER_BOUNDS = (1e-8, 1e-8)


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
    lower: Sequence[float | None] | None = None,
    upper: Sequence[float | None] | None = None,
) -> tuple[float, ...]:
    """Minimize a total objective over box-clamped coordinates.

    Fully deterministic: the poll order is +x0, -x0, +x1, -x1, ... with
    first-improvement acceptance.  The objective must return a penalty
    such as inf (rather than raise) on inputs it dislikes.  Returns the best
    point seen, which is never worse than the clamped start.
    """
    dim = len(start)
    lower = tuple(lower) if lower is not None else (None,) * dim
    upper = tuple(upper) if upper is not None else (None,) * dim
    best = _clamp(tuple(float(v) for v in start), lower, upper)
    f_best = objective(best)
    evals = 1
    step = _INITIAL_STEP
    while step >= _MIN_STEP and evals < _MAX_EVALS:
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
                if evals >= _MAX_EVALS:
                    break
            if improved or evals >= _MAX_EVALS:
                break
        step = step * _EXPAND if improved else step * _SHRINK
    return best


def pattern_search(
    objective: Callable[[GaussianParams], float], start: GaussianParams
) -> GaussianParams:
    """Minimize an objective over kernel parameters, both at least 1e-8."""

    def wrapped(point: tuple[float, ...]) -> float:
        return objective(GaussianParams(point[0], point[1]))

    a, b = pattern_search_nd(wrapped, (start.a, start.b), lower=_LOWER_BOUNDS)
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
    spreads: dict[tuple[float, float], float],
) -> BoundPoint:
    """Search from the given start and report the winning parameters.

    spreads maps (a, b) to ErfMinOutcome.spread, which is inf for a
    degenerate pair, and to inf for a rejected one; it is only valid for
    positive finite c.  Every poll scores (spread + c * a) / f1(c), the
    operations erf_min_bound performs, so a score is the bound itself bit
    for bit and the search path does not depend on what spreads already
    holds.  The pattern search evaluates its start, so the winner's score
    is in spreads; the node is degenerate exactly when that score is inf.
    """
    scale = f1(c)

    def score(params: GaussianParams) -> float:
        key = (params.a, params.b)
        if key not in spreads:
            try:
                spreads[key] = erf_min_bound(c, params).spread
            except (RootValidationFailed, DomainViolation, NoSignChange):
                spreads[key] = math.inf
        return (spreads[key] + c * params.a) / scale

    best = pattern_search(score, GaussianParams(*start))
    value = score(best)
    return BoundPoint(c, value, best, value == math.inf)


def optimize_grid(grid: Sequence[float]) -> list[BoundPoint]:
    """Certify every node of a strictly increasing positive c-grid.

    The first node starts the search from (0.9, 0.5), every later node
    from the previous node's optimum.  One call evaluates each (a, b) at
    most once (see _certify_node).  A node whose every poll was rejected
    or degenerate is reported as a degenerate BoundPoint with C_k = inf.
    """
    grid = [float(c) for c in grid]
    if not all(math.isfinite(c) and c > 0.0 for c in grid):
        raise DomainViolation("grid values must be positive and finite")
    if any(u >= v for u, v in zip(grid, grid[1:])):
        raise DomainViolation("grid values must be strictly increasing")

    points: list[BoundPoint] = []
    start = _DEFAULT_START
    spreads: dict[tuple[float, float], float] = {}
    for c in grid:
        point = _certify_node(c, start, spreads)
        points.append(point)
        start = (point.params.a, point.params.b)
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
