"""Derivative-free parameter tuning of the pointwise bound over a c-grid.

The kernel parameters (a, b) that minimize the pointwise bound have no
closed form, so they are found by a deterministic coordinate pattern
search: poll the axis directions (+a, -a, +b, -b) with a common step,
accept the first strict improvement, expand the step on success and
shrink it on failure, and stop when the step falls below a floor or the
evaluation budget runs out.  The grid driver chains warm starts from one
node to the next (the minimizer moves slowly in c).  Only the c * a term
of the bound depends on c, so the grid search polls (a, b) tuples with
pattern_search_nd, remembers the c-independent spread that approx's
bare-float kernel _erf_min gives for every pair it has evaluated, and
scores every poll, first or repeated, from that spread; a node's
constant is the score of its winning parameters, which is
erf_min_bound's value there bit for bit.  pattern_search, the same
search over GaussianParams, is kept for callers that score kernels.

`certify_grid` and `hull_constant` read one envelope (`_envelope`): the
lines osc + t L of the committed Gaussian-mixture witnesses and of two
closed-form approximants, the resolvent bound 1 + c and g = 0, and their
exact lower hull.  `certify_grid` evaluates the upward-rounded
node_value at a node only on the lines near the hull there (the argument
is in its docstring); `hull_constant` bounds the node constant at every
c > 0, with no grid.
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
    _erf_min,
    certify_mixture,  # noqa: F401 -- perfbench/spans.py traces it under this module
    certify_mixtures,
    erf_min_bound,  # noqa: F401 -- perfbench/spans.py traces it under this module
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
    "HullConstant",
    "hull_constant",
]


# Step control of the coordinate pattern search.
_INITIAL_STEP = 0.5
_SHRINK = 0.5
_EXPAND = 2.0
_MIN_STEP = 1e-9
_MAX_EVALS = 20000
_LOWER_BOUNDS = (1e-8, 1e-8)

# certify_grid evaluates node_value only on the lines within this
# (relative) slack of the lower hull at either end of the node's piece;
# its docstring shows that they hold every line that can win the node.
_HULL_SLACK = 1e-9


@dataclass(frozen=True, slots=True)
class BoundPoint:
    """One certified grid node: location c, constant C_k, and its parameters.

    params is the approximant that certifies C_k: a single Gaussian, a
    Gaussian mixture, or None for a closed-form line: the resolvent
    bound 1 + c or g = 0.
    """

    c: float
    C_k: float
    params: GaussianParams | MixtureParams | None

    @property
    def degenerate(self) -> bool:
        """No approximant certified the node: its constant C_k is inf."""
        return self.C_k == math.inf


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

    start must be non-empty and finite, also once clamped, and lower and
    upper as long as start.  Each axis's bounds are read once as (lo, hi),
    a missing bound as -inf or +inf.  min(max(v, lo), hi) clamps the start
    by the polls' comparisons, v < lo and then v > hi.  A poll moves one
    coordinate of the best point, held in a list, in place, clamps it into
    [lo, hi] and checks only it, passes the objective a tuple of the point,
    and puts the coordinate back when the poll does not improve.
    """
    dim = len(start)
    lower = tuple(lower) if lower is not None else (None,) * dim
    upper = tuple(upper) if upper is not None else (None,) * dim
    if dim == 0:
        raise DomainViolation("start must have at least one coordinate")
    if len(lower) != dim or len(upper) != dim:
        raise DomainViolation(
            f"lower and upper must have {dim} entries like start, got {len(lower)} and {len(upper)}"
        )
    start = tuple(float(v) for v in start)
    bounds = [
        (-math.inf if lo is None else lo, math.inf if hi is None else hi)
        for lo, hi in zip(lower, upper)
    ]
    point = [min(max(v, lo), hi) for v, (lo, hi) in zip(start, bounds)]
    if not all(math.isfinite(v) for v in start + tuple(point)):
        raise DomainViolation(f"start and its clamp into the bounds must be finite, got {start}")
    polls = [(axis, sign, lo, hi) for axis, (lo, hi) in enumerate(bounds) for sign in (1.0, -1.0)]
    f_best = objective(tuple(point))
    evals = 1
    step = _INITIAL_STEP
    while step >= _MIN_STEP and evals < _MAX_EVALS:
        for axis, sign, lo, hi in polls:
            here = point[axis]
            value = here + sign * step
            if value < lo:
                value = lo
            if value > hi:
                value = hi
            if value == here or not math.isfinite(value):
                continue
            point[axis] = value
            f_cand = objective(tuple(point))
            evals += 1
            if f_cand < f_best:
                f_best = f_cand
                step *= _EXPAND
                break
            point[axis] = here
            if evals >= _MAX_EVALS:
                break
        else:
            step *= _SHRINK
    return tuple(point)


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

    The search polls (a, b) tuples.  spreads maps each to the spread of
    the kernel _erf_min, which is inf for a degenerate pair, and to inf
    for a rejected one; it is only valid for positive finite c.  Every
    poll scores (spread + c * a) / f1(c), the operations erf_min_bound
    performs, so a score is the bound itself bit for bit and the search
    path does not depend on what spreads already holds.  The pattern
    search evaluates its start, so the winner's score is in spreads; the
    node is degenerate exactly when that score is inf.  The winner is the
    node's one GaussianParams.
    """
    scale = f1(c)

    def score(point: tuple[float, float]) -> float:
        spread = spreads.get(point)
        if spread is None:
            try:
                spread = _erf_min(*point)[0]
            except (RootValidationFailed, DomainViolation, NoSignChange):
                spread = math.inf
            spreads[point] = spread
        return (spread + c * point[0]) / scale

    best = pattern_search_nd(score, start, lower=_LOWER_BOUNDS)
    return BoundPoint(c, score(best), GaussianParams(*best))


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
    """Certify every node from the envelope of the witnesses and the closed-form lines.

    Each call certifies the witness table afresh (_envelope) and keeps
    nothing for the next call.  A node's constant is the smallest
    node_value over the envelope's lines, the first in index order
    winning a tie, or the resolvent bound 1 + c rounded upward when that
    is smaller; the resolvent line's own node_value is above that bound.
    params is None when a closed-form line or the resolvent bound sets
    the constant.  Nodes are independent, so each constant does not
    depend on the order of the grid; points come back in grid order.

    node_value is evaluated only on a few candidate lines per node,
    which hold every line that can win it.  With E = osc + cL exact,
    the plain float h = osc + c*L is within a factor 1 +- eps of E, both
    terms being nonnegative, and node_value, five operations each
    rounded upward, lies between E (c+1)/c and (1 + 8 eps) E (c+1)/c; a
    witness's osc is at least the certifier's margin and a closed-form
    line's c*L is exact, so the absolute error of a subnormal c*L does
    not count.  A line whose h exceeds the
    node's least h by a factor above 1 + 64 eps (64 ulps) therefore has
    a node_value above the least one: it can neither win nor tie.

    The lines within 64 ulps are found from the lower hull of the lines
    E_k(t) = osc_k + t L_k (_lower_hull).  A node c lies in a piece
    [a, b] between float breakpoints, clipped to the grid's range, with
    hull line E_p.  The node's least h is at most h_p, so a line within
    64 ulps at c has E_k(c) <= (1 + 100 eps) E_p(c).
    E_k - (1 + 100 eps) E_p is affine in t, so it is <= 0 at a or at b,
    and there the plain h_k is below the plain h_p times 1 + 1e-9
    (_HULL_SLACK).  The lines within that slack of E_p at either end of
    the piece, its candidates, therefore hold every line that can win or
    tie at any node of the piece, however the breakpoints are rounded;
    that E_p is the lowest line there only keeps them few.  node_value
    and argmin over the candidates, in index order, pick the line that
    they pick over all of them.  When even the least node_value
    overflows to inf, every one does, and the node takes the first
    witness, as the argmin over all lines would.
    """
    cs = np.array([float(c) for c in grid])
    if not np.all(np.isfinite(cs) & (cs > 0.0)):
        raise DomainViolation("grid values must be positive and finite")
    if cs.size == 0:
        return []
    witnesses, osc, amplitude, lines, breaks = _envelope()
    ends = np.clip(np.concatenate(([cs.min()], breaks, [cs.max()])), cs.min(), cs.max())
    h = np.multiply.outer(ends, amplitude)
    h += osc
    pieces = np.arange(lines.size)
    near = (h[:-1] <= h[pieces, lines, None] * (1.0 + _HULL_SLACK)) | (
        h[1:] <= h[pieces + 1, lines, None] * (1.0 + _HULL_SLACK)
    )
    # Each piece's candidates in index order, the last one repeated up to
    # the largest count of a piece that holds a node (a piece beyond the
    # grid, clipped to its end, can hold every line), so that every node
    # gets a row of the same width.
    counts = near.sum(axis=1)
    piece = np.searchsorted(breaks, cs)
    slots = np.minimum(np.arange(counts[piece].max()), counts[:, None] - 1)
    table = np.nonzero(near)[1][(np.cumsum(counts) - counts)[:, None] + slots]
    candidates = table[piece]
    # Near the float maximum these overflow to inf, which the rules above handle.
    with np.errstate(over="ignore"):
        values = node_value(cs[:, None], osc[candidates], amplitude[candidates])
        resolvent = np.nextafter(cs + 1.0, np.inf)
    rows = np.arange(cs.size)
    column = values.argmin(axis=1)
    envelope = values[rows, column]
    best = np.where(envelope < np.inf, candidates[rows, column], 0)
    params = [*witnesses, None, None]
    return [
        BoundPoint(c, r, None) if r < m else BoundPoint(c, m, params[k])
        for c, k, m, r in zip(cs.tolist(), best.tolist(), envelope.tolist(), resolvent.tolist())
    ]


@dataclass(frozen=True)
class HullConstant:
    """A certified bound on the node constant at every c > 0, and where it binds.

    C is the bound; c is the breakpoint of the envelope's lower hull at
    which it is reached, and witness the index in the table of the
    line that gives it there (None for the resolvent or the trivial line).
    """

    C: float
    c: float
    witness: int | None


def hull_constant() -> HullConstant:
    """Bound the node constant over all c > 0 from the envelope's lower hull, with no grid.

    Each line of _envelope bounds the node constant at t by
    (osc + tL)(1 + t)/t.  Bound each piece [t_(i-1), t_i] between the
    hull's float breakpoints by its own line.  Any line bounds the
    constant, so the pieces need not be exact: they cover (0, inf)
    because the breakpoints never decrease.  On a piece,
    (osc + tL)(1 + t)/t = osc/t + osc + L + tL is convex in t, so its sup
    is at an end.  The witnesses' osc are positive and their L too, so
    the first piece is the resolvent line's, 1 + t, increasing, and the
    last is the trivial line's, (1 + t)/t, decreasing: both are largest
    at their finite end.  The bound is therefore the largest node_value,
    rounded upward, of the two lines that meet at each breakpoint.
    """
    witnesses, osc, amplitude, lines, breaks = _envelope()
    ends = np.stack((lines[:-1], lines[1:]))
    values = node_value(breaks, osc[ends], amplitude[ends])
    side, i = np.unravel_index(values.argmax(), values.shape)
    k = int(ends[side, i])
    return HullConstant(float(values[side, i]), float(breaks[i]), k if k < len(witnesses) else None)


def _envelope() -> tuple[list[MixtureParams], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The certified lines osc + t L of the envelope, and their lower hull.

    Returns (witnesses, osc, L, lines, breaks).  osc and L are the
    witness table's, certified afresh in one certify_mixtures pass, in
    table order, then the resolvent line (osc 0, L 1), whose bound 1 + c
    follows from f1(A)X - X f1(B) = (A+1)^-1 (AX - XB) (B+1)^-1, and the
    trivial line g = 0 (osc 1, L 0).  lines and breaks are _lower_hull's.
    """
    witnesses = load_witnesses()
    certificates = certify_mixtures(witnesses)
    osc = np.array([cert.osc for cert in certificates] + [0.0, 1.0])
    amplitude = np.array([cert.L for cert in certificates] + [1.0, 0.0])
    return (witnesses, osc, amplitude, *_lower_hull(osc, amplitude))


def _lower_hull(osc: np.ndarray, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lines osc_k + t L_k of the lower envelope on t > 0, and its float breakpoints.

    Returns the indices of the hull's lines in the order in which they
    are lowest as t grows, and the float breakpoints between
    consecutive lines, made non-decreasing; each is the quotient of two
    float differences, so within a few ulps of the exact meeting point.
    The lines are taken by decreasing slope (of equal slopes the lowest,
    of equal lines the first), and the line on top of the stack is
    popped when the new line meets it no later than it meets the line
    below it, or, with no line below, at t <= 0.  Those tests are
    exact: they compare products of Python integers.  The lines kept are
    exactly those that are lowest on an interval of positive length.
    """
    # Every float is an integer over a power of two, so on the largest of
    # those denominators every osc and L is an integer.
    ratios = [x.as_integer_ratio() for x in osc.tolist() + L.tolist()]
    scale = max(d for _, d in ratios)
    scaled = [n * (scale // d) for n, d in ratios]
    exact = list(zip(scaled[: osc.size], scaled[osc.size :]))
    hull: list[int] = []
    for k in sorted(range(osc.size), key=lambda k: (-exact[k][1], exact[k][0])):
        o_k, s_k = exact[k]
        if hull and exact[hull[-1]][1] == s_k:
            continue
        while hull:
            o_a, s_a = exact[hull[-1]]
            if len(hull) > 1:
                o_b, s_b = exact[hull[-2]]
                pop = (o_k - o_a) * (s_b - s_a) <= (o_a - o_b) * (s_a - s_k)
            else:
                pop = o_k <= o_a
            if not pop:
                break
            hull.pop()
        hull.append(k)
    lines = np.array(hull)
    breaks = (osc[lines[1:]] - osc[lines[:-1]]) / (L[lines[:-1]] - L[lines[1:]])
    return lines, np.maximum.accumulate(breaks)
