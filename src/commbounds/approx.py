"""Gaussian-antiderivative approximation bounds for f(x) = x / (x + 1).

A smooth approximant of the test function f1(x) = x / (x + 1) is built by
integrating a scaled Gaussian kernel G(x) = a * exp(-b * x^2), which gives
g(x) = (a / 2) * sqrt(pi / b) * erf(sqrt(b) * x).  The residual
j = f1 - g oscillates on the half line.  Its validated oscillation, a
safety margin covering the root-location windows, and a linear term in
the evaluation point combine into a certified upper bound for the
normalized approximation functional at that point.

Critical points of j are located through the sign-equivalent function
phi(x) = b * x^2 - 2 * log(x + 1) - log(a), which is strictly convex on
(-1, inf) and therefore easy to bracket, and every root is re-validated
directly on j' before it is used.

The same functional is certified for Gaussian mixtures: when
g'(x) = sum_k w_k exp(-b_k x^2) with every w_k >= 0, g' is positive
definite, its Schur bound is g'(0) = sum_k w_k, and the oscillation of
j = f1 - g is enclosed by interval subdivision with a second-derivative
bound, a monotone tail bound and an explicit floating-point margin.
`certify_mixtures` encloses a whole list of mixtures in one batched pass
that shares the work on their common initial sample; each enclosure is
the one its mixture gets alone, bit for bit.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf as _erf_array

__all__ = [
    "DomainViolation",
    "NoSignChange",
    "RootValidationFailed",
    "GaussianParams",
    "MixtureParams",
    "MixtureCertificate",
    "ErfMinOutcome",
    "f1",
    "gauss",
    "gauss_mass",
    "g_erf",
    "j_func",
    "j_prime",
    "j_limit",
    "phi",
    "x_star",
    "x_end",
    "bracketed_root",
    "erf_min_bound",
    "mixture_residual",
    "certify_mixture",
    "certify_mixtures",
    "node_value",
]

_EPS = sys.float_info.epsilon

# Half width of the safety window around each critical point; the root
# finder resolves to one tenth of it.
_ROOT_TOL = 1e-5
# Strict margin required of the derivative signs at the window edges.
_COMP_TOL = 1e-10
# Iteration cap of the root finder.
_MAX_ITER = 200


class DomainViolation(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NoSignChange(RuntimeError):
    """A bracketing interval does not straddle a sign change."""


class RootValidationFailed(RuntimeError):
    """A computed critical point failed its derivative sign checks."""


@dataclass(frozen=True)
class GaussianParams:
    """Amplitude a and inverse squared width b of the Gaussian kernel."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise DomainViolation(f"amplitude a must be positive and finite, got {self.a!r}")
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise DomainViolation(f"width parameter b must be positive and finite, got {self.b!r}")


@dataclass(frozen=True)
class MixtureParams:
    """Weights w_k and inverse squared widths b_k of a Gaussian mixture kernel.

    The kernel g'(x) = sum_k w_k exp(-b_k x^2) has strictly positive
    weights, so it is positive definite and its Schur bound is
    g'(0) = sum_k w_k.
    """

    w: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.w or len(self.w) != len(self.b):
            raise DomainViolation(
                f"a mixture needs equally many weights and widths, got {len(self.w)} and {len(self.b)}"
            )
        for name, values in (("weight", self.w), ("width parameter", self.b)):
            if not all(math.isfinite(v) and v > 0.0 for v in values):
                raise DomainViolation(f"every {name} must be positive and finite, got {values!r}")


@dataclass(frozen=True)
class ErfMinOutcome:
    """Pointwise bound together with the certified critical points.

    value is the bound itself; x1 and x2 are the validated local maximum
    and local minimum of the residual (x1 is None when the amplitude is
    at least one, both are None in the degenerate case); error_budget is
    the additive safety margin 2 * (1 + a) * _ROOT_TOL; degenerate flags
    a residual with no interior critical point.  spread = osc(j) +
    error_budget is the part of the numerator that does not depend on c,
    so value equals (spread + c * a) / f1(c) exactly.  A degenerate
    outcome certifies nothing: its spread and value are inf.
    """

    value: float
    x1: float | None
    x2: float | None
    error_budget: float
    degenerate: bool
    spread: float


def f1(x: float) -> float:
    """Evaluate the test function x / (x + 1)."""
    if x <= -1.0:
        raise DomainViolation(f"f1 requires x > -1, got {x!r}")
    return x / (x + 1.0)


def gauss(x: float, params: GaussianParams) -> float:
    """Evaluate the Gaussian kernel a * exp(-b * x^2)."""
    return params.a * math.exp(-params.b * x * x)


def gauss_mass(params: GaussianParams) -> float:
    """Return the half-line integral of the kernel, (a / 2) * sqrt(pi / b)."""
    return 0.5 * params.a * math.sqrt(math.pi / params.b)


def g_erf(x: float, params: GaussianParams) -> float:
    """Evaluate the kernel antiderivative (a / 2) * sqrt(pi / b) * erf(sqrt(b) * x)."""
    return gauss_mass(params) * math.erf(math.sqrt(params.b) * x)


def j_func(x: float, params: GaussianParams) -> float:
    """Evaluate the residual j(x) = f1(x) - g(x)."""
    return f1(x) - g_erf(x, params)


def j_prime(x: float, params: GaussianParams) -> float:
    """Evaluate j'(x) = 1 / (x + 1)^2 - a * exp(-b * x^2)."""
    if x <= -1.0:
        raise DomainViolation(f"j_prime requires x > -1, got {x!r}")
    u = x + 1.0
    return 1.0 / (u * u) - gauss(x, params)


def j_limit(params: GaussianParams) -> float:
    """Return the limit of j at infinity, 1 - (a / 2) * sqrt(pi / b)."""
    return 1.0 - gauss_mass(params)


def phi(x: float, params: GaussianParams) -> float:
    """Evaluate b * x^2 - 2 * log(x + 1) - log(a).

    On (-1, inf) this expression has the same sign as j'(x), but unlike
    j' it is strictly convex, so it has a single interior minimizer and
    at most two roots, which makes bracketing reliable.
    """
    if x <= -1.0:
        raise DomainViolation(f"phi requires x > -1, got {x!r}")
    return params.b * x * x - 2.0 * math.log1p(x) - math.log(params.a)


def x_star(b: float) -> float:
    """Return the minimizer of phi, the positive root of x^2 + x - 1 / b."""
    if not (math.isfinite(b) and b > 0.0):
        raise DomainViolation(f"x_star requires b > 0, got {b!r}")
    return 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 / b))


def x_end(params: GaussianParams) -> float:
    """Return a point to the right of every root of phi where phi > 0.

    Since log(1 + x) <= x, phi dominates the quadratic b*x^2 - 2*x - log(a),
    whose larger root (1 + sqrt(1 + b * log(a))) / b serves as a seed; a
    negative radicand clamps the square root to zero.  The seed is doubled
    (at most 60 times) until phi is strictly positive there.
    """
    a, b = params.a, params.b
    radicand = 1.0 + b * math.log(a)
    if radicand > 0.0:
        shift = math.sqrt(radicand)
    else:
        warnings.warn(
            "x_end radicand 1 + b*log(a) is negative; square-root term clamped to zero",
            RuntimeWarning,
            stacklevel=2,
        )
        shift = 0.0
    point = (1.0 + shift) / b
    for _ in range(61):
        if phi(point, params) > 0.0:
            return point
        point *= 2.0
    raise NoSignChange("phi stayed nonpositive along the entire doubling sequence")


def bracketed_root(func: Callable[[float], float], lo: float, hi: float) -> float:
    """Find a root of func on [lo, hi] with Brent's method.

    The endpoint values must have strictly opposite signs, otherwise
    NoSignChange is raised.  The convergence window is one tenth of
    _ROOT_TOL, so the returned point sits well inside the +-_ROOT_TOL
    validation window used downstream.  The combination of bisection,
    secant and inverse quadratic steps is fully deterministic with a
    hard cap of _MAX_ITER iterations.
    """
    xtol = 0.1 * _ROOT_TOL
    a, b = lo, hi
    fa, fb = func(a), func(b)
    if fa == 0.0 or fb == 0.0 or (fa > 0.0) == (fb > 0.0):
        raise NoSignChange(f"no strict sign change on [{lo!r}, {hi!r}]")
    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAX_ITER):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * xtol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        else:
            b += math.copysign(tol1, xm)
        fb = func(b)
    raise RootValidationFailed(f"root finder did not converge within {_MAX_ITER} iterations")


def _validate_extremum(root: float, params: GaussianParams, sign: float) -> None:
    """Confirm a local minimum (sign = 1) or maximum (sign = -1) of j at root.

    sign * j' must be at most -_COMP_TOL at root - _ROOT_TOL and at least
    _COMP_TOL at root + _ROOT_TOL.
    """
    t, eps = _ROOT_TOL, _COMP_TOL
    if root - t < eps:
        raise DomainViolation(f"validation window around {root!r} leaves the domain")
    if not (sign * j_prime(root - t, params) <= -eps and sign * j_prime(root + t, params) >= eps):
        kind = "minimum" if sign > 0.0 else "maximum"
        raise RootValidationFailed(f"derivative signs around {root!r} do not confirm a local {kind}")


def erf_min_bound(c: float, params: GaussianParams) -> ErfMinOutcome:
    """Bound the normalized approximation functional at the point c.

    The certified quantity is (osc(j) + 2 * (1 + a) * _ROOT_TOL + c * a)
    divided by f1(c), where osc(j) is the oscillation of the residual on
    [0, inf) computed from its validated critical points, the middle term
    is a safety margin that covers the root-location windows, and c * a
    accounts for the kernel amplitude at the origin.

    When phi is nonnegative at its minimizer the residual has no interior
    critical points and the construction certifies nothing: the outcome
    has degenerate=True and value = spread = inf.
    """
    if not (math.isfinite(c) and c > 0.0):
        raise DomainViolation(f"evaluation point c must be positive and finite, got {c!r}")

    a = params.a
    budget = 2.0 * (1.0 + a) * _ROOT_TOL
    xs = x_star(params.b)
    if phi(xs, params) >= 0.0:
        return ErfMinOutcome(math.inf, None, None, budget, True, math.inf)

    sign_func = lambda x: phi(x, params)  # noqa: E731

    x2 = bracketed_root(sign_func, xs, x_end(params))
    _validate_extremum(x2, params, 1.0)

    if a < 1.0:
        x1 = bracketed_root(sign_func, 0.0, xs)
        _validate_extremum(x1, params, -1.0)
        high = max(j_func(x1, params), j_limit(params))
        low = min(0.0, j_func(x2, params))
    else:
        x1 = None
        high = max(0.0, j_limit(params))
        low = j_func(x2, params)

    spread = (high - low) + budget
    value = (spread + c * a) / f1(c)
    return ErfMinOutcome(value, x1, x2, budget, False, spread)


@dataclass(frozen=True)
class MixtureCertificate:
    """Certified enclosure of the residual of a mixture approximant.

    low <= inf j and high >= sup j for j = f1 - g on [0, inf); osc is
    high - low and L is g'(0) = sum_k w_k, both rounded upward, so
    node_value(c, osc, L) bounds the functional at every c > 0.
    """

    low: float
    high: float
    osc: float
    L: float


# [0, _TAIL_START] is covered by cells; beyond it j is bounded by monotonicity.
_TAIL_START = 1e12
_INITIAL_POINTS = 2000
_REFINE_TOL = 1e-12
_MAX_ROUNDS = 200
# Rounding allowance per evaluated value, in ulps of (K + 2) * (1 + g(inf)).
_FP_ULPS = 256


def _up(value):
    return np.nextafter(value, np.inf)


def mixture_residual(x, params: MixtureParams) -> np.ndarray:
    """Evaluate j(x) = x/(x+1) - sum_k w_k (1/2) sqrt(pi/b_k) erf(sqrt(b_k) x) for x >= 0.

    Vectorised over x; the sum runs over the last axis, so each value
    is computed identically whatever the shape of x.
    """
    x = np.asarray(x, dtype=float)
    b = np.asarray(params.b)
    mass = 0.5 * np.asarray(params.w) * np.sqrt(np.pi / b)
    return x / (x + 1.0) - (_erf_array(np.multiply.outer(x, np.sqrt(b))) * mass).sum(axis=-1)


def certify_mixture(params: MixtureParams) -> MixtureCertificate:
    """Enclose the range of j = f1 - g on [0, inf) for one mixture kernel.

    This is certify_mixtures([params])[0]; see there for the method.
    """
    return certify_mixtures([params])[0]


def certify_mixtures(params_seq: Sequence[MixtureParams]) -> list[MixtureCertificate]:
    """Enclose the range of j = f1 - g on [0, inf) for each mixture kernel.

    [0, 1e12] is split into cells [l, r].  On a cell j stays within
    (r - l)^2 / 8 * max|j''| of its chord, and since
    j'' = -2/(x+1)^3 + sum_k 2 w_k b_k x exp(-b_k x^2) is a difference of
    two nonnegative terms, |j''| <= max(2/(l+1)^3, sum_k 2 w_k b_k y_k
    exp(-b_k y_k^2)) with y_k the point of [l, r] nearest the peak
    1/sqrt(2 b_k) of x exp(-b_k x^2).  Cells whose bound could pass the
    sampled extremes by more than 1e-12 are bisected until none is left,
    a cell cannot be split in floating point, or 200 rounds have run;
    every cell's bound counts either way.  On [X, inf), X = 1e12, both
    f1 and g increase, so j lies in [f1(X) - g(inf), 1 - g(X)].

    Each evaluated value is a sum of K + 1 terms, each a few correctly
    rounded operations and one erf call, with magnitudes summing to at
    most 1 + g(inf); the enclosure is widened by 256 ulps of
    (K + 2) * (1 + g(inf)), far above that rounding error.  The chord
    slack is inflated by 2^-20 for the rounding in its own evaluation.

    The kernels are certified together.  They all start from the same
    2001-point sample, so erf and the curvature factors there are
    evaluated once per distinct width and shared.  Every cell carries the
    index of its kernel, and all kernels are refined in the same rounds.
    A sum over a kernel's K terms is taken only among kernels of the same
    K, laid out as a lone kernel's terms are, so numpy adds them in the
    same order; maxima and minima are exact.  Each certificate is
    therefore the one its kernel gets alone, bit for bit, whatever else
    is in the batch.
    """
    params_seq = list(params_seq)
    if not params_seq:
        return []
    # Kernels are numbered by size K, so each size owns a run of numbers.
    order = sorted(range(len(params_seq)), key=lambda i: len(params_seq[i].b))
    kernels = [params_seq[i] for i in order]
    count = len(kernels)
    widths, column = np.unique(np.concatenate([p.b for p in kernels]), return_inverse=True)
    xs = np.concatenate(([0.0], np.geomspace(1e-6, _TAIL_START, _INITIAL_POINTS)))
    y0 = np.clip(1.0 / np.sqrt(2.0 * widths), xs[:-1, None], xs[1:, None])
    erf0 = _erf_array(np.multiply.outer(xs, np.sqrt(widths)))
    exp0 = np.exp(-widths * y0 * y0)
    # Past the last row where it is below 1 (above 0) for some width, erf0
    # (exp0) is saturated, and a kernel's terms there are its masses (zeros).
    erf_live = xs.size - np.argmax((erf0 != 1.0)[::-1], axis=0)
    exp_live = y0.shape[0] - np.argmax((exp0 != 0.0)[::-1], axis=0)

    runs, values, bump, g_inf, g_tail, margin = [], [], [], [], [], []
    sizes = [len(p.b) for p in kernels]
    offset = 0
    for size, run in itertools.groupby(range(count), key=sizes.__getitem__):
        run = list(run)
        col = column[offset : offset + size * len(run)].reshape(len(run), size)
        offset += col.size
        w, b = np.array([kernels[k].w for k in run]), widths[col]
        mass = 0.5 * w * np.sqrt(np.pi / b)
        weight = 2.0 * w * b
        # Per-term factors of a kernel, gathered for a cell by one index.
        runs.append((run[0], np.stack((np.sqrt(b), mass, 1.0 / np.sqrt(2.0 * b), weight, -b), axis=1)))
        g_inf.append(mass.sum(axis=-1))
        g_tail.append((_erf_array(np.sqrt(b) * _TAIL_START) * mass).sum(axis=-1))
        margin.append(_FP_ULPS * (size + 2) * _EPS * (1.0 + g_inf[-1]))
        erf_sums = _sample_sums(col, erf_live[col].max(), g_inf[-1][:, None], mass, erf0)
        values.append(xs / (xs + 1.0) - erf_sums)
        bump.append(_sample_sums(col, exp_live[col].max(), 0.0, weight, y0, exp0))
    first = np.array([start for start, _ in runs])

    # Round 0 runs on the shared cells of xs: the cell arrays are rows, one
    # per kernel, and owner, lo and hi are broadcast against them.  Later
    # rounds keep the cells sorted by owner, so each size is one slice.
    values, bump = np.concatenate(values), np.concatenate(bump)
    top, bottom = values.max(axis=1), values.min(axis=1)
    owner, lo, hi = np.arange(count)[:, None], xs[:-1], xs[1:]
    j_lo, j_hi = values[:, :-1], values[:, 1:]
    upper, lower = np.full(count, -math.inf), np.full(count, math.inf)
    for _ in range(_MAX_ROUNDS):
        cell_hi, cell_lo = _cell_bounds(lo, hi, j_lo, j_hi, bump)
        mid = 0.5 * (lo + hi)
        split = (
            (cell_hi > (top + _REFINE_TOL)[owner]) | (cell_lo < (bottom - _REFINE_TOL)[owner])
        ) & (lo < mid) & (mid < hi)
        if split.ndim > 1:
            owner, lo, hi, mid = (np.broadcast_to(v, split.shape) for v in (owner, lo, hi, mid))
        done = ~split
        finished = owner[done]
        np.maximum.at(upper, finished, cell_hi[done])
        np.minimum.at(lower, finished, cell_lo[done])
        if not split.any():
            break
        owner, lo, hi, j_lo, j_hi, mid = (v[split] for v in (owner, lo, hi, j_lo, j_hi, mid))
        # Each split cell becomes its two halves, side by side, so the cells
        # stay sorted by owner.
        lo, hi = np.column_stack((lo, mid)), np.column_stack((mid, hi))
        j_mid, bump = _bisect(runs, np.searchsorted(owner, first), owner, lo, hi)
        np.maximum.at(top, owner, j_mid)
        np.minimum.at(bottom, owner, j_mid)
        owner, lo, hi = np.repeat(owner, 2), lo.ravel(), hi.ravel()
        j_lo, j_hi = np.column_stack((j_lo, j_mid)).ravel(), np.column_stack((j_mid, j_hi)).ravel()
    else:
        cell_hi, cell_lo = _cell_bounds(lo, hi, j_lo, j_hi, bump)
        owner = np.broadcast_to(owner, cell_hi.shape)
        np.maximum.at(upper, owner, cell_hi)
        np.minimum.at(lower, owner, cell_lo)

    g_inf, g_tail, margin = np.concatenate(g_inf), np.concatenate(g_tail), np.concatenate(margin)
    upper = np.maximum(upper, 1.0 - g_tail)
    lower = np.minimum(lower, f1(_TAIL_START) - g_inf)
    high = _up(upper + margin)
    low = -_up(margin - lower)
    osc = _up(high - low)
    certificates: list[MixtureCertificate] = [None] * count  # type: ignore[list-item]
    for i, params, low_k, high_k, osc_k in zip(order, kernels, low, high, osc):
        certificates[i] = MixtureCertificate(
            float(low_k), float(high_k), float(osc_k), float(_up(math.fsum(params.w)))
        )
    return certificates


def _sample_sums(col, live, saturated, factor, table, other=None):
    """sum_k factor_k * table[:, col_k] (* other[:, col_k]) as (kernels, rows).

    col and factor are (kernels, K).  Rows from live on are set to
    saturated instead.  The terms are laid out (rows, kernels, K) with K
    innermost, like a lone kernel's (rows, K) array, so numpy adds each
    row in the same order, and the products are taken in the order
    (table * factor) * other.
    """
    count, size = col.shape
    out = np.empty((count, table.shape[0]))
    out[:, live:] = saturated
    terms = np.take(table[:live], col.ravel(), axis=1)
    terms *= factor.ravel()
    if other is not None:
        terms *= np.take(other[:live], col.ravel(), axis=1)
    out[:, :live] = terms.reshape(live, count, size).sum(axis=-1).T
    return out


def _cell_bounds(lo, hi, j_lo, j_hi, bump):
    curvature = np.maximum(2.0 / (lo + 1.0) ** 3, bump)
    slack = curvature * (hi - lo) ** 2 * (0.125 * (1.0 + 2.0**-20))
    return np.maximum(j_lo, j_hi) + slack, np.minimum(j_lo, j_hi) - slack


def _bisect(runs, edges, owner, lo, hi):
    """j at the midpoints of cells sorted by owner, and the bumps of their halves.

    lo and hi are (cells, 2): the left and the right half of each cell.
    runs holds each size's first kernel and per-term factors, and edges
    the index of each run's first cell.
    """
    mid = lo[:, 1]
    sums = np.empty(mid.size)
    bump = np.empty(lo.shape)
    for (start, factors), i, j in zip(runs, edges, [*edges[1:], mid.size]):
        if i == j:
            continue
        f = factors[owner[i:j] - start]
        sums[i:j] = (_erf_array(mid[i:j, None] * f[:, 0]) * f[:, 1]).sum(axis=-1)
        f = f[:, None]
        y = np.minimum(np.maximum(f[..., 2, :], lo[i:j, :, None]), hi[i:j, :, None])
        bump[i:j] = (f[..., 3, :] * y * np.exp(f[..., 4, :] * y * y)).sum(axis=-1)
    return mid / (mid + 1.0) - sums, bump.ravel()


def node_value(c, osc, L):
    """Upper bound of (osc + c L) / f1(c) = (osc + c L)(c + 1) / c.

    Every operation is rounded upward, so the result is at least the
    exact value for the given floats.  Broadcasts over numpy arrays.
    """
    return _up(_up(_up(osc + _up(c * L)) * _up(c + 1.0)) / c)
