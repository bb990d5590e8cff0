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
directly on j' before it is used.  The grid search polls the private
kernel _erf_min, which does all of this on bare floats and returns the
c-independent part of the numerator with the critical points;
erf_min_bound is that kernel behind one check of c.

The same functional is certified for Gaussian mixtures: when
g'(x) = sum_k w_k exp(-b_k x^2) with every w_k >= 0, g' is positive
definite, its Schur bound is g'(0) = sum_k w_k, and the oscillation of
j = f1 - g is enclosed by interval subdivision with a second-derivative
bound, a monotone tail bound and an explicit floating-point margin.
`certify_mixtures` encloses a whole list of mixtures in one batched pass
that shares the work on their common initial sample; each enclosure is
the one its mixture gets alone, bit for bit.

scipy.special's erf is imported by the first call that needs it
(`mixture_residual` or `certify_mixtures`), so importing this module
loads no scipy module.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "CommboundsError",
    "DomainViolation",
    "NoSignChange",
    "NumericalFailure",
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


class CommboundsError(Exception):
    """A validation or computation failure; each subclass also keeps a builtin base."""


class DomainViolation(ValueError, CommboundsError):
    """An argument lies outside the mathematical domain of an operation."""


class NoSignChange(RuntimeError, CommboundsError):
    """A bracketing interval does not straddle a sign change."""


class RootValidationFailed(RuntimeError, CommboundsError):
    """A computed critical point failed its derivative sign checks."""


class NumericalFailure(RuntimeError, CommboundsError):
    """A solver or a quadrature did not reach an answer it can vouch for, or
    an inequality checked on computed values failed beyond its slack."""


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

    def to_payload(self) -> dict:
        """The {"w": [...], "b": [...]} layout of certificate files and the witness table."""
        return {"w": list(self.w), "b": list(self.b)}

    @classmethod
    def from_payload(cls, payload: Mapping) -> "MixtureParams":
        """Read to_payload's layout; other keys of the mapping are ignored."""
        return cls(tuple(float(v) for v in payload["w"]), tuple(float(v) for v in payload["b"]))


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
    outcome certifies nothing: its spread and value are inf.  to_dict
    writes a value that is not finite, which strict JSON cannot hold, as
    None: every degenerate outcome's, and also a bound that overflowed
    (c near 0, or c * a past the largest float) on a kernel that is not
    degenerate.
    """

    value: float
    x1: float | None
    x2: float | None
    error_budget: float
    degenerate: bool
    spread: float

    def to_dict(self) -> dict:
        return {
            "value": self.value if math.isfinite(self.value) else None,
            "x1": self.x1,
            "x2": self.x2,
            "degenerate": self.degenerate,
            "error_budget": self.error_budget,
        }


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
    whose larger root (1 + sqrt(1 + b * log(a))) / b serves as a seed.  A
    negative radicand leaves the quadratic no root, so phi > 0 everywhere
    and the square root clamps to zero with no warning; erf_min_bound never
    gets here, as 1/b = x*^2 + x* then gives phi(x*) > x*^3/(1 + x*) > 0.
    The seed is doubled (at most 60 times) until phi is strictly positive.
    """
    a, b = params.a, params.b
    radicand = 1.0 + b * math.log(a)
    shift = math.sqrt(radicand) if radicand > 0.0 else 0.0
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

    The loop invariants are computed once.  two_eps * abs(b) is the
    float that 2.0 * _EPS * abs(b) gives, since Python multiplies left to
    right, and half_xtol is 0.5 * xtol; `v if v < u else u` is min(u, v),
    which keeps its first argument unless a later one is smaller.  So every
    step, root and error is the one the loop gives with them inline.
    """
    two_eps = 2.0 * _EPS
    half_xtol = 0.5 * (0.1 * _ROOT_TOL)
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
        tol1 = two_eps * abs(b) + half_xtol
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
            u, v = 3.0 * xm * q - abs(tol1 * q), abs(e * q)
            if 2.0 * p < (v if v < u else u):
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


def _error_budget(a: float) -> float:
    """The margin 2 * (1 + a) * _ROOT_TOL that covers the root-location windows."""
    return 2.0 * (1.0 + a) * _ROOT_TOL


def _validate_extremum(root: float, a: float, b: float, sign: float) -> None:
    """Confirm a local minimum (sign = 1) or maximum (sign = -1) of j at root.

    sign * j' must be at most -_COMP_TOL at root - _ROOT_TOL and at least
    _COMP_TOL at root + _ROOT_TOL.  j' is j_prime's 1 / (x + 1)^2 -
    a * exp(-b * x^2) on bare floats, in its order; its domain check is
    dropped, as the window starts at _COMP_TOL or later.
    """
    t, eps = _ROOT_TOL, _COMP_TOL
    if root - t < eps:
        raise DomainViolation(f"validation window around {root!r} leaves the domain")
    lo, hi = root - t, root + t
    u, v = lo + 1.0, hi + 1.0
    if not (
        sign * (1.0 / (u * u) - a * math.exp(-b * lo * lo)) <= -eps
        and sign * (1.0 / (v * v) - a * math.exp(-b * hi * hi)) >= eps
    ):
        kind = "minimum" if sign > 0.0 else "maximum"
        raise RootValidationFailed(f"derivative signs around {root!r} do not confirm a local {kind}")


def _erf_min(a: float, b: float) -> tuple[float, float | None, float | None]:
    """erf_min_bound's spread and critical points on bare floats.

    a and b must be positive and finite, as GaussianParams checks them.
    Returns (spread, x1, x2): (inf, None, None) for a degenerate kernel,
    and x1 = None when a >= 1.  Each step is the public helper it stands
    for (x_star, phi, x_end's seed and doubling, j_prime, j_func,
    j_limit) written out on floats, with its operations in its order, so
    every float, exception and message is the helpers' bit for bit; the
    helpers' domain checks are dropped, as every point they would see
    lies in [0, inf).  Brent's sign function is phi as a closure over b
    and log(a), taken once.
    """
    log_a, log1p = math.log(a), math.log1p

    def sign_func(x: float) -> float:
        return b * x * x - 2.0 * log1p(x) - log_a

    xs = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 / b))
    if sign_func(xs) >= 0.0:
        return math.inf, None, None

    radicand = 1.0 + b * log_a
    shift = math.sqrt(radicand) if radicand > 0.0 else 0.0
    end = (1.0 + shift) / b
    for _ in range(61):
        if sign_func(end) > 0.0:
            break
        end *= 2.0
    else:
        raise NoSignChange("phi stayed nonpositive along the entire doubling sequence")

    x2 = bracketed_root(sign_func, xs, end)
    _validate_extremum(x2, a, b, 1.0)
    mass, root_b = 0.5 * a * math.sqrt(math.pi / b), math.sqrt(b)
    if a < 1.0:
        x1 = bracketed_root(sign_func, 0.0, xs)
        _validate_extremum(x1, a, b, -1.0)
        high = max(x1 / (x1 + 1.0) - mass * math.erf(root_b * x1), 1.0 - mass)
        low = min(0.0, x2 / (x2 + 1.0) - mass * math.erf(root_b * x2))
    else:
        x1 = None
        high = max(0.0, 1.0 - mass)
        low = x2 / (x2 + 1.0) - mass * math.erf(root_b * x2)
    return (high - low) + _error_budget(a), x1, x2


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

    This is the private kernel _erf_min, which the grid search polls,
    behind one check of c, so the two agree bit for bit.  Brent's method
    (bracketed_root) is most of the kernel's cost: about 78% of the
    chained grid search's time on paper subgrids of 106 nodes (2 vCPU,
    Python 3.11).
    """
    if not (math.isfinite(c) and c > 0.0):
        raise DomainViolation(f"evaluation point c must be positive and finite, got {c!r}")
    a = params.a
    spread, x1, x2 = _erf_min(a, params.b)
    if x2 is None:
        return ErfMinOutcome(math.inf, None, None, _error_budget(a), True, math.inf)
    return ErfMinOutcome((spread + c * a) / f1(c), x1, x2, _error_budget(a), False, spread)


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
    from scipy.special import erf

    x = np.asarray(x, dtype=float)
    b = np.asarray(params.b)
    mass = 0.5 * np.asarray(params.w) * np.sqrt(np.pi / b)
    return x / (x + 1.0) - (erf(np.multiply.outer(x, np.sqrt(b))) * mass).sum(axis=-1)


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
    evaluated once per distinct width, in (width, row) tables, and
    shared.  Every cell carries the index of its kernel, and all kernels
    are refined in the same rounds.  Every sum over a kernel's terms is
    taken in one written-out order, _ordered_sum's: a vector operation
    per term, over all the kernels' rows at once.  In refinement rounds
    a kernel's terms are padded with zero terms up to the top of its
    size class (8 floor(K/8) + 7 terms below 128, else K), so each class
    is one batch; the padding adds +0.0 to a nonnegative partial sum after
    the last real term of the sequential part, which changes no bit.
    Elementwise operations, maxima and minima are exact.  Each
    certificate is therefore the one its kernel gets alone, bit for bit,
    whatever else is in the batch; and since the written order is the
    one numpy's sum(axis=-1) takes over a row of K values, it is also the
    certificate of a direct evaluation with numpy sums.
    """
    from scipy.special import erf

    params_seq = list(params_seq)
    if not params_seq:
        return []
    # Kernels are numbered by size K, so each size, and each size class,
    # owns a run of numbers.
    order = sorted(range(len(params_seq)), key=lambda i: len(params_seq[i].b))
    kernels = [params_seq[i] for i in order]
    count = len(kernels)
    widths, column = np.unique(np.concatenate([p.b for p in kernels]), return_inverse=True)
    xs = np.concatenate(([0.0], np.geomspace(1e-6, _TAIL_START, _INITIAL_POINTS)))
    y0 = np.clip(1.0 / np.sqrt(2.0 * widths)[:, None], xs[:-1], xs[1:])
    erf0 = erf(np.multiply.outer(np.sqrt(widths), xs))
    exp0 = np.exp(-widths[:, None] * y0 * y0)
    # Past the last row where it is below 1 (above 0) for some width, erf0
    # (exp0) is saturated, and a kernel's terms there are its masses (zeros).
    erf_live = xs.size - np.argmax((erf0 != 1.0)[:, ::-1], axis=1)
    exp_live = y0.shape[1] - np.argmax((exp0 != 0.0)[:, ::-1], axis=1)

    values, bump = np.empty((count, xs.size)), np.empty((count, xs.size - 1))
    g_inf, g_tail, margin = np.empty(count), np.empty(count), np.empty(count)
    classes = {}
    sizes = [len(p.b) for p in kernels]
    offset = 0
    for size, run in itertools.groupby(range(count), key=sizes.__getitem__):
        run = list(run)
        block = slice(run[0], run[-1] + 1)
        col = column[offset : offset + size * len(run)].reshape(len(run), size)
        offset += col.size
        w, b = np.array([kernels[k].w for k in run]).T, widths[col.T]
        mass = 0.5 * w * np.sqrt(np.pi / b)
        weight = 2.0 * w * b
        # Per-term factors, (factor, term, kernel), padded to the class size.
        padded = size | 7 if size < 128 else size
        factors = np.zeros((5, padded, len(run)))
        factors[:, :size] = (np.sqrt(b), mass, 1.0 / np.sqrt(2.0 * b), weight, -b)
        classes.setdefault(padded, []).append((run[0], factors))
        g_inf[block] = _ordered_sum(mass)
        g_tail[block] = _ordered_sum(erf(np.sqrt(b) * _TAIL_START) * mass)
        margin[block] = _FP_ULPS * (size + 2) * _EPS * (1.0 + g_inf[block])
        _sample_sums(values[block], col, erf_live[col].max(), g_inf[block, None], mass, erf0)
        np.subtract(xs / (xs + 1.0), values[block], out=values[block])
        _sample_sums(bump[block], col, exp_live[col].max(), 0.0, weight, y0, exp0)
    classes = [(runs[0][0], np.concatenate([f for _, f in runs], axis=2)) for runs in classes.values()]
    first = np.array([start for start, _ in classes])

    # Round 0 runs on the shared cells of xs: the cell arrays are rows, one
    # per kernel, owner, lo and hi are broadcast against them, and upper
    # and lower are row maxima and minima.  Later rounds keep the cells
    # sorted by owner, so each size class is one slice.
    top, bottom = values.max(axis=1), values.min(axis=1)
    owner, lo, hi = np.arange(count)[:, None], xs[:-1], xs[1:]
    j_lo, j_hi = values[:, :-1], values[:, 1:]
    upper, lower = np.full(count, -math.inf), np.full(count, math.inf)
    for round_ in range(_MAX_ROUNDS + 1):
        cell_hi, cell_lo = _cell_bounds(lo, hi, j_lo, j_hi, bump)
        mid = 0.5 * (lo + hi)
        split = (
            (cell_hi > (top + _REFINE_TOL)[owner]) | (cell_lo < (bottom - _REFINE_TOL)[owner])
        ) & (lo < mid) & (mid < hi) & (round_ < _MAX_ROUNDS)
        done = ~split
        if split.ndim > 1:
            upper = np.where(done, cell_hi, -math.inf).max(axis=1)
            lower = np.where(done, cell_lo, math.inf).min(axis=1)
            owner, lo, hi, mid = (np.broadcast_to(v, split.shape) for v in (owner, lo, hi, mid))
        else:
            finished = owner[done]
            np.maximum.at(upper, finished, cell_hi[done])
            np.minimum.at(lower, finished, cell_lo[done])
        if not split.any():
            break
        owner, lo, hi, j_lo, j_hi, mid = (v[split] for v in (owner, lo, hi, j_lo, j_hi, mid))
        # Each split cell becomes its two halves, side by side, so the cells
        # stay sorted by owner.
        lo, hi = np.stack((lo, mid)), np.stack((mid, hi))
        j_mid, bump = _bisect(classes, np.searchsorted(owner, first), owner, lo, hi)
        np.maximum.at(top, owner, j_mid)
        np.minimum.at(bottom, owner, j_mid)
        owner, lo, hi = np.repeat(owner, 2), lo.T.ravel(), hi.T.ravel()
        j_lo, j_hi = np.column_stack((j_lo, j_mid)).ravel(), np.column_stack((j_mid, j_hi)).ravel()

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


def _ordered_sum(terms):
    """Sum nonnegative terms over their first axis, in numpy's order for a row.

    This is the order in which numpy's sum(axis=-1) adds a contiguous row
    of n = len(terms) values, written out one vector operation per term:
    below 8 terms in sequence; up to 128 in 8 lanes over the first
    n - n % 8 terms, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the rest in sequence; above 128 as the sum of two parts, the
    first n // 2 terms rounded down to a multiple of 8 and the rest.
    numpy starts from +0.0, which changes no nonnegative sum.
    """
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _ordered_sum(terms[:half]) + _ordered_sum(terms[half:])
    if n < 8:
        total, rest = terms[0].copy(), terms[1:]
    else:
        r = terms[:8].copy()
        for k in range(8, n - n % 8, 8):
            r += terms[k : k + 8]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        rest = terms[n - n % 8 :]
    for term in rest:
        total += term
    return total


def _sample_sums(out, col, live, saturated, factor, table, other=None):
    """Write sum_k factor_k * table[col_k] (* other[col_k]) into out, (kernels, rows).

    col is (kernels, K), factor (K, kernels), and table and other are
    (width, row) tables.  Rows from live on are set to saturated instead.
    The products are taken in the order (table * factor) * other.
    """
    out[:, live:] = saturated
    terms = table[col.T, :live]
    terms *= factor[..., None]
    if other is not None:
        terms *= other[col.T, :live]
    out[:, :live] = _ordered_sum(terms)


def _cell_bounds(lo, hi, j_lo, j_hi, bump):
    # curvature * (hi - lo)^2 * (1 + 2^-20) / 8, and the chord's ends moved by
    # it, in place: round 0's arrays are larger than the cache.
    slack = np.maximum(2.0 / (lo + 1.0) ** 3, bump)
    slack *= (hi - lo) ** 2
    slack *= 0.125 * (1.0 + 2.0**-20)
    upper, lower = np.maximum(j_lo, j_hi), np.minimum(j_lo, j_hi)
    upper += slack
    lower -= slack
    return upper, lower


def _bisect(classes, edges, owner, lo, hi):
    """j at the midpoints of cells sorted by owner, and the bumps of their halves.

    lo and hi are (2, cells): the left and the right halves of the cells.
    classes holds each size class's first kernel and its per-term
    factors, (factor, term, kernel) with zero terms as padding, and edges
    the index of each class's first cell.  The bumps come back in the
    order of lo.T.ravel(), each cell's left half before its right one.
    """
    from scipy.special import erf

    mid = lo[1]
    sums = np.empty(mid.size)
    bump = np.empty(lo.shape)
    for (start, factors), i, j in zip(classes, edges, [*edges[1:], mid.size]):
        if i == j:
            continue
        root, mass, peak, weight, slope = factors[..., None, owner[i:j] - start]
        sums[i:j] = _ordered_sum(erf(mid[i:j] * root[:, 0]) * mass[:, 0])
        y = np.minimum(np.maximum(peak, lo[:, i:j]), hi[:, i:j])
        bump[:, i:j] = _ordered_sum(weight * y * np.exp(slope * y * y))
    return mid / (mid + 1.0) - sums, bump.T.ravel()


def node_value(c, osc, L):
    """Upper bound of (osc + c L) / f1(c) = (osc + c L)(c + 1) / c.

    Every operation is rounded upward, so the result is at least the
    exact value for the given floats.  Broadcasts over numpy arrays.
    Every entry of c must be positive and finite, and every entry of osc
    and L nonnegative and finite, or DomainViolation is raised: outside
    that domain the upward roundings bound nothing.
    """
    in_domain = np.all(np.isfinite(c) & (c > 0.0))
    if not (in_domain and all(np.all(np.isfinite(v) & (v >= 0.0)) for v in (osc, L))):
        raise DomainViolation(
            f"node_value needs c > 0 and osc, L >= 0, all finite; got c={c!r}, osc={osc!r}, L={L!r}"
        )
    return _up(_up(_up(osc + _up(c * L)) * _up(c + 1.0)) / c)
