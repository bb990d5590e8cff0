"""Checks of the program's outputs, computed apart from the program.

Every value here is recomputed with numpy, scipy and mpmath directly;
nothing calls `commbounds.approx`, `commbounds.formulas` or
`commbounds.matrixlab`.  Each check returns a list of failure messages,
empty when the output passes, so a workload can report every failure at
once.

The sampled functionals are lower bounds of the true ones (a sample of
f1 - g never leaves its range), so a certified constant must be at least
its sampled value; a constant below it is wrong whatever the sample.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.special import erf

# The paper's constants: C for f1 in every unitarily invariant norm, the
# square-root constant, and the certificate thresholds.
PAPER_C = 1.01975
PAPER_SQRT_C = 1.00891
GLOBAL_C_MAX = 1.0205
SQRT_C_MAX = 1.0095
SHARP_SLACK = 1e-9
RECOMPUTE_RTOL = 1e-9

# Dense sample of [0, inf) for mixtures: 0, a log grid reaching past the
# widest Gaussian (b >= 1e-8, so erf saturates well before 1e13), and the
# limit at infinity, which is added separately.
_MIXTURE_XS = np.concatenate(([0.0], np.geomspace(1e-7, 1e13, 20001)))


def f1(x):
    return x / (x + 1.0)


def _functional(c, osc, L):
    """(osc + c L) / f1(c), written as (osc + c L)(c + 1) / c."""
    return (osc + c * L) * (c + 1.0) / c


# --- Gaussian mixtures (the paper certificate) -------------------------------


def mixture_samples(w, b, xs):
    """j(x) = x/(x+1) - sum_k w_k (1/2) sqrt(pi/b_k) erf(sqrt(b_k) x), and j(inf)."""
    w = np.asarray(w, dtype=float)
    b = np.asarray(b, dtype=float)
    mass = 0.5 * w * np.sqrt(np.pi / b)
    values = xs / (xs + 1.0) - erf(np.multiply.outer(xs, np.sqrt(b))) @ mass
    return values, 1.0 - math.fsum(mass)


def mixture_range(w, b):
    """Sampled (low, high) of j on [0, inf], with the points where they are taken."""
    values, limit = mixture_samples(w, b, _MIXTURE_XS)
    lo, hi = int(values.argmin()), int(values.argmax())
    low = (values[lo], _MIXTURE_XS[lo]) if values[lo] <= limit else (limit, math.inf)
    high = (values[hi], _MIXTURE_XS[hi]) if values[hi] >= limit else (limit, math.inf)
    return low, high


def mixture_residual_mp(w, b, x, digits=30):
    """j(x) in mpmath at the given precision; x = inf gives the limit."""
    with mpmath.workdps(digits):
        total = mpmath.mpf(0)
        for wk, bk in zip(w, b):
            mass = mpmath.mpf(wk) / 2 * mpmath.sqrt(mpmath.pi / mpmath.mpf(bk))
            total += mass if math.isinf(x) else mass * mpmath.erf(mpmath.sqrt(mpmath.mpf(bk)) * mpmath.mpf(x))
        head = mpmath.mpf(1) if math.isinf(x) else mpmath.mpf(x) / (mpmath.mpf(x) + 1)
        return head - total


def check_mixture_nodes(points) -> list[str]:
    """Each C_k lies between its witness's sampled functional and the resolvent bound.

    points are (c, C_k, params) records; params is a mixture with
    fields w and b, or None for a node that took the resolvent bound,
    whose C_k must then be at least 1 + c.
    """
    errors = []
    groups: dict[int, tuple] = {}
    for p in points:
        if not p.C_k <= np.nextafter(1.0 + p.c, np.inf):
            errors.append(f"C_k = {p.C_k!r} at c = {p.c!r} exceeds the resolvent bound 1 + c")
        if p.params is not None:
            groups.setdefault(id(p.params), (p.params, []))[1].append(p)
        elif not p.C_k >= 1.0 + p.c:
            errors.append(f"C_k = {p.C_k!r} at c = {p.c!r} has no witness and is below 1 + c")
    for params, nodes in groups.values():
        (low, _), (high, _) = mixture_range(params.w, params.b)
        L = math.fsum(params.w)
        cs = np.array([p.c for p in nodes])
        Cs = np.array([p.C_k for p in nodes])
        floor = _functional(cs, high - low, L)
        for c, C, v in zip(cs[Cs < floor], Cs[Cs < floor], floor[Cs < floor]):
            errors.append(f"C_k = {C!r} at c = {c!r} is below its witness's sampled functional {v!r}")
    return errors


def check_enclosure(params, low: float, high: float) -> list[str]:
    """The certified [low, high] contains a dense sample of j and its mpmath extremes."""
    errors = []
    if not all(wk > 0.0 for wk in params.w):
        errors.append("a refitted witness has a weight that is not positive")
    (s_low, x_low), (s_high, x_high) = mixture_range(params.w, params.b)
    exact_low = float(mixture_residual_mp(params.w, params.b, x_low))
    exact_high = float(mixture_residual_mp(params.w, params.b, x_high))
    if not (low <= min(s_low, exact_low) and max(s_high, exact_high) <= high):
        errors.append(
            f"certified enclosure [{low!r}, {high!r}] misses the sampled range "
            f"[{min(s_low, exact_low)!r}, {max(s_high, exact_high)!r}]"
        )
    return errors


def sqrt_constant_fsum(cs, Cs) -> float:
    """(1/pi) [2 sqrt(c_1) + sum_k 2 C_k/(c_k+1) (sqrt(c_k+1) - sqrt(c_k)) + 2/sqrt(c_n)]."""
    terms = [2.0 * math.sqrt(cs[0]), 2.0 / math.sqrt(cs[-1])]
    terms += [
        2.0 * C / (c + 1.0) * (math.sqrt(d) - math.sqrt(c)) for c, C, d in zip(cs, Cs, cs[1:])
    ]
    return math.fsum(terms) / math.pi


# --- single Gaussians and piecewise quadratics (the node searches) -----------


def gaussian_functional(c: float, a: float, b: float) -> float:
    """((max j - min j) + c a) / f1(c) for g' = a exp(-b x^2), from a dense sample.

    The residual's critical points lie below (1 + sqrt(1 + b log a)) / b
    (from b x^2 = log a + 2 log(1 + x) and log(1 + x) <= x), so a linear
    sample to twice that point plus a log-spaced tail covers them.
    """
    reach = 2.0 * max(1.0, (1.0 + math.sqrt(max(0.0, 1.0 + b * math.log(a)))) / b)
    xs = np.concatenate((np.linspace(0.0, reach, 4001), np.geomspace(1e-4, 1e6 * reach, 400)))
    mass = 0.5 * a * math.sqrt(math.pi / b)
    j = xs / (xs + 1.0) - mass * erf(math.sqrt(b) * xs)
    high = max(float(j.max()), 1.0 - mass)
    low = min(0.0, float(j.min()))
    return _functional(c, high - low, a)


def pq_functional(c: float, a: float, m: float) -> float:
    """((max j - min j) + c g'(0)) / f1(c) for the piecewise-quadratic g, from a dense sample.

    g = f1 on [a, inf); below a, g' is the line through (a, f1'(a)) with
    slope f1''(a) + m, so j = f1 - g vanishes on [a, inf).
    """
    d1 = 1.0 / (a + 1.0) ** 2
    d2 = -2.0 / (a + 1.0) ** 3 + m
    xs = np.concatenate((np.linspace(0.0, a, 4001), np.geomspace(1e-9 * a, a, 400)))
    j = f1(xs) - (f1(a) + d1 * (xs - a) + 0.5 * d2 * (xs - a) ** 2)
    osc = max(float(j.max()), 0.0) - min(float(j.min()), 0.0)
    return _functional(c, osc, d1 - a * d2)


def check_gaussian_nodes(points) -> list[str]:
    """Each single-Gaussian C_k is at least its dense-sample value.

    A degenerate node is a failed operation, counted as such by the
    workload, and has no value to check.
    """
    errors = []
    for p in points:
        if p.degenerate:
            continue
        floor = gaussian_functional(p.c, p.params.a, p.params.b)
        if not p.C_k >= floor:
            errors.append(f"C_k = {p.C_k!r} at c = {p.c!r} is below its dense-sample value {floor!r}")
    return errors


def check_pq_nodes(nodes) -> list[str]:
    """nodes are (c, bound, params) triples with params.a and params.m."""
    errors = []
    for c, bound, params in nodes:
        floor = pq_functional(c, params.a, params.m)
        if not bound >= floor:
            errors.append(f"pq bound {bound!r} at c = {c!r} is below its dense-sample value {floor!r}")
    return errors


# --- matrix inequalities (the campaign) ---------------------------------------

NORMS = {
    "operator": lambda s: s[0],
    "kyfan2": lambda s: s[:2].sum(),
    "schatten3": lambda s: (s**3).sum() ** (1.0 / 3.0),
    "trace": lambda s: s.sum(),
    "hs": lambda s: math.sqrt((s**2).sum()),
}
FUNCTIONS = {"f1": f1, "sqrt": np.sqrt}


def ratio_numpy(A, B, X, f: str, norm: str) -> float:
    """||f(A)X - Xf(B)|| / (||X|| f(||AX - XB|| / ||X||)) with eigh and svd."""
    fn, nm = FUNCTIONS[f], NORMS[norm]

    def apply(M):
        lam, V = np.linalg.eigh(M)
        return (V * fn(np.clip(lam, 0.0, None))) @ V.conj().T

    def norm_of(M):
        return nm(np.linalg.svd(M, compute_uv=False))

    nx = norm_of(X)
    return norm_of(apply(A) @ X - X @ apply(B)) / (nx * fn(norm_of(A @ X - X @ B) / nx))


def check_ratio(ratio: float, f: str, norm: str) -> list[str]:
    """A ratio respects the paper's constant for f, and 1 in the Hilbert-Schmidt norm."""
    limit = PAPER_C if f == "f1" else PAPER_SQRT_C
    if norm == "hs":
        limit = 1.0 + SHARP_SLACK
    if not ratio <= limit:
        return [f"{f} ratio {ratio!r} in the {norm} norm exceeds {limit!r}"]
    return []


def check_recomputed(ratio: float, A, B, X, f: str, norm: str) -> list[str]:
    """The program's ratio agrees with eigh and svd to RECOMPUTE_RTOL relative."""
    exact = float(ratio_numpy(A, B, X, f, norm))
    if not abs(ratio - exact) <= RECOMPUTE_RTOL * abs(exact):
        return [f"{f} ratio {ratio!r} in the {norm} norm differs from eigh/svd's {exact!r}"]
    return []


def matrix_from_payload(rows) -> np.ndarray:
    """Inverse of the campaign's [[re, im], ...] matrix encoding."""
    return np.array([[complex(re, im) for re, im in row] for row in rows])
