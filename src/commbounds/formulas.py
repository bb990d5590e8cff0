"""Closed-form constants and small minimizations for commutator bounds.

Everything here is an explicit formula or a one-dimensional/
two-dimensional minimization of one, each written once.  The gamma_*
functions bound the best constant for f(x) = x^r at a given r; the pq_*
functions evaluate the piecewise-quadratic antiderivative construction
for f(x) = sqrt(x) and f(x) = x/(x+1); of the envelope bounds, the
certificate stitcher reuses csc1 and scaled_cayley_Cc.

The f1 search polls the private kernel _pq_f1 on bare floats: it checks
the knot and slope offset as PiecewiseQuadParams does, but takes c as
already checked and f1(c) as already computed.  pq_f1_bound is that
kernel behind one check of c, so a search and the public function agree
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from commbounds.approx import DomainViolation, f1
from commbounds.optimize import pattern_search_nd

__all__ = [
    "PiecewiseQuadParams",
    "csc1",
    "gamma_boyadzhiev",
    "gamma_olsen_pedersen",
    "gamma_pedersen",
    "gamma_sin",
    "gamma_tangent",
    "optimize_pq_f1",
    "pq_f1_bound",
    "pq_sqrt_bound",
    "pq_sqrt_t_star",
    "scaled_cayley_Cc",
    "shift_constant",
    "trivial_constant",
]


@dataclass(frozen=True)
class PiecewiseQuadParams:
    """Knot and slope offset for the piecewise-quadratic approximant.

    The approximant g agrees with f on [a, inf) and is a quadratic on
    [0, a) whose derivative is the line through (a, f'(a)) with slope
    f''(a) + m.  m = 0 recovers the tangent construction (g is the
    degree-two Taylor polynomial of f at a); m < 0 tilts the line down,
    which trades sign changes of f' - g' for a smaller oscillation.
    """

    a: float
    m: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise DomainViolation(f"knot a must be positive and finite, got {self.a}")
        if not (math.isfinite(self.m) and self.m <= 0.0):
            raise DomainViolation(f"slope offset m must be <= 0 and finite, got {self.m}")


def _check_unit_interval(r: float) -> float:
    r = float(r)
    if not (math.isfinite(r) and 0.0 < r < 1.0):
        raise DomainViolation(f"exponent r must lie in (0, 1), got {r}")
    return r


def _check_positive(x: float, name: str) -> float:
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise DomainViolation(f"{name} must be positive and finite, got {x}")
    return x


def trivial_constant() -> float:
    """Constant from the crude bound min(c, 1): sup_c min(c, 1)/f1(c) = 2."""
    return 2.0


def shift_constant() -> float:
    """sup_c e(c)/f1(c) = 25/16, attained at c = 2/3, for the shift
    construction's envelope e(c) = c for c < 1/2, else 1 - 1/(4c)."""
    return 25.0 / 16.0


def gamma_boyadzhiev(r: float) -> float:
    """Bound sin(pi r)/(pi r (1 - r)); gives 4/pi at r = 1/2."""
    r = _check_unit_interval(r)
    return math.sin(math.pi * r) / (math.pi * r * (1.0 - r))


def gamma_olsen_pedersen(r: float) -> float:
    """Bound (1 - r)^(r - 1); gives sqrt(2) at r = 1/2."""
    r = _check_unit_interval(r)
    return (1.0 - r) ** (r - 1.0)


def gamma_pedersen(r: float) -> float:
    """Bound 2^r (1-r)^(-(1-r)/2) (1+r)^(-(1+r)/2); <= 5/4 on (0, 1)."""
    r = _check_unit_interval(r)
    return 2.0**r * (1.0 - r) ** (-0.5 * (1.0 - r)) * (1.0 + r) ** (-0.5 * (1.0 + r))


def gamma_tangent(r: float) -> float:
    """Tangent-construction bound (2 - r) 2^(r - 1), the a = 2 minimum."""
    r = _check_unit_interval(r)
    return (2.0 - r) * 2.0 ** (r - 1.0)


def gamma_sin(r: float) -> tuple[float, float]:
    """Minimize t^r / sin(t) over (0, pi); returns (value, argmin).

    The objective is strictly unimodal: the sign function r/t - cot(t)
    of its log-derivative is strictly increasing because 1/sin(t)^2 >
    r/t^2 on (0, pi) for r < 1.
    """
    from scipy.optimize import minimize_scalar

    r = _check_unit_interval(r)

    def objective(t: float) -> float:
        return t**r / math.sin(t)

    res = minimize_scalar(
        objective, bounds=(1e-9, math.pi - 1e-9), method="bounded", options={"xatol": 1e-10}
    )
    argmin = float(res.x)
    return objective(argmin), argmin


def csc1() -> float:
    """csc(1) = 1/sin(1), the flat-to-full comparison constant."""
    return 1.0 / math.sin(1.0)


def pq_sqrt_t_star(p: PiecewiseQuadParams) -> float:
    """Interior critical point of sqrt(x) - g(x) below the knot; a when m = 0."""
    return 0.25 * p.a * (-1.0 + math.sqrt(1.0 + 8.0 / (1.0 - 4.0 * p.m * p.a**1.5))) ** 2


def pq_sqrt_bound(p: PiecewiseQuadParams) -> float:
    """Piecewise-quadratic bound for the sqrt constant at c = 1.

    g matches sqrt above the knot a and is the quadratic with derivative
    slope f''(a) + m below it, shifted so g(a) = sqrt(a).  The bound is
    j(t*) - min(j(0), 0) + g'(0) with j = sqrt - g and t* the interior
    maximum of j.
    """
    a, m = p.a, p.m
    root_a = math.sqrt(a)
    fpa = 0.5 / root_a
    fppa = -0.25 * a**-1.5

    def j(x: float) -> float:
        if x >= a:
            return 0.0
        g = 0.5 * (fppa + m) * (x - a) ** 2 + fpa * (x - a) + root_a
        return math.sqrt(x) - g

    gp0 = 0.75 / root_a - m * a
    return j(pq_sqrt_t_star(p)) - min(j(0.0), 0.0) + gp0


def _pq_f1(c: float, scale: float, a: float, m: float) -> float:
    """pq_f1_bound on bare floats, given c > 0 and scale = f1(c).

    a and m are checked as PiecewiseQuadParams checks them.  t* is the
    interior critical point of j = f1 - g below the knot, a when m = 0;
    pq_f1_bound calls this kernel, so the two agree bit for bit.
    """
    if not (0.0 < a < math.inf and -math.inf < m <= 0.0):
        PiecewiseQuadParams(a, m)  # raises DomainViolation with the rule broken
    ap1 = a + 1.0
    q3 = ap1**3
    ap1_sq = ap1**2
    # j(0): 0 < a, and f1(0) = 0.
    j0 = 0.0 - ((-1.0 / q3 + 0.5 * m) * (0.0 - a) ** 2 + (0.0 - a) / ap1_sq + 1.0 - 1.0 / ap1)
    disc = math.sqrt(9.0 - 4.0 * m * q3)
    t_star = -1.0 + ap1 * (1.0 + disc) / (4.0 - 2.0 * m * q3)
    if t_star > 0.0:
        if t_star >= a:
            j_star = 0.0
        else:
            g = (-1.0 / q3 + 0.5 * m) * (t_star - a) ** 2 + (t_star - a) / ap1_sq + 1.0 - 1.0 / ap1
            j_star = t_star / (t_star + 1.0) - g
        osc = j_star - (0.0 if j0 > 0.0 else j0)  # min(j0, 0.0)
    else:
        osc = j0
    gp0 = a * (2.0 / q3 - m) + 1.0 / ap1_sq
    return (osc + c * gp0) / scale


def pq_f1_bound(c: float, p: PiecewiseQuadParams) -> float:
    """Piecewise-quadratic bound (osc + c g'(0))/f1(c) for f1 = x/(x+1).

    The oscillation of j = f1 - g splits on the sign of the interior
    critical point t*: for t* > 0 it is j(t*) - min(j(0), 0); otherwise
    j decreases on [0, a) and the oscillation is j(0).  Closed form, no
    root finding: the private kernel _pq_f1 behind one check of c.
    """
    c = _check_positive(c, "c")
    return _pq_f1(c, f1(c), p.a, p.m)


def optimize_pq_f1(
    c: float, start: tuple[float, float] = (1.0, -0.01)
) -> tuple[float, PiecewiseQuadParams]:
    """Minimize pq_f1_bound(c, .) over a > 0, m <= 0 by pattern search.

    Returns (bound at the winner, winner).  The search polls the kernel
    _pq_f1 with c checked and f1(c) computed once; the returned bound is
    pq_f1_bound's value at the winner.  Deterministic given start;
    callers chasing a c-grid can chain each node's winner into the next
    node's start.
    """
    c = _check_positive(c, "c")
    scale = f1(c)
    best = pattern_search_nd(
        lambda t: _pq_f1(c, scale, t[0], t[1]), start, lower=(1e-8, None), upper=(None, 0.0)
    )
    params = PiecewiseQuadParams(best[0], best[1])
    return pq_f1_bound(c, params), params


def scaled_cayley_Cc(c: float) -> float:
    """Scaled Cayley bound (c + 1)/(1/2 + sqrt(1/4 + c^2)); max 5/4 at c = 2/3."""
    c = _check_positive(c, "c")
    return (c + 1.0) / (0.5 + math.sqrt(0.25 + c * c))

