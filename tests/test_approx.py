"""Tests for the Gaussian-antiderivative bound, with independent oracles."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from commbounds import approx, optimize
from commbounds.approx import (
    DomainViolation,
    ErfMinOutcome,
    GaussianParams,
    NoSignChange,
    RootValidationFailed,
    bracketed_root,
    erf_min_bound,
    f1,
    j_func,
    j_limit,
    j_prime,
    node_value,
    phi,
    x_end,
    x_star,
)


def erf_series(x: float) -> float:
    """Maclaurin-series oracle for erf, accurate to ~1e-14 for |x| <= 2."""
    total = 0.0
    power = x
    for n in range(80):
        term = power / (math.factorial(n) * (2 * n + 1))
        total += term if n % 2 == 0 else -term
        power *= x * x
    return 2.0 / math.sqrt(math.pi) * total


class TestBasics:
    def test_f1_values(self):
        assert f1(0.0) == 0.0
        assert f1(1.0) == 0.5
        assert abs(f1(3.0) - 0.75) < 1e-15
        assert abs(f1(-0.5) - (-1.0)) < 1e-15

    def test_f1_domain(self):
        with pytest.raises(DomainViolation):
            f1(-1.0)
        with pytest.raises(DomainViolation):
            f1(-2.0)

    def test_params_validation(self):
        with pytest.raises(DomainViolation):
            GaussianParams(-1.0, 1.0)
        with pytest.raises(DomainViolation):
            GaussianParams(0.0, 1.0)
        with pytest.raises(DomainViolation):
            GaussianParams(1.0, 0.0)
        with pytest.raises(DomainViolation):
            GaussianParams(float("nan"), 1.0)
        with pytest.raises(DomainViolation):
            GaussianParams(1.0, float("inf"))

    def test_tolerance_validation(self):
        # The certified single-Gaussian constants depend on these values,
        # and the comparison tolerance must sit below the root window.
        assert approx._ROOT_TOL == 1e-5
        assert approx._COMP_TOL == 1e-10
        assert approx._MAX_ITER == 200
        assert 0.0 < approx._COMP_TOL < approx._ROOT_TOL

    def test_j_limit_and_slope(self):
        # j' = f1' - g' with g'(x) = a exp(-b x^2), and j(inf) = 1 - g(inf).
        p = GaussianParams(2.0, 3.0)
        assert j_prime(0.0, p) == -1.0
        assert abs(j_prime(1.0, p) - (0.25 - 2.0 * math.exp(-3.0))) < 1e-15
        assert abs(j_limit(p) - (1.0 - math.sqrt(math.pi / 3.0))) < 1e-15


class TestErfAntiderivative:
    # g = f1 - j is the kernel mass times erf(sqrt(b) x).
    def test_erf_basics(self):
        # g is zero at 0 and saturates at the mass g(inf) = 1 - j(inf).
        for p in (GaussianParams(1.0, 1.0), GaussianParams(0.7, 2.5)):
            assert j_func(0.0, p) == 0.0
            assert abs((f1(6.0) - j_func(6.0, p)) - (1.0 - j_limit(p))) < 1e-14
        assert abs(math.erf(1.0) - 0.8427007929497149) < 1e-14

    def test_g_erf_frozen_value(self):
        # g(1) = (sqrt(pi) / 2) * erf(1), frozen from the quadrature oracle below.
        p = GaussianParams(1.0, 1.0)
        assert abs((f1(1.0) - j_func(1.0, p)) - 0.7468241328124271) < 1e-14

    def test_g_against_quadrature(self):
        rng = np.random.default_rng(20260814)
        for _ in range(25):
            a = float(rng.uniform(0.1, 3.0))
            b = float(rng.uniform(0.1, 5.0))
            x = float(rng.uniform(0.0, 4.0))
            p = GaussianParams(a, b)
            val, err = scipy.integrate.quad(
                lambda t: a * math.exp(-b * t * t), 0.0, x, epsabs=1e-12, epsrel=1e-12
            )
            assert err < 1e-10
            assert abs((f1(x) - j_func(x, p)) - val) < 1e-10

    def test_erf_against_series(self):
        # j takes erf from the standard library; check it independently.
        for x in np.linspace(0.0, 2.0, 41):
            assert abs(math.erf(float(x)) - erf_series(float(x))) < 1e-13

    def test_j_frozen_value(self):
        # j(1) = 1/2 - (sqrt(pi)/2) * erf(1) for the unit kernel.
        p = GaussianParams(1.0, 1.0)
        assert abs(j_func(1.0, p) - (-0.2468241328124271)) < 1e-14

    def test_j_prime_is_derivative_of_j(self):
        p = GaussianParams(0.7, 1.3)
        h = 1e-6
        for x in (0.1, 0.5, 1.0, 2.5, 6.0):
            fd = (j_func(x + h, p) - j_func(x - h, p)) / (2.0 * h)
            assert abs(fd - j_prime(x, p)) < 1e-8


class TestPhi:
    def test_phi_closed_form(self):
        p = GaussianParams(1.0, 1.0)
        assert abs(phi(2.0, p) - (4.0 - 2.0 * math.log(3.0))) < 1e-14
        assert phi(0.0, p) == 0.0
        q = GaussianParams(0.5, 2.0)
        assert abs(phi(0.0, q) - math.log(2.0)) < 1e-15

    def test_phi_sign_matches_j_prime(self):
        # Sign agreement at 10^4 random points in (0, x_end).
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = GaussianParams(float(rng.uniform(0.05, 3.0)), float(rng.uniform(0.05, 8.0)))
            xe = x_end(p)
            for x in rng.uniform(0.0, xe, size=200):
                jp = j_prime(float(x), p)
                if abs(jp) > 1e-12:
                    assert math.copysign(1.0, phi(float(x), p)) == math.copysign(1.0, jp)

    def test_x_star_exact(self):
        # With b = 4/3 the discriminant is a perfect square: x_star = 1/2.
        assert abs(x_star(4.0 / 3.0) - 0.5) < 1e-14
        assert abs(x_star(4.0) - (-1.0 + math.sqrt(2.0)) / 2.0) < 1e-15
        with pytest.raises(DomainViolation):
            x_star(0.0)

    def test_x_star_solves_quadratic(self):
        for b in (0.01, 0.3, 1.0, 4.0 / 3.0, 7.0, 100.0, 1000.0):
            xs = x_star(b)
            assert abs(b * xs * xs + b * xs - 1.0) < 1e-12

    def test_x_star_decreasing_in_b(self):
        values = [x_star(b) for b in (0.1, 1.0, 10.0, 100.0, 1e6)]
        assert all(u > v for u, v in zip(values, values[1:]))
        assert values[-1] < 1e-2

    def test_x_star_minimizes_phi(self):
        for a, b in [(0.5, 0.7), (1.5, 2.0), (0.9, 5.0), (2.0, 0.2)]:
            p = GaussianParams(a, b)
            xs = x_star(b)
            base = phi(xs, p)
            for dx in (1e-4, 1e-2, 0.1):
                assert phi(xs + dx, p) > base
                if xs - dx > -1.0:
                    assert phi(xs - dx, p) > base

    def test_x_end_positive_phi(self):
        for a, b in [(0.5, 0.7), (1.5, 2.0), (0.9, 5.0), (2.0, 0.2)]:
            p = GaussianParams(a, b)
            xe = x_end(p)
            assert phi(xe, p) > 0.0
            assert xe > x_star(b)

    def test_x_end_closed_forms(self):
        assert abs(x_end(GaussianParams(1.0, 2.0)) - 1.0) < 1e-15
        assert abs(x_end(GaussianParams(math.e, 1.0)) - (1.0 + math.sqrt(2.0))) < 1e-14

    def test_no_sign_change_beyond_x_end(self):
        # j' stays positive on [x_end, 10 x_end]: the bracket captures
        # every critical point.
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = GaussianParams(float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 4.0)))
            xe = x_end(p)
            for x in np.linspace(xe, 10.0 * xe, 500):
                assert j_prime(float(x), p) > 0.0

    def test_doubling_exhausts_without_a_sign_change(self):
        # x_end and the kernel share the seed and its doubling; a sign
        # function that never turns positive sees all 61 points and then
        # NoSignChange.  With b = 2 and log(a) = 0 the seed is 1.
        seen = []

        def never_positive(x):
            seen.append(x)
            return -1.0

        with pytest.raises(NoSignChange) as caught:
            approx._x_end(never_positive, 2.0, 0.0)
        assert str(caught.value) == "phi stayed nonpositive along the entire doubling sequence"
        assert seen == [2.0**k for k in range(61)]

    def test_x_end_clamped_radicand(self):
        # b * log(a) < -1 clamps the square-root shift to zero, with no
        # warning; the seed 1/b already lands in the positive region for
        # these parameters.
        p = GaussianParams(0.01, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert x_end(p) == 2.0


class TestBracketedRoot:
    def test_sqrt_two(self):
        root = bracketed_root(lambda x: x * x - 2.0, 1.0, 2.0)
        assert abs(root - math.sqrt(2.0)) < 1e-5

    def test_cosine_tight(self):
        # The stopping window is 1e-6, but on this smooth root the final
        # interpolation step lands far inside it.
        root = bracketed_root(math.cos, 0.0, 2.0)
        assert abs(root - math.pi / 2.0) < 1e-9

    def test_linear(self):
        for c in (0.5, 1.0, 7.25):
            root = bracketed_root(lambda t: t - c, 0.0, 2.0 * c)
            assert abs(root - c) < 1e-5

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            bracketed_root(lambda x: x * x - 2.0, 3.0, 4.0)
        # A zero endpoint is not a strict sign change.
        with pytest.raises(NoSignChange):
            bracketed_root(lambda x: x - 1.0, 1.0, 2.0)

    def test_phi_root_bracket(self):
        p = GaussianParams(1.0, 1.0)
        root = bracketed_root(lambda x: phi(x, p), x_star(1.0), x_end(p))
        # Fine-sampling oracle: the sign of phi flips inside [root-T, root+T].
        assert phi(root - 1e-5, p) < 0.0 < phi(root + 1e-5, p)

    def test_matches_reference_copy(self):
        # Bracketed roots of seeded polynomials, shifted cosines, steep and
        # flat steps and phi itself, plus brackets with no sign change, a
        # zero endpoint, a NaN and a step too wide for _MAX_ITER iterations.
        rng = np.random.default_rng(1919)
        cases = [
            (lambda x: x - 1.0, 1.0, 2.0),
            (lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0),
            (lambda x: 1.0 if x > 0.3 else -1.0, 0.0, 1e300),
            (lambda x: -0.0 if x < 0.3 else 1.0, 0.0, 1.0),
        ]
        for _ in range(600):
            roots = np.sort(rng.uniform(-3.0, 3.0, 3))
            lo, hi = sorted(rng.uniform(-4.0, 4.0, 2))
            shift, scale = rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-8.0, 8.0)
            width = 10.0 ** rng.uniform(-12.0, 2.0)
            p = GaussianParams(10.0 ** rng.uniform(-5.0, 1.5), 10.0 ** rng.uniform(-8.0, 4.0))
            cases += [
                (lambda x, r=roots, k=scale: k * (x - r[0]) * (x - r[1]) * (x - r[2]), lo, hi),
                (lambda x, s=shift: math.cos(x) - s, lo, hi),
                (lambda x, r=roots[1], w=width: math.tanh((x - r) / w), lo, hi),
                (lambda x, p=p: phi(x, p), 0.0, x_star(p.b)),
                (lambda x, p=p: phi(x, p), x_star(p.b), float(hi) + 10.0),
            ]
        kinds = set()
        for func, lo, hi in cases:
            expected = result_or_error(reference_bracketed_root, func, float(lo), float(hi))
            assert result_or_error(bracketed_root, func, float(lo), float(hi)) == expected, (lo, hi)
            kinds.add(expected[0][1] if expected[0][0] == "raised" else float)
        assert kinds == {float, NoSignChange, RootValidationFailed}

    def test_determinism(self):
        f = lambda x: math.exp(x) - 3.0  # noqa: E731
        r1 = bracketed_root(f, 0.0, 2.0)
        r2 = bracketed_root(f, 0.0, 2.0)
        assert r1 == r2
        assert abs(r1 - math.log(3.0)) < 1e-6


def reference_bracketed_root(func, lo, hi):
    """bracketed_root as it was before its loop invariants were hoisted, verbatim."""
    _EPS, _ROOT_TOL, _MAX_ITER = approx._EPS, approx._ROOT_TOL, approx._MAX_ITER
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


def reference_validate(root, params, sign):
    t, eps = approx._ROOT_TOL, approx._COMP_TOL
    if root - t < eps:
        raise DomainViolation(f"validation window around {root!r} leaves the domain")
    if not (sign * j_prime(root - t, params) <= -eps and sign * j_prime(root + t, params) >= eps):
        kind = "minimum" if sign > 0.0 else "maximum"
        raise RootValidationFailed(f"derivative signs around {root!r} do not confirm a local {kind}")


def reference_erf_min_bound(c, params):
    """erf_min_bound from the public helpers, with phi itself as Brent's sign function."""
    a = params.a
    budget = 2.0 * (1.0 + a) * approx._ROOT_TOL
    xs = x_star(params.b)
    if phi(xs, params) >= 0.0:
        return ErfMinOutcome(math.inf, None, None, budget, True, math.inf)
    sign_func = lambda x: phi(x, params)  # noqa: E731
    x2 = reference_bracketed_root(sign_func, xs, x_end(params))
    reference_validate(x2, params, 1.0)
    if a < 1.0:
        x1 = reference_bracketed_root(sign_func, 0.0, xs)
        reference_validate(x1, params, -1.0)
        high = max(j_func(x1, params), j_limit(params))
        low = min(0.0, j_func(x2, params))
    else:
        x1 = None
        high = max(0.0, j_limit(params))
        low = j_func(x2, params)
    spread = (high - low) + budget
    return ErfMinOutcome((spread + c * a) / f1(c), x1, x2, budget, False, spread)


def reference_kernel(a, b):
    """(spread, x1, x2) of reference_erf_min_bound, whose spread does not depend on c."""
    out = reference_erf_min_bound(1.0, GaussianParams(a, b))
    return out.spread, out.x1, out.x2


def result_or_error(func, *args):
    """repr of func's result (floats to the bit) or its error, with any warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("returned", repr(func(*args)))
        except Exception as exc:
            result = ("raised", type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def outcome_kind(result):
    """Which of erf_min_bound's outcomes a result of result_or_error is."""
    if result[0] == "raised":
        return result[1]
    if "degenerate=True" in result[1]:
        return "degenerate"
    return "x1" if "x1=None" not in result[1] else "no x1"


def oracle_oscillation(params: GaussianParams) -> float:
    """Estimate osc(j) on [0, inf) by dense vectorized sampling.

    This deliberately avoids the root-finding path: j is sampled on a
    fine grid over [0, x_end] (which contains every critical point) and
    the tail limit is appended.  The result slightly underestimates the
    true oscillation, so it must never exceed the certified one.
    """
    a, b = params.a, params.b
    xs = np.linspace(0.0, x_end(params), 400001)
    js = xs / (xs + 1.0) - 0.5 * a * math.sqrt(math.pi / b) * scipy.special.erf(
        math.sqrt(b) * xs
    )
    js = np.append(js, 1.0 - 0.5 * a * math.sqrt(math.pi / b))
    return float(js.max() - min(js.min(), 0.0))


class TestErfMinBound:
    def test_degenerate_sentinel(self):
        # For small c a genuine bound exceeds any finite sentinel, so
        # "no bound" must compare above every value.
        out = erf_min_bound(1.0, GaussianParams(0.5, 100.0))
        assert out.value == math.inf
        assert out.degenerate
        assert out.x1 is None and out.x2 is None
        assert out.spread == math.inf
        assert abs(out.error_budget - 3e-5) < 1e-18

    def test_unit_kernel_structure(self):
        p = GaussianParams(1.0, 1.0)
        out = erf_min_bound(1.0, p)
        assert not out.degenerate
        assert out.x1 is None  # amplitude is not below one
        assert out.x2 is not None and 0.618 < out.x2 < 2.0
        # The minimum of j sits at the sign change of j'.
        assert abs(j_prime(out.x2, p)) < 1e-5

    def test_value_formula_unit_kernel(self):
        p = GaussianParams(1.0, 1.0)
        out = erf_min_bound(1.0, p)
        osc = max(0.0, j_limit(p)) - j_func(out.x2, p)
        expected = (osc + 4e-5 + 1.0) / 0.5
        assert abs(out.value - expected) < 1e-12

    def test_spread_is_the_c_independent_numerator(self):
        # The grid search scores a known (a, b) at a new c from spread alone,
        # so value must follow from spread exactly and spread, rejection and
        # degeneracy must not depend on c.
        rng = np.random.default_rng(2024)
        cs = (0.0195, 0.3, 1.0, 7.5, 40.0)
        checked = 0
        for _ in range(60):
            p = GaussianParams(float(rng.uniform(0.01, 2.0)), float(rng.uniform(0.01, 5.0)))
            kinds, spreads = set(), set()
            for c in cs:
                try:
                    out = erf_min_bound(c, p)
                except (RootValidationFailed, DomainViolation, NoSignChange) as exc:
                    kinds.add(type(exc))
                    continue
                kinds.add(out.degenerate)
                spreads.add(out.spread)
                assert out.value == (out.spread + c * p.a) / f1(c)
            assert len(kinds) == 1 and len(spreads) <= 1
            checked += kinds == {False}
        assert checked >= 30

    def test_matches_reference_on_seeded_parameters(self):
        # The sign function is phi on bare floats; every outcome, error and
        # warning must be the one phi and the public helpers give.
        rng = np.random.default_rng(19)
        kinds = set()
        for _ in range(3000):
            c = float(10.0 ** rng.uniform(math.log10(0.0195), math.log10(40.0)))
            a = float(10.0 ** rng.uniform(-5.0, math.log10(30.0)))
            b = float(10.0 ** rng.uniform(-8.0, 4.0))
            p = GaussianParams(a, b)
            expected = result_or_error(reference_erf_min_bound, c, p)
            assert result_or_error(erf_min_bound, c, p) == expected, (c, p)
            kinds.add(outcome_kind(expected[0]))
        assert {"x1", "no x1", "degenerate", RootValidationFailed} <= kinds

    def test_matches_reference_on_grid_search_polls(self, monkeypatch):
        polled = []
        kernel = approx._erf_min

        def recorded(a, b):
            polled.append((a, b))
            return kernel(a, b)

        monkeypatch.setattr(optimize, "_erf_min", recorded)
        optimize.optimize_grid(optimize.build_paper_grid()[7::50])
        assert len(polled) > 1000
        for a, b in polled:
            expected = result_or_error(reference_kernel, a, b)
            assert result_or_error(kernel, a, b) == expected, (a, b)
            for c in (0.0195, 1.0, 40.0):
                p = GaussianParams(a, b)
                expected = result_or_error(reference_erf_min_bound, c, p)
                assert result_or_error(erf_min_bound, c, p) == expected, (c, p)

    def test_kernel_matches_reference(self):
        # The bare-float kernel that the grid search polls gives the spread
        # and critical points, or the error, of the public helpers, bit for
        # bit.  A quarter of the amplitudes sit just below one, where the
        # maximum of j nears the origin and its window leaves the domain.
        rng = np.random.default_rng(33)
        kinds = []
        for k in range(3200):
            if k % 4:
                a = float(10.0 ** rng.uniform(-5.0, math.log10(30.0)))
            else:
                a = 1.0 - float(10.0 ** rng.uniform(-7.0, -3.0))
            b = float(10.0 ** rng.uniform(-8.0, 4.0))
            expected = result_or_error(reference_kernel, a, b)
            assert result_or_error(approx._erf_min, a, b) == expected, (a, b)
            if expected[0][0] == "raised":
                kinds.append(expected[0][1])
            elif expected[0][1].startswith("(inf, None, None)"):
                kinds.append("degenerate")
            else:
                kinds.append("no x1" if ", None, " in expected[0][1] else "x1")
        counts = {kind: kinds.count(kind) for kind in set(kinds)}
        for kind in ("x1", "no x1", "degenerate", RootValidationFailed, DomainViolation):
            assert counts.get(kind, 0) >= 20, counts

    def test_small_amplitude_has_two_roots(self):
        p = GaussianParams(0.6, 1.0)
        out = erf_min_bound(2.0, p)
        assert not out.degenerate
        assert out.x1 is not None and out.x2 is not None
        assert 0.0 < out.x1 < x_star(p.b) < out.x2
        assert abs(j_prime(out.x1, p)) < 1e-5
        assert abs(j_prime(out.x2, p)) < 1e-5

    def test_certified_oscillation_dominates_oracle(self):
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(40):
            a = float(rng.uniform(0.2, 2.0))
            b = float(rng.uniform(0.1, 4.0))
            c = float(rng.uniform(0.1, 10.0))
            p = GaussianParams(a, b)
            try:
                out = erf_min_bound(c, p)
            except (RootValidationFailed, DomainViolation):
                continue
            if out.degenerate:
                continue
            checked += 1
            certified_osc = out.value * f1(c) - out.error_budget - c * a
            oracle = oracle_oscillation(p)
            assert certified_osc <= oracle + out.error_budget + 1e-9
            assert certified_osc >= oracle - 1e-6
        assert checked >= 20

    def test_root_near_origin_rejected(self):
        # Amplitude barely below one puts the residual maximum inside the
        # safety window around zero, which the validator must reject.
        with pytest.raises(DomainViolation):
            erf_min_bound(1.0, GaussianParams(0.99999, 1.0))

    def test_domain_checks(self):
        p = GaussianParams(1.0, 1.0)
        with pytest.raises(DomainViolation):
            erf_min_bound(0.0, p)
        with pytest.raises(DomainViolation):
            erf_min_bound(-2.0, p)
        with pytest.raises(DomainViolation):
            erf_min_bound(float("inf"), p)

    def test_determinism(self):
        p = GaussianParams(0.8, 1.7)
        first = erf_min_bound(3.0, p)
        second = erf_min_bound(3.0, p)
        assert first == second

    def test_outcome_is_frozen(self):
        out = erf_min_bound(1.0, GaussianParams(1.0, 1.0))
        assert isinstance(out, ErfMinOutcome)
        with pytest.raises(AttributeError):
            out.value = 0.0


class TestNodeValue:
    @staticmethod
    def exact(c, osc, L):
        c, osc, L = Fraction(c), Fraction(osc), Fraction(L)
        return (osc + c * L) * (c + 1) / c

    def test_scalar_bounds_the_exact_value(self):
        for c, osc, L in [(0.3, 0.01, 0.9), (1e-6, 0.0, 2.0), (40.0, 0.5, 0.0), (1e300, 1e-3, 1e-300)]:
            value = node_value(c, osc, L)
            assert Fraction(float(value)) >= self.exact(c, osc, L)
            assert value <= float(self.exact(c, osc, L)) * (1.0 + 1e-14)

    def test_array_matches_scalars(self):
        rng = np.random.default_rng(5)
        c = 10.0 ** rng.uniform(-3.0, 2.0, 50)
        osc, L = rng.uniform(0.0, 1.0, 50), rng.uniform(0.0, 2.0, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = node_value(c[:, None], osc, L)
        assert values.shape == (50, 50)
        assert values[7, 3] == node_value(float(c[7]), float(osc[3]), float(L[3]))

    @pytest.mark.parametrize(
        "c, osc, L",
        [
            (-1.0, 0.1, 1.0),
            (1.0, -5.0, 1.0),
            (0.0, 0.1, 1.0),
            (1.0, 0.1, -1e-300),
            (math.inf, 0.1, 1.0),
            (1.0, math.nan, 1.0),
            (1.0, 0.1, math.inf),
        ],
    )
    def test_scalar_outside_the_domain(self, c, osc, L):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainViolation):
                node_value(c, osc, L)

    @pytest.mark.parametrize("position", ["c", "osc", "L"])
    def test_array_with_one_bad_entry(self, position):
        args = {"c": np.linspace(0.1, 2.0, 20), "osc": np.full(20, 0.01), "L": np.ones(20)}
        args[position][11] = -0.5 if position != "c" else 0.0
        with pytest.raises(DomainViolation):
            node_value(args["c"], args["osc"], args["L"])
