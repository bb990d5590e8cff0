"""Tests for the closed-form constants and small minimizations."""

import hashlib
import math

import numpy as np
import pytest

from commbounds import formulas
from commbounds.approx import DomainViolation, f1
from commbounds.formulas import (
    PiecewiseQuadParams,
    csc1,
    gamma_boyadzhiev,
    gamma_olsen_pedersen,
    gamma_pedersen,
    gamma_sin,
    gamma_tangent,
    gamma_tangent_objective,
    optimize_pq_f1,
    pq_f1_bound,
    pq_f1_t_star,
    pq_sqrt_bound,
    pq_sqrt_t_star,
    scaled_cayley_Cc,
    shift_constant,
    simple_Ct,
    trivial_constant,
)

R_GRID = np.arange(0.001, 1.0, 0.001)


class TestTrivialAndShift:
    def test_trivial_constant(self):
        assert trivial_constant() == 2.0
        assert min(1.0, 1.0) / f1(1.0) == 2.0
        assert abs(min(1e-9, 1.0) / f1(1e-9) - 1.0) < 1e-8
        assert min(3.0, 1.0) / f1(3.0) == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert min(3.0, 1.0) / f1(3.0) <= 2.0

    def test_shift_constant_value(self):
        # The shift envelope is e(c) = c for c < 1/2, else 1 - 1/(4c).
        assert shift_constant() == 25.0 / 16.0
        assert (1.0 - 1.0 / (4.0 * (2.0 / 3.0))) / f1(2.0 / 3.0) == pytest.approx(1.5625, abs=1e-12)

    def test_shift_constant_is_supremum(self):
        grid = (float(c) for c in np.arange(1e-4, 5.0, 1e-4))
        sup = max((c if c < 0.5 else 1.0 - 1.0 / (4.0 * c)) / f1(c) for c in grid)
        assert abs(sup - 1.5625) < 1e-6
        assert sup <= shift_constant()


class TestGammaFormulas:
    def test_boyadzhiev_half(self):
        assert abs(gamma_boyadzhiev(0.5) - 4.0 / math.pi) < 1e-15

    def test_boyadzhiev_limit_r_to_one(self):
        assert abs(gamma_boyadzhiev(1.0 - 1e-8) - 1.0) < 1e-7

    def test_boyadzhiev_matches_s_optimum(self):
        # (2/pi)(s + c/s) at the optimum s = sqrt(c); for c = 1, s = 1
        # this is 4/pi and agrees with the formula at r = 1/2.
        assert abs((2.0 / math.pi) * (1.0 + 1.0) - gamma_boyadzhiev(0.5)) < 1e-15

    def test_olsen_pedersen_half(self):
        assert abs(gamma_olsen_pedersen(0.5) - math.sqrt(2.0)) < 1e-15

    def test_pedersen_half(self):
        assert abs(gamma_pedersen(0.5) - 2.0**1.5 * 3.0**-0.75) < 1e-14
        assert gamma_pedersen(0.5) < 1.2409

    def test_pedersen_sup(self):
        assert max(gamma_pedersen(float(r)) for r in R_GRID) <= 1.25 + 1e-12

    def test_tangent_half(self):
        assert abs(gamma_tangent(0.5) - 1.5 / math.sqrt(2.0)) < 1e-15
        assert gamma_tangent(0.5) < 1.0607

    def test_tangent_sup(self):
        assert max(gamma_tangent(float(r)) for r in R_GRID) < 1.062

    def test_tangent_endpoint_limits(self):
        assert abs(gamma_tangent(1e-9) - 1.0) < 1e-8
        assert abs(gamma_tangent(1.0 - 1e-9) - 1.0) < 1e-8

    def test_tangent_objective_minimized_at_two(self):
        for r in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert abs(gamma_tangent_objective(r, 2.0) - gamma_tangent(r)) < 1e-14
            h = 1e-5
            deriv = (
                gamma_tangent_objective(r, 2.0 + h) - gamma_tangent_objective(r, 2.0 - h)
            ) / (2.0 * h)
            assert abs(deriv) < 1e-10
            for a in (0.5, 1.0, 3.0, 10.0):
                assert gamma_tangent_objective(r, a) >= gamma_tangent(r) - 1e-14

    def test_all_gammas_at_least_one(self):
        for r in R_GRID:
            r = float(r)
            assert gamma_boyadzhiev(r) >= 1.0
            assert gamma_olsen_pedersen(r) >= 1.0
            assert gamma_pedersen(r) >= 1.0
            assert gamma_tangent(r) >= 1.0

    def test_ordering_at_half(self):
        assert (
            gamma_tangent(0.5)
            < gamma_pedersen(0.5)
            < gamma_boyadzhiev(0.5)
            < gamma_olsen_pedersen(0.5)
        )

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainViolation):
                gamma_boyadzhiev(bad)
            with pytest.raises(DomainViolation):
                gamma_tangent(bad)


class TestGammaSin:
    def test_half(self):
        value, argmin = gamma_sin(0.5)
        assert value <= 1.1748
        assert abs(argmin - 1.166) <= 0.005
        assert value == argmin**0.5 / math.sin(argmin)

    def test_upper_envelope_csc1(self):
        # Evaluating the objective at t = 1 shows the minimum is at most
        # 1^r/sin(1) = csc(1) for every r.
        for r in (0.05, 0.25, 0.5, 0.75, 0.95):
            value, _ = gamma_sin(r)
            assert value <= csc1() + 1e-12

    def test_local_optimality(self):
        for r in (0.2, 0.5, 0.8):
            value, argmin = gamma_sin(r)
            for delta in np.linspace(-0.01, 0.01, 21):
                t = argmin + float(delta)
                assert value <= t**r / math.sin(t) + 1e-12


class TestCsc1:
    def test_value(self):
        assert csc1() == 1.0 / math.sin(1.0)
        assert csc1() < 1.1884
        assert csc1() >= 1.0


class TestPiecewiseQuadParams:
    def test_validation(self):
        PiecewiseQuadParams(1.0, 0.0)
        with pytest.raises(DomainViolation):
            PiecewiseQuadParams(0.0, 0.0)
        with pytest.raises(DomainViolation):
            PiecewiseQuadParams(-1.0, -0.1)
        with pytest.raises(DomainViolation):
            PiecewiseQuadParams(1.0, 0.1)
        with pytest.raises(DomainViolation):
            PiecewiseQuadParams(math.inf, 0.0)


class TestPqSqrt:
    def test_published_point(self):
        bound = pq_sqrt_bound(PiecewiseQuadParams(8.0, -0.03314563))
        assert bound <= 1.02259
        assert bound >= 1.0

    def test_t_star_at_m_zero(self):
        for a in (0.5, 1.0, 2.0, 8.0, 30.0):
            t = pq_sqrt_t_star(PiecewiseQuadParams(a, 0.0))
            assert t == pytest.approx(a, rel=1e-14)

    def test_m_zero_reduces_to_tangent_construction(self):
        # With m = 0 the bound is (3/8)sqrt(a) + (3/4)/sqrt(a); its
        # minimum over a is at a = 2 and equals the tangent value at
        # r = 1/2.
        for a in (0.5, 2.0, 5.0, 20.0):
            bound = pq_sqrt_bound(PiecewiseQuadParams(a, 0.0))
            assert bound == pytest.approx(0.375 * math.sqrt(a) + 0.75 / math.sqrt(a), abs=1e-12)
        assert pq_sqrt_bound(PiecewiseQuadParams(2.0, 0.0)) == pytest.approx(
            gamma_tangent(0.5), abs=1e-14
        )

    def test_bound_dominates_dense_oscillation(self):
        # The formula evaluates j only at t* and 0; a dense sample of j
        # must not reveal a larger oscillation.
        for a, m in [(8.0, -0.03314563), (2.0, 0.0), (4.0, -0.1), (1.0, -0.5)]:
            p = PiecewiseQuadParams(a, m)
            root_a = math.sqrt(a)
            fpa, fppa = 0.5 / root_a, -0.25 * a**-1.5

            def j(x):
                if x >= a:
                    return 0.0
                g = 0.5 * (fppa + m) * (x - a) ** 2 + fpa * (x - a) + root_a
                return math.sqrt(x) - g

            xs = np.linspace(0.0, 1.5 * a, 200001)
            samples = [j(float(x)) for x in xs]
            dense = max(samples) - min(min(samples), 0.0)
            gp0 = 0.75 / root_a - m * a
            assert dense + gp0 <= pq_sqrt_bound(p) + 1e-7

    def test_bound_at_least_one(self):
        for a in np.linspace(0.2, 20.0, 25):
            for m in np.linspace(-2.0, 0.0, 25):
                assert pq_sqrt_bound(PiecewiseQuadParams(float(a), float(m))) >= 1.0


class TestPqF1:
    def test_t_star_at_m_zero(self):
        for a in (0.1, 1.0, 7.0, 100.0):
            assert pq_f1_t_star(PiecewiseQuadParams(a, 0.0)) == pytest.approx(a, rel=1e-14)

    def test_m_zero_matches_tangent_construction(self):
        # With m = 0 the approximant is the degree-two Taylor polynomial
        # of f1 at the knot and the bound times f1(c) equals the tangent
        # construction f(a) + F'(a)a^2/2 - aF(a) + c(F(a) - aF'(a)).
        for c in (0.05, 0.3, 1.0, 7.0):
            for a in (0.2, 1.0, 3.0, 25.0):
                ap1 = a + 1.0
                Fa, Fpa = 1.0 / ap1**2, -2.0 / ap1**3
                tangent = f1(a) + 0.5 * Fpa * a * a - a * Fa + c * (Fa - a * Fpa)
                value = pq_f1_bound(c, PiecewiseQuadParams(a, 0.0)) * f1(c)
                assert value == pytest.approx(tangent, abs=1e-14)

    def test_large_knot_limit(self):
        # m = 0, a -> inf: osc -> 1 and g'(0) -> 0, so the bound tends
        # to 1/f1(c).
        for c in (0.5, 1.0, 4.0):
            value = pq_f1_bound(c, PiecewiseQuadParams(1e6, 0.0))
            assert abs(value - 1.0 / f1(c)) < 1e-4

    def test_oscillation_split_against_dense_sampling(self):
        cases = [
            (0.5, PiecewiseQuadParams(1.5, -0.1)),  # t* > 0
            (0.5, PiecewiseQuadParams(0.1, -100.0)),  # t* <= 0
            (2.0, PiecewiseQuadParams(7.3, -0.0255)),
        ]
        for c, p in cases:
            a, m = p.a, p.m
            ap1 = a + 1.0

            def j(x):
                if x >= a:
                    return 0.0
                g = (-1.0 / ap1**3 + 0.5 * m) * (x - a) ** 2 + (x - a) / ap1**2 + 1.0 - 1.0 / ap1
                return f1(x) - g

            xs = np.linspace(0.0, 2.0 * a, 400001)
            samples = [j(float(x)) for x in xs]
            dense_osc = max(samples) - min(samples)
            gp0 = a * (2.0 / ap1**3 - m) + 1.0 / ap1**2
            value = pq_f1_bound(c, p)
            dense_value = (dense_osc + c * gp0) / f1(c)
            assert dense_value <= value + 1e-9
            assert value <= dense_value + 1e-5

    def test_optimizer_beats_grid_oracle(self):
        c = 0.3
        bound, params = optimize_pq_f1(c)
        assert params.m <= 0.0 and params.a > 0.0
        oracle = min(
            pq_f1_bound(c, PiecewiseQuadParams(float(a), float(m)))
            for a in np.linspace(0.05, 5.0, 120)
            for m in np.linspace(-1.0, 0.0, 120)
        )
        assert bound <= oracle + 1e-9
        assert 1.0 <= bound <= 1.07688

    def test_free_m_never_worse_than_tangent(self):
        for c in (0.05, 0.2, 1.0, 5.0):
            free, _ = optimize_pq_f1(c)
            tangent_only = min(
                pq_f1_bound(c, PiecewiseQuadParams(float(a), 0.0))
                for a in np.geomspace(0.01, 1000.0, 2000)
            )
            assert free <= tangent_only + 1e-9

    def test_determinism(self):
        assert optimize_pq_f1(0.7) == optimize_pq_f1(0.7)

    def test_domain(self):
        for c in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainViolation):
                pq_f1_bound(c, PiecewiseQuadParams(1.0, 0.0))
        with pytest.raises(DomainViolation):
            optimize_pq_f1(0.5, start=(math.nan, -0.01))

    @pytest.mark.parametrize(
        "a, m",
        [
            (0.0, 0.0),
            (-1.0, 0.0),
            (math.inf, 0.0),
            (math.nan, 0.0),
            (1.0, 0.1),
            (1.0, -math.inf),
            (1.0, math.nan),
        ],
    )
    def test_kernel_keeps_the_params_checks(self, a, m):
        with pytest.raises(DomainViolation):
            PiecewiseQuadParams(a, m)
        with pytest.raises(DomainViolation):
            formulas._pq_f1(1.0, f1(1.0), a, m)

    def test_bound_matches_the_closure_formula_bit_for_bit(self):
        def closure_bound(c, p):
            # pq_f1_bound as it was written before the bare-float kernel.
            a, m = p.a, p.m
            ap1 = a + 1.0
            q3 = ap1**3

            def j(x):
                if x >= a:
                    return 0.0
                g = (-1.0 / q3 + 0.5 * m) * (x - a) ** 2 + (x - a) / ap1**2 + 1.0 - 1.0 / ap1
                return f1(x) - g

            t_star = pq_f1_t_star(p)
            if t_star > 0.0:
                osc = j(t_star) - min(j(0.0), 0.0)
            else:
                osc = j(0.0)
            gp0 = a * (2.0 / q3 - m) + 1.0 / ap1**2
            return (osc + c * gp0) / f1(c)

        rng = np.random.default_rng(20261018)
        cs = np.geomspace(1e-3, 1e3, 40)
        # Knots from 1e-8 to 1e6 and offsets from -3e3 to 0, fixed ends included.
        knots = np.concatenate(
            [[1e-8, 1e-3, 0.1, 1.0, 8.0, 1e6], np.exp(rng.uniform(-18.4, 13.8, 60))]
        )
        offsets = np.concatenate(
            [[0.0, -1e-9, -0.01, -1.0, -100.0], -np.exp(rng.uniform(-20.0, 8.0, 30))]
        )
        cases = [PiecewiseQuadParams(float(a), float(m)) for a in knots for m in offsets]
        t_stars = [pq_f1_t_star(p) for p in cases]
        assert any(t <= 0.0 for t in t_stars)
        assert any(t >= p.a for t, p in zip(t_stars, cases))
        assert any(0.0 < t < p.a for t, p in zip(t_stars, cases))
        for p in cases:
            for c in rng.choice(cs, 3):
                assert pq_f1_bound(float(c), p) == closure_bound(float(c), p), (c, p)

    def test_search_returns_the_public_bound_at_its_winner(self):
        for c in (0.01, 0.28, 1.0, 15.0):
            bound, params = optimize_pq_f1(c)
            assert bound == pq_f1_bound(c, params)

    def test_chained_search_bits(self):
        # Criterion 4's chain on every 100th node from k = 1; the digest
        # was computed before the search moved to the bare-float kernel.
        start, records = (1.0, -0.01), []
        for c in [k / 1000.0 for k in range(1, 15001, 100)]:
            bound, params = optimize_pq_f1(c, start=start)
            records.append(" ".join(x.hex() for x in (c, bound, params.a, params.m)))
            start = (params.a, params.m)
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
        assert digest == "66c4b6fec5da17dfd556c0d95821fce53b538e67d650637e37f0c3de754e1e9a"


class TestEnvelopes:
    def test_simple_Ct(self):
        assert simple_Ct(1.0) == 2.0
        assert simple_Ct(0.25) == 1.25
        assert simple_Ct(4.0) == 1.25
        with pytest.raises(DomainViolation):
            simple_Ct(0.0)

    def test_scaled_cayley_max(self):
        assert scaled_cayley_Cc(2.0 / 3.0) == pytest.approx(1.25, abs=1e-12)
        grid = np.arange(1e-3, 10.0, 1e-3)
        values = [scaled_cayley_Cc(float(c)) for c in grid]
        best = max(values)
        assert abs(best - 1.25) < 1e-6
        assert abs(float(grid[values.index(best)]) - 2.0 / 3.0) < 1e-2

    def test_scaled_cayley_below_csc1_outside_interval(self):
        threshold = csc1()
        for c in np.concatenate([np.linspace(1e-3, 0.267, 50), np.linspace(1.702, 100.0, 50)]):
            assert scaled_cayley_Cc(float(c)) < threshold
        # Inside the window the curve exceeds csc(1) at its peak.
        assert scaled_cayley_Cc(2.0 / 3.0) > threshold

    def test_scaled_cayley_below_simple_envelope(self):
        for c in np.geomspace(1e-3, 100.0, 200):
            assert scaled_cayley_Cc(float(c)) <= simple_Ct(float(c))

