"""Tests for certificate stitching, corner bounds and sqrt-constant assembly."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from commbounds import stitch
from commbounds.approx import BadParameter, DomainViolation, GaussianParams
from commbounds.formulas import csc1, scaled_cayley_Cc
from commbounds.optimize import BoundPoint, build_paper_grid, certify_grid, optimize_grid
from commbounds.stitch import (
    ArgumentOrder,
    CoverageGap,
    StitchedCertificate,
    continuity_lift,
    corner_large,
    corner_small,
    gamma_half_via_Cc,
    global_constant,
    sqrt_constant,
)

DUMMY = GaussianParams(1.0, 1.0)


def flat_points(grid, C=1.0):
    return [BoundPoint(float(c), C, DUMMY) for c in grid]


class TestContinuityLift:
    def test_lemma_arithmetic(self):
        assert continuity_lift(1.05, 1.0, 1.1) == pytest.approx(1.1025, abs=1e-15)
        assert continuity_lift(1.0, 0.0195, 0.02) == pytest.approx(1.00049, abs=1e-5)

    def test_identity_at_equal_endpoints(self):
        assert continuity_lift(1.07, 2.0, 2.0) == 1.07

    def test_argument_order(self):
        with pytest.raises(ArgumentOrder):
            continuity_lift(1.05, 1.1, 1.0)

    def test_domain(self):
        with pytest.raises(DomainViolation):
            continuity_lift(1.05, 0.0, 1.0)
        with pytest.raises(DomainViolation):
            continuity_lift(0.99, 1.0, 1.1)


class TestStitch:
    def test_single_point(self):
        cert = global_constant([BoundPoint(1.0, 1.01, DUMMY)], 1.0, 1.0)
        assert cert.lifted == (1.01,)
        assert cert.corner_small == 2.0
        assert cert.corner_large == 1.5
        assert cert.global_C == 2.0

    def test_two_points(self):
        cert = global_constant(
            [BoundPoint(1.0, 1.01, DUMMY), BoundPoint(1.01, 1.01, DUMMY)], 1.0, 1.01
        )
        assert cert.lifted[0] == pytest.approx(1.01 * 2.01 / 2.0, abs=1e-15)
        assert cert.lifted[0] == pytest.approx(1.01505, abs=1e-12)
        assert cert.global_C == max(cert.corner_small, cert.corner_large, *cert.lifted)

    def test_degenerate_node_rejected(self):
        good = BoundPoint(1.0, 1.01, DUMMY)
        degenerate = BoundPoint(2.0, math.inf, DUMMY)
        assert degenerate.degenerate
        with pytest.raises(DomainViolation):
            global_constant([good, degenerate], 1.0, 2.0)
        # Only an infinite constant marks a node degenerate.
        ten = BoundPoint(2.0, 10.0, DUMMY)
        assert not ten.degenerate
        assert global_constant([good, ten], 1.0, 2.0).points[1].C_k == 10.0

    def test_sorting_and_empty(self):
        with pytest.raises(DomainViolation):
            global_constant([BoundPoint(2.0, 1.0, DUMMY), BoundPoint(1.0, 1.0, DUMMY)], 2.0, 1.0)
        with pytest.raises(CoverageGap):
            global_constant([], 1.0, 1.0)

    def test_lift_dominates_interior(self):
        # Any d inside [c_k, c_{k+1}] is covered by D_k.
        points = optimize_grid([0.9, 1.0, 1.1])
        cert = global_constant(points, 0.9, 1.1)
        for k, p in enumerate(points[:-1]):
            for d in np.linspace(p.c, points[k + 1].c, 23):
                assert continuity_lift(p.C_k, p.c, float(d)) <= cert.lifted[k] + 1e-15

    def test_per_interval_beats_uniform_lift(self):
        # Constant spacing: every D_k is at most the single coarse lift
        # applied to the largest node constant.
        grid = [1.0 + 0.1 * k for k in range(11)]
        constants = [1.0 + 0.003 * ((k * 7) % 5) for k in range(11)]
        points = [BoundPoint(c, C, DUMMY) for c, C in zip(grid, constants)]
        cert = global_constant(points, grid[0], grid[-1])
        uniform = max(constants) * (grid[0] + 0.1 + 1.0) / (grid[0] + 1.0)
        assert max(cert.lifted) <= uniform + 1e-12

    def test_last_upper_end_must_be_finite(self):
        # The last node lifts to c_n + spacing, which here overflows to inf.
        with pytest.raises(ArgumentOrder, match=r"^d must satisfy d >= c, got d=inf, c=1\.5e\+308$"):
            global_constant(flat_points([1.0, 1.5e308]), 1.0, 1.5e308)

    def test_lifts_equal_the_checked_lift(self, monkeypatch):
        # The certificate lifts its checked nodes through the formula that
        # continuity_lift checks its arguments for; it calls continuity_lift
        # only for the last node, whose upper end may overflow.
        points = certify_grid(build_paper_grid()[::50])
        cert = StitchedCertificate(tuple(points))
        cs = [p.c for p in points]
        uppers = cs[1:] + [cs[-1] + max(v - u for u, v in zip(cs, cs[1:]))]
        assert cert.lifted == tuple(continuity_lift(p.C_k, p.c, d) for p, d in zip(points, uppers))
        calls = []
        monkeypatch.setattr(stitch, "continuity_lift", lambda *args: calls.append(args) or 1.0)
        StitchedCertificate(tuple(points))
        assert calls == [(points[-1].C_k, points[-1].c, uppers[-1])]

    def test_only_points_is_set(self):
        # The derived fields are computed from the points, never passed in.
        points = flat_points([0.9, 1.0, 1.1])
        assert StitchedCertificate(tuple(points)) == global_constant(points, 0.9, 1.1)
        with pytest.raises(TypeError):
            StitchedCertificate(tuple(points), (1.0, 1.0, 1.0))


class TestCorners:
    def test_corner_small(self):
        assert corner_small(0.0195) == 1.0195
        assert corner_small(1.0) == 2.0
        assert corner_small(1e-12) == pytest.approx(1.0, abs=1e-11)
        with pytest.raises(DomainViolation):
            corner_small(0.0)

    def test_corner_large(self):
        assert corner_large(40.0) == pytest.approx(1.01859375, abs=1e-12)
        assert corner_large(40.0) < 1.0186
        assert corner_large(0.5) == 25.0 / 16.0
        assert corner_large(0.6) == 25.0 / 16.0
        assert corner_large(1e9) == pytest.approx(1.0, abs=1e-8)
        with pytest.raises(DomainViolation):
            corner_large(0.49)

    def test_corner_large_shape(self):
        # The ratio (1 - 1/(4c))(c+1)/c is unimodal on [1/2, inf): it
        # rises to 25/16 at c = 2/3 (the shift constant) and decreases
        # beyond, so the tail's supremum is 25/16 up to cn = 2/3 and the
        # value at cn after it.
        assert corner_large(2.0 / 3.0) == 25.0 / 16.0
        values = [corner_large(float(c)) for c in np.geomspace(0.7, 1e4, 200)]
        assert all(u > v for u, v in zip(values, values[1:]))
        assert corner_large(0.5) == corner_large(2.0 / 3.0) > corner_large(0.7)

    @pytest.mark.parametrize("cn", [0.5, 0.6, 2.0 / 3.0])
    def test_corner_large_bounds_the_exact_tail_sup(self, cn):
        # In exact arithmetic the ratio is 1 + 3/(4c) - 1/(4c^2), whose only
        # critical point is the maximum at c = 2/3; every cn here lies
        # at or below 2/3 (2.0 / 3.0 rounds down), so the sup over
        # [cn, inf) is the value at 2/3.
        def ratio(c):
            return 1 + Fraction(3, 4) / c - Fraction(1, 4) / (c * c)

        sup = ratio(Fraction(2, 3))
        assert sup == Fraction(25, 16)
        assert Fraction(cn) <= Fraction(2, 3)
        samples = [Fraction(cn) + Fraction(k, 64) for k in range(640)]
        assert max(ratio(c) for c in samples) <= sup
        assert Fraction(corner_large(cn)) >= sup


class TestGlobalConstant:
    def test_hypothetical_unit_constants_on_paper_grid(self):
        cert = global_constant(flat_points(build_paper_grid()), 0.0195, 40.0)
        assert cert.corner_small == 1.0195
        assert cert.corner_large == pytest.approx(1.01859375, abs=1e-12)
        # Unit node constants lift to at most ~1.0046, so the corners win.
        assert cert.global_C == cert.corner_small == 1.0195
        assert len(cert.lifted) == len(cert.points)

    def test_coverage_gap(self):
        with pytest.raises(CoverageGap):
            global_constant([], 1.0, 1.0)
        points = flat_points([1.0, 2.0, 3.0])
        with pytest.raises(CoverageGap):
            global_constant(points, 0.9, 3.0)
        with pytest.raises(CoverageGap):
            global_constant(points, 1.0, 3.5)

    def test_corner_validity_region(self):
        with pytest.raises(DomainViolation):
            global_constant(flat_points([0.1, 0.2]), 0.1, 0.2)


class TestSqrtConstant:
    def test_unit_constants_frozen_value(self):
        value = sqrt_constant(flat_points(build_paper_grid()))
        assert value == pytest.approx(1.0017546, abs=1e-6)
        assert value > 1.0

    def test_riemann_sum_dominates_integral(self):
        # Each stitched summand dominates the corresponding piece of
        # (1/pi) int dt/((1+t) sqrt t) = 1, so with C = 1 the output
        # exceeds 1; scaling the constants scales the middle sum.
        ones = sqrt_constant(flat_points(build_paper_grid()))
        flat = sqrt_constant(flat_points(build_paper_grid(), C=1.0195))
        assert 1.0 < ones < flat

    def test_monotone_in_each_constant(self):
        grid = build_paper_grid()
        base_points = flat_points(grid)
        base = sqrt_constant(base_points)
        bumped = list(base_points)
        k = 1000
        bumped[k] = BoundPoint(base_points[k].c, 1.1, DUMMY)
        delta = sqrt_constant(bumped) - base
        expected = (
            0.2 / (grid[k] + 1.0) * (math.sqrt(grid[k + 1]) - math.sqrt(grid[k]))
        ) / math.pi
        assert delta == pytest.approx(expected, rel=1e-9)
        assert delta > 0.0
        # The last node multiplies no interval, so bumping it is flat.
        bumped_last = list(base_points)
        bumped_last[-1] = BoundPoint(base_points[-1].c, 2.0, DUMMY)
        assert sqrt_constant(bumped_last) == base

    def test_span_and_degeneracy_contract(self):
        with pytest.raises(CoverageGap):
            sqrt_constant(flat_points([0.02, 1.0, 40.0]))
        with pytest.raises(CoverageGap):
            sqrt_constant(flat_points([0.0195, 1.0, 39.0]))
        bad = flat_points([0.0195, 1.0, 40.0])
        bad[1] = BoundPoint(1.0, math.inf, DUMMY)
        assert bad[1].degenerate
        with pytest.raises(DomainViolation):
            sqrt_constant(bad)

    @pytest.mark.parametrize("C", [math.nan, math.inf, 0.5])
    def test_rejects_non_finite_or_sub_unit_constant(self, C):
        # Every node constant must be finite and at least 1, as in
        # continuity_lift; a NaN would otherwise pass into the sum.
        points = flat_points(build_paper_grid())
        points[1000] = BoundPoint(points[1000].c, C, DUMMY)
        with pytest.raises(DomainViolation):
            sqrt_constant(points)
        with pytest.raises(DomainViolation):
            global_constant(points, 0.0195, 40.0)

    @pytest.mark.parametrize(
        "c, error, message",
        [
            (math.nan, DomainViolation, "c must be positive and finite, got nan"),
            ("1.0", BadParameter, "c must be a real number, got str '1.0'"),
        ],
    )
    def test_rejects_an_interior_c_that_is_not_a_positive_real(self, c, error, message):
        # The node rule reads every c, so neither entry sums or lifts past it.
        points = flat_points(build_paper_grid())
        points[1000] = BoundPoint(c, 1.0, DUMMY)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            sqrt_constant(points)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            global_constant(points, 0.0195, 40.0)


@pytest.fixture(scope="module")
def paper_payload():
    return global_constant(certify_grid(build_paper_grid()), 0.0195, 40.0).to_dict()


class TestSerialization:
    def test_round_trip_is_exact(self):
        points = optimize_grid([0.9, 1.0, 1.1])
        cert = global_constant(points, 0.9, 1.1)
        payload = json.loads(json.dumps(cert.to_dict()))
        back = StitchedCertificate.from_dict(payload)
        assert back == cert
        assert back.global_C == cert.global_C

    def test_paper_round_trip_is_exact(self, paper_payload):
        back = StitchedCertificate.from_dict(json.loads(json.dumps(paper_payload)))
        assert back.to_dict() == paper_payload
        assert back == StitchedCertificate.from_dict(paper_payload)

    def test_mixture_round_trip_is_exact(self):
        points = certify_grid([1e-4, 0.3, 0.3005, 1.0, 1.1])
        assert points[0].params is None
        cert = global_constant(points, 1e-4, 1.1)
        payload = json.loads(json.dumps(cert.to_dict()))
        assert payload["params"][0] is None
        assert len(payload["mixtures"]) == len({p.params for p in points[1:]})
        back = StitchedCertificate.from_dict(payload)
        assert back == cert

    def test_gaussian_payload_layout(self):
        payload = global_constant(flat_points([0.9, 1.0, 1.1]), 0.9, 1.1).to_dict()
        assert list(payload) == [
            "grid", "C_k", "D_k", "params", "corner_small", "corner_large", "global_C",
        ]
        assert payload["params"] == [[1.0, 1.0]] * 3

    def test_constant_ten_is_not_degenerate(self):
        points = [BoundPoint(1.0, 1.01, DUMMY), BoundPoint(2.0, 10.0, DUMMY)]
        cert = global_constant(points, 1.0, 2.0)
        back = StitchedCertificate.from_dict(json.loads(json.dumps(cert.to_dict())))
        assert back == cert
        assert not back.points[1].degenerate

    def test_length_mismatch_rejected(self):
        cert = global_constant(optimize_grid([1.0, 1.5]), 1.0, 1.5)
        payload = cert.to_dict()
        payload["C_k"] = payload["C_k"][:-1]
        with pytest.raises(CoverageGap):
            StitchedCertificate.from_dict(payload)


class TestGammaHalfIntegral:
    def test_value(self):
        value = gamma_half_via_Cc()
        assert value == pytest.approx(1.1017415, abs=1e-6)
        assert 1.0 < value < 1.102

    def test_matches_unsubstituted_quadrature(self):
        def integrand(t):
            # The integrand in t, before the substitution t = u^2.
            return min(csc1(), scaled_cayley_Cc(t)) / ((1.0 + t) * math.sqrt(t))

        direct, err = quad(integrand, 0.0, math.inf, limit=400)
        assert err / math.pi < 1e-6
        assert gamma_half_via_Cc() == pytest.approx(direct / math.pi, abs=1e-6)
