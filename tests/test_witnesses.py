"""Tests for the committed Gaussian-mixture witnesses and their certifier."""

import hashlib
import json
import math

import mpmath
import numpy as np
import pytest
import scipy.special

from commbounds import approx
from commbounds.approx import (
    DomainViolation,
    GaussianParams,
    MixtureCertificate,
    MixtureParams,
    certify_mixture,
    certify_mixtures,
    erf_min_bound,
    f1,
    j_func,
    j_limit,
    mixture_residual,
)
from commbounds.optimize import build_paper_grid, certify_grid
from commbounds.witnesses import FIT_NODES, WIDTHS, load_witnesses, main

WITNESSES = load_witnesses()


def dense_residual(x, params):
    """Direct numpy evaluation of f1 - g, term by term."""
    out = x / (x + 1.0)
    for w, b in zip(params.w, params.b):
        out = out - w * 0.5 * np.sqrt(np.pi / b) * scipy.special.erf(np.sqrt(b) * x)
    return out


def mp_terms(params):
    """(mass, sqrt(b)) of every term, exact from the stored floats, in mpmath."""
    return [
        (mpmath.mpf(w) * mpmath.sqrt(mpmath.pi / mpmath.mpf(b)) / 2, mpmath.sqrt(mpmath.mpf(b)))
        for w, b in zip(params.w, params.b)
    ]


def mp_residual(x, terms):
    x = mpmath.mpf(x)
    return x / (x + 1) - mpmath.fsum(mass * mpmath.erf(root * x) for mass, root in terms)


def mp_local_extreme(terms, lo, hi, sign, iters=30):
    """Golden-section search for the largest sign * j on [lo, hi], in mpmath."""
    ratio = (mpmath.sqrt(5) - 1) / 2
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    best = max(sign * mp_residual(lo, terms), sign * mp_residual(hi, terms))
    for _ in range(iters):
        left = hi - ratio * (hi - lo)
        right = lo + ratio * (hi - lo)
        f_left = sign * mp_residual(left, terms)
        f_right = sign * mp_residual(right, terms)
        best = max(best, f_left, f_right)
        if f_left >= f_right:
            hi = right
        else:
            lo = left
    return sign * best


def reference_certificate(params):
    """The direct certifier of one kernel, which certify_mixtures must match bit for bit.

    It reads the module's constants when called, so a test can lower the
    round cap for both certifiers at once.
    """
    w = np.asarray(params.w)
    b = np.asarray(params.b)
    peak = 1.0 / np.sqrt(2.0 * b)

    def cell_bounds(lo, hi, j_lo, j_hi):
        y = np.clip(peak, lo[:, None], hi[:, None])
        bump = (2.0 * w * b * y * np.exp(-b * y * y)).sum(axis=1)
        curvature = np.maximum(2.0 / (lo + 1.0) ** 3, bump)
        slack = curvature * (hi - lo) ** 2 * (0.125 * (1.0 + 2.0**-20))
        return np.maximum(j_lo, j_hi) + slack, np.minimum(j_lo, j_hi) - slack

    xs = np.concatenate(([0.0], np.geomspace(1e-6, approx._TAIL_START, approx._INITIAL_POINTS)))
    values = mixture_residual(xs, params)
    top, bottom = values.max(), values.min()
    lo, hi, j_lo, j_hi = xs[:-1], xs[1:], values[:-1], values[1:]
    upper, lower = -math.inf, math.inf
    for _ in range(approx._MAX_ROUNDS):
        cell_hi, cell_lo = cell_bounds(lo, hi, j_lo, j_hi)
        mid = 0.5 * (lo + hi)
        split = (
            (cell_hi > top + approx._REFINE_TOL) | (cell_lo < bottom - approx._REFINE_TOL)
        ) & (lo < mid) & (mid < hi)
        if not split.all():
            upper = max(upper, cell_hi[~split].max())
            lower = min(lower, cell_lo[~split].min())
        if not split.any():
            break
        lo, hi, j_lo, j_hi, mid = lo[split], hi[split], j_lo[split], j_hi[split], mid[split]
        j_mid = mixture_residual(mid, params)
        top, bottom = max(top, j_mid.max()), min(bottom, j_mid.min())
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        j_lo, j_hi = np.concatenate((j_lo, j_mid)), np.concatenate((j_mid, j_hi))
    else:
        cell_hi, cell_lo = cell_bounds(lo, hi, j_lo, j_hi)
        upper, lower = max(upper, cell_hi.max()), min(lower, cell_lo.min())

    mass = 0.5 * w * np.sqrt(np.pi / b)
    g_inf = float(mass.sum())
    g_tail = float((scipy.special.erf(np.sqrt(b) * approx._TAIL_START) * mass).sum())
    upper = max(upper, 1.0 - g_tail)
    lower = min(lower, f1(approx._TAIL_START) - g_inf)
    margin = approx._FP_ULPS * (len(w) + 2) * np.finfo(float).eps * (1.0 + g_inf)
    high = float(np.nextafter(upper + margin, np.inf))
    low = float(-np.nextafter(margin - lower, np.inf))
    return MixtureCertificate(
        low,
        high,
        float(np.nextafter(high - low, np.inf)),
        float(np.nextafter(math.fsum(params.w), np.inf)),
    )


def random_mixtures():
    """150 seeded mixtures with 1 to 30 terms, widths on and off WIDTHS, some repeated.

    Every third mixture draws its widths from WIDTHS, the others
    log-uniformly from [1e-8, 1e3], and every fifth repeats one width.
    The weights w_k = d_k s u_k sqrt(b_k), with d a Dirichlet split, make
    the total mass sum_k (w_k / 2) sqrt(pi / b_k) of order one, as in the
    committed table.
    """
    rng = np.random.default_rng(20261018)
    out = []
    for n in range(150):
        size = 1 + n % 30
        if n % 3 == 0:
            b = rng.choice(WIDTHS, size)
        else:
            b = 10.0 ** rng.uniform(-8.0, 3.0, size)
        if n % 5 == 0 and size > 1:
            b[-1] = b[0]
        w = rng.dirichlet(np.ones(size)) * rng.uniform(0.2, 1.5) * np.sqrt(b) * rng.uniform(0.5, 1.5, size)
        out.append(MixtureParams(tuple(float(v) for v in w), tuple(float(v) for v in b)))
    return out


RANDOM_MIXTURES = random_mixtures()


class TestMixtureParams:
    def test_validation(self):
        with pytest.raises(DomainViolation):
            MixtureParams((), ())
        with pytest.raises(DomainViolation):
            MixtureParams((1.0,), (1.0, 2.0))
        with pytest.raises(DomainViolation):
            MixtureParams((1.0, 0.0), (1.0, 2.0))
        with pytest.raises(DomainViolation):
            MixtureParams((1.0,), (float("inf"),))

    def test_single_term_matches_gaussian_residual(self):
        mixture = MixtureParams((0.7,), (0.4,))
        single = GaussianParams(0.7, 0.4)
        xs = np.array([0.0, 0.3, 1.0, 2.5, 10.0])
        expected = [j_func(float(x), single) for x in xs]
        assert mixture_residual(xs, mixture) == pytest.approx(expected, abs=1e-15)

    def test_single_term_matches_validated_critical_points(self):
        single = GaussianParams(0.7, 0.4)
        outcome = erf_min_bound(1.0, single)
        cert = certify_mixture(MixtureParams((0.7,), (0.4,)))
        high = max(j_func(outcome.x1, single), j_limit(single))
        low = j_func(outcome.x2, single)
        assert cert.high - 1e-10 <= high <= cert.high
        assert cert.low <= low <= cert.low + 1e-10
        assert cert.L >= 0.7


class TestWitnessTable:
    def test_shape(self):
        assert len(WITNESSES) == len(FIT_NODES) == 120
        widths = set(WIDTHS.tolist())
        for params in WITNESSES:
            assert set(params.b) <= widths
            assert all(w > 0.0 for w in params.w)

    def test_certified_oscillation_dominates_dense_sample(self):
        xs = np.concatenate((np.linspace(0.0, 20.0, 60001), np.geomspace(1e-6, 1e7, 60001)))
        for params in WITNESSES:
            cert = certify_mixture(params)
            samples = dense_residual(xs, params)
            limit = 1.0 - sum(w * 0.5 * np.sqrt(np.pi / b) for w, b in zip(params.w, params.b))
            high = max(samples.max(), limit)
            low = min(samples.min(), limit)
            assert cert.low <= low and high <= cert.high, params
            assert high - low <= cert.osc <= high - low + 1e-8, params
            assert cert.L >= sum(params.w)

    def test_enclosure_holds_in_high_precision(self):
        grid = np.geomspace(1e-3, 1e6, 60)
        xs = np.sort(np.concatenate((np.linspace(0.0, 20.0, 20001), np.geomspace(1e-6, 1e7, 20001))))
        with mpmath.workdps(30):
            self._check_high_precision(grid, xs)

    @staticmethod
    def _check_high_precision(grid, xs):
        for params in WITNESSES:
            cert = certify_mixture(params)
            terms = mp_terms(params)
            for x in grid:
                value = mp_residual(float(x), terms)
                assert cert.low <= value <= cert.high, (params, x)
            samples = dense_residual(xs, params)
            for sign, idx in ((1, int(samples.argmax())), (-1, int(samples.argmin()))):
                lo = xs[max(idx - 1, 0)]
                hi = xs[min(idx + 1, xs.size - 1)]
                extreme = mp_local_extreme(terms, lo, hi, sign)
                assert cert.low <= extreme <= cert.high, (params, sign)

    def test_batch_matches_reference_bit_for_bit(self):
        assert certify_mixtures(WITNESSES) == [reference_certificate(p) for p in WITNESSES]

    def test_paper_grid_digest(self):
        # SHA-256 of "c.hex C_k.hex witness-index" per node of the paper
        # grid, as the one-witness-at-a-time certifier produced it.
        index = {params: k for k, params in enumerate(WITNESSES)}
        lines = "\n".join(
            f"{p.c.hex()} {p.C_k.hex()} {None if p.params is None else index[p.params]}"
            for p in certify_grid(build_paper_grid())
        )
        assert hashlib.sha256(lines.encode()).hexdigest() == (
            "76146c1149f89396eb61eef049a000c4c32eeef153f0fed58df075d893e27b5f"
        )

    def test_fitting_script_regenerates_first_witness(self, tmp_path, monkeypatch):
        import commbounds.witnesses as module

        monkeypatch.setattr(module, "FIT_NODES", FIT_NODES[:1])
        out = tmp_path / "table.json"
        assert main(["--out", str(out)]) == 0
        (entry,) = json.loads(out.read_text())["witnesses"]
        assert entry["c"] == float(FIT_NODES[0])
        assert MixtureParams(tuple(entry["w"]), tuple(entry["b"])) == WITNESSES[0]


class TestBatchedCertifier:
    def test_random_mixtures_cover_the_cases(self):
        sizes = [len(p.b) for p in RANDOM_MIXTURES]
        assert len(RANDOM_MIXTURES) >= 150 and set(sizes) == set(range(1, 31))
        assert sum(size >= 8 for size in sizes) >= 100
        assert any(len(set(p.b)) < len(p.b) for p in RANDOM_MIXTURES)
        widths = set(WIDTHS.tolist())
        assert any(not set(p.b) <= widths for p in RANDOM_MIXTURES)

    def test_random_mixtures_alone_and_batched(self):
        reference = [reference_certificate(p) for p in RANDOM_MIXTURES]
        assert [certify_mixture(p) for p in RANDOM_MIXTURES] == reference
        assert certify_mixtures(RANDOM_MIXTURES) == reference
        mixed = RANDOM_MIXTURES[::-1] + WITNESSES[::7]
        assert certify_mixtures(mixed) == [reference_certificate(p) for p in mixed]

    def test_empty_batch(self):
        assert certify_mixtures([]) == []

    @pytest.mark.parametrize("rounds", [0, 1, 2])
    def test_round_cap(self, monkeypatch, rounds):
        # With the cap reached, the cells still open when the rounds run
        # out count with their own bounds; the enclosure stays valid.
        monkeypatch.setattr(approx, "_MAX_ROUNDS", rounds)
        batch = RANDOM_MIXTURES[::10] + WITNESSES[::15]
        certificates = certify_mixtures(batch)
        assert certificates == [reference_certificate(p) for p in batch]
        xs = np.concatenate((np.linspace(0.0, 20.0, 20001), np.geomspace(1e-6, 1e7, 20001)))
        for params, cert in zip(batch, certificates):
            samples = dense_residual(xs, params)
            assert cert.low <= samples.min() and samples.max() <= cert.high, params
