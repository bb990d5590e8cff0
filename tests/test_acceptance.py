"""Acceptance gate: one test per shipping criterion.

Each test prints a single summary line with the measured quantities and
asserts the stated tolerances, so `pytest -v` reads as a pass/fail
scoreboard.  Criteria 1 and 2 measure the certificate of the standard
grid built from the committed Gaussian-mixture witnesses: each witness
g' = sum_k w_k exp(-b_k x^2) has its oscillation certified once, and
each node takes the lower envelope over the witnesses of
(osc + c * g'(0)) / f1(c), capped by the resolvent bound 1 + c.
"""

import json
import math

import numpy as np
import pytest

from commbounds.approx import GaussianParams, erf_min_bound, f1, j_func, j_limit, j_prime, phi, x_end
from commbounds.formulas import (
    PiecewiseQuadParams,
    csc1,
    gamma_boyadzhiev,
    gamma_olsen_pedersen,
    gamma_pedersen,
    gamma_sin,
    gamma_tangent,
    optimize_pq_f1,
    pq_sqrt_bound,
    scaled_cayley_Cc,
    shift_constant,
)
from commbounds.matrixlab import (
    CampaignConfig,
    NormKind,
    monte_carlo_campaign,
    ui_norm,
    verify_conjecture_ratio,
    verify_exp_equivalence,
    verify_jensen,
)
from commbounds.optimize import build_paper_grid, certify_grid, hull_constant
from commbounds.stitch import gamma_half_via_Cc, global_constant, sqrt_constant

SPAN = (0.0195, 40.0)


@pytest.fixture(scope="module")
def paper_certificate():
    """Certify the full grid once from the witness table; criteria 1 and 2 share the result."""
    points = certify_grid(build_paper_grid())
    cert = global_constant(points, *SPAN)
    return points, cert


def random_concave(rng):
    """Positive combination of concave nondecreasing pieces with f(0)=0."""
    pieces = []
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(0, 4))
        w = float(rng.uniform(0.2, 2.0))
        if kind == 0:
            r = float(rng.uniform(0.3, 1.0))
            pieces.append(lambda x, w=w, r=r: w * x**r)
        elif kind == 1:
            t = float(rng.uniform(0.05, 5.0))
            pieces.append(lambda x, w=w, t=t: w * x / (x + t))
        elif kind == 2:
            t = float(rng.uniform(0.1, 3.0))
            pieces.append(lambda x, w=w, t=t: w * min(x, t))
        else:
            lam = float(rng.uniform(0.2, 3.0))
            pieces.append(lambda x, w=w, lam=lam: w * (1.0 - math.exp(-lam * x)))
    return lambda x: sum(p(x) for p in pieces)


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_psd(rng, n):
    m = random_complex(rng, n)
    return m @ m.conj().T


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def kind_cycle(n):
    kinds = [
        NormKind.operator(),
        NormKind.ky_fan(2),
        NormKind.schatten(1.5),
        NormKind.schatten(3.0),
        NormKind.trace(),
        NormKind.hilbert_schmidt(),
    ]
    return [k for k in kinds if not (k.tag == "kyfan" and k.k > n)]


def test_criterion_1_main_constant_certificate(paper_certificate):
    points, cert = paper_certificate
    top = max(points, key=lambda p: p.C_k)
    hull = hull_constant()
    print(
        f"criterion 1: global_C={cert.global_C!r} "
        f"hull_C={hull.C!r} at c={hull.c!r} (witness {hull.witness}) "
        f"corner_small={cert.corner_small!r} corner_large={cert.corner_large!r} "
        f"nodes={len(points)} max_C_k={top.C_k!r} at c={top.c!r} "
        f"max_D_k={max(cert.lifted)!r}"
    )
    assert cert.corner_small == pytest.approx(1.0195, abs=1e-6)
    assert cert.corner_large == pytest.approx(1.018594, abs=1e-6)
    assert cert.global_C <= 1.0205, (
        f"certified global constant {cert.global_C} exceeds 1.0205; some "
        f"lifted node constant of the mixture-witness envelope is above the "
        f"target (check the witness table and certify_mixture)"
    )


def test_criterion_2_sqrt_constant(paper_certificate):
    points, _ = paper_certificate
    value = sqrt_constant(points)
    print(f"criterion 2: sqrt_constant={value!r}")
    assert value <= 1.0095, (
        f"sqrt commutator constant {value} exceeds 1.0095; the node "
        f"constants of the mixture-witness envelope are too large"
    )


def test_criterion_3_closed_form_table():
    sin_bound, sin_argmin = gamma_sin(0.5)
    gamma_half = gamma_half_via_Cc()
    cayley_peak = scaled_cayley_Cc(2.0 / 3.0)
    cayley_scan = max(scaled_cayley_Cc(c) for c in np.linspace(0.01, 10.0, 20001))
    print(
        f"criterion 3: boyadzhiev={gamma_boyadzhiev(0.5)!r} "
        f"olsen_pedersen={gamma_olsen_pedersen(0.5)!r} "
        f"pedersen={gamma_pedersen(0.5)!r} tangent={gamma_tangent(0.5)!r} "
        f"sin=({sin_bound!r}, {sin_argmin!r}) csc1={csc1()!r} "
        f"shift={shift_constant()!r} cayley={cayley_peak!r} "
        f"gamma_half={gamma_half!r}"
    )
    assert gamma_boyadzhiev(0.5) == pytest.approx(4.0 / math.pi, abs=1e-9)
    assert gamma_olsen_pedersen(0.5) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert gamma_pedersen(0.5) == pytest.approx(2.0**1.5 * 3.0**-0.75, abs=1e-9)
    assert gamma_tangent(0.5) == pytest.approx((2.0 - 0.5) * 2.0**-0.5, abs=1e-9)
    assert sin_bound <= 1.1748
    assert abs(sin_argmin - 1.166) <= 0.005
    assert csc1() < 1.1884
    assert shift_constant() == 1.5625
    assert cayley_peak == pytest.approx(1.25, abs=1e-9)
    assert cayley_scan <= cayley_peak + 1e-9
    assert gamma_half < 1.102


def test_criterion_4_piecewise_quadratic_bounds():
    published = pq_sqrt_bound(PiecewiseQuadParams(8.0, -0.03314563))
    grid = [k / 1000.0 for k in range(1, 15001)]
    start = (1.0, -0.01)
    values = []
    for c in grid:
        value, params = optimize_pq_f1(c, start=start)
        values.append(value)
        start = (params.a, params.m)
    grid_max = max(values)
    lifted = max(
        value * (upper + 1.0) / (c + 1.0)
        for value, c, upper in zip(values, grid, grid[1:] + [grid[-1] + 0.001])
    )
    print(
        f"criterion 4: pq_sqrt={published!r} pq_f1_grid_max={grid_max!r} "
        f"pq_f1_lifted={lifted!r}"
    )
    assert published <= 1.02259 + 1e-4
    assert 1.076 <= grid_max <= 1.078
    assert lifted <= 1.0782


def test_criterion_5_counterexample_report():
    from commbounds.matrixlab import counterexample_report

    report = counterexample_report()
    print(
        f"criterion 5: sigma_comm={report['sigma_commutator']} "
        f"sigma_exp={report['sigma_exp_commutator']} "
        f"traces=({report['trace_norm_f_commutator']!r}, "
        f"{report['trace_norm_f_exp']!r})"
    )
    assert report["sigma_commutator"] == pytest.approx([1.7546, 1.7036, 0.0510], abs=1e-4)
    assert report["sigma_exp_commutator"] == pytest.approx([1.6546, 1.6027, 0.0519], abs=1e-4)
    assert report["trace_norm_f_exp"] == pytest.approx(2.6976, abs=1e-4)
    assert report["trace_norm_f_commutator"] == pytest.approx(2.6953, abs=1e-4)
    assert report["trace_norm_f_exp"] > report["trace_norm_f_commutator"]


def _suite_dense_oracle():
    rng = np.random.default_rng(601)
    checked = 0
    while checked < 100:
        c = float(rng.uniform(0.05, 20.0))
        a = float(rng.uniform(0.3, 0.95))
        b = float(rng.uniform(0.15, 1.5))
        params = GaussianParams(a, b)
        outcome = erf_min_bound(c, params)
        if outcome.degenerate:
            continue
        checked += 1
        xs = np.linspace(0.0, 1.5 * x_end(params), 4001)
        samples = np.array([j_func(x, params) for x in xs])
        high = max(float(samples.max()), j_limit(params))
        low = min(0.0, float(samples.min()))
        oracle = ((high - low) + c * a) / f1(c)
        assert outcome.value >= oracle, (c, a, b)


def _suite_phi_sign():
    rng = np.random.default_rng(602)
    checked = 0
    while checked < 10_000:
        params = GaussianParams(float(rng.uniform(0.05, 2.5)), float(rng.uniform(0.05, 2.5)))
        x = float(rng.uniform(1e-6, 6.0))
        p = phi(x, params)
        if abs(p) < 1e-12:
            continue
        checked += 1
        assert (j_prime(x, params) > 0.0) == (p > 0.0), (params, x)


def _suite_two_by_two():
    rng = np.random.default_rng(603)
    worst = 0.0
    for _ in range(1000):
        a = np.diag(np.sort(rng.uniform(0.0, 4.0, size=2)))
        x = random_complex(rng, 2)
        f = random_concave(rng)
        for kind in kind_cycle(2):
            ratio = verify_conjecture_ratio(a, a, x, f, kind)
            worst = max(worst, ratio)
            assert ratio <= 1.0 + 1e-9
    return worst


def _suite_hilbert_schmidt():
    rng = np.random.default_rng(604)
    worst = 0.0
    hs = NormKind.hilbert_schmidt()
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        ratio = verify_conjecture_ratio(
            random_psd(rng, n), random_psd(rng, n), random_complex(rng, n),
            random_concave(rng), hs,
        )
        worst = max(worst, ratio)
        assert ratio <= 1.0 + 1e-9
    return worst


def _suite_exp_chain():
    rng = np.random.default_rng(605)
    for trial in range(1000):
        n = int(rng.integers(2, 6))
        x = random_complex(rng, n)
        x = x + x.conj().T
        x = x * (float(rng.uniform(0.05, 3.1)) / ui_norm(x, NormKind.operator()))
        y = random_complex(rng, n)
        kinds = kind_cycle(n)
        lhs, mid, rhs = verify_exp_equivalence(x, y, kinds[trial % len(kinds)])
        assert lhs <= mid + 1e-9
        assert mid <= rhs + 1e-9


def _suite_jensen():
    rng = np.random.default_rng(606)
    for trial in range(1000):
        n = int(rng.integers(2, 7))
        kinds = kind_cycle(n)
        lhs, rhs = verify_jensen(
            random_complex(rng, n), random_concave(rng), kinds[trial % len(kinds)]
        )
        assert lhs <= rhs + 1e-9


def _suite_lv_campaign():
    cfg = CampaignConfig(
        n_max=5,
        trials=2000,
        seed=2026,
        f="sqrt",
        norm=NormKind.operator(),
        a_equals_b=True,
        unit_norm_a=True,
        min_commutator=0.25,
    )
    report = monte_carlo_campaign(cfg)
    assert report.evaluated >= 1000
    assert report.max_ratio <= 1.0 + 1e-9
    return report.max_ratio


def _suite_invariance():
    rng = np.random.default_rng(607)
    op = NormKind.operator()
    for trial in range(1000):
        n = int(rng.integers(2, 7))
        kinds = kind_cycle(n)
        kind = kinds[trial % len(kinds)]
        x = random_complex(rng, n)
        u = random_unitary(rng, n)
        v = random_unitary(rng, n)
        base = ui_norm(x, kind)
        assert ui_norm(u @ x @ v, kind) == pytest.approx(base, abs=1e-9, rel=1e-9)
        y = random_complex(rng, n)
        z = random_complex(rng, n)
        assert ui_norm(x @ y @ z, kind) <= ui_norm(x, op) * ui_norm(y, kind) * ui_norm(z, op) + 1e-9


def test_criterion_6_property_suites():
    _suite_dense_oracle()
    _suite_phi_sign()
    worst_22 = _suite_two_by_two()
    worst_hs = _suite_hilbert_schmidt()
    _suite_exp_chain()
    _suite_jensen()
    lv_max = _suite_lv_campaign()
    _suite_invariance()
    print(
        f"criterion 6: dense-oracle ok, phi-sign ok, 2x2 max={worst_22!r}, "
        f"HS max={worst_hs!r}, exp-chain ok, jensen ok, LV max={lv_max!r}, "
        f"invariance ok"
    )


def test_criterion_7_monte_carlo_evidence(tmp_path):
    cfg = CampaignConfig(
        n_max=6,
        trials=100_000,
        seed=0,
        f="f1",
        norm=NormKind.operator(),
    )
    report = monte_carlo_campaign(cfg)
    with open(tmp_path / "campaign_evidence.json", "w") as handle:
        json.dump(report.to_dict(), handle, indent=2)
    print(f"criterion 7: observed max_ratio={report.max_ratio!r} over {report.trials} trials")
    assert report.evaluated == 100_000
    assert report.max_ratio <= 1.01975 + 1e-9, (
        f"observed ratio {report.max_ratio} exceeds the certified constant"
    )
