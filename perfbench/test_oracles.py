"""Each of the benchmark's checks passes the program's output and rejects a tampered copy.

Run with `python3 -m pytest perfbench/test_oracles.py` from the root of the repository.
"""

import dataclasses
import importlib
import math

import numpy as np

import oracles
from commbounds import approx, formulas, matrixlab, optimize, witnesses
from workloads import FUNCTIONS, NORM_KINDS


def _nodes(points, index, C_k):
    return [dataclasses.replace(p, C_k=C_k) if i == index else p for i, p in enumerate(points)]


def test_mixture_node_lowered_below_its_sampled_value_is_rejected():
    points = optimize.certify_grid([0.0195, 0.2975, 1.0, 10.0, 40.0])
    assert oracles.check_mixture_nodes(points) == []
    p = points[1]
    (low, _), (high, _) = oracles.mixture_range(p.params.w, p.params.b)
    floor = (high - low + p.c * math.fsum(p.params.w)) * (p.c + 1.0) / p.c
    assert p.C_k >= floor
    errors = oracles.check_mixture_nodes(_nodes(points, 1, float(np.nextafter(floor, 0.0))))
    assert len(errors) == 1 and "below its witness's sampled functional" in errors[0]


def test_node_above_the_resolvent_bound_is_rejected():
    points = optimize.certify_grid([0.0195, 1.0])
    errors = oracles.check_mixture_nodes(_nodes(points, 0, 1.0195 * (1.0 + 1e-12)))
    assert len(errors) == 1 and "resolvent" in errors[0]


def test_resolvent_node_below_one_plus_c_is_rejected():
    node = optimize.BoundPoint(0.5, 1.5, None)
    assert oracles.check_mixture_nodes([node]) == []
    errors = oracles.check_mixture_nodes([dataclasses.replace(node, C_k=float(np.nextafter(1.5, 0.0)))])
    assert len(errors) == 1 and "below 1 + c" in errors[0]


def test_gaussian_node_lowered_below_its_dense_sample_is_rejected():
    points = optimize.optimize_grid([0.7, 2.0, 15.0])
    assert oracles.check_gaussian_nodes(points) == []
    p = points[2]
    floor = oracles.gaussian_functional(p.c, p.params.a, p.params.b)
    errors = oracles.check_gaussian_nodes(_nodes(points, 2, float(np.nextafter(floor, 0.0))))
    assert len(errors) == 1 and "dense-sample" in errors[0]


def test_pq_bound_lowered_below_its_dense_sample_is_rejected():
    nodes = [(c, *formulas.optimize_pq_f1(c)) for c in (0.05, 1.0, 12.0)]
    assert oracles.check_pq_nodes(nodes) == []
    c, _, params = nodes[1]
    floor = oracles.pq_functional(c, params.a, params.m)
    assert oracles.check_pq_nodes([(c, float(np.nextafter(floor, 0.0)), params)])


def test_narrowed_witness_enclosure_is_rejected():
    params = witnesses.load_witnesses()[40]
    cert = approx.certify_mixture(params)
    assert oracles.check_enclosure(params, cert.low, cert.high) == []
    (low, _), (high, _) = oracles.mixture_range(params.w, params.b)
    assert oracles.check_enclosure(params, cert.low, float(np.nextafter(high, 0.0)))
    assert oracles.check_enclosure(params, float(np.nextafter(low, 1.0)), cert.high)


def test_perturbed_campaign_ratio_is_rejected():
    cfg = matrixlab.CampaignConfig(n_max=4, trials=30, seed=3)
    argmax = matrixlab.monte_carlo_campaign(cfg).argmax
    A, B, X = (oracles.matrix_from_payload(argmax[k]) for k in "ABX")
    ratio = argmax["ratio"]
    assert oracles.check_recomputed(ratio, A, B, X, "f1", "operator") == []
    assert oracles.check_recomputed(ratio * (1.0 + 1e-8), A, B, X, "f1", "operator")
    assert oracles.check_recomputed(ratio * (1.0 - 1e-8), A, B, X, "f1", "operator")


def test_sweep_ratio_matches_eigh_and_svd_in_every_norm():
    rng = np.random.default_rng(5)
    A, B = (m @ m.conj().T for m in (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in "AB"))
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for f, fn in FUNCTIONS.items():
        for norm, kind in NORM_KINDS.items():
            ratio = matrixlab.verify_conjecture_ratio(A, B, X, fn, kind)
            assert oracles.check_recomputed(ratio, A, B, X, f, norm) == []
            assert oracles.check_ratio(ratio, f, norm) == []


def test_ratios_above_the_paper_constants_are_rejected():
    assert oracles.check_ratio(oracles.PAPER_C * (1.0 + 1e-12), "f1", "operator")
    assert oracles.check_ratio(oracles.PAPER_SQRT_C * (1.0 + 1e-12), "sqrt", "trace")
    assert oracles.check_ratio(1.0 + 2e-9, "f1", "hs")
    assert oracles.check_ratio(1.0, "sqrt", "hs") == []


def test_sqrt_constant_recomputation_matches_the_program():
    points = optimize.certify_grid(optimize.build_paper_grid())
    value = importlib.import_module("commbounds.stitch").sqrt_constant(points)
    exact = oracles.sqrt_constant_fsum([p.c for p in points], [p.C_k for p in points])
    assert abs(value - exact) <= 1e-12 * exact
