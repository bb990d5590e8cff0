"""Tests for the pattern search and the grid certification driver."""

import hashlib
import math
import sys

import numpy as np
import pytest

from commbounds import optimize
from commbounds.approx import (
    DomainViolation,
    GaussianParams,
    MixtureCertificate,
    MixtureParams,
    NoSignChange,
    RootValidationFailed,
    certify_mixture,
    erf_min_bound,
    node_value,
)
from commbounds.optimize import (
    BoundPoint,
    build_paper_grid,
    certify_grid,
    optimize_grid,
    pattern_search,
    pattern_search_nd,
)
from commbounds.witnesses import load_witnesses


def penalized_bound(c):
    def objective(p):
        try:
            return erf_min_bound(c, p).value
        except (RootValidationFailed, DomainViolation):
            return math.inf

    return objective


def recorded_search(record):
    """pattern_search that appends every (params, value) it polls to a new list in record."""

    def search(objective, start):
        seen = []
        record.append(seen)

        def spy(params):
            value = objective(params)
            seen.append((params, value))
            return value

        return pattern_search(spy, start)

    return search


def reference_grid(grid):
    """optimize_grid without the memo: erf_min_bound on every poll.

    Returns the points and, per node, every (params, value) the search polled.
    """
    points, polls, start = [], [], GaussianParams(0.9, 0.5)
    search = recorded_search(polls)
    for c in grid:

        def objective(params, c=c):
            try:
                return erf_min_bound(c, params).value
            except (RootValidationFailed, DomainViolation, NoSignChange):
                return math.inf

        best = search(objective, start)
        value = objective(best)
        points.append(BoundPoint(c, value, best))
        start = best
    return points, polls


def full_envelope(cs, osc, L):
    """certify_grid's envelope over every (node, witness) pair, as it was before pruning.

    node_value on every pair, argmin (first index on ties), then the
    resolvent cap.  Returns (C_k, witness index or None) per node.
    """
    values = node_value(cs[:, None], osc, L)
    best = values.argmin(axis=1)
    envelope = values[np.arange(cs.size), best]
    resolvent = np.nextafter(cs + 1.0, np.inf)
    return [(float(r), None) if r < m else (float(m), int(k)) for k, m, r in zip(best, envelope, resolvent)]


def pruned_envelope(monkeypatch, cs, osc, L):
    """certify_grid on a table whose certified (osc, L) are given, as (C_k, witness index or None)."""
    tokens = [MixtureParams((1.0,), (float(k + 1),)) for k in range(osc.size)]
    certificates = [MixtureCertificate(0.0, o, o, a) for o, a in zip(osc.tolist(), L.tolist())]
    monkeypatch.setattr(optimize, "load_witnesses", lambda: tokens)
    monkeypatch.setattr(optimize, "certify_mixtures", lambda witnesses: certificates)
    index = {params: k for k, params in enumerate(tokens)}
    points = certify_grid(cs.tolist())
    assert [p.c for p in points] == cs.tolist()
    return [(p.C_k, None if p.params is None else index[p.params]) for p in points]


def ulps(value, count):
    """value moved by count ulps (down for negative count)."""
    for _ in range(abs(count)):
        value = np.nextafter(value, np.inf if count > 0 else -np.inf)
    return value


def near_tie_table(seed):
    """A random (osc, L) table with engineered near-ties, and nodes that exercise them.

    The base witnesses lie on a Pareto front (osc rising, L falling), so
    each wins somewhere.  Every base witness gets copies 1, 2, 8 and 63
    ulps away in osc or in L, either way, and every witness an exact
    duplicate.  The table is shuffled, so copies sit before and after
    their originals.  Then, at the first node where it can, the winner
    gets a copy at index 0 whose plain osc + c L is larger but whose
    node_value is equal once rounded upward.
    """
    rng = np.random.default_rng(seed)
    size = 12
    base_osc = np.sort(10.0 ** rng.uniform(-3.5, -0.5, size))
    base_L = np.sort(10.0 ** rng.uniform(-3.2, -0.05, size))[::-1]
    cs = np.sort(10.0 ** rng.uniform(-1.7, 1.6, 600))
    osc, L = list(base_osc), list(base_L)
    for o, a in zip(base_osc, base_L):
        for d in (1, 2, 8, 63):
            for sign in (1, -1):
                osc.append(ulps(o, sign * d)), L.append(a)
                osc.append(o), L.append(ulps(a, sign * d))
    order = rng.permutation(2 * len(osc))
    osc, L = np.array(osc * 2)[order], np.array(L * 2)[order]
    values = node_value(cs[:, None], osc, L)
    for c, row in zip(cs, values):
        winner = int(row.argmin())
        if not row[winner] < np.nextafter(c + 1.0, np.inf):
            continue
        o, a = osc[winner], L[winner]
        for d in range(1, 9):
            moved = ulps(o, d)
            if node_value(c, moved, a) == row[winner] and moved + c * a > o + c * a:
                return cs, np.concatenate(([moved], osc)), np.concatenate(([a], L))
    raise AssertionError("no copy ties only after upward rounding")


class TestSearchConstants:
    def test_step_control_values(self):
        # The certified single-Gaussian constants depend on these values.
        assert optimize._INITIAL_STEP == 0.5
        assert optimize._SHRINK == 0.5
        assert optimize._EXPAND == 2.0
        assert optimize._MIN_STEP == 1e-9
        assert optimize._MAX_EVALS == 20000
        assert optimize._LOWER_BOUNDS == (1e-8, 1e-8)


class TestPatternSearch:
    def test_known_quadratic(self):
        best = pattern_search(
            lambda p: (p.a - 1.0) ** 2 + (p.b - 2.0) ** 2, GaussianParams(3.0, 3.0)
        )
        assert abs(best.a - 1.0) < 1e-6
        assert abs(best.b - 2.0) < 1e-6

    def test_constant_objective_returns_start(self):
        start = GaussianParams(0.7, 1.3)
        assert pattern_search(lambda p: 5.0, start) == start

    def test_never_worse_than_start(self):
        rng = np.random.default_rng(3)
        objective = lambda p: (p.a * p.b - 1.0) ** 2 + (p.a - p.b) ** 4  # noqa: E731
        for _ in range(10):
            start = GaussianParams(float(rng.uniform(0.1, 4.0)), float(rng.uniform(0.1, 4.0)))
            best = pattern_search(objective, start)
            assert objective(best) <= objective(start)

    def test_respects_lower_bounds(self):
        best = pattern_search(lambda p: p.a + p.b, GaussianParams(1.0, 1.0))
        assert best.a == 1e-8
        assert best.b == 1e-8

    def test_determinism(self):
        objective = penalized_bound(2.0)
        start = GaussianParams(0.5, 0.3)
        assert pattern_search(objective, start) == pattern_search(objective, start)

    def test_bound_at_c1_beats_coarse_grid_oracle(self):
        objective = penalized_bound(1.0)
        best = pattern_search(objective, GaussianParams(0.5, 0.3))
        found = objective(best)
        # Coarse 200 x 200 scan of (a, b) in (0, 2]^2 as an upper-bound oracle.
        oracle = min(
            objective(GaussianParams(a, b))
            for a in np.linspace(0.01, 2.0, 200)
            for b in np.linspace(0.01, 2.0, 200)
        )
        assert found <= 1.0198
        assert found <= oracle + 1e-9

    def test_nd_with_upper_bounds(self):
        best = pattern_search_nd(
            lambda t: (t[0] - 2.0) ** 2 + (t[1] + 3.0) ** 2,
            (1.0, -1.0),
            lower=(1e-8, None),
            upper=(None, 0.0),
        )
        assert abs(best[0] - 2.0) < 1e-6
        assert abs(best[1] + 3.0) < 1e-6
        capped = pattern_search_nd(
            lambda t: (t[0] - 2.0) ** 2 + (t[1] - 1.0) ** 2,
            (1.0, -1.0),
            upper=(None, 0.0),
        )
        assert capped[1] == 0.0

    @pytest.mark.parametrize(
        "start, lower, upper",
        [
            ((1.0, 2.0), (0.5,), None),
            ((1.0, 2.0), None, (None, 3.0, 4.0)),
            ((), None, None),
            ((1.0, math.nan), None, None),
            ((math.inf, 1.0), None, (0.0, None)),
            ((1.0, 1.0), (None, math.inf), None),
        ],
    )
    def test_nd_rejects_bad_arguments_before_any_poll(self, start, lower, upper):
        calls = []
        with pytest.raises(DomainViolation):
            pattern_search_nd(lambda t: calls.append(t) or 0.0, start, lower=lower, upper=upper)
        assert calls == []


class TestPaperGrid:
    def test_endpoints_and_counts(self):
        grid = build_paper_grid()
        assert grid[0] == 0.0195
        assert grid[-1] == 40.0
        assert len(grid) == 5262
        assert grid[2961] == 1.5
        assert grid[2961 + 1700] == 10.0
        assert all(u < v for u, v in zip(grid, grid[1:]))

    def test_segment_spacings(self):
        diffs = np.diff(build_paper_grid())
        assert np.abs(diffs[:2961] - 0.0005).max() < 1e-12
        assert np.abs(diffs[2961:4661] - 0.005).max() < 1e-12
        assert np.abs(diffs[4661:] - 0.05).max() < 1e-12


class TestOptimizeGrid:
    def test_single_node_c1(self):
        points = optimize_grid([1.0])
        assert len(points) == 1
        point = points[0]
        assert isinstance(point, BoundPoint)
        assert not point.degenerate
        assert 1.0 <= point.C_k <= 1.0198
        # Certificate reproducibility: bit-identical re-evaluation.
        assert erf_min_bound(point.c, point.params).value == point.C_k

    def test_first_grid_node_respects_family_floor(self):
        # A dense log-grid scan of (a, b) with local polish puts the
        # family floor at c = 0.0195 near 9.37; no certificate can beat
        # it.  The contractual single start (0.9, 0.5) lands in a local
        # basin around 15.3, which is the documented deterministic
        # behaviour (no restarts in the default path).
        points = optimize_grid([0.0195])
        point = points[0]
        assert not point.degenerate
        assert 9.36 <= point.C_k <= 16.0
        assert erf_min_bound(point.c, point.params).value == point.C_k

    def test_grid_validation(self):
        with pytest.raises(DomainViolation):
            optimize_grid([1.0, 0.5])
        with pytest.raises(DomainViolation):
            optimize_grid([0.0])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DomainViolation):
                optimize_grid([0.5, bad])
        assert optimize_grid([]) == []

    def test_rejected_certification_is_reported(self, monkeypatch):
        def rejected(c, params):
            raise RootValidationFailed("stub rejection")

        monkeypatch.setattr(optimize, "erf_min_bound", rejected)
        (point,) = optimize_grid([1.0])
        assert point.degenerate
        assert point.C_k == math.inf
        assert point.params == GaussianParams(0.9, 0.5)

    @pytest.mark.parametrize(
        "offset, digest",
        [
            (0, "2f98cb51ad65cfe997a582cee344b884976208894645e02b14c6e1f1b75ab8c0"),
            (37, "10b46fe034898f1980298ddf53fb7c2395ec25f3e04cb74d47ae5a5de3b989c1"),
        ],
    )
    def test_chained_paper_subgrid_bits(self, offset, digest):
        # Every node of the chained single-Gaussian search, bit for bit; the
        # digests were computed before erf_min_bound's sign function and
        # bracketed_root's loop moved to bare floats.
        points = optimize_grid(build_paper_grid()[offset::50])
        records = [(p.c, p.C_k, p.params.a, p.params.b) for p in points]
        assert hashlib.sha256(repr(records).encode()).hexdigest() == digest

    def test_degenerate_certification_is_reported(self, monkeypatch):
        def degenerate(c, params):
            return erf_min_bound(c, GaussianParams(0.01, 1.0))

        assert degenerate(1.0, None).degenerate
        monkeypatch.setattr(optimize, "erf_min_bound", degenerate)
        (point,) = optimize_grid([1.0])
        assert point.degenerate
        assert point.C_k == math.inf
        assert point.params == GaussianParams(0.9, 0.5)


class TestOptimizeGridMemo:
    """One grid search scores a repeated (a, b) from its remembered spread.

    The memoised search must poll the same parameters, see the same values
    bit for bit and return the same points as a search that runs
    erf_min_bound on every poll.
    """

    def memo_grid(self, monkeypatch, grid):
        polls, evaluated = [], []

        def counted(c, params):
            evaluated.append((c, params))
            return erf_min_bound(c, params)

        monkeypatch.setattr(optimize, "pattern_search", recorded_search(polls))
        monkeypatch.setattr(optimize, "erf_min_bound", counted)
        points = optimize_grid(grid)
        return points, polls, evaluated

    @pytest.mark.parametrize("offset", [0, 37])
    def test_chained_paper_subgrid_matches_reference(self, monkeypatch, offset):
        grid = build_paper_grid()[offset::50]
        assert grid[-1] >= 5.0
        expected, expected_polls = reference_grid(grid)
        points, polls, evaluated = self.memo_grid(monkeypatch, grid)
        assert points == expected
        assert polls == expected_polls
        values = [value for seen in polls for _, value in seen]
        # Rejected pairs are remembered too, and most polls are repeats:
        # each distinct pair is evaluated once, the winners included.
        assert values.count(math.inf) > 0.05 * len(values)
        assert len(evaluated) == len({(p.a, p.b) for seen in polls for p, _ in seen})
        assert len(evaluated) < 0.6 * len(values)

    def test_memo_does_not_outlive_the_call(self, monkeypatch):
        grid = [0.8, 1.0, 1.3]
        _, _, first = self.memo_grid(monkeypatch, grid)
        _, _, second = self.memo_grid(monkeypatch, grid)
        assert first == second


class TestCertifyGrid:
    def test_order_does_not_change_any_node(self):
        grid = build_paper_grid()
        forward = {p.c: p for p in certify_grid(grid)}
        shuffled = list(grid)
        np.random.default_rng(11).shuffle(shuffled)
        for order in (grid[::-1], shuffled):
            points = certify_grid(order)
            assert [p.c for p in points] == order
            assert all(p == forward[p.c] for p in points)

    def test_node_reproduces_from_its_witness(self):
        for point in certify_grid([0.0195, 0.3, 1.0, 40.0]):
            assert isinstance(point.params, MixtureParams)
            cert = certify_mixture(point.params)
            assert node_value(point.c, cert.osc, cert.L) == point.C_k
            assert 1.0 <= point.C_k < 1.0 + point.c

    def test_beats_single_gaussian_search(self):
        (mixture,) = certify_grid([1.0])
        (single,) = optimize_grid([1.0])
        assert mixture.C_k <= single.C_k

    def test_resolvent_bound_below_the_table(self):
        (point,) = certify_grid([1e-4])
        assert point.params is None
        assert point.C_k == np.nextafter(1.0 + 1e-4, np.inf)

    def test_validation(self):
        assert certify_grid([]) == []
        for bad in ([0.0], [-1.0], [float("nan")], [1.0, float("inf")]):
            with pytest.raises(DomainViolation):
                certify_grid(bad)


class TestPrunedEnvelope:
    """certify_grid evaluates node_value only on the witnesses that can win.

    Each node's C_k and witness must be those of the envelope over every
    (node, witness) pair.
    """

    def test_paper_grid_matches_full_envelope(self):
        grid = build_paper_grid()
        witnesses = load_witnesses()
        index = {params: k for k, params in enumerate(witnesses)}
        certificates = optimize.certify_mixtures(witnesses)
        osc = np.array([cert.osc for cert in certificates])
        L = np.array([cert.L for cert in certificates])
        expected = full_envelope(np.array(grid), osc, L)
        points = certify_grid(grid)
        assert [(p.C_k, None if p.params is None else index[p.params]) for p in points] == expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_near_ties_match_full_envelope(self, monkeypatch, seed):
        cs, osc, L = near_tie_table(seed)
        expected = full_envelope(cs, osc, L)
        assert pruned_envelope(monkeypatch, cs, osc, L) == expected

        # The table reaches the cases the pruning must get right.
        h = osc + cs[:, None] * L
        winners = [(i, k) for i, (_, k) in enumerate(expected) if k is not None]
        assert len(winners) > 0.5 * cs.size
        # A winner whose plain osc + c L is not the least (a zero margin
        # would prune it) ...
        assert any(h[i, k] > h[i].min() for i, k in winners)
        # ... and a winner with an exact duplicate at a later index.
        assert any(
            any((osc[j], L[j]) == (osc[k], L[k]) for j in range(k + 1, osc.size)) for _, k in winners
        )

    def test_overflow_keeps_the_first_witness(self, monkeypatch):
        # At the largest float, 1 + c rounds upward to inf and so does
        # every node_value: argmin over all inf values is witness 0.
        cs = np.array([sys.float_info.max, 1.0])
        osc, L = np.array([0.5, 0.1, 0.2]), np.array([2.0, 0.5, 0.4])
        with np.errstate(over="ignore"):
            expected = full_envelope(cs, osc, L)
            assert pruned_envelope(monkeypatch, cs, osc, L) == expected
        assert expected[0] == (math.inf, 0)
