"""Tests for the pattern search and the grid certification driver."""

import hashlib
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    f1,
    node_value,
)
from commbounds.formulas import _pq_f1
from commbounds.optimize import (
    BoundPoint,
    build_paper_grid,
    certify_grid,
    hull_constant,
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
    """certify_grid's envelope over every (node, line) pair, as it was before pruning.

    The lines are the witnesses and then the two closed-form lines, the
    resolvent (osc 0, L 1) and g = 0 (osc 1, L 0).  node_value on every
    pair, argmin (first index on ties), then the resolvent cap.  Returns
    (C_k, witness index or None) per node; a closed-form line maps to None.
    """
    values = node_value(cs[:, None], np.append(osc, [0.0, 1.0]), np.append(L, [1.0, 0.0]))
    best = values.argmin(axis=1)
    envelope = values[np.arange(cs.size), best]
    resolvent = np.nextafter(cs + 1.0, np.inf)
    return [
        (float(r), None) if r < m else (float(m), int(k) if k < osc.size else None)
        for k, m, r in zip(best, envelope, resolvent)
    ]


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


def _clamp(point, lower, upper):
    out = []
    for value, lo, hi in zip(point, lower, upper):
        if lo is not None and value < lo:
            value = lo
        if hi is not None and value > hi:
            value = hi
        out.append(value)
    return tuple(out)


def reference_pattern_search_nd(objective, start, lower=None, upper=None):
    """pattern_search_nd's poll loop as it was before it moved a mutable point.

    It rebuilds every candidate tuple and tests each bound against None.
    The step constants and the evaluation cap are read from the module at
    call time, so a monkeypatched _MAX_EVALS applies here too.
    """
    dim = len(start)
    lower = tuple(lower) if lower is not None else (None,) * dim
    upper = tuple(upper) if upper is not None else (None,) * dim
    best = _clamp(tuple(float(v) for v in start), lower, upper)
    bounds = tuple(enumerate(zip(lower, upper)))
    f_best = objective(best)
    evals = 1
    step = optimize._INITIAL_STEP
    while step >= optimize._MIN_STEP and evals < optimize._MAX_EVALS:
        improved = False
        for axis, (lo, hi) in bounds:
            for sign in (1.0, -1.0):
                value = best[axis] + sign * step
                if lo is not None and value < lo:
                    value = lo
                if hi is not None and value > hi:
                    value = hi
                if value == best[axis] or not math.isfinite(value):
                    continue
                cand = best[:axis] + (value,) + best[axis + 1 :]
                f_cand = objective(cand)
                evals += 1
                if f_cand < f_best:
                    best, f_best = cand, f_cand
                    improved = True
                    break
                if evals >= optimize._MAX_EVALS:
                    break
            if improved or evals >= optimize._MAX_EVALS:
                break
        step = step * optimize._EXPAND if improved else step * optimize._SHRINK
    return best


def polled_search(search, objective, start, lower=None, upper=None):
    """Run search on objective; return its result and every (point, value) it polled."""
    polls = []

    def spy(point):
        assert type(point) is tuple
        value = objective(point)
        polls.append((point, value))
        return value

    return search(spy, start, lower=lower, upper=upper), polls


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


class TestPollLoopMatchesReference:
    """pattern_search_nd polls the points the reference loop polls, in its order.

    Both searches must see the same points and values, bit for bit, and
    return the same point.
    """

    def assert_same_search(self, objective, start, lower=None, upper=None):
        expected = polled_search(reference_pattern_search_nd, objective, start, lower, upper)
        found = polled_search(pattern_search_nd, objective, start, lower, upper)
        assert found == expected
        return found

    def test_upper_bounded_objectives(self):
        _, polls = self.assert_same_search(
            lambda t: (t[0] - 2.0) ** 2 + (t[1] + 3.0) ** 2,
            (1.0, -1.0),
            lower=(1e-8, None),
            upper=(None, 0.0),
        )
        assert any(point[1] == 0.0 for point, _ in polls[1:])
        best, _ = self.assert_same_search(
            lambda t: (t[0] - 2.0) ** 2 + (t[1] - 1.0) ** 2,
            (1.0, -1.0),
            upper=(None, 0.0),
        )
        assert best[1] == 0.0

    def test_inf_on_a_half_plane(self):
        def objective(t):
            if t[0] + 2.0 * t[1] > 1.0:
                return math.inf
            return (t[0] - 3.0) ** 2 + (t[1] - 2.0) ** 2

        best, polls = self.assert_same_search(objective, (0.0, 0.0))
        assert any(value == math.inf for _, value in polls)
        assert objective(best) < objective((0.0, 0.0))

    def test_three_axes(self):
        def objective(t):
            return (t[0] - 1.3) ** 2 + 2.0 * (t[1] + 0.7) ** 2 + (t[2] - t[0]) ** 4 + 0.1 * t[1] * t[2]

        best, polls = self.assert_same_search(
            objective, (0.2, 0.1, -0.4), lower=(0.0, None, -1.0), upper=(None, 0.5, 1.0)
        )
        assert len(polls) > 100
        assert best[2] == 1.0

    def test_chained_pq_f1(self):
        start = (1.0, -0.01)
        for c in (0.001, 0.05, 0.3, 1.0, 4.0, 15.0):
            scale = f1(c)
            start, _ = self.assert_same_search(
                lambda t, c=c, scale=scale: _pq_f1(c, scale, t[0], t[1]),
                start,
                lower=(1e-8, None),
                upper=(None, 0.0),
            )

    def test_evaluation_cap_ends_an_iteration_mid_poll(self, monkeypatch):
        def objective(t):
            return (t[0] - 2.0) ** 2 + (t[1] + 3.0) ** 2 + 0.5 * t[0] * t[1]

        mid_poll = []
        for cap in range(1, 40):
            monkeypatch.setattr(optimize, "_MAX_EVALS", cap)
            best, polls = self.assert_same_search(objective, (1.0, -1.0))
            assert len(polls) == cap
            # The last poll moved x0, did not improve and left the x1 polls.
            point, value = polls[-1]
            if point[0] != best[0] and point[1] == best[1] and value >= objective(best):
                mid_poll.append(cap)
        assert mid_poll


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

    def test_no_node_above_the_hull_constant(self):
        # Beyond the hull's last breakpoint g = 0 is the lowest line, and
        # every node there takes its bound (1 + c)/c.
        cs = np.geomspace(1e-4, 1e4, 2001)
        points = certify_grid(cs)
        assert max(p.C_k for p in points) <= hull_constant().C
        last = optimize._envelope()[-1][-1]
        beyond = [p for p in points if p.c > last]
        assert len(beyond) > 100
        assert all(p.params is None and p.C_k == node_value(p.c, 1.0, 0.0) for p in beyond)

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


class TestCertifyGridOverflow:
    @pytest.mark.parametrize("top", [1e300, sys.float_info.max])
    def test_no_warning_near_the_float_maximum(self, top):
        # Lines that lose overflow to inf there; the points must not
        # depend on whether numpy's warnings are errors.
        with np.errstate(over="ignore"):
            expected = certify_grid([1.0, top])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert certify_grid([1.0, top]) == expected


POSITIVE = st.floats(1e-4, 2.0)


@st.composite
def line_tables(draw):
    """Shuffled (osc, L) tables with repeated slopes, duplicated lines and near-collinear triples.

    A table starts from one to six random lines, then gains exact
    copies, lines with an existing slope, lines through the meeting
    point of two others moved by up to three ulps in osc, and three
    lines through one point (t, y), all dyadic with few bits so that
    they meet exactly.
    """
    osc, L = map(list, zip(*draw(st.lists(st.tuples(POSITIVE, POSITIVE), min_size=1, max_size=6))))
    for kind in draw(st.lists(st.sampled_from(["duplicate", "slope", "collinear", "pencil"]), max_size=6)):
        a, b = draw(st.integers(0, len(osc) - 1)), draw(st.integers(0, len(osc) - 1))
        if kind == "pencil":
            t, y = draw(st.integers(1, 64)) / 16, draw(st.integers(1, 64)) / 64
            for slope in draw(st.lists(st.integers(1, 128), min_size=3, max_size=3)):
                if y - t * slope / 64 > 0.0:
                    osc.append(y - t * slope / 64), L.append(slope / 64)
        elif kind == "duplicate":
            osc.append(osc[a]), L.append(L[a])
        elif kind == "slope":
            osc.append(draw(POSITIVE)), L.append(L[a])
        elif L[a] != L[b]:
            meet = (osc[b] - osc[a]) / (L[a] - L[b])
            slope = draw(POSITIVE)
            through = float(ulps(osc[a] + meet * (L[a] - slope), draw(st.integers(-3, 3))))
            if through > 0.0:
                osc.append(through), L.append(slope)
    order = draw(st.permutations(range(len(osc))))
    return np.array(osc)[order], np.array(L)[order]


# The middle line is lowest on an interval a few ulps long, but the
# plain-float pop test, (o3 - o2)(L1 - L2) > (o2 - o1)(L2 - L3), drops it.
NEAR_CONCURRENT = (
    np.array([0.6068066850147419, 1.1752024542265045, 7.733519780478512]),
    np.array([1.7649697537636322, 1.6924102171147826, 0.8551969721096504]),
)
# All three lines are on the hull, but the rounded meeting point of the
# last two is below that of the first two.
INVERTED_BREAKS = (
    np.array([0.597876741582038, 1.5302688748142852, 3.722427830699102]),
    np.array([1.4500855853578687, 1.1211074539309756, 0.3476428016738966]),
)


def meeting_points(osc, L):
    """Every positive float (osc_j - osc_i) / (L_i - L_j): each float breakpoint of the hull is one."""
    with np.errstate(divide="ignore", invalid="ignore"):
        meets = (osc[None, :] - osc[:, None]) / (L[:, None] - L[None, :])
    return sorted(set(meets[np.isfinite(meets) & (meets > 0.0)].tolist()))


def exact_lowest(osc, L):
    """The (osc, L) of the lines that are lowest on t > 0, by exact arithmetic, in order of t.

    Between two consecutive exact meeting points (and before the first,
    and after the last) no two distinct lines cross, so the lowest line
    at the midpoint is the lowest on that whole interval.
    """
    lines = [(Fraction(o), Fraction(a)) for o, a in zip(osc.tolist(), L.tolist())]
    meets = sorted(
        {(o2 - o1) / (a1 - a2) for o1, a1 in lines for o2, a2 in lines if a1 != a2 and (o2 - o1) / (a1 - a2) > 0}
    )
    ends = [Fraction(0), *meets, (meets[-1] if meets else Fraction(0)) + 2]
    lowest = []
    for left, right in zip(ends, ends[1:]):
        t = (left + right) / 2
        line = min(lines, key=lambda line: line[0] + t * line[1])
        if not lowest or lowest[-1] != line:
            lowest.append(line)
    return [(float(o), float(a)) for o, a in lowest]


class TestLowerHull:
    """The hull path of certify_grid against exact arithmetic and the full envelope."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(table=line_tables())
    @example(table=NEAR_CONCURRENT)
    @example(table=INVERTED_BREAKS)
    def test_lines_are_the_exact_lower_hull(self, table):
        osc, L = table
        lines, breaks = optimize._lower_hull(osc, L)
        assert list(zip(osc[lines].tolist(), L[lines].tolist())) == exact_lowest(osc, L)
        assert breaks.size == lines.size - 1
        assert (np.diff(breaks) >= 0.0).all() and (breaks > 0.0).all()
        for t, a, b in zip(breaks.tolist(), lines[:-1], lines[1:]):
            exact = (Fraction(osc[b]) - Fraction(osc[a])) / (Fraction(L[a]) - Fraction(L[b]))
            assert abs(Fraction(t) - exact) <= exact * Fraction(4 * sys.float_info.epsilon)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(table=line_tables(), data=st.data())
    def test_matches_full_envelope(self, table, data):
        osc, L = table
        meets = meeting_points(osc, L)
        cs = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=0 if meets else 1, max_size=20))
        if meets:
            cs += data.draw(st.lists(st.sampled_from(meets), min_size=1, max_size=8))
        cs = np.array(data.draw(st.permutations(cs)))
        with pytest.MonkeyPatch.context() as patch:
            assert pruned_envelope(patch, cs, osc, L) == full_envelope(cs, osc, L)

    def test_near_concurrent_table_matches_full_envelope(self, monkeypatch):
        osc, L = NEAR_CONCURRENT
        meets = meeting_points(osc, L)
        cs = np.array(sorted({ulps(t, d) for t in meets for d in range(-2, 3)} | set(np.geomspace(0.1, 10.0, 50))))
        assert pruned_envelope(monkeypatch, cs, osc, L) == full_envelope(cs, osc, L)

    def test_single_line(self):
        lines, breaks = optimize._lower_hull(np.array([0.3]), np.array([0.7]))
        assert lines.tolist() == [0] and breaks.size == 0


class TestHullConstant:
    def test_certified_sup_of_the_table(self):
        hull = hull_constant()
        assert 1.0186323 <= hull.C <= 1.01864
        assert hull.witness == 42
        assert hull.c == pytest.approx(0.2973204, abs=1e-7)
        assert max(p.C_k for p in certify_grid(build_paper_grid())) <= hull.C

    def test_bounds_a_dense_scan(self):
        certificates = optimize.certify_mixtures(load_witnesses())
        osc = np.array([cert.osc for cert in certificates] + [0.0, 1.0])
        L = np.array([cert.L for cert in certificates] + [1.0, 0.0])
        t = np.geomspace(1e-3, 200.0, 20001)
        scan = ((osc + t[:, None] * L) * (1.0 + t[:, None]) / t[:, None]).min(axis=1)
        hull = hull_constant()
        assert scan.max() <= hull.C <= scan.max() + 1e-6

    def test_small_table_against_exact_sup(self, monkeypatch):
        # The sup of min over lines of (osc + tL)(1 + t)/t, exactly, is taken
        # at a breakpoint of the exact hull; the bound is at least it and
        # only a few roundings above it.
        osc, L = [0.05, 0.2, 0.2, 0.5], [0.6, 0.3, 0.35, 0.05]
        tokens = [MixtureParams((1.0,), (float(k + 1),)) for k in range(len(osc))]
        certificates = [MixtureCertificate(0.0, o, o, a) for o, a in zip(osc, L)]
        monkeypatch.setattr(optimize, "load_witnesses", lambda: tokens)
        monkeypatch.setattr(optimize, "certify_mixtures", lambda witnesses: certificates)
        hull = hull_constant()
        lines = [(Fraction(o), Fraction(a)) for o, a in zip(osc + [0.0, 1.0], L + [1.0, 0.0])]
        lowest = [(Fraction(o), Fraction(a)) for o, a in exact_lowest(np.array(osc + [0.0, 1.0]), np.array(L + [1.0, 0.0]))]
        best = Fraction(0)
        for (o1, a1), (o2, a2) in zip(lowest, lowest[1:]):
            t = (o2 - o1) / (a1 - a2)
            best = max(best, min((o + t * a) * (1 + t) / t for o, a in lines))
        assert best <= Fraction(hull.C) <= best * (1 + Fraction(16 * sys.float_info.epsilon))
        assert hull.witness in (None, 0, 1, 3)
