"""Tests for the committed Gaussian-mixture witnesses and their certifier."""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
import scipy.special
from scipy.optimize._highspy import _core as highs_core

from commbounds import approx
from commbounds.approx import (
    BadParameter,
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
from commbounds.cli import main
from commbounds.witnesses import (
    FIT_NODES,
    WIDTHS,
    _reduced_lp,
    _witness_lp,
    fit_witness,
    load_witnesses,
    table_path,
)

WITNESSES = load_witnesses()
SOURCE = str(Path(approx.__file__).resolve().parent.parent)


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


def large_mixtures(sizes=tuple(31 + n % 10 for n in range(20)), seed=20261019):
    """Seeded mixtures of the given sizes, drawn as random_mixtures draws them.

    By default twenty of 31 to 40 terms: they fill the size class 32-39
    and reach the next one, which RANDOM_MIXTURES, at 1 to 30 terms, does
    not.
    """
    rng = np.random.default_rng(seed)
    out = []
    for n, size in enumerate(sizes):
        b = rng.choice(WIDTHS, size) if n % 2 == 0 else 10.0 ** rng.uniform(-8.0, 3.0, size)
        if n % 5 == 0:
            b[-1] = b[0]
        w = rng.dirichlet(np.ones(size)) * rng.uniform(0.2, 1.5) * np.sqrt(b) * rng.uniform(0.5, 1.5, size)
        out.append(MixtureParams(tuple(float(v) for v in w), tuple(float(v) for v in b)))
    return out


def full_program():
    """Every row of the sampled program: erf(sqrt(b_k) x) and f1(x) per sample, then the limit."""
    xs = np.geomspace(1e-4, 1e8, 3000)
    rows = np.vstack((scipy.special.erf(np.outer(xs, np.sqrt(WIDTHS))), np.ones(WIDTHS.size)))
    return rows, np.append(xs / (xs + 1.0), 1.0)


def dense_matrix(lp):
    """The constraint matrix of a HiGHS program, as a dense array."""
    a = lp.a_matrix_
    return scipy.sparse.csc_array((a.value_, a.index_, a.start_), shape=(lp.num_row_, lp.num_col_)).toarray()


def highs_presolve(c):
    """HiGHS's own presolve of the witness program at c, as linprog(method="highs") runs it."""
    highs = highs_core._Highs()
    highs.setOptionValue("output_flag", False)
    lp = _witness_lp()
    cost = np.append(c / (0.5 * np.sqrt(np.pi / WIDTHS)), [1.0, -1.0])
    assert highs.passModel(lp) == highs_core.HighsStatus.kOk
    assert highs.changeColsCost(cost.size, np.arange(cost.size, dtype=np.int32), cost) == highs_core.HighsStatus.kOk
    assert highs.presolve() == highs_core.HighsStatus.kOk
    assert highs.getModelPresolveStatus() == highs_core.HighsPresolveStatus.kReduced
    return highs.getPresolvedLp()


def sampled_objective(params, c):
    """The program's objective at a witness: the sampled range of j, with j(0) = 0, plus c * L."""
    rows, target = full_program()
    b = np.asarray(params.b)
    j = target - rows[:, np.searchsorted(WIDTHS, b)] @ (np.asarray(params.w) * 0.5 * np.sqrt(np.pi / b))
    return max(j.max(), 0.0) - min(j.min(), 0.0) + c * math.fsum(params.w)


def linprog_witness(c):
    """The full witness program at c, written out densely and solved by linprog(method="highs")."""
    half_mass = 0.5 * np.sqrt(np.pi / WIDTHS)
    rows, target = full_program()
    ones, zeros = np.ones((target.size, 1)), np.zeros((target.size, 1))
    result = scipy.optimize.linprog(
        np.append(c / half_mass, [1.0, -1.0]),
        A_ub=np.block([[-rows, -ones, zeros], [rows, zeros, ones]]),
        b_ub=np.append(-target, target),
        bounds=[(0.0, None)] * (WIDTHS.size + 1) + [(None, 0.0)],
        method="highs",
    )
    assert result.status == 0, result.message
    mass = result.x[: WIDTHS.size]
    keep = mass > 0.0
    return MixtureParams(
        tuple(float(v) for v in mass[keep] / half_mass[keep]),
        tuple(float(v) for v in WIDTHS[keep]),
    )


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

    def test_payload_round_trip_over_the_table(self):
        entries = json.loads(table_path().read_text())["witnesses"]
        assert len(entries) == len(WITNESSES)
        for entry, params in zip(entries, WITNESSES):
            assert params.to_payload() == {"w": entry["w"], "b": entry["b"]}
            assert MixtureParams.from_payload(params.to_payload()) == params
            assert MixtureParams.from_payload(entry) == params

    def test_from_payload_converts_and_validates(self):
        params = MixtureParams.from_payload({"w": [1, np.float64(0.5)], "b": (2, 3.0)})
        assert params == MixtureParams((1.0, 0.5), (2.0, 3.0))
        assert all(type(v) is float for v in params.w + params.b)
        with pytest.raises(BadParameter, match="^weight must be a real number, got str '0.5'$"):
            MixtureParams.from_payload({"w": [1, "0.5"], "b": (2, 3.0)})
        with pytest.raises(DomainViolation, match="equally many weights and widths"):
            MixtureParams.from_payload({"w": [1.0, 2.0], "b": [1.0]})
        with pytest.raises(KeyError):
            MixtureParams.from_payload({"w": [1.0]})


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
        assert main(["fit-witnesses", "--out", str(out)]) == 0
        (entry,) = json.loads(out.read_text())["witnesses"]
        assert entry["c"] == float(FIT_NODES[0])
        assert MixtureParams(tuple(entry["w"]), tuple(entry["b"])) == WITNESSES[0]


class TestFitWitness:
    def test_matches_linprog_bit_for_bit(self):
        # The fits share one loaded program; this order shows that a fit
        # at one end of FIT_NODES leaves nothing behind for the next.
        order = (119, 0, 30, 60, 90, 0)
        expected = {k: linprog_witness(float(FIT_NODES[k])) for k in set(order)}
        for k in order:
            assert fit_witness(float(FIT_NODES[k])) == expected[k], k

    def test_program_keeps_the_tightest_of_equal_rows(self):
        rows, target = full_program()
        lp = _witness_lp()
        assert lp.num_row_ == 4386
        n = WIDTHS.size
        a = lp.a_matrix_
        matrix = scipy.sparse.csc_array((a.value_, a.index_, a.start_), shape=(lp.num_row_, lp.num_col_)).toarray()
        bound = np.asarray(lp.row_upper_)
        size = int((matrix[:, n] == -1.0).sum())
        assert (matrix[:size, n:] == [-1.0, 0.0]).all() and (matrix[size:, n:] == [0.0, 1.0]).all()
        index = {(row.tobytes(), t): k for k, (row, t) in enumerate(zip(rows, target))}
        sides = (
            (-matrix[:size, :n], -bound[:size], np.greater_equal),  # rows . v + u >= target
            (matrix[size:, :n], bound[size:], np.less_equal),  # rows . v + l <= target
        )
        for kept, kept_target, at_least_as_tight in sides:
            origin = [index[row.tobytes(), t] for row, t in zip(kept, kept_target)]
            assert (np.diff(origin) > 0).all()
            tightest = {row.tobytes(): t for row, t in zip(kept, kept_target)}
            assert len(tightest) == len(kept)
            for row, t in zip(rows, target):
                assert at_least_as_tight(tightest[row.tobytes()], t)

    def test_concurrent_fits(self):
        # Fits share only the loaded program, which none of them writes;
        # HiGHS runs without the interpreter lock, so these fits overlap.
        order = (119, 0, 60, 0)
        start = threading.Barrier(len(order))

        def fit(k):
            start.wait(timeout=60)
            return fit_witness(float(FIT_NODES[k]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(order)) as pool:
                futures = [pool.submit(fit, k) for k in order]
                fits = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert fits == [WITNESSES[k] for k in order]

    def test_reduced_program_is_highs_presolve(self):
        # The fits solve the program HiGHS's presolve gives, built once at
        # c = 1; presolve gives that same program at every cost tried.
        reduced, rows = _reduced_lp()
        matrix = dense_matrix(reduced)
        assert reduced.num_col_ == _witness_lp().num_col_
        assert len(rows) == reduced.num_row_ < _witness_lp().num_row_
        assert (np.diff(rows) > 0).all()
        assert (matrix == dense_matrix(_witness_lp())[rows]).all()
        for k in (0, 60, 119):
            presolved = highs_presolve(float(FIT_NODES[k]))
            assert (dense_matrix(presolved) == matrix).all(), k
            for bound in ("col_lower_", "col_upper_", "row_lower_", "row_upper_"):
                assert np.array_equal(getattr(presolved, bound), getattr(reduced, bound)), (k, bound)

    # tracemalloc's peak while _reduced_lp builds the row map, in MiB: about
    # 0.39 now that the map is read from the row names, about 23 when the
    # presolved matrix was read back from HiGHS, about 45.5 when the full
    # program's was read back too.
    ROW_MAP_PEAK_MIB = 35

    def test_row_map_reads_back_only_the_presolved_matrix(self, tmp_path):
        # A fresh interpreter, so the caches are cold and this session's are untouched.
        code = (
            "import tracemalloc\n"
            "from commbounds.witnesses import _reduced_lp, _witness_lp\n"
            "_witness_lp()\n"
            "tracemalloc.start()\n"
            "_reduced_lp()\n"
            "print(tracemalloc.get_traced_memory()[1] / 2**20)\n"
        )
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, (SOURCE, os.environ.get("PYTHONPATH")))),
            PYTHONDONTWRITEBYTECODE="1",
        )
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < self.ROW_MAP_PEAK_MIB

    # Away from FIT_NODES the restart may end at another optimal vertex
    # than linprog's; the objectives must still agree to this relative
    # tolerance, fixed before the test was first run.
    OFF_NODE_RTOL = 1e-4

    @pytest.mark.parametrize("c", [0.11661, 0.01, 0.005])
    def test_fits_off_the_nodes_are_as_good_as_linprog(self, c):
        fit = fit_witness(c)  # it returns only when both HiGHS stages end optimal
        expected = linprog_witness(c)
        assert sampled_objective(fit, c) == pytest.approx(sampled_objective(expected, c), rel=self.OFF_NODE_RTOL)
        mine, theirs = certify_mixture(fit), certify_mixture(expected)
        assert mine.osc + c * mine.L == pytest.approx(theirs.osc + c * theirs.L, rel=self.OFF_NODE_RTOL)

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_c_must_be_positive_and_finite(self, c):
        with pytest.raises(DomainViolation, match="positive and finite"):
            fit_witness(c)

    def test_a_fit_that_keeps_no_width(self):
        with pytest.raises(DomainViolation, match=r"c = 100000\.0 keeps no width: g = 0 is optimal"):
            fit_witness(1e5)


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

    def test_large_mixtures_alone_and_batched(self):
        large = large_mixtures()
        assert {len(p.b) for p in large} == set(range(31, 41))
        reference = [reference_certificate(p) for p in large]
        assert [certify_mixture(p) for p in large] == reference
        assert certify_mixtures(large) == reference
        mixed = large[::-1] + RANDOM_MIXTURES[::13] + WITNESSES[::9]
        assert certify_mixtures(mixed) == [reference_certificate(p) for p in mixed]

    def test_mixtures_above_forty_terms_alone_and_batched(self):
        # From 128 terms on a class is not padded, and above 128
        # _ordered_sum splits the terms in two parts.
        huge = large_mixtures((120, 127, 128, 129, 136, 200, 256, 300), seed=20261021)
        reference = [reference_certificate(p) for p in huge]
        assert [certify_mixture(p) for p in huge] == reference
        table = WITNESSES[::9]
        expected = reference + [reference_certificate(p) for p in table]
        assert certify_mixtures(huge + table) == expected

    def test_written_order_is_numpys_row_sum(self):
        # _ordered_sum adds the rows of a (K, n) array in the order that
        # numpy's sum(axis=-1) adds a row of K values; zero terms padded up
        # to the top of K's size class change no bit.  Sequential addition
        # differs from numpy for some K, so the order is not moot.
        rng = np.random.default_rng(7)
        sequential_differs = False
        for size in [*range(1, 41), 127, 128, 129, 200, 300]:
            rows = rng.random((256, size)) * 10.0 ** rng.uniform(-12.0, 0.0, (256, size))
            expected = rows.sum(axis=-1)
            assert (approx._ordered_sum(rows.T) == expected).all(), size
            top = size | 7 if size < 128 else size
            padded = np.vstack((rows.T, np.zeros((top - size, rows.shape[0]))))
            assert (approx._ordered_sum(padded) == expected).all(), size
            sequential_differs |= bool((np.cumsum(rows, axis=1)[:, -1] != expected).any())
        assert sequential_differs

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

    def test_round_zero_exit(self, monkeypatch):
        # With no cell to split, the loop ends right after round 0's row
        # reductions.
        monkeypatch.setattr(approx, "_REFINE_TOL", math.inf)
        for batch in (WITNESSES, RANDOM_MIXTURES[::4] + WITNESSES[::11]):
            assert certify_mixtures(batch) == [reference_certificate(p) for p in batch]
