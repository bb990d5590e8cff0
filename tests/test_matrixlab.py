"""Tests for the finite-dimensional verification engine.

The module computes spectra with numpy.linalg, so the oracles for
eigenvalues, singular values and the conjecture ratio use no eigensolver
or an independent one: the closed-form 2x2 eigenvalues, mpmath's eighe
and svd_c at 30 digits, the resolvent identity for f1 (linear solves
only), scipy.linalg.eigh for f(A) and f(B) formed as matrices, and
scipy.linalg.expm for the unitary exponential.  The comparisons with
numpy.linalg stay as consistency checks.  The batched campaign is checked
trial by trial against a replay of its draws through
verify_conjecture_ratio.  The inequality checkers are exercised on random
instances and on the fixed counterexample data.
"""

import json
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from commbounds import matrixlab
from commbounds.approx import DomainViolation, f1
from commbounds.matrixlab import (
    BadParameter,
    CampaignConfig,
    NormKind,
    NotHermitian,
    SpectralRadiusTooLarge,
    ZeroDenominator,
    _campaign_shard,
    counterexample_report,
    hermitian_eig,
    monte_carlo_campaign,
    singular_values,
    ui_norm,
    verify_conjecture_ratio,
    verify_exp_equivalence,
    verify_jensen,
)

ALL_KINDS_3 = (
    NormKind.operator(),
    NormKind.ky_fan(2),
    NormKind.ky_fan(3),
    NormKind.schatten(1.5),
    NormKind.schatten(3.0),
    NormKind.trace(),
    NormKind.hilbert_schmidt(),
)


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m + m.conj().T


def random_complex(rng, n, k=None):
    k = n if k is None else k
    return rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))


def random_psd(rng, n):
    m = random_complex(rng, n)
    return m @ m.conj().T


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


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


def fro(a):
    return float(np.sqrt((np.abs(a) ** 2).sum()))


def to_mp(a):
    return mpmath.matrix([[complex(z) for z in row] for row in a])


class TestHermitianEig:
    def test_diagonal_real_matrix(self):
        a = np.diag([3.0, -1.0, 2.0])
        eigenvalues, vectors = hermitian_eig(a)
        assert np.array_equal(eigenvalues, np.array([-1.0, 2.0, 3.0]))
        perm = np.abs(vectors)
        assert np.array_equal(perm, perm.round())
        assert np.array_equal(perm.sum(axis=0), np.ones(3))

    def test_pauli_x(self):
        eigenvalues, _ = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-14)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 11))
            a = random_hermitian(rng, n)
            eigenvalues, vectors = hermitian_eig(a)
            scale = fro(a)
            assert fro((vectors * eigenvalues) @ vectors.conj().T - a) <= 1e-10 * scale
            assert fro(vectors.conj().T @ vectors - np.eye(n)) <= 1e-10

    def test_matches_numpy_eigvalsh(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 11))
            a = random_hermitian(rng, n)
            mine, _ = hermitian_eig(a)
            ref = np.linalg.eigvalsh(a)
            assert np.max(np.abs(mine - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))

    def test_two_by_two_closed_form(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a, d = rng.uniform(-5.0, 5.0, size=2)
            b = complex(rng.standard_normal(), rng.standard_normal()) * 10.0 ** rng.uniform(-6, 1)
            root = math.sqrt((a - d) ** 2 + 4.0 * abs(b) ** 2)
            exact = [(a + d - root) / 2.0, (a + d + root) / 2.0]
            mine, _ = hermitian_eig(np.array([[a, b], [b.conjugate(), d]]))
            assert np.max(np.abs(mine - exact)) <= 1e-14 * max(1.0, abs(a), abs(d), root)

    def test_matches_mpmath_eighe(self):
        rng = np.random.default_rng(9)
        with mpmath.workdps(30):
            for _ in range(30):
                n = int(rng.integers(1, 7))
                a = random_hermitian(rng, n)
                ref = np.array(sorted(float(e) for e in mpmath.mp.eighe(to_mp(a), eigvals_only=True)))
                mine, _ = hermitian_eig(a)
                assert np.max(np.abs(mine - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))

    def test_larger_matrix(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 24)
        eigenvalues, vectors = hermitian_eig(a)
        assert fro((vectors * eigenvalues) @ vectors.conj().T - a) <= 1e-10 * fro(a)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 6)
        values1, vectors1 = hermitian_eig(a)
        values2, vectors2 = hermitian_eig(a)
        assert np.array_equal(values1, values2)
        assert np.array_equal(vectors1, vectors2)

    def test_returns_the_pair_eigh_gives(self):
        rng = np.random.default_rng(6)
        a = random_hermitian(rng, 5)
        eigenvalues, vectors = hermitian_eig(a)
        ref_values, ref_vectors = np.linalg.eigh(0.5 * (a + a.conj().T))
        assert np.array_equal(eigenvalues, ref_values)
        assert np.array_equal(vectors, ref_vectors)

    def test_zero_and_scalar(self):
        eigenvalues, _ = hermitian_eig(np.zeros((4, 4)))
        assert np.array_equal(eigenvalues, np.zeros(4))
        eigenvalues, _ = hermitian_eig(np.array([[2.5]]))
        assert eigenvalues[0] == 2.5

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(DomainViolation):
            hermitian_eig(np.zeros((2, 3)))
        with pytest.raises(DomainViolation):
            hermitian_eig(np.array([1.0, 2.0]))
        with pytest.raises(DomainViolation):
            hermitian_eig(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestSingularValues:
    def test_identity(self):
        assert np.array_equal(singular_values(np.eye(4)), np.ones(4))

    def test_matches_numpy_svd(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, 9))
            x = random_complex(rng, n, k)
            mine = singular_values(x)
            ref = np.linalg.svd(x, compute_uv=False)
            assert mine.shape == ref.shape
            assert np.max(np.abs(mine - ref)) <= 1e-9 * max(1.0, ref[0])

    def test_matches_mpmath_svd(self):
        rng = np.random.default_rng(14)
        with mpmath.workdps(30):
            for _ in range(30):
                n = int(rng.integers(1, 7))
                k = int(rng.integers(1, 7))
                x = random_complex(rng, n, k)
                ref = np.array(sorted((float(s) for s in mpmath.mp.svd_c(to_mp(x), compute_uv=False)), reverse=True))
                mine = singular_values(x)
                assert mine.shape == ref.shape
                assert np.max(np.abs(mine - ref)) <= 1e-13 * max(1.0, ref[0])

    def test_descending_order(self):
        rng = np.random.default_rng(12)
        sv = singular_values(random_complex(rng, 7))
        assert np.all(np.diff(sv) <= 0.0)
        assert sv[-1] >= 0.0

    def test_psd_matrix_gives_eigenvalues(self):
        rng = np.random.default_rng(13)
        a = random_psd(rng, 5)
        sv = singular_values(a)
        ref = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.max(np.abs(sv - ref)) <= 1e-9 * ref[0]


class TestNormKind:
    def test_parameter_validation(self):
        with pytest.raises(BadParameter):
            NormKind.ky_fan(0)
        with pytest.raises(BadParameter):
            NormKind.ky_fan(True)
        with pytest.raises(BadParameter):
            NormKind("kyfan", k=None)
        with pytest.raises(BadParameter):
            NormKind.schatten(0.5)
        with pytest.raises(BadParameter):
            NormKind("schatten")
        with pytest.raises(BadParameter):
            NormKind("operator", k=2)
        with pytest.raises(BadParameter):
            NormKind("trace", p=2.0)
        with pytest.raises(BadParameter):
            NormKind("spectral")

    def test_string_forms(self):
        assert str(NormKind.operator()) == "operator"
        assert str(NormKind.ky_fan(3)) == "kyfan:3"
        assert str(NormKind.schatten(1.5)) == "schatten:1.5"
        assert str(NormKind.trace()) == "trace"
        assert str(NormKind.hilbert_schmidt()) == "hs"

    def test_simple_values(self):
        d = np.diag([3.0, 1.0])
        assert ui_norm(d, NormKind.operator()) == pytest.approx(3.0, abs=1e-12)
        assert ui_norm(d, NormKind.ky_fan(2)) == pytest.approx(4.0, abs=1e-12)
        assert ui_norm(d, NormKind.trace()) == pytest.approx(4.0, abs=1e-12)
        assert ui_norm(d, NormKind.hilbert_schmidt()) == pytest.approx(
            math.sqrt(10.0), abs=1e-12
        )
        assert ui_norm(d, NormKind.schatten(1.0)) == pytest.approx(4.0, abs=1e-12)

    def test_kyfan_full_equals_trace_and_schatten2_equals_hs(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            x = random_complex(rng, n)
            assert ui_norm(x, NormKind.ky_fan(n)) == pytest.approx(
                ui_norm(x, NormKind.trace()), rel=1e-12
            )
            assert ui_norm(x, NormKind.schatten(2.0)) == pytest.approx(
                ui_norm(x, NormKind.hilbert_schmidt()), rel=1e-12
            )

    def test_schatten_large_p_at_extreme_scales(self):
        # (sum s^p)^(1/p) overflows or underflows in floats at p = 400 when
        # s is 10 or 1e-3; mpmath's exponent range holds the sum exactly.
        assert ui_norm(10.0 * np.eye(2), NormKind.schatten(400.0)) == pytest.approx(
            10.0 * 2.0 ** (1.0 / 400.0), rel=1e-14
        )
        assert ui_norm(1e-3 * np.eye(2), NormKind.schatten(400.0)) == pytest.approx(
            1e-3 * 2.0 ** (1.0 / 400.0), rel=1e-14
        )
        assert ui_norm(np.zeros((2, 3)), NormKind.schatten(400.0)) == 0.0
        rng = np.random.default_rng(23)
        with mpmath.workdps(30):
            for p in (50.0, 400.0, 5000.0):
                for scale in (1e-30, 1e-3, 10.0, 1e30):
                    x = scale * random_complex(rng, 4, 3)
                    values = mpmath.mp.svd_c(to_mp(x), compute_uv=False)
                    ref = float(mpmath.fsum(s**p for s in values) ** (1 / mpmath.mpf(p)))
                    assert ui_norm(x, NormKind.schatten(p)) == pytest.approx(ref, rel=1e-13)

    def test_hs_at_extreme_scales(self):
        # sqrt(sum s^2) underflows to 0 at 1e-170 and overflows at 1e160.
        for scale in (1e-170, 1e160):
            assert ui_norm(scale * np.eye(2), NormKind.hilbert_schmidt()) == pytest.approx(
                math.sqrt(2.0) * scale, rel=1e-15
            )
        rng = np.random.default_rng(26)
        with mpmath.workdps(30):
            for scale in (1e-150, 1e150):
                for _ in range(5):
                    x = scale * random_complex(rng, 4, 3)
                    values = mpmath.mp.svd_c(to_mp(x), compute_uv=False)
                    ref = float(mpmath.sqrt(mpmath.fsum(s**2 for s in values)))
                    assert ui_norm(x, NormKind.hilbert_schmidt()) == pytest.approx(ref, rel=1e-13)

    def test_every_kind_is_a_ky_fan_or_schatten_formula(self):
        rng = np.random.default_rng(27)
        for n in range(1, 7):
            scale = 10.0 ** rng.uniform(-5.0, 5.0)
            x = scale * (rng.standard_normal((20, n, n)) + 1j * rng.standard_normal((20, n, n)))
            s = np.linalg.svd(x, compute_uv=False)
            np.testing.assert_array_equal(matrixlab._norm(x, NormKind.operator()), s[:, 0])
            np.testing.assert_array_equal(matrixlab._norm(x, NormKind.trace()), s.sum(axis=-1))
            for k in range(1, n + 1):
                np.testing.assert_array_equal(matrixlab._norm(x, NormKind.ky_fan(k)), s[:, :k].sum(axis=-1))
            np.testing.assert_array_equal(
                matrixlab._norm(x, NormKind.hilbert_schmidt()), matrixlab._norm(x, NormKind.schatten(2.0))
            )
            for matrix in x:
                values = singular_values(matrix)
                assert ui_norm(matrix, NormKind.operator()) == values[0]
                assert ui_norm(matrix, NormKind.trace()) == values.sum()
                assert ui_norm(matrix, NormKind.ky_fan(n)) == values[:n].sum()

    def test_parse_inverts_str(self):
        rng = np.random.default_rng(28)
        kinds = ALL_KINDS_3 + (
            NormKind.ky_fan(7),
            NormKind.schatten(1.2345678),
            NormKind.schatten(400.0),
            NormKind.schatten(1e20),
            *(NormKind.schatten(p) for p in rng.uniform(1.0, 100.0, size=200)),
        )
        for kind in kinds:
            assert NormKind.parse(str(kind)) == kind
        assert str(NormKind.schatten(1.2345678)) == "schatten:1.2345678"
        assert str(NormKind.schatten(400.0)) == "schatten:400"
        assert NormKind.parse(" Hilbert-Schmidt ") == NormKind.hilbert_schmidt()
        assert NormKind.parse("KYFAN:3") == NormKind.ky_fan(3)
        for bad in ("spectral", "", "kyfan", "kyfan:2.5", "schatten:inf", "trace:1", "hilbert-schmidt:2"):
            with pytest.raises(BadParameter):
                NormKind.parse(bad)

    def test_kyfan_out_of_range_at_evaluation(self):
        with pytest.raises(BadParameter):
            ui_norm(np.eye(2), NormKind.ky_fan(3))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            x = random_complex(rng, n)
            y = random_complex(rng, n)
            for kind in ALL_KINDS_3 if n >= 3 else (NormKind.operator(), NormKind.trace()):
                if kind.tag == "kyfan" and kind.k > n:
                    continue
                assert ui_norm(x + y, kind) <= ui_norm(x, kind) + ui_norm(y, kind) + 1e-9

    def test_unitary_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(3, 7))
            x = random_complex(rng, n)
            u = random_unitary(rng, n)
            v = random_unitary(rng, n)
            for kind in ALL_KINDS_3:
                if kind.tag == "kyfan" and kind.k > n:
                    continue
                assert ui_norm(u @ x @ v, kind) == pytest.approx(
                    ui_norm(x, kind), abs=1e-9, rel=1e-9
                )

    def test_three_factor_norm_bound(self):
        rng = np.random.default_rng(24)
        op = NormKind.operator()
        for _ in range(30):
            n = int(rng.integers(3, 7))
            x = random_complex(rng, n)
            y = random_complex(rng, n)
            z = random_complex(rng, n)
            for kind in ALL_KINDS_3:
                if kind.tag == "kyfan" and kind.k > n:
                    continue
                lhs = ui_norm(x @ y @ z, kind)
                rhs = ui_norm(x, op) * ui_norm(y, kind) * ui_norm(z, op)
                assert lhs <= rhs + 1e-9

    def test_ky_fan_dominance_implies_all_kinds(self):
        rng = np.random.default_rng(25)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(3, 7))
            x = random_complex(rng, n)
            if checked % 2 == 0:
                y = float(rng.uniform(1.0, 3.0)) * random_unitary(rng, n) @ x
            else:
                y = random_complex(rng, n)
            sx = np.cumsum(singular_values(x))
            sy = np.cumsum(singular_values(y))
            if not np.all(sx <= sy + 1e-12):
                continue
            checked += 1
            for kind in ALL_KINDS_3:
                if kind.tag == "kyfan" and kind.k > n:
                    continue
                assert ui_norm(x, kind) <= ui_norm(y, kind) + 1e-9
        assert checked >= 50


def spectral_f(a, f):
    """f(A) = V diag(f(lambda)) V*, from hermitian_eig's eigenbasis and
    _f_spectrum's checked, clamped map: the pieces verify_conjecture_ratio
    applies to A and B, which it never forms f(A) from."""
    eigenvalues, vectors = hermitian_eig(a)
    return (vectors * matrixlab._f_spectrum(f, eigenvalues)) @ vectors.conj().T


class TestMatrixFunction:
    def test_identity_function(self):
        rng = np.random.default_rng(31)
        a = random_psd(rng, 5)
        out = spectral_f(a, lambda x: x)
        assert fro(out - a) <= 1e-10 * fro(a)

    def test_sqrt_on_diagonal(self):
        out = spectral_f(np.diag([4.0, 9.0]), math.sqrt)
        assert fro(out - np.diag([2.0, 3.0])) <= 1e-12

    def test_spectral_mapping(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = random_psd(rng, n)
            out = spectral_f(a, f1)
            mapped = np.sort([f1(v) for v in np.linalg.eigvalsh(a).clip(0.0)])
            got = np.sort(np.linalg.eigvalsh(out))
            assert np.max(np.abs(got - mapped)) <= 1e-9

    def test_f1_resolvent_identity(self):
        # f1(A)X - Xf1(B) = (A+1)^-1 (AX - XB) (B+1)^-1, which needs only linear solves.
        rng = np.random.default_rng(35)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            a = random_psd(rng, n)
            b = random_psd(rng, n)
            x = random_complex(rng, n)
            eye = np.eye(n)
            left = np.linalg.solve(a + eye, a @ x - x @ b)
            exact = np.linalg.solve((b + eye).T, left.T).T
            mine = spectral_f(a, f1) @ x - x @ spectral_f(b, f1)
            assert fro(mine - exact) <= 1e-13 * max(1.0, fro(a), fro(b)) * fro(x)

    def test_commutes_with_argument(self):
        rng = np.random.default_rng(33)
        a = random_psd(rng, 6)
        out = spectral_f(a, math.sqrt)
        assert fro(out @ a - a @ out) <= 1e-9 * max(1.0, fro(a))

    def test_output_hermitian(self):
        rng = np.random.default_rng(34)
        a = random_psd(rng, 5)
        out = spectral_f(a, math.sqrt)
        assert fro(out - out.conj().T) <= 1e-12 * max(1.0, fro(out))

    def test_clamps_roundoff_negatives(self):
        out = spectral_f(np.diag([-1e-12, 1.0]), math.sqrt)
        assert out[0, 0].real == pytest.approx(0.0, abs=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(DomainViolation):
            spectral_f(np.diag([-0.5, 1.0]), math.sqrt)
        # The roundoff tolerance is 1e-10 times the largest eigenvalue
        # (here -1e-4), so -1e-3 is a genuine negative eigenvalue.
        with pytest.raises(DomainViolation):
            spectral_f(np.diag([-1e-3, 1e6]), math.sqrt)

    def test_accepts_scaled_rank_deficient_psd(self):
        # Rank-2 4x4 PSD matrices scaled to norm 1e6: eigh puts their zero
        # eigenvalues near -1e-10 in absolute terms, which is roundoff at
        # this scale.
        rng = np.random.default_rng(36)
        for _ in range(50):
            m = random_complex(rng, 4, 2)
            a = m @ m.conj().T
            a = 1e6 * a / np.linalg.eigvalsh(a)[-1]
            out = spectral_f(a, math.sqrt)
            assert fro(out @ out - a) <= 1e-9 * fro(a)


def exp_i(x):
    """e^{iX} as verify_exp_equivalence forms it, from X's spectrum."""
    return matrixlab._unitary(*hermitian_eig(x))


class TestUnitaryExp:
    def test_matches_scipy_expm(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            x = random_hermitian(rng, n)
            mine = exp_i(x)
            ref = scipy.linalg.expm(1j * x)
            assert fro(mine - ref) <= 1e-9 * max(1.0, fro(ref))

    def test_result_unitary(self):
        rng = np.random.default_rng(42)
        u = exp_i(random_hermitian(rng, 6))
        assert fro(u.conj().T @ u - np.eye(6)) <= 1e-10

    def test_zero_gives_identity(self):
        assert fro(exp_i(np.zeros((3, 3))) - np.eye(3)) <= 1e-14

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            verify_exp_equivalence(np.array([[0.0, 1.0], [0.5, 0.0]]), np.eye(2), NormKind.operator())


class TestGenCommutator:
    """AX - XB, which verify_conjecture_ratio forms from A, B and X as given
    for its denominator, against the numerator it takes in the eigenbasis."""

    def test_identity_with_equal_sides_vanishes(self):
        rng = np.random.default_rng(51)
        a = random_psd(rng, 4)
        for kind in ALL_KINDS_3:
            assert verify_conjecture_ratio(a, a, np.eye(4), f1, kind) == 0.0

    def test_diagonal_conjugation_entries(self):
        # AX - XA has entries (4 - 1) 5 and (1 - 4) 7, and sqrt(A)X - X sqrt(A)
        # has (2 - 1) 5 and (1 - 2) 7: singular values 3 (7, 5) and (7, 5),
        # as X has, so every norm gives 1 / sqrt(3).
        a = np.diag([4.0, 1.0])
        x = np.array([[0.0, 5.0], [7.0, 0.0]])
        for kind in (NormKind.operator(), NormKind.ky_fan(2), NormKind.schatten(1.5), NormKind.trace()):
            ratio = verify_conjecture_ratio(a, a, x, math.sqrt, kind)
            assert ratio == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)

    def test_matches_direct_arithmetic(self):
        # With f(t) = t the numerator is U*(AX - XB)V and the denominator
        # ||AX - XB||, so the ratio is 1 up to roundoff, X rectangular too.
        rng = np.random.default_rng(52)
        for _ in range(20):
            a = random_psd(rng, 3)
            b = random_psd(rng, 5)
            x = random_complex(rng, 3, 5)
            for kind in ALL_KINDS_3:
                assert verify_conjecture_ratio(a, b, x, lambda t: t, kind) == pytest.approx(1.0, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainViolation):
            verify_conjecture_ratio(np.eye(3), np.eye(2), np.eye(3), f1, NormKind.operator())


def reference_ratio(a, b, x, f, kind):
    """The conjecture ratio with f(A) and f(B) formed as matrices from
    scipy.linalg.eigh, and the numerator as the norm of f(A)X - Xf(B)."""

    def f_of(m):
        values, vectors = scipy.linalg.eigh(m)
        return (vectors * [f(max(float(v), 0.0)) for v in values]) @ vectors.conj().T

    nx = ui_norm(x, kind)
    numerator = ui_norm(f_of(a) @ x - x @ f_of(b), kind)
    return numerator / (nx * f(ui_norm(a @ x - x @ b, kind) / nx))


class TestConjectureRatio:
    def test_matches_scipy_reference_every_kind(self):
        rng = np.random.default_rng(75)
        shapes = [(n, n) for n in (3, 4, 5, 6)] + [(3, 5), (5, 3)]
        for rows, cols in shapes:
            for _ in range(10):
                a = random_psd(rng, rows)
                b = random_psd(rng, cols)
                x = random_complex(rng, rows, cols)
                for f in (f1, math.sqrt, random_concave(rng)):
                    for kind in ALL_KINDS_3:
                        ratio = verify_conjecture_ratio(a, b, x, f, kind)
                        assert ratio == pytest.approx(reference_ratio(a, b, x, f, kind), rel=1e-12, abs=0.0)

    def test_singular_a_under_sqrt_matches_reference(self):
        # A zero first or last row of A's factor gives A a zero first or last
        # row and column, and both eigensolvers then return the eigenvalue 0
        # with no roundoff (a zero middle row does not); a roundoff-sized
        # eigenvalue would move sqrt by about 1e-8 and the ratio far past 1e-12.
        rng = np.random.default_rng(76)
        for rows, cols in ((3, 3), (3, 5), (4, 2)):
            for _ in range(10):
                m = random_complex(rng, rows)
                m[int(rng.choice([0, rows - 1]))] = 0.0
                a = m @ m.conj().T
                b = random_psd(rng, cols)
                x = random_complex(rng, rows, cols)
                assert hermitian_eig(a)[0][0] <= 0.0 and scipy.linalg.eigh(a)[0][0] <= 0.0
                for kind in (NormKind.operator(), NormKind.ky_fan(2), NormKind.trace(), NormKind.hilbert_schmidt()):
                    ratio = verify_conjecture_ratio(a, b, x, math.sqrt, kind)
                    assert ratio == pytest.approx(reference_ratio(a, b, x, math.sqrt, kind), rel=1e-12, abs=0.0)

    def test_schatten_large_p_on_scaled_wishart(self):
        rng = np.random.default_rng(77)
        kind = NormKind.schatten(400.0)
        for _ in range(10):
            a = 100.0 * random_psd(rng, 4)
            b = 100.0 * random_psd(rng, 4)
            x = random_complex(rng, 4)
            ratio = verify_conjecture_ratio(a, b, x, f1, kind)
            assert math.isfinite(ratio) and ratio > 0.0
            assert ratio == pytest.approx(reference_ratio(a, b, x, f1, kind), rel=1e-12, abs=0.0)

    def test_hs_ratio_with_tiny_x_matches_schatten_2(self):
        a = np.diag([1.0, 2.0])
        b = np.array([[3.0, 1.0], [1.0, 0.5]])
        x = 1e-170 * np.ones((2, 2))
        ratio = verify_conjecture_ratio(a, b, x, f1, NormKind.hilbert_schmidt())
        assert ratio > 0.0
        assert ratio == verify_conjecture_ratio(a, b, x, f1, NormKind.schatten(2.0))

    def test_f1_ratio_matches_resolvent_identity(self):
        # f1(A)X - Xf1(B) = (A+1)^-1 (AX - XB) (B+1)^-1, which needs only
        # linear solves: a reference numerator that uses no eigensolver.
        rng = np.random.default_rng(35)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            a, b, x = random_psd(rng, n), random_psd(rng, n), random_complex(rng, n)
            eye = np.eye(n)
            commutator = a @ x - x @ b
            left = np.linalg.solve(a + eye, commutator)
            numerator = np.linalg.solve((b + eye).T, left.T).T
            for kind in ALL_KINDS_3:
                if kind.tag == "kyfan" and kind.k > n:
                    continue
                nx = ui_norm(x, kind)
                want = ui_norm(numerator, kind) / (nx * f1(ui_norm(commutator, kind) / nx))
                assert verify_conjecture_ratio(a, b, x, f1, kind) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_accepts_scaled_rank_deficient_psd(self):
        # Rank-2 4x4 PSD matrices scaled to norm 1e6: eigh puts their zero
        # eigenvalues near -1e-10 in absolute terms, which is roundoff at
        # this scale, so sqrt sees them clamped to 0 and nothing is rejected.
        rng = np.random.default_rng(36)
        for _ in range(50):
            m = random_complex(rng, 4, 2)
            a = m @ m.conj().T
            a = 1e6 * a / np.linalg.eigvalsh(a)[-1]
            ratio = verify_conjecture_ratio(a, a, random_complex(rng, 4), math.sqrt, _OP)
            assert math.isfinite(ratio) and ratio > 0.0

    def test_rejects_non_psd_a_and_skew_b(self):
        x = np.array([[1.0, 0.5j], [0.2, 1.0]])
        with pytest.raises(DomainViolation):
            verify_conjecture_ratio(np.diag([-0.5, 1.0]), np.eye(2), x, f1, NormKind.operator())
        with pytest.raises(DomainViolation):
            verify_conjecture_ratio(np.eye(2), np.diag([1e6, -1e-3]), x, f1, NormKind.operator())
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(NotHermitian):
            verify_conjecture_ratio(np.eye(2), skew, x, f1, NormKind.operator())
        with pytest.raises(NotHermitian):
            verify_conjecture_ratio(2.0 * np.eye(2) + 1e-9 * skew, np.eye(2), x, f1, NormKind.operator())

    def test_scalar_multiples_of_identity_report_zero(self):
        ratio = verify_conjecture_ratio(
            2.0 * np.eye(3), 2.0 * np.eye(3), np.eye(3), f1, NormKind.operator()
        )
        assert ratio == 0.0

    def test_zero_x_rejected(self):
        with pytest.raises(ZeroDenominator):
            verify_conjecture_ratio(
                np.eye(2), np.eye(2), np.zeros((2, 2)), f1, NormKind.operator()
            )

    def test_two_by_two_equal_sides_all_kinds(self):
        rng = np.random.default_rng(71)
        kinds = (
            NormKind.operator(),
            NormKind.ky_fan(2),
            NormKind.schatten(1.5),
            NormKind.trace(),
            NormKind.hilbert_schmidt(),
        )
        for _ in range(100):
            a = np.diag(np.sort(rng.uniform(0.0, 4.0, size=2)))
            x = random_complex(rng, 2)
            f = random_concave(rng)
            for kind in kinds:
                ratio = verify_conjecture_ratio(a, a, x, f, kind)
                assert ratio <= 1.0 + 1e-9

    def test_scalar_form_of_two_by_two_inequality(self):
        rng = np.random.default_rng(72)
        for _ in range(300):
            f = random_concave(rng)
            a1, a2 = np.sort(rng.uniform(0.0, 5.0, size=2))
            t = float(rng.uniform(0.0, 1.0))
            assert t * (f(a2) - f(a1)) <= f(t * (a2 - a1)) + 1e-12

    def test_hilbert_schmidt_kind_any_sides(self):
        rng = np.random.default_rng(73)
        hs = NormKind.hilbert_schmidt()
        for _ in range(100):
            n = int(rng.integers(2, 6))
            a = random_psd(rng, n)
            b = random_psd(rng, n)
            x = random_complex(rng, n)
            f = random_concave(rng)
            ratio = verify_conjecture_ratio(a, b, x, f, hs)
            assert ratio <= 1.0 + 1e-9

    def test_operator_norm_f1_stays_under_global_constant(self):
        rng = np.random.default_rng(74)
        worst = 0.0
        for _ in range(500):
            n = int(rng.integers(2, 6))
            a = random_psd(rng, n)
            b = random_psd(rng, n)
            x = random_complex(rng, n)
            x = x / ui_norm(x, NormKind.operator())
            worst = max(worst, verify_conjecture_ratio(a, b, x, f1, NormKind.operator()))
        assert worst <= 1.01975 + 1e-9
        assert worst > 0.5

    def test_one_hermitian_eig_call_per_side(self, monkeypatch):
        # The traced benchmark counters time hermitian_eig inside the ratio.
        sizes = []
        original = matrixlab.hermitian_eig

        def counting(A):
            sizes.append(len(A))
            return original(A)

        monkeypatch.setattr(matrixlab, "hermitian_eig", counting)
        rng = np.random.default_rng(78)
        verify_conjecture_ratio(random_psd(rng, 3), random_psd(rng, 5), random_complex(rng, 3, 5), f1, _OP)
        assert sizes == [3, 5]


class TestExpEquivalence:
    def test_zero_x_gives_zero_chain(self):
        rng = np.random.default_rng(81)
        y = random_complex(rng, 3)
        lhs, mid, rhs = verify_exp_equivalence(np.zeros((3, 3)), y, NormKind.operator())
        assert lhs == 0.0 and mid == 0.0 and rhs == 0.0

    def test_one_by_one_all_zero(self):
        lhs, mid, rhs = verify_exp_equivalence(
            np.array([[0.7]]), np.array([[1.0]]), NormKind.trace()
        )
        assert lhs == pytest.approx(0.0, abs=1e-14)
        assert mid == pytest.approx(0.0, abs=1e-14)

    def test_chain_on_random_instances(self):
        rng = np.random.default_rng(82)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            x = random_hermitian(rng, n)
            x = x / ui_norm(x, NormKind.operator())
            y = random_complex(rng, n)
            for kind in (NormKind.operator(), NormKind.trace(), NormKind.hilbert_schmidt()):
                lhs, mid, rhs = verify_exp_equivalence(x, y, kind)
                assert lhs <= mid + 1e-9
                assert mid <= rhs + 1e-9

    def test_rejects_spectral_radius_at_pi(self):
        with pytest.raises(SpectralRadiusTooLarge):
            verify_exp_equivalence(np.diag([math.pi, 0.0]), np.eye(2), NormKind.operator())


class TestJensen:
    def test_multiple_of_identity_is_equality(self):
        y = 1.7 * np.eye(4)
        for kind in ALL_KINDS_3 + (NormKind.ky_fan(4),):
            lhs, rhs = verify_jensen(y, math.sqrt, kind)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_linear_f_is_equality(self):
        rng = np.random.default_rng(101)
        y = random_complex(rng, 4)
        for kind in ALL_KINDS_3 + (NormKind.ky_fan(4),):
            lhs, rhs = verify_jensen(y, lambda x: x, kind)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_sqrt_on_random_y_every_ky_fan(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            y = random_complex(rng, n)
            for k in range(1, n + 1):
                lhs, rhs = verify_jensen(y, math.sqrt, NormKind.ky_fan(k))
                assert lhs <= rhs + 1e-9

    def test_concave_family_all_kinds(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            n = int(rng.integers(3, 7))
            y = random_complex(rng, n)
            f = random_concave(rng)
            for kind in ALL_KINDS_3:
                if kind.tag == "kyfan" and kind.k > n:
                    continue
                lhs, rhs = verify_jensen(y, f, kind)
                assert lhs <= rhs + 1e-9


class TestCounterexampleReport:
    def test_singular_value_triples(self):
        report = counterexample_report()
        assert report["sigma_commutator"] == pytest.approx(
            [1.7546, 1.7036, 0.0510], abs=5e-5
        )
        assert report["sigma_exp_commutator"] == pytest.approx(
            [1.6546, 1.6027, 0.0519], abs=5e-5
        )

    def test_trace_norm_reversal(self):
        report = counterexample_report()
        assert report["trace_norm_f_exp"] == pytest.approx(2.6976, abs=5e-4)
        assert report["trace_norm_f_commutator"] == pytest.approx(2.6953, abs=5e-4)
        assert report["trace_norm_f_exp"] > report["trace_norm_f_commutator"]
        assert report["reversal"] is True

    def test_commutator_dominates_in_first_two_slots_only(self):
        report = counterexample_report()
        comm = report["sigma_commutator"]
        expc = report["sigma_exp_commutator"]
        assert comm[0] > expc[0] and comm[1] > expc[1]
        assert comm[2] < expc[2]


# Each public entry with a valid argument set (H is Hermitian PSD with
# operator norm below pi), and the arguments whose math needs them Hermitian.
_H = np.array([[2.0, 0.5], [0.5, 1.0]])
_M = np.array([[0.3, 0.1j], [0.2, 0.4]])
_OP = NormKind.operator()
BOUNDARY_ENTRIES = {
    "hermitian_eig": (hermitian_eig, {"A": _H}, ("A",)),
    "singular_values": (singular_values, {"X": _M}, ()),
    "ui_norm": (lambda X: ui_norm(X, _OP), {"X": _M}, ()),
    "verify_conjecture_ratio": (
        lambda A, B, X: verify_conjecture_ratio(A, B, X, f1, _OP),
        {"A": _H, "B": _H, "X": _M},
        ("A", "B"),
    ),
    "verify_exp_equivalence": (lambda X, Y: verify_exp_equivalence(X, Y, _OP), {"X": _H, "Y": _M}, ("X",)),
    "verify_jensen": (lambda Y: verify_jensen(Y, math.sqrt, _OP), {"Y": _M}, ()),
}


def _nan_entry(m):
    out = np.array(m, dtype=np.complex128)
    out[0, 0] = np.nan
    return out


def boundary_rows():
    """(entry, argument, bad input, expected error) for every entry and argument.

    A 2 x 3 matrix is valid input to singular_values and ui_norm; a 3 x 3
    matrix among 2 x 2 ones is a size mismatch.
    """
    for entry, (_, good, hermitian) in BOUNDARY_ENTRIES.items():
        for arg in good:
            yield entry, arg, "nan", DomainViolation
            if entry not in ("singular_values", "ui_norm"):
                yield entry, arg, "2x3", DomainViolation
            if len(good) > 1:
                yield entry, arg, "size-mismatch", DomainViolation
            if arg in hermitian:
                yield entry, arg, "non-hermitian", NotHermitian


BAD_INPUTS = {
    "nan": _nan_entry,
    "2x3": lambda m: np.ones((2, 3)),
    "size-mismatch": lambda m: np.diag([1.0, 2.0, 3.0]),
    "non-hermitian": lambda m: np.array([[0.0, 1.0], [0.0, 0.0]]),
}


@pytest.mark.parametrize(
    "entry, arg, bad, error", list(boundary_rows()), ids=lambda v: v if isinstance(v, str) else v.__name__
)
def test_boundary_rejects_each_bad_argument(entry, arg, bad, error):
    call, good, _ = BOUNDARY_ENTRIES[entry]
    call(**good)
    with pytest.raises(error):
        call(**{**good, arg: BAD_INPUTS[bad](good[arg])})


# verify_conjecture_ratio, hermitian_eig, _check_hermitian, _psd_clip and
# _f_values as they were before a single matrix's spectrum went through one
# pass (_check_hermitian returning the adjoint, _f_spectrum).  The one-pass
# code must give every ratio, exception type and message of these bit for bit.


def _reference_check_hermitian(m: np.ndarray, name: str = "matrix") -> None:
    """Reject a square m with ||m - m*|| > 1e-12 ||m|| in the Frobenius norm."""
    if np.linalg.norm(m - m.conj().T) > 1e-12 * np.linalg.norm(m):
        raise NotHermitian(f"{name} is not Hermitian within 1e-12 relative tolerance")


def _reference_hermitian_eig(A):
    h = matrixlab._as_square(A)
    _reference_check_hermitian(h)
    return matrixlab._eigh_hermitian_part(h)


def _reference_psd_clip(eigenvalues: np.ndarray) -> np.ndarray:
    """An ascending spectrum, or a stack of them, checked PSD and clamped at 0.

    A spectrum is PSD when its least eigenvalue is at least
    -1e-10 max(1, largest eigenvalue); the roundoff negatives become 0.
    """
    low = eigenvalues[..., 0]
    negative = low < -1e-10 * np.maximum(1.0, eigenvalues[..., -1])
    if negative.any():
        raise DomainViolation(f"matrix has negative eigenvalue {np.min(low[negative])}, not PSD")
    return np.clip(eigenvalues, 0.0, None)


def _reference_f_values(f, values: np.ndarray) -> np.ndarray:
    """A scalar f applied to each entry of a 1-d float array."""
    return np.array([f(v) for v in values.tolist()], dtype=float)


def reference_conjecture_ratio(A, B, X, f, kind: NormKind) -> float:
    x = matrixlab._as_matrix(X, "X")
    lam, u = _reference_hermitian_eig(A)
    mu, v = _reference_hermitian_eig(B)
    lam, mu = _reference_psd_clip(lam), _reference_psd_clip(mu)
    if x.shape != (len(lam), len(mu)):
        raise DomainViolation(f"X must be {len(lam)} x {len(mu)}, got {x.shape}")
    a, b = (np.asarray(m, dtype=np.complex128) for m in (A, B))
    numerator_matrix = matrixlab._eigenbasis_commutator(
        _reference_f_values(f, lam), u, _reference_f_values(f, mu), v, x
    )
    singulars = np.linalg.svd(np.array((x, numerator_matrix, a @ x - x @ b)), compute_uv=False)
    nx, numerator, nk = (float(value) for value in matrixlab._norm_from_singulars(singulars, kind))
    if nx == 0.0:
        raise ZeroDenominator("X has zero norm")
    denominator = nx * f(nk / nx)
    if denominator == 0.0:
        if numerator <= 1e-12 * max(nx, 1.0):
            return 0.0
        raise ZeroDenominator(
            f"denominator vanished with numerator {numerator:.3e}"
        )
    return numerator / denominator


def _outcome(call, *args):
    """repr of the result, or (type, message) of the exception raised."""
    try:
        return repr(call(*args))
    except Exception as exc:  # the comparison covers every error alike
        return type(exc), str(exc)


# ALL_KINDS_3 holds kyfan:3; Schatten 400 adds the large-p scaling.
ONE_PASS_KINDS = ALL_KINDS_3 + (NormKind.schatten(400.0),)
ONE_PASS_SHAPES = [(n, n) for n in range(2, 7)] + [(3, 5), (5, 3), (4, 2)]


def one_pass_instances(rng, rows, cols):
    """(label, A, B, X) around one random draw of the given shape.

    Besides the plain draw: A = B; A singular with an exact zero
    eigenvalue; X = 0; A shifted so that its least eigenvalue lands near
    the PSD threshold on either side; A with a skew part near the
    Hermitian tolerance on either side; A and B as nested lists.
    """
    a, b, x = random_psd(rng, rows), random_psd(rng, cols), random_complex(rng, rows, cols)
    yield "plain", a, b, x
    if rows == cols:
        yield "a-equals-b", a, a, x
    m = random_complex(rng, rows)
    m[int(rng.choice([0, rows - 1]))] = 0.0
    yield "singular", m @ m.conj().T, b, x
    yield "zero-x", a, b, np.zeros((rows, cols))
    values = np.linalg.eigvalsh(a)
    shift = values[0] + 1e-10 * max(1.0, values[-1]) * float(rng.uniform(0.5, 1.5))
    yield "psd-edge", a - shift * np.eye(rows), b, x
    skew = random_hermitian(rng, rows) * 1j
    scale = 0.5e-12 * fro(a) / fro(skew) * float(rng.uniform(0.5, 1.5))
    yield "hermitian-edge", a + scale * skew, b, x
    yield "lists", a.tolist(), b.tolist(), x


class TestOnePassMatchesReference:
    def test_every_ratio_and_error_bit_for_bit(self):
        rng = np.random.default_rng(79)
        calls = 0
        labels = set()
        for rows, cols in ONE_PASS_SHAPES:
            for _ in range(3):
                fs = (f1, math.sqrt, random_concave(rng))
                for label, a, b, x in one_pass_instances(rng, rows, cols):
                    for f in fs:
                        for kind in ONE_PASS_KINDS:
                            expected = _outcome(reference_conjecture_ratio, a, b, x, f, kind)
                            assert _outcome(verify_conjecture_ratio, a, b, x, f, kind) == expected, (label, kind)
                            labels.add((label, isinstance(expected, str)))
                            calls += 1
        assert calls >= 3000
        # Each edge case both passes and fails somewhere in the sweep.
        for label in ("psd-edge", "hermitian-edge"):
            assert (label, True) in labels and (label, False) in labels
        assert ("zero-x", False) in labels and ("singular", True) in labels

    @pytest.mark.parametrize(
        "arg, bad",
        [(arg, bad) for entry, arg, bad, _ in boundary_rows() if entry == "verify_conjecture_ratio"],
    )
    def test_boundary_errors_bit_for_bit(self, arg, bad):
        _, good, _ = BOUNDARY_ENTRIES["verify_conjecture_ratio"]
        args = {**good, arg: BAD_INPUTS[bad](good[arg])}
        expected = _outcome(reference_conjecture_ratio, args["A"], args["B"], args["X"], f1, _OP)
        assert isinstance(expected, tuple)
        assert _outcome(verify_conjecture_ratio, args["A"], args["B"], args["X"], f1, _OP) == expected

    def test_matrix_function_bit_for_bit(self):
        rng = np.random.default_rng(80)
        for n in range(1, 7):
            for _ in range(5):
                a = random_psd(rng, n)
                values = np.linalg.eigvalsh(a)
                edge = a - (values[0] + 1e-10 * max(1.0, values[-1]) * float(rng.uniform(0.5, 1.5))) * np.eye(n)
                for m in (a, edge):
                    for f in (f1, math.sqrt):
                        try:
                            got = spectral_f(m, f)
                        except DomainViolation as exc:
                            got = str(exc)
                        try:
                            eigenvalues, vectors = _reference_hermitian_eig(m)
                            clipped = _reference_psd_clip(eigenvalues)
                            want = (vectors * _reference_f_values(f, clipped)) @ vectors.conj().T
                        except DomainViolation as exc:
                            want = str(exc)
                        if isinstance(want, str):
                            assert got == want
                        else:
                            assert got.tobytes() == want.tobytes()


class TestOnePassPieces:
    def test_frobenius_is_numpy_norm_bit_for_bit(self):
        rng = np.random.default_rng(81)
        for exponent in range(-150, 151, 5):
            scale = 10.0**exponent
            for rows, cols in ((1, 1), (2, 2), (3, 5), (6, 6), (7, 4)):
                m = scale * random_complex(rng, rows, cols)
                views = [m, m.T, m.conj(), m.conj().T, m[::-1, ::2], m.T[:, ::-1]]
                if rows == cols:
                    views.append(m - m.conj().T)
                for view in views:
                    want = np.linalg.norm(view)
                    assert repr(matrixlab._frobenius(view)) == repr(float(want))

    def test_check_hermitian_matches_reference_at_the_tolerance(self):
        rng = np.random.default_rng(82)
        accepted = rejected = 0
        for n in range(1, 7):
            for _ in range(40):
                h = random_hermitian(rng, n)
                skew = 1j * random_hermitian(rng, n)
                # ||m - m*|| = 2 t ||skew||, so t near this crosses the tolerance.
                t = 0.5e-12 * fro(h) / fro(skew) * float(rng.uniform(0.9, 1.1))
                m = h + t * skew
                try:
                    _reference_check_hermitian(m, "A")
                    want = None
                except NotHermitian as exc:
                    want = str(exc)
                try:
                    adjoint = matrixlab._check_hermitian(m, "A")
                    assert adjoint.tobytes() == m.conj().T.tobytes()
                    got = None
                except NotHermitian as exc:
                    got = str(exc)
                assert got == want
                accepted += want is None
                rejected += want is not None
        assert accepted > 20 and rejected > 20

    @staticmethod
    def spectrum_outcomes(spectrum):
        """(_psd_clip, _f_spectrum with the identity): the clamped floats
        as reprs, so the sign of zero counts, or the error message."""
        outcomes = []
        for call in (matrixlab._psd_clip, lambda s: matrixlab._f_spectrum(lambda v: v, s)):
            try:
                outcomes.append([repr(v) for v in call(np.array(spectrum)).tolist()])
            except DomainViolation as exc:
                outcomes.append(str(exc))
        return outcomes

    @pytest.mark.parametrize("top", [0.25, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 7.5, 3e8])
    def test_spectrum_rule_and_clamp_match_psd_clip(self, top):
        top = float(top)
        threshold = -1e-10 * max(1.0, top)
        below, above = float(np.nextafter(threshold, -1.0)), float(np.nextafter(threshold, 0.0))
        for low, accepted in ((threshold, True), (below, False), (above, True), (-0.0, True), (0.0, True)):
            for middle in ((), (-0.0,), (0.0,), (low, -5e-324, -0.0, 0.0, 5e-324, top / 2.0)):
                clip, one_pass = self.spectrum_outcomes([low, *middle, top])
                assert one_pass == clip
                assert isinstance(clip, list) == accepted
                if accepted:
                    assert "-0.0" not in clip
                else:
                    assert clip == f"matrix has negative eigenvalue {low!r}, not PSD"

    def test_nan_spectrum_matches_psd_clip(self):
        # np.maximum(1, nan) is nan, so no least eigenvalue is rejected
        # against it, and np.clip keeps a nan.
        for spectrum in ([-1e-3, math.nan], [math.nan, 1.0], [-0.0, math.nan, math.nan]):
            clip, one_pass = self.spectrum_outcomes(spectrum)
            assert one_pass == clip and isinstance(clip, list)


def replay_shard(cfg, shard, trials):
    """Per-trial reference for one campaign shard.

    Draws each trial from default_rng((seed, shard)) in the documented
    order, one n x n block at a time: n (at least k for a Ky Fan k), the
    real and imaginary parts of A's Wishart factor, of B's (without
    a_equals_b), then of X.  Each
    trial goes through verify_conjecture_ratio on its own.  Returns the
    (trial, ratio) pairs of the evaluated trials and the skipped count.
    """
    rng = np.random.default_rng((cfg.seed, shard))
    f = {"f1": f1, "sqrt": math.sqrt}[cfg.f]

    def complex_normal(n):
        return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)

    smallest = max(2, cfg.norm.k) if cfg.norm.tag == "kyfan" else 2
    evaluated, skipped = [], 0
    for trial in range(trials):
        n = int(rng.integers(smallest, cfg.n_max + 1))
        m = complex_normal(n)
        a = m @ m.conj().T
        if cfg.unit_norm_a:
            a = a / np.linalg.eigvalsh(a)[-1]
        if cfg.a_equals_b:
            b = a
        else:
            m = complex_normal(n)
            b = m @ m.conj().T
            if cfg.unit_norm_a:
                b = b / np.linalg.eigvalsh(b)[-1]
        x = complex_normal(n)
        x = x / ui_norm(x, cfg.norm)
        if cfg.min_commutator is not None and ui_norm(a @ x - x @ b, cfg.norm) < cfg.min_commutator:
            skipped += 1
            continue
        try:
            evaluated.append((trial, verify_conjecture_ratio(a, b, x, f, cfg.norm)))
        except ZeroDenominator:
            skipped += 1
    return evaluated, skipped


REFERENCE_CONFIGS = [
    CampaignConfig(n_max=6, trials=1200, seed=17, f=f, norm=kind)
    for f in ("f1", "sqrt")
    for kind in (
        NormKind.operator(),
        NormKind.ky_fan(2),
        NormKind.schatten(3.0),
        NormKind.trace(),
        NormKind.hilbert_schmidt(),
    )
] + [
    CampaignConfig(n_max=6, trials=1200, seed=17, f="f1", norm=NormKind.ky_fan(3)),
    CampaignConfig(
        n_max=5, trials=1200, seed=17, f="sqrt", a_equals_b=True, unit_norm_a=True, min_commutator=0.25
    ),
]


class TestCampaign:
    @pytest.mark.parametrize("cfg", REFERENCE_CONFIGS, ids=lambda cfg: f"{cfg.f}-{cfg.norm}-{cfg.a_equals_b}")
    def test_batched_shards_match_per_trial_reference(self, cfg):
        report = monte_carlo_campaign(cfg)
        skipped = 0
        best = None  # (ratio, shard, trial), earliest wins ties
        for shard, size in enumerate((1000, cfg.trials - 1000)):
            evaluated, shard_skipped = replay_shard(cfg, shard, size)
            result = _campaign_shard((cfg, shard, size))
            ref = np.array([ratio for _, ratio in evaluated])
            assert result["ratios"].shape == ref.shape
            np.testing.assert_allclose(result["ratios"], ref, rtol=1e-12, atol=0.0)
            assert result["skipped"] == shard_skipped
            skipped += shard_skipped
            for trial, ratio in evaluated:
                if ratio > 0.0 and (best is None or ratio > best[0]):
                    best = (ratio, shard, trial)
        assert report.skipped == skipped
        assert report.evaluated == cfg.trials - skipped
        assert (report.argmax["shard"], report.argmax["trial"]) == best[1:]
        assert report.argmax["ratio"] == pytest.approx(best[0], rel=1e-12, abs=0.0)
        if cfg.min_commutator is not None:
            assert skipped > 0

    def test_config_validation(self):
        with pytest.raises(DomainViolation):
            CampaignConfig(n_max=1)
        with pytest.raises(DomainViolation):
            CampaignConfig(trials=0)
        with pytest.raises(DomainViolation):
            CampaignConfig(threads=0)
        with pytest.raises(BadParameter):
            CampaignConfig(f="cube")
        for bad in (float("nan"), float("inf"), -0.5):
            with pytest.raises(DomainViolation):
                CampaignConfig(min_commutator=bad)
        assert CampaignConfig(min_commutator=0.0).min_commutator == 0.0
        with pytest.raises(BadParameter):
            CampaignConfig(norm=NormKind.ky_fan(7))
        assert CampaignConfig(n_max=7, norm=NormKind.ky_fan(7)).n_max == 7

    def test_ky_fan_campaign_draws_n_at_least_k(self):
        # A 2 x 2 trial has no third singular value, so n is drawn from [3, n_max].
        report = monte_carlo_campaign(CampaignConfig(trials=200, seed=1, norm=NormKind.ky_fan(3)))
        assert report.evaluated + report.skipped == 200
        assert len(report.argmax["A"]) >= 3
        cfg = CampaignConfig(n_max=4, trials=20, seed=2, norm=NormKind.ky_fan(4))
        assert len(monte_carlo_campaign(cfg).argmax["X"]) == 4

    @pytest.mark.parametrize(
        "norm, where, ratio",
        [(NormKind.operator(), (1, 587), 0.9057561315064879), (NormKind.ky_fan(2), (0, 941), 0.9144427191105341)],
        ids=str,
    )
    def test_ky_fan_rule_keeps_draws_of_k_at_most_2(self, norm, where, ratio):
        # Reference values of the draw of n from [2, n_max], which every norm
        # but a Ky Fan k > 2 keeps.
        report = monte_carlo_campaign(CampaignConfig(trials=2000, seed=11, norm=norm))
        assert (report.argmax["shard"], report.argmax["trial"]) == where
        assert len(report.argmax["A"]) == 2
        assert report.evaluated == 2000
        assert report.max_ratio == pytest.approx(ratio, rel=1e-12, abs=0.0)

    def test_single_trial_reproducible(self):
        cfg = CampaignConfig(n_max=3, trials=1, seed=9)
        r1 = monte_carlo_campaign(cfg)
        r2 = monte_carlo_campaign(cfg)
        assert r1.max_ratio == r2.max_ratio
        assert r1.to_dict() == r2.to_dict()
        assert r1.evaluated == 1

    def test_thread_count_does_not_change_results(self):
        base = CampaignConfig(n_max=3, trials=1500, seed=4, threads=1)
        twice = CampaignConfig(n_max=3, trials=1500, seed=4, threads=2)
        r1 = monte_carlo_campaign(base)
        r2 = monte_carlo_campaign(twice)
        assert r1.to_dict() == r2.to_dict()

    def test_pool_has_at_most_one_worker_per_shard(self, monkeypatch):
        # The fake pool records the size asked for and runs the shards in
        # this process, so the large thread count starts no process.
        requested = []

        class RecordingPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize):
                return map(fn, jobs)

        monkeypatch.setattr(matrixlab, "ProcessPoolExecutor", RecordingPool)
        pooled = monte_carlo_campaign(CampaignConfig(n_max=3, trials=2000, seed=4, threads=5000))
        assert requested == [2]
        serial = monte_carlo_campaign(CampaignConfig(n_max=3, trials=2000, seed=4))
        assert pooled.to_dict() == serial.to_dict()

    def test_argmax_replays_through_public_ratio(self):
        cfg = CampaignConfig(n_max=4, trials=400, seed=2)
        report = monte_carlo_campaign(cfg)
        payload = report.argmax
        assert payload is not None

        def unpack(rows):
            return np.array([[complex(re, im) for re, im in row] for row in rows])

        ratio = verify_conjecture_ratio(
            unpack(payload["A"]),
            unpack(payload["B"]),
            unpack(payload["X"]),
            f1,
            NormKind.operator(),
        )
        assert ratio == pytest.approx(report.max_ratio, rel=1e-12)

    def test_report_serializes_to_json(self):
        cfg = CampaignConfig(n_max=3, trials=50, seed=1, norm=NormKind.ky_fan(2))
        report = monte_carlo_campaign(cfg)
        blob = json.dumps(report.to_dict())
        back = json.loads(blob)
        assert back["seed"] == 1
        assert back["trials"] == 50
        assert back["norm"] == "kyfan:2"
        assert back["f"] == "f1"
        assert back["max_ratio"] == report.max_ratio
        assert sum(back["histogram"]["counts"]) == report.evaluated

    def test_filtered_sqrt_campaign_stays_under_one(self):
        cfg = CampaignConfig(
            n_max=5,
            trials=500,
            seed=3,
            f="sqrt",
            a_equals_b=True,
            unit_norm_a=True,
            min_commutator=0.25,
        )
        report = monte_carlo_campaign(cfg)
        assert report.evaluated > 300
        assert report.max_ratio <= 1.0 + 1e-9

    def test_histogram_covers_all_ratios(self):
        cfg = CampaignConfig(n_max=3, trials=200, seed=8)
        report = monte_carlo_campaign(cfg)
        edges = report.histogram["edges"]
        assert edges[0] == 0.0
        assert edges[-1] >= report.max_ratio
        assert report.evaluated + report.skipped == report.trials
