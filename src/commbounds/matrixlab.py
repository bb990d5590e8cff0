"""Finite-dimensional verification engine for commutator inequalities.

Everything runs on small dense complex matrices.  Eigendecompositions
and singular values come from LAPACK through numpy.linalg (eigh, svd);
the unitary e^{iX} of the exponential checks is formed from X's
spectrum.  hermitian_eig converts a single Hermitian argument once and
checks its shape, its entries and its skew with one adjoint and two
np.vdot calls.  On top of that sit the unitarily-invariant norm family,
the conjecture ratio, the two criterion-6 checkers (exponential equivalence
and Jensen), the fixed counterexample report, and a seeded Monte-Carlo
campaign that hunts for conjecture violations over random instances,
evaluating the trials of each size as one stack.

The conjecture ratio's numerator is evaluated in the eigenbasis.  With
A = U diag(lambda) U* and B = V diag(mu) V*,

    f(A)X - Xf(B) = U [(f(lambda_i) - f(mu_j)) o U*XV] V*,

the Schur (entrywise) product o with the matrix of differences of f on
the two spectra.  U and V are unitary, so the bracket has the singular
values of f(A)X - Xf(B) and every unitarily-invariant norm of the two
agrees; f(A) and f(B) are never formed.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping

import numpy as np

from commbounds.approx import CommboundsError, DomainViolation, NumericalFailure

__all__ = [
    "BadParameter",
    "CampaignConfig",
    "CampaignReport",
    "NormKind",
    "NotHermitian",
    "SpectralRadiusTooLarge",
    "ZeroDenominator",
    "counterexample_report",
    "hermitian_eig",
    "monte_carlo_campaign",
    "singular_values",
    "ui_norm",
    "verify_conjecture_ratio",
    "verify_exp_equivalence",
    "verify_jensen",
]


class NotHermitian(ValueError, CommboundsError):
    """Input matrix is not Hermitian within tolerance."""


class BadParameter(ValueError, CommboundsError):
    """A norm or campaign setting of the wrong type, or a norm parameter out
    of range (Ky Fan k, Schatten p)."""


class SpectralRadiusTooLarge(ValueError, CommboundsError):
    """Hermitian argument has operator norm outside the valid range."""


class ZeroDenominator(ArithmeticError, CommboundsError):
    """Ratio undefined: denominator vanished with nonzero numerator."""


# Each public function checks each matrix argument once, where it enters;
# the private helpers below compute on checked arrays and check nothing.


def _as_matrix(A, name: str = "matrix") -> np.ndarray:
    a = np.asarray(A, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DomainViolation(f"{name} must be a 2-d array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainViolation(f"{name} has non-finite entries")
    return a


def _as_square(A, name: str = "matrix") -> np.ndarray:
    a = _as_matrix(A, name)
    if a.shape[0] != a.shape[1]:
        raise DomainViolation(f"{name} must be square, got shape {a.shape}")
    return a


def _check_hermitian(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """m*, for a square complex m that is finite and passes
    ||m - m*|| <= 1e-12 ||m|| in the Frobenius norm.

    This checks a single matrix, in the one pass that hermitian_eig makes
    over it: the adjoint is returned so that the caller forms it once.
    Both squared norms are np.vdot's, and that of m doubles as the
    finiteness check: it is finite when every entry is, and otherwise
    _as_matrix raises its error on a non-finite entry, or passes a finite
    m whose squares overflow.  A non-Hermitian m raises NotHermitian;
    name is the argument's name in both messages.  The campaign's stacks
    are not checked; they are built Hermitian.
    """
    squared_norm = np.vdot(m, m).real
    if not math.isfinite(squared_norm):
        _as_matrix(m, name)
    adjoint = m.conj().T
    skew = m - adjoint
    if math.sqrt(np.vdot(skew, skew).real) > 1e-12 * math.sqrt(squared_norm):
        raise NotHermitian(f"{name} is not Hermitian within 1e-12 relative tolerance")
    return adjoint


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def _eigh_hermitian_part(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy.linalg.eigh of (m + m*)/2, for a matrix or a stack."""
    return np.linalg.eigh(0.5 * (m + _adjoint(m)))


def hermitian_eig(A) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of a Hermitian matrix, as numpy.linalg.eigh
    gives them: ascending eigenvalues, and A = V diag(eigenvalues) V*.

    The input must be finite, square and Hermitian within 1e-12 relative
    Frobenius tolerance; its Hermitian part (h + h*)/2 is decomposed, so
    roundoff skew in the input does not reach the eigenvalues.  A is
    converted once and taken through one pass: the shape is read off the
    array (a bad one goes through _as_square for its error), and
    _check_hermitian tests finiteness and skew and forms the adjoint h*
    once, for the check and for the Hermitian part.  The errors and their
    messages are _as_square's, then NotHermitian's.  This is the path of
    a single matrix; stacks of them (the campaign) go through the
    vectorized _eigh_hermitian_part.
    """
    h = np.asarray(A, dtype=np.complex128)
    if h.ndim != 2 or not 1 <= h.shape[0] == h.shape[1]:
        _as_square(h)  # raises its error on the shape or on a non-finite entry
    return np.linalg.eigh(0.5 * (h + _check_hermitian(h)))


def singular_values(X) -> np.ndarray:
    """Singular values of X in descending order, min(rows, cols) of them."""
    return np.linalg.svd(_as_matrix(X), compute_uv=False)


def _is_real(value) -> bool:
    """A Python or numpy integer or float; a bool, though an int, is not."""
    return not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))


@dataclass(frozen=True)
class NormKind:
    """Selector for a unitarily-invariant norm: a Ky Fan or a Schatten norm.

    "operator" is Ky Fan k = 1, "trace" Ky Fan k = n, "hs" Schatten p = 2;
    "kyfan" carries k, stored as int, and "schatten" p, stored as float; a
    bool is neither.  k is checked against the number of singular values
    at evaluation; parse() inverts str(), which writes p as the shortest
    decimal that reads back as p.
    """

    tag: str
    k: int | None = None
    p: float | None = None

    SPELLINGS = "operator, trace, hs, kyfan:K or schatten:P"

    def __post_init__(self) -> None:
        if self.tag not in ("operator", "kyfan", "schatten", "trace", "hs"):
            raise BadParameter(f"unknown norm tag {self.tag!r}")
        if self.tag == "kyfan":
            # bool is an int, but str() would write kyfan:True, which
            # parse() does not read back; a numpy integer is stored as int.
            if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)):
                raise BadParameter(f"Ky Fan k must be an integer, got {type(self.k).__name__} {self.k!r}")
            if self.k < 1:
                raise BadParameter(f"Ky Fan k must be positive, got {self.k}")
            object.__setattr__(self, "k", int(self.k))
        elif self.k is not None:
            raise BadParameter(f"k only applies to kyfan, got tag {self.tag!r}")
        if self.tag == "schatten":
            # As with k: str() would write schatten:True or
            # schatten:np.float64(2.5), which parse() does not read back.
            if not _is_real(self.p):
                raise BadParameter(f"Schatten p must be a real number, got {type(self.p).__name__} {self.p!r}")
            if not math.isfinite(self.p) or self.p < 1.0:
                raise BadParameter(f"Schatten p must be >= 1, got {self.p}")
            object.__setattr__(self, "p", float(self.p))
        elif self.p is not None:
            raise BadParameter(f"p only applies to schatten, got tag {self.tag!r}")

    @classmethod
    def operator(cls) -> "NormKind":
        return cls("operator")

    @classmethod
    def ky_fan(cls, k: int) -> "NormKind":
        return cls("kyfan", k=k)

    @classmethod
    def schatten(cls, p: float) -> "NormKind":
        return cls("schatten", p=p)

    @classmethod
    def trace(cls) -> "NormKind":
        return cls("trace")

    @classmethod
    def hilbert_schmidt(cls) -> "NormKind":
        return cls("hs")

    @classmethod
    def parse(cls, text: str) -> "NormKind":
        """The kind str() spells as text, ignoring case and the spaces around
        the name; hilbert-schmidt is hs.  Other text raises BadParameter."""
        name, _, arg = text.partition(":")
        name = name.strip().lower()
        try:
            if name == "kyfan" and arg:
                return cls.ky_fan(int(arg))
            if name == "schatten" and arg:
                return cls.schatten(float(arg))
            if arg:
                raise BadParameter(f"{name} takes no parameter")
            return cls({"hilbert-schmidt": "hs"}.get(name, name))
        except ValueError as exc:
            raise BadParameter(f"bad norm {text!r}: {exc}; expected {cls.SPELLINGS}") from exc

    def __str__(self) -> str:
        if self.tag == "kyfan":
            return f"kyfan:{self.k}"
        if self.tag == "schatten":
            return "schatten:" + repr(self.p).removesuffix(".0")
        return self.tag


def _norm_from_singulars(values: np.ndarray, kind: NormKind) -> np.ndarray:
    """The norm from descending singular values along the last axis: the
    Ky Fan sum of the k largest, or the Schatten s_0 (sum (s/s_0)^p)^(1/p)
    with s_0 the largest, whose powers in [0, 1] neither overflow nor all
    underflow at any scale or p."""
    if kind.tag in ("schatten", "hs"):
        p = 2.0 if kind.tag == "hs" else kind.p
        top = values[..., :1]
        scaled = values / np.where(top > 0.0, top, 1.0)
        return top[..., 0] * (scaled**p).sum(axis=-1) ** (1.0 / p)
    n = values.shape[-1]
    k = {"operator": 1, "trace": n}.get(kind.tag, kind.k)
    if k > n:
        raise BadParameter(f"Ky Fan k={k} exceeds the number of singular values {n}")
    return values[..., :k].sum(axis=-1)


def _norm(m: np.ndarray, kind: NormKind) -> np.ndarray:
    """The norm of a matrix, or of each matrix in a stack."""
    return _norm_from_singulars(np.linalg.svd(m, compute_uv=False), kind)


def ui_norm(X, kind: NormKind) -> float:
    """Unitarily-invariant norm of X computed from its singular values."""
    return float(_norm_from_singulars(singular_values(X), kind))


def _psd_clip(eigenvalues: np.ndarray) -> np.ndarray:
    """An ascending spectrum, or a stack of them, checked PSD and clamped at 0.

    A spectrum is PSD when its least eigenvalue is at least
    -1e-10 max(1, largest eigenvalue); the roundoff negatives become 0.
    """
    low = eigenvalues[..., 0]
    negative = low < -1e-10 * np.maximum(1.0, eigenvalues[..., -1])
    if negative.any():
        raise DomainViolation(f"matrix has negative eigenvalue {np.min(low[negative])}, not PSD")
    return np.clip(eigenvalues, 0.0, None)


def _f_spectrum(f: Callable[[float], float], eigenvalues: np.ndarray) -> np.ndarray:
    """f on one ascending spectrum, checked PSD and clamped at 0 in one pass.

    The rule and the clamp are _psd_clip's, applied to the spectrum's
    Python floats: the least eigenvalue must be at least
    -1e-10 max(1, largest), with NaN propagating through the max as in
    np.maximum, and each value v <= 0 (-0.0 included) becomes 0.0 as
    np.clip makes it, while a NaN stays NaN.
    """
    values = eigenvalues.tolist()
    low, top = values[0], values[-1]
    if low < -1e-10 * (1.0 if top <= 1.0 else top):
        raise DomainViolation(f"matrix has negative eigenvalue {low}, not PSD")
    return np.array([f(0.0 if v <= 0.0 else v) for v in values], dtype=float)


def _eigenbasis_commutator(f_lam, u, f_mu, v, x) -> np.ndarray:
    """(f(lambda_i) - f(mu_j)) o U*XV, which is U*(f(A)X - Xf(B))V.

    Takes f on the clipped spectra of A = U diag(lambda) U* and
    B = V diag(mu) V*; works on one triple or on stacks of them.
    """
    return (f_lam[..., :, None] - f_mu[..., None, :]) * (_adjoint(u) @ x @ v)


def _unitary(eigenvalues: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """V diag(e^{i eigenvalues}) V*."""
    return (vectors * np.exp(1j * eigenvalues)) @ vectors.conj().T


def verify_conjecture_ratio(A, B, X, f: Callable[[float], float], kind: NormKind) -> float:
    """||f(A)X - Xf(B)|| / (||X|| f(||AX - XB||/||X||)) in the given norm.

    A and B must be positive semidefinite and f nonnegative on [0, inf)
    with f(0) = 0.  A vanishing denominator together with an (up to
    roundoff) vanishing numerator reports 0, the conjecture being
    vacuous there; a vanishing denominator alone is an error.

    The numerator is the norm of (f(lambda_i) - f(mu_j)) o U*XV, from the
    spectra A = U diag(lambda) U* and B = V diag(mu) V*: it equals
    U*(f(A)X - Xf(B))V, and a unitarily-invariant norm does not see U
    and V.  AX - XB is formed from A, B and X as given, and one svd call
    gives the singular values of X, of the numerator's matrix and of
    AX - XB.

    Each of A and B is converted once and taken through one pass:
    hermitian_eig checks and decomposes it (one call per side), and
    _f_spectrum checks the spectrum PSD, clamps it at 0 and maps it by f
    in one loop over its floats, so f sees A's spectrum before B's is
    checked and before the shape of X is.  The three norms are read off
    the svd stack as Python floats by one tolist().  A stack of instances
    (the campaign) does not come here; it keeps the vectorized path of
    _stack_ratios.
    """
    x = _as_matrix(X, "X")
    a = np.asarray(A, dtype=np.complex128)
    lam, u = hermitian_eig(a)
    b = np.asarray(B, dtype=np.complex128)
    mu, v = hermitian_eig(b)
    f_lam, f_mu = _f_spectrum(f, lam), _f_spectrum(f, mu)
    if x.shape != (len(lam), len(mu)):
        raise DomainViolation(f"X must be {len(lam)} x {len(mu)}, got {x.shape}")
    numerator_matrix = _eigenbasis_commutator(f_lam, u, f_mu, v, x)
    singulars = np.linalg.svd(np.array((x, numerator_matrix, a @ x - x @ b)), compute_uv=False)
    nx, numerator, nk = _norm_from_singulars(singulars, kind).tolist()
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


def _exp_factor(x: float) -> float:
    return 1.0 if x == 0.0 else x / math.sin(x)


def verify_exp_equivalence(X, Y, kind: NormKind) -> tuple[float, float, float]:
    """Chain ||[e^{iX}, Y]|| <= ||[X, Y]|| <= (||X||/sin ||X||) ||[e^{iX}, Y]||.

    X must be Hermitian with operator norm < pi.  Returns (lhs, mid,
    rhs); the chain is enforced up to 1e-9 slack, and a break in it
    raises NumericalFailure.
    """
    eigenvalues, vectors = hermitian_eig(X)
    x = np.asarray(X, dtype=np.complex128)
    op = float(_norm(x, NormKind.operator()))
    if op >= math.pi:
        raise SpectralRadiusTooLarge(f"operator norm {op} is not below pi")
    u = _unitary(eigenvalues, vectors)
    y = _as_square(Y, "Y")
    if y.shape != x.shape:
        raise DomainViolation(f"Y must be {x.shape[0]} x {x.shape[0]} like X, got {y.shape}")
    lhs = float(_norm(u @ y - y @ u, kind))
    mid = float(_norm(x @ y - y @ x, kind))
    rhs = _exp_factor(op) * lhs
    if lhs > mid + 1e-9 or mid > rhs + 1e-9:
        raise NumericalFailure(
            f"exponential equivalence chain violated: {lhs} <= {mid} <= {rhs}"
        )
    return lhs, mid, rhs


def verify_jensen(Y, f: Callable[[float], float], kind: NormKind) -> tuple[float, float]:
    """Jensen-type bound ||f(|Y|)|| <= ||I|| f(||Y||/||I||).

    Valid for nondecreasing concave f with f(0) >= 0.  Returns
    (lhs, rhs) and enforces the inequality up to 1e-9 slack, raising
    NumericalFailure when it fails; equality holds when Y is a multiple
    of the identity.
    """
    y = _as_square(Y, "Y")
    values = np.linalg.svd(y, compute_uv=False)
    f_values = np.array(sorted((f(float(s)) for s in values), reverse=True))
    lhs = float(_norm_from_singulars(f_values, kind))
    eye_norm = float(_norm_from_singulars(np.ones(y.shape[0]), kind))
    rhs = eye_norm * f(float(_norm_from_singulars(values, kind)) / eye_norm)
    if lhs > rhs + 1e-9:
        raise NumericalFailure(f"Jensen bound violated: {lhs} > {rhs}")
    return lhs, rhs


_COUNTEREXAMPLE_Y = np.array(
    [[2.0, 4.0, 2.0], [4.0, 2.0, 3.0], [2.0, 3.0, 4.0]], dtype=np.complex128
)
_COUNTEREXAMPLE_A = np.array(
    [
        [5.0, 3.0, 3.0],
        [3.0, 3.0, 3.0 - 1.0j],
        [3.0, 3.0 + 1.0j, 5.0],
    ],
    dtype=np.complex128,
)


def counterexample_report() -> dict:
    """Fixed 3x3 instance where the exp-commutator comparison reverses.

    X = Y/||Y||_op is Hermitian; the singular values of [A, X] dominate
    those of [A, e^{iX}] in the first two slots but not the third, and
    for f(x) = x/(x + 0.02) the trace norm of f(|.|) flips strictly:
    sum f(sigma([A, e^{iX}])) > sum f(sigma([A, X])).
    """
    y = _COUNTEREXAMPLE_Y
    a = _COUNTEREXAMPLE_A
    x = y / float(_norm(y, NormKind.operator()))
    u = _unitary(*_eigh_hermitian_part(x))
    sigma_comm = np.linalg.svd(a @ x - x @ a, compute_uv=False)
    sigma_exp = np.linalg.svd(a @ u - u @ a, compute_uv=False)

    def f(t: float) -> float:
        return t / (t + 0.02)

    trace_comm = float(sum(f(float(s)) for s in sigma_comm))
    trace_exp = float(sum(f(float(s)) for s in sigma_exp))
    return {
        "sigma_commutator": [float(s) for s in sigma_comm],
        "sigma_exp_commutator": [float(s) for s in sigma_exp],
        "trace_norm_f_commutator": trace_comm,
        "trace_norm_f_exp": trace_exp,
        "reversal": trace_exp > trace_comm,
    }


def _f1_array(x: np.ndarray) -> np.ndarray:
    """f1(x) = x/(x + 1) elementwise, for x >= 0."""
    return x / (x + 1.0)


# Campaign functions act elementwise on arrays of nonnegative values.
_F_TABLE: Mapping[str, Callable[[np.ndarray], np.ndarray]] = {
    "f1": _f1_array,
    "sqrt": np.sqrt,
}


@dataclass(frozen=True)
class CampaignConfig:
    """Settings for a random-matrix campaign against the conjecture ratio.

    Trials are split into shards of at most 1000; shard i draws from
    numpy's default_rng seeded with (seed, i), so results are
    reproducible and independent of the number of workers.  Each trial
    has size n in [2, n_max], or in [k, n_max] for a Ky Fan k > 2.
    """

    n_max: int = 6
    trials: int = 1000
    seed: int = 0
    f: str = "f1"
    norm: NormKind = field(default_factory=NormKind.operator)
    a_equals_b: bool = False
    unit_norm_a: bool = False
    min_commutator: float | None = None
    threads: int = 1

    def __post_init__(self) -> None:
        # bool is an int, and a float count runs: each would be recorded in
        # the report as given, as would a truthy flag or a numpy scalar.  A
        # numpy integer is stored as int, a numpy bool as bool and a
        # min_commutator as float.
        for name in ("n_max", "trials", "seed", "threads"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise BadParameter(f"{name} must be an integer, got {type(value).__name__} {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("a_equals_b", "unit_norm_a"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise BadParameter(f"{name} must be a bool, got {type(value).__name__} {value!r}")
            object.__setattr__(self, name, bool(value))
        if not isinstance(self.norm, NormKind):
            raise BadParameter(f"norm must be a NormKind, got {type(self.norm).__name__} {self.norm!r}")
        if not isinstance(self.f, str):
            raise BadParameter(f"f must be a str, got {type(self.f).__name__} {self.f!r}")
        if self.min_commutator is not None:
            if not _is_real(self.min_commutator):
                value = self.min_commutator
                raise BadParameter(f"min_commutator must be a real number, got {type(value).__name__} {value!r}")
            object.__setattr__(self, "min_commutator", float(self.min_commutator))
        if self.n_max < 2:
            raise DomainViolation(f"n_max must be >= 2, got {self.n_max}")
        if self.trials < 1:
            raise DomainViolation(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise DomainViolation(f"seed must be >= 0, got {self.seed}")
        if self.threads < 1:
            raise DomainViolation(f"threads must be >= 1, got {self.threads}")
        if self.norm.tag == "kyfan" and self.norm.k > self.n_max:
            raise BadParameter(f"Ky Fan k={self.norm.k} exceeds n_max={self.n_max}")
        if self.f not in _F_TABLE:
            raise BadParameter(f"unknown f selector {self.f!r}; choose from {sorted(_F_TABLE)}")
        if self.min_commutator is not None and not (
            math.isfinite(self.min_commutator) and self.min_commutator >= 0.0
        ):
            raise DomainViolation(
                f"min_commutator must be finite and >= 0, got {self.min_commutator}"
            )


@dataclass(frozen=True)
class CampaignReport:
    """Outcome of a campaign: extremal instance plus ratio histogram.

    It records every setting of its CampaignConfig except threads, which
    changes no result, so the campaign can be run again from the report.
    """

    seed: int
    trials: int
    norm: str
    f: str
    n_max: int
    a_equals_b: bool
    unit_norm_a: bool
    min_commutator: float | None
    max_ratio: float
    argmax: dict | None
    histogram: dict
    evaluated: int
    skipped: int

    def to_dict(self) -> dict:
        return asdict(self)


def _matrix_payload(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


_SHARD_SIZE = 1000


def _stack_ratios(cfg: CampaignConfig, a, b, x):
    """Conjecture ratios of a stack of same-size trials.

    Per trial this is normalizing X and calling verify_conjecture_ratio,
    except that each spectrum is computed once and reused.  Returns
    (ratios, evaluated, A, B, X) with A and B as scaled by unit_norm_a
    and X normalized; trials not evaluated carry ratio 0.
    """
    f = _F_TABLE[cfg.f]

    def spectra(m):
        lam, vec = _eigh_hermitian_part(m)
        if cfg.unit_norm_a:
            top = lam[:, -1:]
            return m / top[..., None], lam / top, vec
        return m, lam, vec

    a, lam_a, vec_a = spectra(a)
    b, lam_b, vec_b = (a, lam_a, vec_a) if cfg.a_equals_b else spectra(b)
    nx = _norm(x, cfg.norm)
    evaluated = nx != 0.0
    x = x / np.where(evaluated, nx, 1.0)[:, None, None]
    comm_norm = _norm(a @ x - x @ b, cfg.norm)
    if cfg.min_commutator is not None:
        evaluated &= comm_norm >= cfg.min_commutator
    f_a = f(_psd_clip(lam_a[evaluated]))
    f_b = f_a if cfg.a_equals_b else f(_psd_clip(lam_b[evaluated]))
    numerator = _norm(
        _eigenbasis_commutator(f_a, vec_a[evaluated], f_b, vec_b[evaluated], x[evaluated]), cfg.norm
    )
    denominator = f(comm_norm[evaluated])
    # A vanished denominator gives ratio 0 when the numerator vanishes too
    # (the conjecture is vacuous there); otherwise the trial is skipped.
    vanished = denominator == 0.0
    ratios = np.zeros(len(x))
    ratios[evaluated] = np.divide(numerator, denominator, out=np.zeros_like(numerator), where=~vanished)
    evaluated[evaluated] = ~vanished | (numerator <= 1e-12)
    return ratios, evaluated, a, b, x


def _campaign_shard(args) -> dict:
    """One shard of trials, drawn in trial order and evaluated by size.

    The first pass draws, for each trial in turn from
    default_rng((seed, shard)), the size n and then one standard normal
    block holding the real and imaginary parts of A's Wishart factor, of
    B's (only without a_equals_b) and of X.  One block consumes the
    stream exactly as separate n x n draws would, so every trial's draws
    do not depend on how trials are evaluated.  The second pass
    evaluates all trials of one size together (_stack_ratios), with
    A = M M* and X = (G + iH)/sqrt(2) for the drawn factors.
    """
    cfg, shard_idx, shard_trials = args
    rng = np.random.default_rng((cfg.seed, shard_idx))
    parts = 4 if cfg.a_equals_b else 6
    smallest = max(2, cfg.norm.k) if cfg.norm.tag == "kyfan" else 2
    sizes = np.zeros(shard_trials, dtype=int)
    draws = []
    for trial in range(shard_trials):
        n = int(rng.integers(smallest, cfg.n_max + 1))
        sizes[trial] = n
        draws.append(rng.standard_normal((parts, n, n)))

    ratios = np.zeros(shard_trials)
    evaluated = np.zeros(shard_trials, dtype=bool)
    stacks = {}
    for n in np.unique(sizes):
        trials = np.flatnonzero(sizes == n)
        normals = np.stack([draws[t] for t in trials])
        factors = (normals[:, 0::2] + 1j * normals[:, 1::2]) / math.sqrt(2.0)
        a = factors[:, 0] @ _adjoint(factors[:, 0])
        b = a if cfg.a_equals_b else factors[:, 1] @ _adjoint(factors[:, 1])
        stack_ratios, stack_evaluated, a, b, x = _stack_ratios(cfg, a, b, factors[:, -1])
        ratios[trials] = stack_ratios
        evaluated[trials] = stack_evaluated
        stacks[n] = (trials, a, b, x)

    # Trials not evaluated carry ratio 0, and argmax takes the first
    # maximum, so ties resolve to the earliest trial.
    trial = int(np.argmax(ratios))
    best = None  # (ratio, trial, A, B, X)
    if ratios[trial] > 0.0:
        trials, a, b, x = stacks[sizes[trial]]
        k = int(np.searchsorted(trials, trial))
        best = (float(ratios[trial]), trial, a[k], b[k], x[k])
    return {
        "shard": shard_idx,
        "ratios": ratios[evaluated],
        "skipped": int(shard_trials - evaluated.sum()),
        "best": best,
    }


def monte_carlo_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Run the campaign described by cfg; deterministic for a fixed seed.

    The maximum ratio is taken over all evaluated trials (zero-ratio
    vacuous instances are excluded); ties resolve to the earliest
    (shard, trial).  The histogram has 50 bins on
    [0, max(1.05, max ratio)], with the edges np.histogram returns; each
    report holds its own.
    With threads > 1 the shards run in a process pool with at most one
    worker per shard.
    """
    starts = range(0, cfg.trials, _SHARD_SIZE)
    jobs = [(cfg, idx, min(_SHARD_SIZE, cfg.trials - start)) for idx, start in enumerate(starts)]
    if cfg.threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.threads, len(jobs))) as pool:
            results = list(pool.map(_campaign_shard, jobs, chunksize=1))
    else:
        results = [_campaign_shard(job) for job in jobs]

    all_ratios = np.concatenate([res["ratios"] for res in results])
    max_ratio = float(all_ratios.max(initial=0.0))
    top = max(1.05, max_ratio * (1.0 + 1e-12))
    counts, edges = np.histogram(all_ratios, bins=50, range=(0.0, top))
    # max keeps the first of equal ratios, so the earliest shard wins a tie.
    found = (res for res in results if res["best"] is not None)
    winner = max(found, key=lambda res: res["best"][0], default=None)
    argmax = None
    if winner is not None:
        ratio, trial, a, b, x = winner["best"]
        argmax = {
            "ratio": ratio,
            "shard": winner["shard"],
            "trial": trial,
            "A": _matrix_payload(a),
            "B": _matrix_payload(b),
            "X": _matrix_payload(x),
        }
    settings = {**asdict(cfg), "norm": str(cfg.norm)}
    del settings["threads"]
    return CampaignReport(
        **settings,
        max_ratio=max_ratio,
        argmax=argmax,
        histogram={"edges": edges.tolist(), "counts": counts.tolist()},
        evaluated=int(all_ratios.size),
        skipped=sum(res["skipped"] for res in results),
    )
