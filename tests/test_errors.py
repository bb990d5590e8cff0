"""The package's one error base, and the numerical failures that raise it.

Every validation or computation failure the package raises is a
CommboundsError and keeps its builtin base; the command line exits 2 on
any of them, with the message and no traceback.
"""

import functools

import numpy as np
import pytest
import scipy.integrate
from scipy.optimize._highspy import _core as highs_core

import commbounds
from commbounds import approx, cli, formulas, matrixlab, optimize, stitch, witnesses
from commbounds.approx import CommboundsError, NumericalFailure
from commbounds.cli import main
from commbounds.stitch import gamma_half_via_Cc
from commbounds.witnesses import FIT_NODES, fit_witness, load_witnesses

# Each exported exception class and the builtin base it keeps.
BUILTIN_BASES = {
    "CommboundsError": Exception,
    "DomainViolation": ValueError,
    "NoSignChange": RuntimeError,
    "RootValidationFailed": RuntimeError,
    "NumericalFailure": RuntimeError,
    "ArgumentOrder": ValueError,
    "CoverageGap": ValueError,
    "RejectedCertificate": ValueError,
    "NotHermitian": ValueError,
    "BadParameter": ValueError,
    "SpectralRadiusTooLarge": ValueError,
    "ZeroDenominator": ArithmeticError,
}


def exported_exceptions():
    found = {}
    for module in (commbounds, approx, formulas, matrixlab, optimize, stitch, witnesses):
        for name in module.__all__:
            value = getattr(module, name)
            if isinstance(value, type) and issubclass(value, BaseException):
                found[name] = value
    return found


class TestHierarchy:
    def test_every_exported_exception_is_a_commbounds_error(self):
        found = exported_exceptions()
        assert set(found) == set(BUILTIN_BASES)
        for name, cls in found.items():
            assert issubclass(cls, CommboundsError), name
            assert issubclass(cls, BUILTIN_BASES[name]), name

    def test_package_exports_the_base(self):
        assert commbounds.CommboundsError is CommboundsError
        assert "CommboundsError" in commbounds.__all__

    def test_usage_error_is_not_a_commbounds_error(self):
        assert not issubclass(cli.UsageError, CommboundsError)


def _quad_with_large_error(*args, **kwargs):
    return 1.0, 1.0


class TestQuadratureFailure:
    def test_raises_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(scipy.integrate, "quad", _quad_with_large_error)
        with pytest.raises(NumericalFailure, match="quadrature error estimate 3.183e-01 exceeds 1e-6"):
            gamma_half_via_Cc()

    def test_closed_forms_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(scipy.integrate, "quad", _quad_with_large_error)
        assert main(["closed-forms"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: quadrature error estimate 3.183e-01 exceeds 1e-6\n"


class TestCheckedInequalityFailure:
    # A checked inequality that fails beyond its 1e-9 slack is a
    # computation failure, so a NumericalFailure, still a RuntimeError.
    def test_jensen_with_convex_f(self):
        # f(x) = x^2 on Y = diag(1, 3) in the trace norm: 1 + 9 > 2 (4/2)^2.
        y = np.diag([1.0, 3.0])
        with pytest.raises(NumericalFailure) as info:
            matrixlab.verify_jensen(y, lambda x: x * x, matrixlab.NormKind.trace())
        assert str(info.value) == "Jensen bound violated: 10.0 > 8.0"
        assert isinstance(info.value, RuntimeError)

    def test_exp_chain_with_a_zero_factor(self, monkeypatch):
        # With the factor ||X||/sin ||X|| replaced by 0 the chain's right
        # end is 0, below the nonzero middle term.
        monkeypatch.setattr(matrixlab, "_exp_factor", lambda x: 0.0)
        x = np.diag([0.5, -0.5])
        y = np.array([[0.0, 1.0], [0.0, 0.0]])
        message = r"^exponential equivalence chain violated: \S+ <= 1\.0 <= 0\.0$"
        with pytest.raises(NumericalFailure, match=message) as info:
            matrixlab.verify_exp_equivalence(x, y, matrixlab.NormKind.operator())
        assert isinstance(info.value, RuntimeError)


_REAL_HIGHS = highs_core._Highs


class _FailingHighs:
    """A HiGHS instance that refuses the model, or solves it to an infeasible status."""

    def __init__(self, refuse):
        self._highs = _REAL_HIGHS()
        self._refuse = refuse

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def passModel(self, lp):
        if self._refuse:
            return highs_core.HighsStatus.kError
        return self._highs.passModel(lp)

    def getModelStatus(self):
        return highs_core.HighsModelStatus.kInfeasible


HIGHS_FAILURES = [
    (True, "HiGHS did not accept the witness program at c = {c!r}"),
    (False, "witness fit at c = {c!r} failed: Infeasible"),
]


@pytest.mark.parametrize("refuse, message", HIGHS_FAILURES, ids=["refused", "infeasible"])
class TestWitnessFitFailure:
    def test_raises_numerical_failure(self, monkeypatch, refuse, message):
        monkeypatch.setattr(highs_core, "_Highs", lambda: _FailingHighs(refuse))
        c = float(FIT_NODES[0])
        with pytest.raises(NumericalFailure) as info:
            fit_witness(c)
        assert str(info.value) == message.format(c=c)
        assert isinstance(info.value, RuntimeError)

    def test_fit_witnesses_exits_two(self, capsys, monkeypatch, tmp_path, refuse, message):
        monkeypatch.setattr(witnesses, "FIT_NODES", FIT_NODES[:1])
        monkeypatch.setattr(highs_core, "_Highs", lambda: _FailingHighs(refuse))
        out = tmp_path / "table.json"
        assert main(["fit-witnesses", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: " + message.format(c=float(FIT_NODES[0])) + "\n"
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []


class _PresolveHighs:
    """A HiGHS instance that hands out its presolved program after `change` has edited it."""

    def __init__(self, change):
        self._highs = _REAL_HIGHS()
        self._change = change

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def getPresolvedLp(self):
        lp = self._highs.getPresolvedLp()
        self._change(lp)
        return lp


def _clear_row_names(lp):
    lp.row_names_ = []


def _move_one_coefficient(lp):
    value = np.array(lp.a_matrix_.value_)
    value[0] = np.nextafter(value[0], np.inf)  # the first entry of column 0, in row 0
    lp.a_matrix_.value_ = value


class TestPresolvedRowNotInProgram:
    # A presolved program whose row names are lost gives no row of the
    # program for its rows, so the fit is refused with that as the cause.
    @pytest.fixture(autouse=True)
    def lost_row_names(self, monkeypatch):
        # fit_witness sees an empty _reduced_lp cache, so it presolves
        # under the fake; monkeypatch puts the original cache, with what
        # it holds, back afterwards.
        monkeypatch.setattr(witnesses, "_reduced_lp", functools.cache(witnesses._reduced_lp.__wrapped__))
        monkeypatch.setattr(highs_core, "_Highs", lambda: _PresolveHighs(_clear_row_names))

    def test_fit_is_refused_with_the_cause(self):
        c = float(FIT_NODES[0])
        with pytest.raises(NumericalFailure) as info:
            fit_witness(c)
        assert str(info.value) == f"HiGHS did not accept the witness program at c = {c!r}"
        assert isinstance(info.value.__cause__, NumericalFailure)
        assert str(info.value.__cause__) == (
            "the row names of HiGHS's presolved witness program do not give one row index per row"
        )

    def test_fit_witnesses_exits_two(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(witnesses, "FIT_NODES", FIT_NODES[:1])
        out = tmp_path / "table.json"
        assert main(["fit-witnesses", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: HiGHS did not accept the witness program at c = {float(FIT_NODES[0])!r}\n"
        assert list(tmp_path.iterdir()) == []


class TestPresolvedRowMap:
    def test_presolved_coefficients_do_not_decide_the_map(self, monkeypatch):
        # The map is read from the row names, so a presolved coefficient one
        # ulp off the program's neither refuses the fit nor changes it: the
        # full program, solved from the lifted basis, sets the weights.
        # fit_witness sees an empty _reduced_lp cache, so it presolves
        # under the fake; monkeypatch puts the original cache back afterwards.
        monkeypatch.setattr(witnesses, "_reduced_lp", functools.cache(witnesses._reduced_lp.__wrapped__))
        monkeypatch.setattr(highs_core, "_Highs", lambda: _PresolveHighs(_move_one_coefficient))
        assert fit_witness(float(FIT_NODES[0])) == load_witnesses()[0]
