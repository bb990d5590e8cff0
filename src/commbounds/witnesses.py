"""Gaussian-mixture witnesses for the approximation functional, and their fit.

A witness is an approximant g of f1(x) = x / (x + 1) whose derivative
g'(x) = sum_k w_k exp(-b_k x^2) has positive weights.  The committed
table `mixture_witnesses.json` holds one witness per fitting node c; it
holds proofs, not results: every constant derived from it is certified
again, each time `commbounds.optimize.certify_grid` runs, by one batched
`commbounds.approx.certify_mixtures` pass over the whole table.

Each witness minimizes osc(f1 - g) + c * g'(0) over the weights of 120
fixed widths b_k, log-spaced on [1e-8, 1e3], with the oscillation
sampled at 3000 log-spaced points of [1e-4, 1e8] plus the limit at
infinity.  In the masses v_k = w_k (1/2) sqrt(pi / b_k) this is a linear
program, solved by HiGHS.  Only its cost depends on c, so a process
builds the program once, on its first fit.  Rows that another row
implies are left out when the program is built: from x of about 5.96e4
on, every erf(sqrt(b_k) x) rounds to 1, so 807 samples and the limit at
infinity share one row of coefficients, and two samples near 5.85e4
share another.  Among rows with equal coefficients, each side of the
range keeps only its tightest bound, which leaves the feasible set as it
is: the program has 4386 rows, not 6002.

The first fit also presolves the program once with HiGHS, which drops
70 more rows and keeps every column; each row is named by its index, and
presolve carries the names through, so they say which row of the
program each presolved row is.  Each fit then runs in two stages,
each on a new HiGHS instance with presolve off, so no solver state
passes from one fit to the next: it solves the reduced program at its
c, then runs the full program from that basis, lifted.  These are the
steps `scipy.optimize.linprog(method="highs")` takes within one solve,
less the presolve it repeats each time.  At every node of FIT_NODES the
result is bit for bit what linprog returns for the full program, with
every row; elsewhere it can differ in the last digits or, rarely, be
another optimal vertex (see `fit_witness`).  The fit is deterministic.

This module owns the table's path (`table_path`) and layout: `fit_table`
gives its text, one {"c", "w", "b"} entry per node at JSON indent 1, and
`load_witnesses` reads it.  Regenerate it with `commbounds
fit-witnesses` (add `--out PATH` to write elsewhere, for instance to
compare).

scipy is imported on first use.  Reading the table needs none of it;
the first fit imports scipy.special's erf, scipy.sparse and the HiGHS
binding in scipy.optimize, so only the fit depends on that private
module.
"""

from __future__ import annotations

import functools
import json
from importlib import resources

import numpy as np

from commbounds.approx import DomainViolation, MixtureParams, NumericalFailure, _positive

__all__ = ["FIT_NODES", "WIDTHS", "fit_table", "fit_witness", "load_witnesses", "table_path"]

WIDTHS = np.logspace(-8.0, 3.0, 120)
FIT_NODES = np.geomspace(0.0195, 40.0, 120)
_SAMPLE = np.geomspace(1e-4, 1e8, 3000)
_HALF_MASS = 0.5 * np.sqrt(np.pi / WIDTHS)


def __getattr__(name: str):
    # perfbench/spans.py traces `linprog` under this module, although
    # fit_witness no longer calls it (CHANGES.md has a FOUND line on
    # re-pointing those spans to fit_witness); scipy.optimize is imported
    # only when the name is looked up.
    if name == "linprog":
        from scipy.optimize import linprog

        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _kept_rows():
    """The witness program's constraint rows, dense, and the upper bound of each.

    Each sample x, and the limit at infinity, gives one row of
    coefficients erf(sqrt(b_k) x) and a target f1(x), and two
    constraints: basis . v + u >= target (the u-side) and
    basis . v + l <= target (the l-side).  Among rows with equal
    coefficients the u-side keeps only the one with the largest target
    and the l-side only the one with the smallest, since each implies
    the others of its side; from x of about 5.96e4 on every coefficient
    rounds to 1, so this drops 1616 of the 6002 rows.  The kept rows of
    each side stay in sample order, the u-side block first, in the form
    linprog builds: the matrix is 4386 x 122 (4.3 MB) and its rows are
    distinct.  `_witness_lp` keeps it in sparse form only.
    """
    from scipy.special import erf

    n = WIDTHS.size
    basis = np.vstack((erf(np.multiply.outer(_SAMPLE, np.sqrt(WIDTHS))), np.ones(n)))
    target = np.concatenate((_SAMPLE / (_SAMPLE + 1.0), [1.0]))
    _, group = np.unique(basis, axis=0, return_inverse=True)
    order = np.lexsort((target, group))  # by coefficients, then by target
    edge = np.diff(group[order]) != 0
    upper = np.sort(order[np.append(edge, True)])  # the largest target of each group
    lower = np.sort(order[np.insert(edge, 0, True)])  # the smallest
    matrix = np.block([
        [-basis[upper], -np.ones((upper.size, 1)), np.zeros((upper.size, 1))],
        [basis[lower], np.zeros((lower.size, 1)), np.ones((lower.size, 1))],
    ])
    return matrix, np.concatenate((-target[upper], target[lower]))


@functools.cache
def _witness_lp():
    """The witness program with zero cost, as one HiGHS model.

    Its rows are `_kept_rows`, in sparse column form, with the bounds
    (infinite ones as +-kHighsInf) in the form linprog builds; row k is
    named str(k), so that `_reduced_lp` can map presolved rows back.
    Only the cost depends on c, so a process builds this once, on its
    first fit.
    scipy has no public API to load one program and solve it with
    several costs, or to presolve it once and restart from a basis;
    this uses `scipy.optimize._highspy._core`, the binding linprog
    itself calls (scipy >= 1.15), and so depends on that private module.
    """
    from scipy.optimize._highspy import _core as highs_core
    from scipy.sparse import csc_array

    matrix, rhs = _kept_rows()
    matrix = csc_array(matrix)
    n = WIDTHS.size
    lp = highs_core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n + 2
    lp.num_row_ = lp.a_matrix_.num_row_ = rhs.size
    lp.a_matrix_.format_ = highs_core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = matrix.indptr
    lp.a_matrix_.index_ = matrix.indices
    lp.a_matrix_.value_ = matrix.data
    lp.col_cost_ = np.zeros(n + 2)
    lp.col_lower_ = np.concatenate((np.zeros(n + 1), [-highs_core.kHighsInf]))
    lp.col_upper_ = np.concatenate((np.full(n + 1, highs_core.kHighsInf), [0.0]))
    lp.row_lower_ = np.full(rhs.size, -highs_core.kHighsInf)
    lp.row_upper_ = rhs
    lp.row_names_ = [str(k) for k in range(rhs.size)]
    return lp


def _highs(lp, c: float, presolve: str):
    """A new HiGHS instance holding lp at the cost of c, or None if HiGHS refuses it.

    It gets the options linprog(method="highs") passes by default (no
    output, dual simplex), with presolve as given.
    """
    from scipy.optimize._highspy import _core as highs_core

    options = (
        ("output_flag", False),
        ("log_to_console", False),
        ("highs_debug_level", int(highs_core.HighsDebugLevel.kHighsDebugLevelNone)),
        ("presolve", presolve),
        ("simplex_strategy", int(highs_core.simplex_constants.SimplexStrategy.kSimplexStrategyDual)),
    )
    cost = np.concatenate((c / _HALF_MASS, [1.0, -1.0]))
    highs = highs_core._Highs()
    statuses = [highs.setOptionValue(option, value) for option, value in options]
    statuses += [
        highs.passModel(lp),
        highs.changeColsCost(cost.size, np.arange(cost.size, dtype=np.int32), cost),
    ]
    return None if highs_core.HighsStatus.kError in statuses else highs


@functools.cache
def _reduced_lp():
    """HiGHS's presolved witness program, and the `_witness_lp` row each of its rows is.

    linprog(method="highs") presolves the program in each solve, and
    the presolve does the same each time: it drops 70 rows that are
    nearly parallel to a kept one, tightens the bounds of 3 kept rows
    and keeps every column, at every cost tested (the tests compare
    three nodes).  So a process presolves once, at c = 1, on its first
    fit.  Presolve keeps each row's name, its index in `_witness_lp`, so
    the row map is read from the names.  Names that do not give one
    distinct row index per presolved row raise NumericalFailure.
    """
    from scipy.optimize._highspy import _core as highs_core

    highs = _highs(_witness_lp(), 1.0, "on")
    if (
        highs is None
        or highs.presolve() == highs_core.HighsStatus.kError
        or highs.getModelPresolveStatus() != highs_core.HighsPresolveStatus.kReduced
    ):
        raise NumericalFailure("HiGHS did not presolve the witness program")
    reduced = highs.getPresolvedLp()
    rows = [int(name) for name in reduced.row_names_ if name.isdecimal()]
    if len(rows) != reduced.num_row_ or len(set(rows)) != len(rows) or max(rows, default=0) >= _witness_lp().num_row_:
        raise NumericalFailure("the row names of HiGHS's presolved witness program do not give one row index per row")
    return reduced, rows


def _refused(c: float) -> NumericalFailure:
    return NumericalFailure(f"HiGHS did not accept the witness program at c = {c!r}")


def _solve(lp, c: float, basis=None):
    """Solve lp at the cost of c on a new HiGHS instance, from basis if one is given."""
    from scipy.optimize._highspy import _core as highs_core

    highs = _highs(lp, c, "off")
    if highs is None or (basis is not None and highs.setBasis(basis) == highs_core.HighsStatus.kError):
        raise _refused(c)
    highs.run()
    status = highs.getModelStatus()
    if status != highs_core.HighsModelStatus.kOptimal:
        raise NumericalFailure(f"witness fit at c = {c!r} failed: {highs.modelStatusToString(status)}")
    return highs


def fit_witness(c: float) -> MixtureParams:
    """Fit the mixture weights that minimize the sampled functional at c.

    Variables are the masses v_k >= 0, an upper level u >= 0 and a lower
    level l <= 0 (j(0) = 0 lies in the range); the program minimizes
    u - l + c * sum_k v_k / m_k subject to l <= j(x) <= u at every sample
    and at infinity, where j(x) = f1(x) - sum_k v_k erf(sqrt(b_k) x).
    Widths whose fitted mass is not positive are dropped; c must be
    positive and finite, and small enough that some width is kept.

    The fit takes the steps linprog(method="highs") takes inside one
    solve, less the presolve, which `_reduced_lp` did once: it solves
    the reduced program at c, lifts that optimal basis to the full
    program (kept rows and every column keep their status, the dropped
    rows are basic), runs the full program from it and reads the
    weights there.  At every node of FIT_NODES the result is bit for
    bit linprog's on the full program (CI regenerates the table and
    compares it byte for byte).  Elsewhere it need not be: at c =
    0.11661 and 0.01 the weights differ from linprog's by up to 8e-11
    relative, and at c = 0.005 the restart takes a few hundred
    iterations to another vertex, whose sampled objective is 6e-6
    relative (3e-8) above linprog's.  Each stage
    runs on a new HiGHS instance, so no basis, scaling or presolve state
    carries from one fit to the next, and the shared programs are never
    written after they are built.  A stage that HiGHS refuses, or that
    does not end optimal, raises NumericalFailure naming c.
    """
    c = _positive(c, "c")
    from scipy.optimize._highspy import _core as highs_core

    try:
        reduced, rows = _reduced_lp()
    except NumericalFailure as failure:
        raise _refused(c) from failure
    basis = _solve(reduced, c).getBasis()
    status = [highs_core.HighsBasisStatus.kBasic] * _witness_lp().num_row_
    for row, kept in zip(rows, basis.row_status):
        status[row] = kept
    basis.row_status = status
    highs = _solve(_witness_lp(), c, basis)
    mass = np.array(highs.getSolution().col_value[: WIDTHS.size])
    keep = mass > 0.0
    if not keep.any():
        raise DomainViolation(f"the witness fit at c = {c!r} keeps no width: g = 0 is optimal there")
    return MixtureParams(tuple(mass[keep] / _HALF_MASS[keep]), tuple(WIDTHS[keep]))


def fit_table() -> str:
    """Fit a witness at every node of FIT_NODES and lay them out as the committed table."""
    table = [{"c": float(c), **fit_witness(float(c)).to_payload()} for c in FIT_NODES]
    return json.dumps({"witnesses": table}, indent=1) + "\n"


def table_path():
    """The committed witness table shipped with the package."""
    return resources.files("commbounds").joinpath("mixture_witnesses.json")


def load_witnesses() -> list[MixtureParams]:
    """Read the committed witness table."""
    payload = json.loads(table_path().read_text())
    return [MixtureParams.from_payload(item) for item in payload["witnesses"]]

