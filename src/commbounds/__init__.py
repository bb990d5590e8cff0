"""Certified numerical bounds for commutator inequalities.

The package computes rigorous upper bounds for the best constant in
``||f(A)X - X f(B)|| <= C * ||X|| * f(||AX - XB|| / ||X||)`` over
unitarily invariant norms, for operator-monotone test functions such as
``f(x) = x / (x + 1)`` and ``f(x) = sqrt(x)``.  It bundles:

* approximation bounds built from Gaussian antiderivatives, for a single
  Gaussian and for Gaussian mixtures (:mod:`commbounds.approx`),
* derivative-free tuning of the single-Gaussian bound, the search-free
  mixture certifier over a certification grid, and a grid-free bound
  from the lower hull of the witnesses (:mod:`commbounds.optimize`),
* the committed Gaussian-mixture witness table, its file layout and its
  deterministic fit (:mod:`commbounds.witnesses`),
* interval stitching that lifts gridpoint bounds to a global constant
  and integrates it into a square-root commutator constant
  (:mod:`commbounds.stitch`),
* a catalogue of closed-form constants for comparison
  (:mod:`commbounds.formulas`),
* a random-matrix laboratory that checks every inequality on sampled
  Hermitian matrices (:mod:`commbounds.matrixlab`),
* a command line front end (:mod:`commbounds.cli`).
"""

# Each module's __all__ is the one list of its public names; the package
# republishes five of them (not witnesses' or cli's).
from commbounds import approx, formulas, matrixlab, optimize, stitch
from commbounds.approx import *  # noqa: F403
from commbounds.formulas import *  # noqa: F403
from commbounds.matrixlab import *  # noqa: F403
from commbounds.optimize import *  # noqa: F403
from commbounds.stitch import *  # noqa: F403

__all__ = sorted(approx.__all__ + formulas.__all__ + matrixlab.__all__ + optimize.__all__ + stitch.__all__)

__version__ = "0.1.0"
