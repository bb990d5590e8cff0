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

from commbounds.approx import (
    CommboundsError,
    DomainViolation,
    ErfMinOutcome,
    GaussianParams,
    MixtureCertificate,
    MixtureParams,
    NoSignChange,
    NumericalFailure,
    RootValidationFailed,
    certify_mixture,
    certify_mixtures,
    erf_min_bound,
    f1,
)
from commbounds.formulas import (
    PiecewiseQuadParams,
    csc1,
    gamma_boyadzhiev,
    gamma_olsen_pedersen,
    gamma_pedersen,
    gamma_sin,
    gamma_tangent,
    optimize_pq_f1,
    pq_f1_bound,
    pq_sqrt_bound,
    scaled_cayley_Cc,
    shift_constant,
    simple_Ct,
    trivial_constant,
)
from commbounds.matrixlab import (
    BadParameter,
    CampaignConfig,
    CampaignReport,
    NormKind,
    NotHermitian,
    SpectralRadiusTooLarge,
    ZeroDenominator,
    counterexample_report,
    hermitian_eig,
    monte_carlo_campaign,
    singular_values,
    ui_norm,
    verify_conjecture_ratio,
    verify_exp_equivalence,
    verify_jensen,
)
from commbounds.optimize import (
    BoundPoint,
    HullConstant,
    build_paper_grid,
    certify_grid,
    hull_constant,
    optimize_grid,
    pattern_search,
    pattern_search_nd,
)
from commbounds.stitch import (
    ArgumentOrder,
    CoverageGap,
    RejectedCertificate,
    StitchedCertificate,
    continuity_lift,
    corner_large,
    corner_small,
    gamma_half_via_Cc,
    global_constant,
    sqrt_constant,
)

__all__ = [
    "ArgumentOrder",
    "BadParameter",
    "BoundPoint",
    "CampaignConfig",
    "CampaignReport",
    "CommboundsError",
    "CoverageGap",
    "DomainViolation",
    "ErfMinOutcome",
    "GaussianParams",
    "HullConstant",
    "MixtureCertificate",
    "MixtureParams",
    "NoSignChange",
    "NormKind",
    "NotHermitian",
    "NumericalFailure",
    "PiecewiseQuadParams",
    "RejectedCertificate",
    "RootValidationFailed",
    "SpectralRadiusTooLarge",
    "StitchedCertificate",
    "ZeroDenominator",
    "build_paper_grid",
    "certify_grid",
    "certify_mixture",
    "certify_mixtures",
    "continuity_lift",
    "corner_large",
    "corner_small",
    "counterexample_report",
    "csc1",
    "erf_min_bound",
    "f1",
    "gamma_boyadzhiev",
    "gamma_half_via_Cc",
    "gamma_olsen_pedersen",
    "gamma_pedersen",
    "gamma_sin",
    "gamma_tangent",
    "global_constant",
    "hermitian_eig",
    "hull_constant",
    "monte_carlo_campaign",
    "optimize_grid",
    "optimize_pq_f1",
    "pattern_search",
    "pattern_search_nd",
    "pq_f1_bound",
    "pq_sqrt_bound",
    "scaled_cayley_Cc",
    "shift_constant",
    "simple_Ct",
    "singular_values",
    "sqrt_constant",
    "trivial_constant",
    "ui_norm",
    "verify_conjecture_ratio",
    "verify_exp_equivalence",
    "verify_jensen",
]

__version__ = "0.1.0"
