"""The package namespace: the public names of five modules, each declared once.

Each module's __all__ lists its public names; the package republishes
the lists of approx, formulas, matrixlab, optimize and stitch, and
nothing else but the submodules themselves.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import commbounds
from commbounds import approx, formulas, matrixlab, optimize, stitch

REPUBLISHED = (approx, formulas, matrixlab, optimize, stitch)

# The package's public names, in the order of its __all__.
PACKAGE_NAMES = [
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
    "singular_values",
    "sqrt_constant",
    "trivial_constant",
    "ui_norm",
    "verify_conjecture_ratio",
    "verify_exp_equivalence",
    "verify_jensen",
]


def test_package_all_is_unchanged():
    assert commbounds.__all__ == PACKAGE_NAMES


def test_every_name_is_its_modules_object():
    owners = {}
    for module in REPUBLISHED:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            # The five lists are pairwise disjoint.
            assert name not in owners, (name, owners.get(name), module.__name__)
            owners[name] = module.__name__
            assert getattr(commbounds, name) is getattr(module, name), name
    assert sorted(owners) == commbounds.__all__


def test_namespace_holds_nothing_else():
    # In a fresh interpreter, since this session may have imported more
    # submodules (cli) than the package import loads.
    source = str(Path(commbounds.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", "import commbounds; print(sorted(n for n in dir(commbounds) if n[0] != '_'))"],
        env=dict(os.environ, PYTHONPATH=source, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    submodules = {"approx", "formulas", "matrixlab", "optimize", "stitch", "witnesses"}
    assert set(ast.literal_eval(done.stdout)) == set(PACKAGE_NAMES) | submodules


def test_module_only_names_stay_in_their_modules():
    # Helpers the tests and the benchmark import from their modules; the
    # package does not republish them.
    for module, names in (
        (
            approx,
            ("j_func", "j_prime", "j_limit", "phi", "x_star", "x_end", "bracketed_root", "mixture_residual", "node_value"),
        ),
        (formulas, ("pq_sqrt_t_star",)),
    ):
        for name in names:
            assert callable(getattr(module, name)), name
            assert not hasattr(commbounds, name), name
