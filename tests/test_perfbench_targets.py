"""The benchmark calls the package by name and wraps some of its attributes.

perfbench/spans.py lists the wrapped ones in TARGETS, and
perfbench/workloads.py calls a few functions with fixed argument names; a
rename, a removed import or a changed signature in the package would
otherwise only show when a benchmark run fails.  The spans file is loaded
by path so the test needs no package for the benchmark.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from commbounds.approx import DomainViolation, GaussianParams, erf_min_bound

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_target_resolves():
    spans = load_spans()
    assert spans.TARGETS
    for module, attribute, *_ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), attribute, None)), (
            f"{module}.{attribute} is traced by perfbench/spans.py but does not resolve"
        )


# The benchmark's calls into the package (perfbench/workloads.py), as
# positional and keyword argument names; the values are placeholders.
# A dotted attribute is looked up part by part.
CALL_SHAPES = {
    "optimize_grid": ("commbounds.optimize", "optimize_grid", ("grid",), ()),
    "certify_grid": ("commbounds.optimize", "certify_grid", ("grid",), ()),
    "build_paper_grid": ("commbounds.optimize", "build_paper_grid", (), ()),
    "global_constant": ("commbounds.stitch", "global_constant", ("points", "c1", "cn"), ()),
    "sqrt_constant": ("commbounds.stitch", "sqrt_constant", ("points",), ()),
    "from_dict": ("commbounds.stitch", "StitchedCertificate.from_dict", ("payload",), ()),
    "certify_mixture": ("commbounds.approx", "certify_mixture", ("params",), ()),
    "optimize_pq_f1": ("commbounds.formulas", "optimize_pq_f1", ("c",), ("start",)),
    "fit_witness": ("commbounds.witnesses", "fit_witness", ("c",), ()),
    "campaign_f1": (
        "commbounds.matrixlab",
        "CampaignConfig",
        (),
        ("n_max", "trials", "seed", "f", "norm", "threads"),
    ),
    "campaign_sharp": (
        "commbounds.matrixlab",
        "CampaignConfig",
        (),
        ("n_max", "trials", "seed", "f", "norm", "a_equals_b", "unit_norm_a", "min_commutator", "threads"),
    ),
    "monte_carlo_campaign": ("commbounds.matrixlab", "monte_carlo_campaign", ("cfg",), ()),
    "verify_conjecture_ratio": ("commbounds.matrixlab", "verify_conjecture_ratio", ("A", "B", "X", "f", "kind"), ()),
    "ky_fan": ("commbounds.matrixlab", "NormKind.ky_fan", ("k",), ()),
    "schatten": ("commbounds.matrixlab", "NormKind.schatten", ("p",), ()),
}


@pytest.mark.parametrize(
    "module, attribute, positional, keywords", CALL_SHAPES.values(), ids=CALL_SHAPES.keys()
)
def test_benchmark_call_shapes_bind(module, attribute, positional, keywords):
    target = importlib.import_module(module)
    for part in attribute.split("."):
        target = getattr(target, part)
    inspect.signature(target).bind(*positional, **{name: name for name in keywords})


def test_rejected_counter_reads_erf_min_bound_outcomes():
    # The traced approx.erf_min_bound.rejected metric counts degenerate
    # outcomes and raised errors, and nothing else.
    rejected = load_spans()._rejected
    args = (1.0, GaussianParams(1.0, 1.0))
    assert rejected(args, erf_min_bound(*args), None) is None
    degenerate = erf_min_bound(1.0, GaussianParams(0.5, 100.0))
    assert degenerate.degenerate
    assert rejected(args, degenerate, None) == {"rejected": 1}
    with pytest.raises(DomainViolation) as raised:
        erf_min_bound(1.0, GaussianParams(0.99999, 1.0))
    assert rejected(args, None, raised.value) == {"rejected": 1}
