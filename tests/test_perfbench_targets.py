"""The traced benchmark wraps module attributes of the package by name.

perfbench/spans.py lists them in TARGETS; a rename or a removed import in
the package would otherwise only show when a traced run fails.  The file
is loaded by path so the test needs no package for the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, attribute, *_ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), attribute, None)), (
            f"{module}.{attribute} is traced by perfbench/spans.py but does not resolve"
        )
