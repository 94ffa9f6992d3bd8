"""Every function the benchmark's span tracer wraps still exists.

perfbench/spans.py rebinds named module globals to record spans; a name
that moves or disappears is reported as a missing target and its layer
silently reads zero.  This reads the tracer's target list from the
file and resolves each (module, attribute) pair.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def trace_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("module, attr, span", trace_targets())
def test_trace_target_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None)), (
        f"{module}.{attr} (span {span}) no longer exists"
    )
