"""The benchmark's per-layer spans still resolve against the package.

``perfbench/spans.py`` wraps program functions by module and name. A rename
or deletion drops its span silently, and only the traced benchmark run
would notice. This loads the span table unchanged and checks that exactly
the spans known to be missing are missing.
"""

import importlib.util
from pathlib import Path

import opiniondyn
import opiniondyn.cli  # noqa: F401  (the spans reach cli and outputs as package attributes)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# Spans naming functions that those modules do not import today.
KNOWN_MISSING = ["dynamics.config_from_dict", "dynamics.nearest_term", "baselines.nearest_term"]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_span_but_the_known_three_resolves():
    spans = load_spans()
    with spans.Tracer(opiniondyn) as tracer:
        assert tracer.missing == KNOWN_MISSING
    assert tracer.restored()
