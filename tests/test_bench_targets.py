"""The benchmark tracer's targets name real functions of the package.

``bench/tracing.py`` rebinds each (module, name) of ``TARGETS`` by
lookup; a renamed or moved function would otherwise show only when the
benchmark itself runs.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_bench_tracer_targets_resolve_to_package_callables():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, name, _observe in tracing.TARGETS:
        mod = importlib.import_module(f"{tracing.PACKAGE}.{module}")
        assert callable(getattr(mod, name, None)), f"{module}.{name}"
