"""Every function the benchmark's tracer wraps still exists in the package.

``perfbench/run.py --trace 1`` looks each ``TARGETS`` entry and each
``SUITE_NAMES`` suite up by name, so renaming or deleting one of them
crashes every traced run.  The tracer is loaded from its file, unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


tracer = load_tracer()


@pytest.mark.parametrize("module, path", [(t[0], t[1]) for t in tracer.TARGETS])
def test_trace_target_resolves(module, path):
    owner = importlib.import_module(f"panache.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_traced_suites_resolve():
    from panache.suites import SUITES
    assert set(tracer.SUITE_NAMES) <= set(SUITES)
