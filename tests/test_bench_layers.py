"""The benchmark tracer's layer table names callables that exist.

bench/tracing.py wraps every name in STILLWAVE_LAYERS by getattr at run
time, so a public name removed from the package breaks the benchmark
before any workload runs. This test loads that file by path and checks
each name, without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_tracing().STILLWAVE_LAYERS


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_layer_names_are_callables(layer):
    module_name, names = LAYERS[layer]
    module = importlib.import_module(module_name)
    assert names
    for name in names:
        assert callable(getattr(module, name, None)), f"{module_name}.{name}"
