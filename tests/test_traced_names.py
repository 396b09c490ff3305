"""Every function the benchmark tracer wraps is defined where it looks."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer, fn", [
    (layer, fn) for layer, fns in load_tracer().LAYERS.items() for fn in fns])
def test_traced_function_is_defined_in_its_layer(layer, fn):
    home = importlib.import_module(f"fiberalloc.{layer}")
    assert fn in vars(home), f"fiberalloc.{layer} has no {fn}"
    assert getattr(home, fn).__module__ == f"fiberalloc.{layer}"
