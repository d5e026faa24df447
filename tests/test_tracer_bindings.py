"""The benchmark tracer (``perfbench/tracer.py``) wraps mpodyn callables by
name; a rename or a changed signature in the package must fail here, not
only in the benchmark's self-test."""

import importlib.util
import inspect
from pathlib import Path

import pytest

import mpodyn  # noqa: F401  (loads every package module the tracer searches)
from mpodyn import charge_tensor

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("layer", tracer.LAYERS, ids=lambda layer: f"{layer[0]}:{layer[3]}")
def test_every_layer_binding_resolves(layer):
    _name, module, cls, attr = layer
    bindings = tracer._bindings(module, cls, attr)
    assert bindings, f"nothing binds {module}.{attr}"
    for owner, a in bindings:
        assert callable(getattr(owner, a))


def test_scale_axis_fourth_parameter_is_inverse():
    # the tracer names a call "restore" from scale_axis's 4th positional argument
    params = list(inspect.signature(charge_tensor.scale_axis).parameters)
    assert params[3] == "inverse"
    assert tracer._scale_axis_name((None, 0, {}, True), {}) == "charge_tensor.restore"
