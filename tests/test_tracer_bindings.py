"""The benchmark tracer (``perfbench/tracer.py``) wraps mpodyn callables by
name; a rename or a changed signature in the package must fail here, not
only in the benchmark's self-test."""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mpodyn  # noqa: F401  (loads every package module the tracer searches)
from mpodyn import charge_tensor

REPO = Path(__file__).resolve().parent.parent
TRACER = REPO / "perfbench" / "tracer.py"


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


# Traces one toy-size solve of a workload class with the layer list of a
# benchmark workload and prints each required layer's call count.  It runs
# in its own process because the tracer's wrappers stay for the process.
TRACE_SCRIPT = """
import copy, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from workloads import WORKLOADS

wl = copy.copy(WORKLOADS[sys.argv[4]])
wl.required_layers = WORKLOADS[sys.argv[3]].required_layers
prepared = wl.prepare(wl.inputs(0))
tr = tracer.Tracer()
tracer.install(tr.wrapper)
tr.run(lambda: wl.solve(prepared))
stats = tracer.layer_stats(tr.spans)
print(json.dumps({name: stats[name + ".count"] for name in wl.required_layers}))
"""


@pytest.mark.parametrize(
    "workload, toy",
    [("bh6_density_canonical", "toy_density"), ("xxz10_sector_itac", "toy_sector_itac")],
)
def test_required_layers_record_calls_at_toy_size(workload, toy):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MPODYN_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", TRACE_SCRIPT, str(REPO / "src"), str(REPO / "perfbench"), workload, toy],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [name for name, n in counts.items() if n == 0] == []
