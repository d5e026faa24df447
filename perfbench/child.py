"""One measured process: set up, optionally solve, report one JSON line.

Started by ``run.py`` with the thread variables already set in its
environment.  ``--spawned`` is the parent's ``time.monotonic()`` just
before the process was started, so ``setup_s`` covers process start,
interpreter start-up, ``import mpodyn`` and building the inputs.

Modes:
  setup  stop once the inputs are ready, then time the probe
  solve  time the probe, the solve and the probe again; count gate
         applications and SVD calls
  trace  time the solve with every layer wrapped in spans, write the spans
         to ``--spans`` and report per-layer statistics
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def probe() -> float:
    """Seconds taken by a fixed mix of work that never calls mpodyn.

    Pure-Python dict arithmetic, many small complex matrix products and
    reshapes, and mid-size complex SVDs: the kinds of work the solves are
    made of.  On a shared host the speed of a core drifts by up to 2x
    within minutes; timed right next to a solve, the probe tells how fast
    the core was then, and ``run.py`` scales the solve by it.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    small = [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) for _ in range(8)]
    mid = rng.standard_normal((120, 120)) + 1j * rng.standard_normal((120, 120))
    start = time.perf_counter()
    acc = {}
    for i in range(800_000):
        acc[i % 97] = acc.get(i % 97, 0) + i * i % 7
    for i in range(30_000):
        x = small[i % 8] @ small[(i + 1) % 8]
        np.abs(x.reshape(3, 2, 6).transpose(1, 0, 2).reshape(6, 6)).sum()
    for _ in range(24):
        np.linalg.svd(mid)
    return time.perf_counter() - start


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "solve", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import mpodyn

    if not os.path.abspath(mpodyn.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported mpodyn from {mpodyn.__file__}, not from {SRC}")
    import tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    prepared = wl.prepare(wl.inputs(args.seed))
    report = {"setup_s": time.monotonic() - args.spawned}
    if args.mode != "trace":
        report["probe_s"] = [probe()]

    if args.mode == "solve":
        counter = tracer.Counter()
        tracer.install(counter.wrapper, [
            layer for layer in tracer.LAYERS
            if layer[0] in ("mps_core.gate_apply", "charge_tensor.svd")
        ])
        start = time.perf_counter()
        out = wl.solve(prepared)
        report["solve_s"] = time.perf_counter() - start
        report["gate_applications"] = counter.counts["mps_core.gate_apply"]
        report["svd_calls"] = counter.counts["charge_tensor.svd"]
        report["probe_s"].append(probe())
    elif args.mode == "trace":
        tr = tracer.Tracer()
        tracer.install(tr.wrapper)
        out, report["solve_s"] = tr.run(lambda: wl.solve(prepared))
        layers = tracer.layer_stats(tr.spans)
        report["layers"] = layers
        report["gate_applications"] = layers["mps_core.gate_apply.count"]
        report["svd_calls"] = layers["charge_tensor.svd.count"]
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(tr.spans, fh)

    if args.mode != "setup":
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["output"] = out
    print(json.dumps(report))


if __name__ == "__main__":
    main()
