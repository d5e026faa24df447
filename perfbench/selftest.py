"""Smoke test of the benchmark itself, at toy sizes; takes seconds.

    python3 perfbench/run.py --selftest

Runs the runner, untraced and traced, on two toy workloads, then checks
that the checks bite: a perturbed series must fail the oracle check or the
ensemble relation, a one-ulp change must change the digest and fail the
child that carries it, mirrored seeds must agree, and the per-sector
reference must match ``oracle.dense_sector_itac``.
"""

import copy
import json
import os

import numpy as np

import run
from workloads import WORKLOADS, _pack, _unpack, series_digest


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {
        trace: {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
        for trace in (False, True)
    }
    for name, trace in (("toy_density", False), ("toy_density", True), ("toy_sector_itac", True)):
        result, record = run.measure(name, seed=1, seconds=0.0, trace=trace)
        problems = [p for c in record["children"] for p in c["problems"]]
        expect(result["correct"] and result["attempted"] == 1 + trace and result["failed"] == 0,
               f"{name} trace={trace:d}: every child passes its checks {problems}")
        reported = {k: m["unit"] for k, m in result["metrics"].items()}
        expect(reported == declared[trace], f"{name} trace={trace:d}: metrics match BENCHMARK.json")
        if trace:
            metrics = result["metrics"]
            expect(metrics["mps_core.gate_apply.count"]["value"] > 0
                   and metrics["charge_tensor.svd.flops_computed"]["value"] > 0,
                   f"{name}: traced counts are nonzero")

    wl = WORKLOADS["toy_density"]
    ref = wl.reference(wl.inputs(0))
    rep = run.spawn("toy_density", 0, "solve", 60.0)
    expect(not wl.check(ref, rep["output"])[1], "toy_density: unperturbed series passes")
    bad = copy.deepcopy(rep["output"])
    bad["series"]["density"][2][0] += 1e-5
    expect(bool(wl.check(ref, bad)[1]), "toy_density: series perturbed by 1e-5 is rejected")
    ulp = copy.deepcopy(rep["output"])
    ulp["series"]["density"][2][0] = float(np.nextafter(ulp["series"]["density"][2][0], 1.0))
    expect(series_digest(ulp) != series_digest(rep["output"]), "digest changes with one ulp")
    children = [("solve", rep, []), ("solve", dict(rep, output=ulp), [])]
    run.mark_mismatches(children)
    expect(not children[0][2] and bool(children[1][2]), "a child with another digest counts as failed")
    mirrored = run.spawn("toy_density", 1, "solve", 60.0)
    a = _unpack(rep["output"]["series"]["density"])
    b = _unpack(mirrored["output"]["series"]["density"])
    expect(float(np.max(np.abs(a - b))) < 1e-12, "mirror seeds give the same densities")

    wl = WORKLOADS["toy_sector_itac"]
    ref = wl.reference(wl.inputs(0))
    rep = run.spawn("toy_sector_itac", 0, "solve", 60.0)
    expect(not wl.check(ref, rep["output"])[1], "toy_sector_itac: unperturbed series passes")
    bad = copy.deepcopy(rep["output"])
    c3 = _unpack(bad["series"]["C3"])
    c3[-1] += 1e-5
    bad["series"]["C3"] = _pack(c3)
    problems = wl.check(ref, bad)[1]
    expect(any("ensemble" in p for p in problems), f"toy_sector_itac: perturbed C_3 is rejected {problems}")

    from mpodyn import oracle
    from mpodyn.models import SIGMA_Z

    H = oracle.dense_hamiltonian(wl.spec()).entries
    O = oracle.site_operator(SIGMA_Z, wl.inputs(0)["site"], wl.L)
    t = wl.n_steps * wl.dt
    dense = [oracle.dense_sector_itac(H, O, t, wl.L, 2, N).real for N in (1, 3)]
    expect(np.allclose([ref[1][-1], ref[3][-1]], dense, atol=1e-12, rtol=0),
           "per-sector reference matches oracle.dense_sector_itac")

    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0
