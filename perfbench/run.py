#!/usr/bin/env python3
"""Time-to-solution benchmark for mpodyn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source tree (``src/mpodyn`` next to this
directory).  One invocation measures one workload: it builds the dense
reference, starts fresh child processes one at a time (setup-only ones,
then solves until ``--seconds`` have passed), checks every child's output
against the reference and against the first child's digest and counts,
and prints a record line followed by one JSON result line.  ``--trace 1``
adds one traced child and reports per-layer metrics instead of the
end-to-end ones.  See README.md for the metrics and workloads.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MPODYN_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import fcntl  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

SETUP_SAMPLES = 3  # setup-only children per run, on top of the solving ones
PROBE_REF_S = 0.5  # the probe's typical time on the 2-vCPU VM of README.md
DEADLINE_S = 170.0  # a run ends well inside the three minutes it may take
ATTRIBUTION_TOL = 0.05  # traced layer self times must cover solve_s to 5%


class ChildFailed(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, timeout: float, spans: str | None = None) -> dict:
    """Run one child process to completion and return its report."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {tail}")
    return json.loads(lines[-1])


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` as it would read on a machine where the probe takes ``PROBE_REF_S``."""
    return seconds * PROBE_REF_S / probe_s


def machine_info() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "mpodyn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the source tree, read from ``.git`` when it is there."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def fingerprint(report: dict) -> tuple:
    """What must repeat exactly across runs of one commit and seed."""
    from workloads import series_digest

    return (series_digest(report["output"]), int(report["gate_applications"]),
            int(report["svd_calls"]), int(report["output"]["chi_max"]))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, record)."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    started = time.monotonic()
    inputs = wl.inputs(seed)
    ref = wl.reference(inputs)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "inputs": inputs, "reference_s": time.monotonic() - started, "children": [],
    }

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    setup_only = [spawn(workload, seed, "setup", remaining()) for _ in range(SETUP_SAMPLES)]

    # solve until the next solve would end, by the last one's length, mostly
    # after the window: the time measured averages ``seconds``
    children = []  # (mode, report or None, problems)
    t0 = time.monotonic()
    last = 0.0
    while not children or (time.monotonic() - t0 + last / 2 < seconds and remaining() > 3 * last):
        c0 = time.monotonic()
        children.append(run_child(wl, workload, seed, "solve", remaining(), ref))
        last = time.monotonic() - c0
    if trace:
        spans = os.path.join(STATE, f"spans-{workload}-seed{seed}.json")
        children.append(run_child(wl, workload, seed, "trace", remaining(), ref, spans))

    mark_mismatches(children)
    failed = sum(1 for _, _, p in children if p)

    solved = [r for m, r, p in children if m == "solve" and r is not None]
    # each child times the probe right after its setup and, if it solves,
    # right after its solve; the probe stands for the machine's speed then
    setups = [r["setup_s"] for r in setup_only + solved]
    setups_scaled = [scaled(r["setup_s"], r["probe_s"][0]) for r in setup_only + solved]
    solves_scaled = [scaled(r["solve_s"], statistics.fmean(r["probe_s"])) for r in solved]
    solve_s = statistics.median(r["solve_s"] for r in solved) if solved else None
    if trace:
        metrics = trace_metrics(children, solve_s)
    else:
        metrics = {
            "solve_norm_s": (statistics.median(solves_scaled) if solved else None, "s"),
            "setup_s": (statistics.median(setups_scaled), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in solved) if solved else None, "MB"),
            "oracle_max_dev": (max(r["oracle_dev"] for r in solved) if solved else None, "abs"),
        }
    for mode, rep, problems in children:
        entry = {"mode": mode, "problems": problems}
        if rep is not None:
            entry.update({k: v for k, v in rep.items() if k not in ("output", "layers")})
            entry["fingerprint"] = list(fingerprint(rep))
        record["children"].append(entry)
    record.update(solve_s=solve_s, solve_norm_samples=solves_scaled,
                  setup_samples=setups, setup_norm_samples=setups_scaled)
    result = {
        "correct": failed == 0,
        "attempted": len(children),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


def mark_mismatches(children) -> None:
    """Fail every child whose fingerprint differs from the first good child's."""
    good = [rep for _, rep, _ in children if rep is not None]
    if not good:
        return
    expected = fingerprint(good[0])
    for _mode, rep, problems in children:
        if rep is not None and fingerprint(rep) != expected:
            problems.append(f"fingerprint {fingerprint(rep)} differs from {expected}")


def run_child(wl, workload, seed, mode, timeout, ref, spans=None):
    """Spawn and check one solving child; a failure is kept, never dropped."""
    try:
        rep = spawn(workload, seed, mode, timeout, spans)
    except ChildFailed as exc:
        return mode, None, [str(exc)]
    rep["oracle_dev"], problems = wl.check(ref, rep["output"])
    if mode == "trace":
        problems += trace_problems(wl, rep)
    return mode, rep, problems


def trace_problems(wl, rep: dict) -> list[str]:
    layers = rep["layers"]
    problems = []
    share = layers["trace.unattributed_s"] / rep["solve_s"]
    if not abs(share) <= ATTRIBUTION_TOL:
        problems.append(f"layers leave {share:.1%} of solve_s unattributed")
    for name in wl.required_layers:
        if not layers[f"{name}.count"] > 0:
            problems.append(f"layer {name} recorded no calls")
    return problems


PER_LAYER = (
    "models.gate_build.count", "models.gate_build.self_s", "models.band_table.self_s",
    "mps_core.gate_apply.count", "mps_core.gate_apply.self_s",
    "mps_core.canonicalize.count", "mps_core.canonicalize.self_s",
    "mps_core.entropy_profile.self_s",
    "charge_tensor.svd.count", "charge_tensor.svd.self_s", "charge_tensor.svd.max_rows",
    "charge_tensor.svd.max_cols", "charge_tensor.svd.flops_computed",
    "charge_tensor.svd.gate_s", "charge_tensor.svd.observe_s", "charge_tensor.svd.fallback.count",
    "charge_tensor.truncation.self_s", "charge_tensor.truncation.kept_ratio",
    "charge_tensor.scale_axis.self_s", "charge_tensor.restore.self_s",
    "charge_tensor.contract.count", "charge_tensor.contract.self_s",
    "operator_space.hs_trace_pair.count", "operator_space.hs_trace_pair.self_s",
    "operator_space.expectation_in_state.count", "operator_space.expectation_in_state.self_s",
    "operator_space.out_chain_compose.count", "operator_space.out_chain_compose.self_s",
    "operator_space.apply_out_chain.count", "operator_space.apply_out_chain.self_s",
    "projector.project_operator.count", "projector.project_operator.self_s",
    "projector.projector_superstate.count", "projector.projector_superstate.self_s",
    "trace.unattributed_s",
)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("count", "max_rows", "max_cols")):
        return "count"
    return "flop" if name.endswith("flops_computed") else "ratio"


def trace_metrics(children, untraced_solve_s) -> dict:
    traced = [r for m, r, _ in children if m == "trace" and r is not None]
    if not traced:
        return {}
    rep = traced[0]
    layers = rep["layers"]
    metrics = {name: (layers[name], _unit(name)) for name in PER_LAYER}
    metrics["mps_core.chi_max"] = (rep["output"]["chi_max"], "count")
    metrics["charge_tensor.truncation.accumulated_cutoff"] = (rep["output"]["accumulated_cutoff"], "ratio")
    overhead = None if untraced_solve_s is None else rep["solve_s"] - untraced_solve_s
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def acquire_lock():
    """Hold ``.perfbench/lock`` for the life of the process, or exit."""
    os.makedirs(STATE, exist_ok=True)
    fh = open(os.path.join(STATE, "lock"), "w")
    try:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        sys.exit("perfbench: another benchmark run holds .perfbench/lock; runs go one at a time")
    return fh


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "mpodyn", "__init__.py")):
        sys.exit(f"perfbench: no mpodyn sources under {SRC}")
    sys.path.insert(0, SRC)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    lock = acquire_lock()
    try:
        if args.selftest:
            import selftest

            sys.exit(selftest.main())
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            sys.exit(f"perfbench: unknown workload {args.workload!r}")
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        record["machine"] = machine_info()
        path = os.path.join(STATE, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump({"record": record, "result": result}, fh, indent=1)
        print(json.dumps({"record": record}))
        print(json.dumps(result))
    finally:
        lock.close()


if __name__ == "__main__":
    main()
