"""Command line front end: run configuration, orchestration, data emission.

Subcommands: ``simulate``, ``projector-osee``, ``oracle-check``, ``compare``,
``fit``.  Every simulate run writes one CSV with header
``t,re,im,accumulated_cutoff,max_osee,chi_max_used`` plus a JSON sidecar
holding the config (with only the couplings the model reads), library
version, and the termination reason.
Floats are emitted with 17 significant digits so CSV bodies are
byte-stable across reruns of the same config; timestamps live only in the
sidecar.

The paper's full-scale recipe (never run in this repository): the
spin-chain autocorrelation experiment at L=40, anisotropy 0.8, site 20,
order-4 steps of 1/4, cutoff budget 1e-2, with bond dimensions 4000
(canonical), 1000 (grand-canonical), 500 (brute); the paper reports a
decay exponent of about -0.83 when fit over t = 3..11.5.  At desk scale
the fit is demonstrative only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .charge_tensor import TruncationPolicy
from .evolution import make_schedule
from .models import ModelSpec
from .observables import (
    TimeSeries,
    build_observable_superstate,
    fit_itac,
    itac_series,
    local_density_series,
    observe_series,
)
from .operator_space import BRUTE, CANONICAL, GRAND_CANONICAL
from .projector import projector_osee


METHODS = {
    "brute": BRUTE,
    "grand-canonical": GRAND_CANONICAL,
    "grand_canonical": GRAND_CANONICAL,
    "canonical": CANONICAL,
}


# compare --run key: (RunConfig field it sets, value parser, run-label part)
RUN_KEYS = {
    "method": ("method", METHODS.__getitem__, lambda val: val.replace("-", "_")),
    "chi": ("chi", int, "chi{}".format),
    "n": ("n_sector", int, "N{}".format),
}


# the couplings each --model passes to its Hamiltonian; the other coupling flags are ignored
COUPLINGS = {"xxz": ("delta",), "bose-hubbard": ("hopping", "interaction")}


@dataclasses.dataclass
class RunConfig:
    """One simulate/compare run; each field is set by the flag whose dest it names."""

    model: str
    length: int
    local_dim: int
    delta: float
    hopping: float
    interaction: float
    method: str
    n_sector: int | None
    observable: str
    site: int
    psi0: str | None
    chi: int | None
    dt: float
    order: int
    t_max: float
    cutoff_budget: float
    output: str

    def validate(self) -> None:
        if self.method == CANONICAL and self.observable != "density" and self.n_sector is None:
            raise ValueError("canonical method requires --n")
        if not 1 <= self.site <= self.length:
            raise ValueError("site out of range")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"--dt must be finite and positive, got {self.dt}")
        if not (math.isfinite(self.t_max) and self.t_max >= 0):
            raise ValueError(f"--tmax must be finite and >= 0, got {self.t_max}")
        if not math.isfinite(self.t_max / self.dt):
            raise ValueError(f"--tmax / --dt must be finite, got {self.t_max} / {self.dt}")
        if not 0 < self.cutoff_budget <= 1:
            raise ValueError("budget must be in (0, 1]")
        if self.observable == "density" and self.psi0 is None:
            raise ValueError("density observable requires --psi0")
        if self.observable != "density" and self.psi0 is not None:
            raise ValueError(f"--psi0 is read only by the density observable, not {self.observable}")
        if not os.path.isdir(os.path.dirname(os.path.abspath(self.output))):
            raise ValueError(f"no directory for --output {self.output}")
        # the model and the policy check their own fields, before any run starts
        spec = self.model_spec()
        TruncationPolicy(self.chi, 0.0)
        if self.n_sector is not None:
            if self.observable == "density" and self.n_sector != sum(_occupations(self.psi0)):
                raise ValueError("--n differs from the particle number of psi0")
            if self.observable != "density" and self.method != CANONICAL:
                raise ValueError(f"--n needs --method canonical for {self.observable}")
            if not 0 <= self.n_sector <= self.length * (spec.d - 1):
                raise ValueError("infeasible particle number")

    def model_spec(self) -> ModelSpec:
        couplings = {name: getattr(self, name) for name in COUPLINGS[self.model]}
        if self.model == "xxz":
            return ModelSpec.xxz(self.length, **couplings)
        return ModelSpec.bose_hubbard(self.length, self.local_dim, **couplings)

    def record(self) -> dict:
        """The config as a sidecar stores it: ``local_dim`` is the model's own (XXZ: 2),
        and of the couplings only those the model reads."""
        unread = set().union(*COUPLINGS.values()) - set(COUPLINGS[self.model])
        config = {k: v for k, v in dataclasses.asdict(self).items() if k not in unread}
        return dict(config, local_dim=self.model_spec().d)


def _occupations(psi0: str) -> list[int]:
    """The occupations of a ``--psi0`` string, one digit per site, site 1 first."""
    if not (psi0.isascii() and psi0.isdigit()):
        raise ValueError(f"--psi0 takes digits, one occupation per site, got {psi0!r}")
    return [int(c) for c in psi0]


def _write_rows(path: str, rows: list[tuple], header: str) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def _sidecar(path: str, config: dict, termination: str | None, extra: dict | None = None) -> None:
    payload = {
        "config": config,
        "version": __version__,
        "termination_reason": termination,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, default=str)


def _series_rows(series: TimeSeries) -> list[tuple]:
    meta = series.meta
    columns = (meta["accumulated_cutoff"], meta["max_osee"], meta["chi_used"])
    return [
        (float(t), float(v.real), float(v.imag), float(cut), float(osee), int(chi))
        for t, v, cut, osee, chi in zip(series.times, series.values, *columns)
    ]


def _run_series(cfg: RunConfig) -> TimeSeries:
    spec = cfg.model_spec()
    schedule = make_schedule(cfg.order, cfg.dt)
    policy = TruncationPolicy(cfg.chi, 0.0)
    if cfg.observable == "itac":
        return itac_series(
            spec, cfg.site, cfg.method, schedule, policy, cfg.t_max, cfg.cutoff_budget, cfg.n_sector
        )
    if cfg.observable == "density":
        psi0 = _occupations(cfg.psi0)
        return local_density_series(
            spec, psi0, cfg.site, cfg.method, schedule, policy, cfg.t_max, cfg.cutoff_budget
        )
    if cfg.observable == "osee":
        target = build_observable_superstate(spec, cfg.site, cfg.method, cfg.n_sector)
        bond = max(1, min(cfg.site, spec.L - 1))
        meta = {"observable": f"osee bond {bond}", "method": cfg.method, "N": cfg.n_sector}
        return observe_series(
            target, spec, schedule, policy, cfg.t_max, cfg.cutoff_budget,
            lambda state: state.osee_profile()[bond - 1], meta,
        )
    raise ValueError(f"unknown observable {cfg.observable!r}")


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    cfg.validate()
    series = _run_series(cfg)
    _write_rows(cfg.output, _series_rows(series), "t,re,im,accumulated_cutoff,max_osee,chi_max_used")
    _sidecar(cfg.output + ".json", cfg.record(), series.meta["termination_reason"])
    print(f"wrote {cfg.output} ({len(series.times)} rows)")
    return 0


def cmd_projector_osee(args) -> int:
    try:
        lo, hi = (int(x) for x in args.n_range.split(":"))
    except ValueError:
        raise ValueError(f"--n-range must be lo:hi, got {args.n_range!r}") from None
    if lo > hi:
        raise ValueError(f"--n-range {args.n_range} is empty (lo > hi)")
    rows = [(n, projector_osee(n, args.length, args.d, args.bond)) for n in range(lo, hi + 1)]
    _write_rows(args.output, rows, "n,osee")
    options = ("d", "length", "n_range", "bond", "output")
    _sidecar(args.output + ".json", {k: getattr(args, k) for k in options}, "complete")
    print(f"wrote {args.output} ({len(rows)} rows)")
    return 0


def cmd_oracle_check(args) -> int:
    from scipy import sparse

    from . import oracle

    if not 1 <= args.site <= args.length:
        raise ValueError("site out of range")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    spec = (
        ModelSpec.xxz(args.length, args.delta)
        if args.model == "xxz"
        else ModelSpec.bose_hubbard(args.length, args.d, args.interaction)
    )
    schedule = make_schedule(4, args.dt)
    policy = TruncationPolicy(None, 1e-12)
    report = {}
    if args.suite == "itac":
        H = oracle.dense_hamiltonian(spec).entries
        obs_mat = (
            oracle.site_operator(np.array([[-1.0, 0], [0, 1.0]]), args.site, spec.L)
            if spec.d == 2
            else oracle.site_operator(np.diag(np.arange(spec.d, dtype=float)), args.site, spec.L)
        )
        series = itac_series(spec, args.site, GRAND_CANONICAL, schedule, policy, args.tmax)
        devs = [
            abs(v - oracle.dense_itac(H, obs_mat, t))
            for t, v in zip(series.times, series.values)
        ]
        report["itac_grand_canonical"] = max(devs)
        for N in range(1, min(spec.L, 3) + 1):
            series = itac_series(spec, args.site, CANONICAL, schedule, policy, args.tmax, N=N)
            devs = [
                abs(v - oracle.dense_sector_itac(H, obs_mat, t, spec.L, spec.d, N))
                for t, v in zip(series.times, series.values)
            ]
            report[f"itac_canonical_N{N}"] = max(devs)
    else:
        psi0 = _occupations(args.psi0 or ("01" * spec.L)[: spec.L])
        H = sparse.csr_matrix(oracle.dense_hamiltonian(spec).entries)
        v0 = oracle.fock_statevector(psi0, spec.d)
        nmat = oracle.site_operator(np.diag(np.arange(spec.d, dtype=float)), args.site, spec.L)
        for method in (CANONICAL, GRAND_CANONICAL):
            series = local_density_series(
                spec, psi0, args.site, method, schedule, policy, args.tmax
            )
            devs = []
            for t, v in zip(series.times, series.values):
                vt = oracle.dense_statevector_evolve(H, v0, t)
                devs.append(abs(v - vt.conj() @ (nmat @ vt)))
            report[f"density_{method}"] = max(devs)
    passed = {name: dev <= args.tol for name, dev in report.items()}  # a NaN deviation fails
    for name, dev in report.items():
        print(f"{name}: max deviation {dev:.3e} [{'ok' if passed[name] else 'FAIL'}]")
    return 0 if all(passed.values()) else 1


def cmd_compare(args) -> int:
    base = _config_from_args(args)
    runs = []
    for spec_str in args.run:
        changes, labels = {}, []
        for item in spec_str.split(","):
            key, _, val = item.partition("=")
            if key not in RUN_KEYS:
                raise ValueError(f"unknown run key {key!r}")
            field, parse, label = RUN_KEYS[key]
            try:
                changes[field] = parse(val)
            except (KeyError, ValueError):
                raise ValueError(f"--run item {item!r}: {val!r} is not a valid {key}") from None
            labels.append(label(val))
        cfg, label = dataclasses.replace(base, **changes), "_".join(labels)
        cfg.validate()
        if label in (done for done, _ in runs):
            raise ValueError(f"--run {spec_str!r} repeats the run {label}")
        runs.append((label, cfg))
    serieses = [(label, _run_series(cfg)) for label, cfg in runs]
    n_common = min(len(s.times) for _, s in serieses)
    header = "t," + ",".join(f"{label}_re,{label}_im" for label, _ in serieses)
    rows = []
    for i in range(n_common):
        row = [float(serieses[0][1].times[i])]
        for _, s in serieses:
            row += [float(s.values[i].real), float(s.values[i].imag)]
        rows.append(tuple(row))
    _write_rows(args.output, rows, header)
    summary = {
        label: {"last_time": float(s.times[-1]), "termination": s.meta["termination_reason"]}
        for label, s in serieses
    }
    last_common = float(min(s.times[-1] for _, s in serieses))
    extra = {"runs": summary, "last_common_time": last_common}
    _sidecar(args.output + ".json", base.record(), "complete", extra)
    print(f"wrote {args.output}; last common time {last_common}")
    return 0


def cmd_fit(args) -> int:
    times, re = [], []
    with open(args.input) as fh:
        header = fh.readline().strip().split(",")
        if missing := [col for col in ("t", "re") if col not in header]:
            raise ValueError(f"{args.input} has no column {' or '.join(map(repr, missing))}")
        t_col, re_col = header.index("t"), header.index("re")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue  # blank lines, a trailing one too, hold no row
            parts = line.strip().split(",")
            if len(parts) < len(header):
                raise ValueError(f"{args.input} line {lineno} has {len(parts)} of {len(header)} columns")
            times.append(float(parts[t_col]))
            re.append(float(parts[re_col]))
    series = TimeSeries(np.array(times), np.array(re, dtype=complex), {})
    params, residual = fit_itac(series, (args.t_lo, args.t_hi))
    out = dataclasses.asdict(params)
    out["residual_rms"] = residual
    print(json.dumps(out, indent=1))
    return 0


def _config_from_args(args) -> RunConfig:
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)}
    return RunConfig(**dict(values, method=METHODS[args.method]))


def _add_run_args(p, with_method=True):
    """One flag per RunConfig field; compare sets ``method``/``n_sector`` per --run."""
    p.add_argument("--model", choices=list(COUPLINGS), default="xxz")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--d", dest="local_dim", type=int, default=2, help="local dimension (bosons)")
    p.add_argument("--delta", type=float, default=0.0, help="spin anisotropy")
    p.add_argument("--hopping", type=float, default=1.0)
    p.add_argument("--interaction", type=float, default=0.0)
    if with_method:
        p.add_argument("--method", choices=sorted(METHODS), default="grand-canonical")
        p.add_argument("--n", dest="n_sector", type=int, help="input particle number (canonical)")
    p.add_argument("--observable", choices=["itac", "density", "osee"], default="itac")
    p.add_argument("--site", type=int, required=True)
    p.add_argument("--psi0", type=str, default=None, help="occupation string, site 1 first")
    p.add_argument("--chi", type=int, default=None)
    p.add_argument("--dt", type=float, default=0.0625)
    p.add_argument("--order", type=int, choices=[1, 2, 4], default=4)
    p.add_argument("--tmax", dest="t_max", type=float, default=4.0)
    p.add_argument("--budget", dest="cutoff_budget", type=float, default=1e-2)
    p.add_argument("--output", type=str, default="run.csv")
    if not with_method:
        p.set_defaults(method="grand-canonical", n_sector=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mpodyn", description="matrix product operator dynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="one Heisenberg-picture run to CSV")
    _add_run_args(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_osee = sub.add_parser("projector-osee", help="exact projector entropy sweep")
    p_osee.add_argument("--d", type=int, default=2)
    p_osee.add_argument("--length", type=int, required=True)
    p_osee.add_argument("--n-range", type=str, required=True, help="lo:hi inclusive")
    p_osee.add_argument("--bond", type=int, required=True)
    p_osee.add_argument("--output", type=str, default="projector_osee.csv")
    p_osee.set_defaults(func=cmd_projector_osee)

    p_or = sub.add_parser("oracle-check", help="engine vs dense oracle deviations")
    p_or.add_argument("--suite", choices=["itac", "density"], default="itac")
    p_or.add_argument("--model", choices=["xxz", "bose-hubbard"], default="xxz")
    p_or.add_argument("--length", type=int, default=6)
    p_or.add_argument("--d", type=int, default=2)
    p_or.add_argument("--delta", type=float, default=0.8)
    p_or.add_argument("--interaction", type=float, default=10.0)
    p_or.add_argument("--site", type=int, default=3)
    p_or.add_argument("--psi0", type=str, default=None)
    p_or.add_argument("--dt", type=float, default=0.0625)
    p_or.add_argument("--tmax", type=float, default=1.0)
    p_or.add_argument("--tol", type=float, default=1e-6)
    p_or.set_defaults(func=cmd_oracle_check)

    p_cmp = sub.add_parser("compare", help="aligned runs differing in method/chi")
    _add_run_args(p_cmp, with_method=False)
    p_cmp.add_argument(
        "--run",
        action="append",
        required=True,
        help="comma list like method=canonical,n=2,chi=256 (repeatable)",
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_fit = sub.add_parser("fit", help="decay-law fit of an existing CSV")
    p_fit.add_argument("--input", type=str, required=True)
    p_fit.add_argument("--t-lo", type=float, required=True)
    p_fit.add_argument("--t-hi", type=float, required=True)
    p_fit.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
