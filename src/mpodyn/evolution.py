"""Trotterized time evolution for states and operator superstates.

A schedule is an ordered list of (sublattice, coefficient) stages per full
step; the even sublattice couples sites (1,2), (3,4), ... and the odd one
(2,3), (4,5), ....  Order 4 is the symmetric five-fold composition of
second-order steps with p = 1/(4 - 4**(1/3)).

The accumulated cutoff error is 1 - prod(nu_j) over every truncation; a
run stops at t_max or at the first full step where the accumulated error
reaches the budget, whichever comes first.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

from .charge_tensor import TruncationPolicy, ZeroNormError
from .models import BondGate, ModelSpec, bond_gate, super_gate
from .mps_core import CanonicalMps, TruncationRecord, load_mps, save_mps
from .operator_space import SuperState


@lru_cache(maxsize=None)
def _cached_bond_gate(spec: ModelSpec, m: int, dt_fraction: float) -> BondGate:
    return bond_gate(spec, m, dt_fraction)


@lru_cache(maxsize=None)
def _cached_super_gate(spec: ModelSpec, m: int, dt_fraction: float, weights: tuple) -> BondGate:
    return super_gate(_cached_bond_gate(spec, m, dt_fraction), weights)


@dataclass(frozen=True)
class TrotterStage:
    sublattice: str  # "even" | "odd"
    coefficient: float


@dataclass(frozen=True)
class TrotterSchedule:
    order: int
    dt: float
    stages: tuple[TrotterStage, ...]


def make_schedule(order: int, dt: float) -> TrotterSchedule:
    """Deterministic stage list for a full step of size dt."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if order == 1:
        stages = [TrotterStage("even", 1.0), TrotterStage("odd", 1.0)]
    elif order == 2:
        stages = [
            TrotterStage("even", 0.5),
            TrotterStage("odd", 1.0),
            TrotterStage("even", 0.5),
        ]
    elif order == 4:
        p = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
        q = 1.0 - 4.0 * p
        stages = [
            TrotterStage("even", p / 2),
            TrotterStage("odd", p),
            TrotterStage("even", p),
            TrotterStage("odd", p),
            TrotterStage("even", (p + q) / 2),
            TrotterStage("odd", q),
            TrotterStage("even", (p + q) / 2),
            TrotterStage("odd", p),
            TrotterStage("even", p),
            TrotterStage("odd", p),
            TrotterStage("even", p / 2),
        ]
    else:
        raise ValueError("unsupported order")
    for sub in ("even", "odd"):
        total = sum(s.coefficient for s in stages if s.sublattice == sub)
        assert abs(total - 1.0) < 1e-12
    return TrotterSchedule(order, dt, tuple(stages))


def sublattice_bonds(sub: str, L: int) -> list[int]:
    """1-based bonds of a sublattice; even couples (1,2), (3,4), ..."""
    if sub == "even":
        return list(range(1, L, 2))
    if sub == "odd":
        return list(range(2, L, 2))
    raise ValueError(f"unknown sublattice {sub!r}")


@dataclass
class EvolutionLog:
    """Truncation records plus the running cutoff product for one run."""

    records: list[TruncationRecord] = field(default_factory=list)
    nu_product: float = 1.0
    max_osee_per_step: list[float] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    termination_reason: str | None = None

    @property
    def end_time(self) -> float | None:
        """Simulation time of the last recorded step; None for an empty log."""
        return self.times[-1] if self.times else None

    @property
    def accumulated_cutoff(self) -> float:
        return 1.0 - self.nu_product

    def record(self, rec: TruncationRecord) -> None:
        self.records.append(rec)
        self.nu_product *= rec.nu


def evolve(
    target: CanonicalMps | SuperState,
    spec: ModelSpec,
    schedule: TrotterSchedule,
    t_max: float,
    policy: TruncationPolicy,
    cutoff_budget: float = 1.0,
    observer=None,
) -> EvolutionLog:
    """Run staged bond gates on a state or superstate up to t_max.

    The observer, when given, is called as observer(time, target, log)
    at t = 0 and after every full step (including the terminating one).
    No step ends past t_max: a t_max between two step ends stops at the
    earlier one.
    """
    if not (math.isfinite(t_max) and t_max >= 0):
        raise ValueError(f"t_max must be finite and >= 0, got {t_max}")
    if not 0.0 < cutoff_budget <= 1.0:
        raise ValueError("cutoff_budget must be in (0, 1]")
    is_super = isinstance(target, SuperState)
    mps = target.mps if is_super else target
    if is_super:
        if target.is_zero:
            raise ZeroNormError("state annihilated")
        if mps.site_dims != [spec.d**2] * spec.L:
            raise ValueError("shape mismatch")
    elif mps.site_dims != [spec.d] * spec.L:
        raise ValueError("shape mismatch")

    def gate_for(m: int, coeff: float):
        dt_frac = coeff * schedule.dt
        if is_super:
            return _cached_super_gate(spec, m, dt_frac, target.weights)
        return _cached_bond_gate(spec, m, dt_frac)

    log = EvolutionLog()
    log.times.append(0.0)
    log.max_osee_per_step.append(max(mps.entropy_profile(), default=0.0))
    if observer is not None:
        observer(0.0, target, log)

    # the tolerance keeps a t_max of k steps at k when t_max / dt rounds below k
    n_steps = math.floor(t_max / schedule.dt + 1e-9)
    for step in range(1, n_steps + 1):
        for stage in schedule.stages:
            for m in sublattice_bonds(stage.sublattice, spec.L):
                rec = mps.apply_two_site_gate(m, gate_for(m, stage.coefficient), policy)
                log.record(rec)
        t = step * schedule.dt
        log.times.append(t)
        log.max_osee_per_step.append(max(mps.entropy_profile(), default=0.0))
        hit_budget = log.accumulated_cutoff >= cutoff_budget
        if observer is not None:
            observer(t, target, log)
        if hit_budget:
            log.termination_reason = "budget"
            return log
    log.termination_reason = "t_max"
    return log


# -- checkpointing -----------------------------------------------------------------


def save_checkpoint(path_prefix: str, target, log: EvolutionLog, time: float) -> None:
    """Write (target, log, time) as {prefix}.npz plus {prefix}.json."""
    is_super = isinstance(target, SuperState)
    save_mps(path_prefix + ".npz", target.mps if is_super else target)
    meta = {
        "time": time,
        "is_super": is_super,
        "log": {
            "nu_product": log.nu_product,
            "times": log.times,
            "max_osee_per_step": log.max_osee_per_step,
            "records": [
                [r.bond, r.nu, r.discarded_weight, r.chi_used] for r in log.records
            ],
            "termination_reason": log.termination_reason,
        },
    }
    if is_super:
        meta["super"] = {
            "L": target.L,
            "d": target.d,
            "mode": target.mode,
            "delta_n": target.delta_n,
            "prefactor": [target.prefactor.real, target.prefactor.imag],
        }
    with open(path_prefix + ".json", "w") as fh:
        json.dump(meta, fh, indent=1)


def load_checkpoint(path_prefix: str):
    """Restore (target, log, time) written by :func:`save_checkpoint`."""
    with open(path_prefix + ".json") as fh:
        meta = json.load(fh)
    mps = load_mps(path_prefix + ".npz")
    if meta["is_super"]:
        s = meta["super"]
        target = SuperState(
            mps,
            s["L"],
            s["d"],
            s["mode"],
            s["delta_n"],
            complex(s["prefactor"][0], s["prefactor"][1]),
        )
    else:
        target = mps
    log = EvolutionLog(
        records=[TruncationRecord(*r) for r in meta["log"]["records"]],
        nu_product=meta["log"]["nu_product"],
        max_osee_per_step=meta["log"]["max_osee_per_step"],
        times=meta["log"]["times"],
        termination_reason=meta["log"]["termination_reason"],
    )
    return target, log, meta["time"]
