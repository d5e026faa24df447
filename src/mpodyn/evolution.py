"""Trotterized time evolution for states and operator superstates.

A schedule is an ordered list of (sublattice, coefficient) stages per full
step; the even sublattice couples sites (1,2), (3,4), ... and the odd one
(2,3), (4,5), ....  Order 4 is the symmetric five-fold composition of
second-order steps with p = 1/(4 - 4**(1/3)).

One stepping loop, :func:`step_loop`, runs every evolution with two
stage lists, step 1's and every later step's.  :func:`evolve` passes the
full step twice (2, 3 and 11 stages at orders 1, 2 and 4).
``TrotterSchedule.held_back`` gives the lists of a run that never applies
a step's last stage, for a caller that applies it elsewhere: after step 1
an order-4 step applies 5 even and 5 odd stages, orders 1 and 2 two.

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

    def held_back(self) -> tuple[tuple[TrotterStage, ...], tuple[TrotterStage, ...]]:
        """Step 1's and every later step's stages when each step's last stage is held back.

        A later step starts with the held-back stage, merged into its own
        first stage when both act on the same sublattice; their terms
        commute, so the merged stage is exact (coefficient p/2 + p/2 = p at
        order 4).
        """
        *first, last = self.stages
        if first[0].sublattice == last.sublattice:
            merged = TrotterStage(last.sublattice, last.coefficient + first[0].coefficient)
            return tuple(first), (merged, *first[1:])
        return tuple(first), (last, *first)


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


def apply_stage(target, spec: ModelSpec, stage: TrotterStage, dt: float, policy: TruncationPolicy) -> list:
    """Apply one stage's gates at time step coefficient * dt; one truncation record per gate.

    A state takes bond gates exp(-i h dt), a superstate their doubled-space
    lifts in its own labels, O -> g^dagger O g.
    """
    dt_fraction = stage.coefficient * dt
    if isinstance(target, SuperState):
        mps = target.mps
        gate = lambda m: _cached_super_gate(spec, m, dt_fraction, target.weights)
    else:
        mps = target
        gate = lambda m: _cached_bond_gate(spec, m, dt_fraction)
    return [mps.apply_two_site_gate(m, gate(m), policy) for m in sublattice_bonds(stage.sublattice, spec.L)]


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
    stages = schedule.stages
    return step_loop(target, spec, schedule.dt, stages, stages, t_max, policy, cutoff_budget, observer)


def step_loop(target, spec, dt, first, later, t_max, policy, cutoff_budget, observer) -> EvolutionLog:
    """:func:`evolve` with ``first`` as step 1's stage list and ``later`` as every other step's.

    The log, and with it the accumulated cutoff, holds the gates these
    lists apply to the target and no others.
    """
    if not (math.isfinite(t_max) and t_max >= 0):
        raise ValueError(f"t_max must be finite and >= 0, got {t_max}")
    if not math.isfinite(t_max / dt):
        raise ValueError(f"t_max / dt must be finite, got {t_max} / {dt}")
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

    log = EvolutionLog()
    log.times.append(0.0)
    log.max_osee_per_step.append(max(mps.entropy_profile(), default=0.0))
    if observer is not None:
        observer(0.0, target, log)

    # the tolerance keeps a t_max of k steps at k when t_max / dt rounds below k
    n_steps = math.floor(t_max / dt + 1e-9)
    for step in range(1, n_steps + 1):
        for stage in first if step == 1 else later:
            for rec in apply_stage(target, spec, stage, dt, policy):
                log.record(rec)
        t = step * dt
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
