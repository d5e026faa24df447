"""Autocorrelations, local densities, ensemble relations, and the decay fit.

Infinite-temperature autocorrelations of a Hermitian observable O at site m:

* grand-canonical  G(t)   = Tr[O_t O] / d**L
* canonical        C_N(t) = Tr[(P_N O P_N)_t O] / Omega_d(N, L)

Both normalize to 1 at t = 0 for Hilbert-Schmidt-normalized observables
such as sigma^z.  Values are measured once per full Trotter step (stage
boundaries are not physical times).

Every series comes from one driver, ``observe_series``: it evolves a
target superstate and records a caller's ``measure(state)`` together with
the per-step accumulated cutoff, maximum OSEE and bond dimension.
``itac_series``, ``local_density_series`` and the command line's ``osee``
observable each build a target and a measure and call it.

Evolving with grand-canonical labels and projecting afterwards reads every
C_N from one run: ``itac_canonical`` then pairs the state with P_N O P_N of
the fixed t = 0 reference.  That projection is built once per (reference,
N) and kept while the reference is alive; it is rebuilt when the
reference changes (a new MPS object, a site or spectrum replaced by a
gate, or a new prefactor, mode or delta_n).
"""

from __future__ import annotations

import weakref
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .charge_tensor import TruncationPolicy
from .evolution import TrotterSchedule, evolve
from .models import ModelSpec, number_local, sigma_z_local
from .mps_core import from_fock
from .operator_space import (
    BRUTE,
    CANONICAL,
    GRAND_CANONICAL,
    LocalOperator,
    SuperState,
    embed_factor,
    expectation_in_state,
    hs_trace_pair,
    lift_product_operator,
)
from .projector import omega, project_operator


@dataclass
class TimeSeries:
    times: np.ndarray
    values: np.ndarray
    meta: dict

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.complex128)
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


@dataclass
class FitParams:
    kappa: float
    A: float
    B: float
    gamma: float
    Omega: float
    t0: float

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")


def itac_grand_canonical(evolved: SuperState, reference: SuperState) -> complex:
    """Autocorrelation of the evolved operator against its t = 0 form."""
    return hs_trace_pair(evolved, reference) / evolved.d**evolved.L


# reference -> (its MPS and sites; its scalars; {N: P_N reference P_N})
_projections: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _projected_reference(reference: SuperState, N: int) -> SuperState:
    """``project_operator(reference, N)``, built once while the reference is unchanged."""
    mps = reference.mps
    # the stored sites are the state, and a gate changes them only by replacing site objects
    parts = (mps,) if mps is None else (mps, *mps._sites)
    scalars = (reference.prefactor, reference.mode, reference.delta_n)
    cached = _projections.get(reference)
    if cached is None or cached[1] != scalars or any(x is not y for x, y in zip(cached[0], parts)):
        cached = _projections[reference] = (parts, scalars, {})
    by_n = cached[2]
    if N not in by_n:
        by_n[N] = project_operator(reference, N)
    return by_n[N]


def itac_canonical(evolved: SuperState, reference: SuperState, N: int) -> complex:
    """Sector autocorrelation; works from either evolution order.

    When ``evolved`` carries canonical labels it is the projected,
    time-evolved operator and pairs directly with the unprojected
    reference; otherwise the projection P_N reference P_N is paired with
    it instead.  That projection is built on the first call for a
    (reference, N) and reused until the reference changes: a different
    ``mps`` object, a site or spectrum of it replaced (as a gate does),
    or a different prefactor, mode or delta_n.  A dropped reference drops
    its projections.

    Raises ``ValueError`` before building anything for a reference whose
    L or d differ from the evolved state's, for a reference to be
    projected that does not carry grand-canonical labels, for an N
    outside 0..L(d-1), or for an N that a canonical-labelled operator was
    not projected onto (its right bond carries the input particle number).
    """
    if (reference.L, reference.d) != (evolved.L, evolved.d):
        raise ValueError(
            f"reference has L = {reference.L}, d = {reference.d}; "
            f"the evolved operator has L = {evolved.L}, d = {evolved.d}"
        )
    if evolved.mode != CANONICAL and reference.mode != GRAND_CANONICAL:
        raise ValueError(
            f"reference to project must carry grand-canonical labels, not {reference.mode}"
        )
    if not 0 <= N <= evolved.L * (evolved.d - 1):
        raise ValueError("infeasible particle number")
    norm = omega(evolved.d, N, evolved.L)
    if evolved.mode == CANONICAL:
        w_in, w_out = evolved.weights
        want = (w_in + w_out) * N - w_out * evolved.delta_n
        if not evolved.is_zero and evolved.mps.total_charge != want:
            raise ValueError(f"operator is not projected onto N = {N}")
        return hs_trace_pair(evolved, reference) / norm
    return hs_trace_pair(evolved, _projected_reference(reference, N)) / norm


def ensemble_relation_check(g: TimeSeries, c_by_n: dict[int, TimeSeries]) -> float:
    """Max deviation of G from the occupancy-weighted average of the C_N."""
    L = g.meta["L"]
    d = g.meta["d"]
    n_max = L * (d - 1)
    for n in range(n_max + 1):
        if n not in c_by_n:
            raise ValueError(f"missing sector {n}")
        if not np.array_equal(c_by_n[n].times, g.times):
            raise ValueError("series must share a common time grid")
    weighted = sum(
        omega(d, n, L) * c_by_n[n].values for n in range(n_max + 1)
    ) / d**L
    return float(np.max(np.abs(g.values - weighted)))


def observe_series(
    target: SuperState,
    spec: ModelSpec,
    schedule: TrotterSchedule,
    policy: TruncationPolicy,
    t_max: float,
    cutoff_budget: float,
    measure: Callable[[SuperState], complex],
    meta: dict,
) -> TimeSeries:
    """Evolve ``target`` and record ``measure(state)`` at t = 0 and every full step.

    ``meta`` names the observable; the driver adds the run's shape and,
    per step, the accumulated cutoff, the maximum OSEE and the largest
    bond dimension, plus the termination reason.
    """
    times, values, cutoffs, osees, chis = [], [], [], [], []

    def observer(t, state, log):
        times.append(t)
        values.append(measure(state))
        cutoffs.append(log.accumulated_cutoff)
        osees.append(log.max_osee_per_step[-1])
        chis.append(state.mps.max_bond_dimension())

    log = evolve(target, spec, schedule, t_max, policy, cutoff_budget, observer)
    meta = {
        **meta,
        "L": spec.L,
        "d": spec.d,
        "chi": policy.chi_max,
        "dt": schedule.dt,
        "accumulated_cutoff": cutoffs,
        "max_osee": osees,
        "chi_used": chis,
        "termination_reason": log.termination_reason,
    }
    return TimeSeries(np.array(times), np.array(values, dtype=complex), meta)


def _lift_target(factors: list[LocalOperator], method: str, N: int | None) -> SuperState:
    """Superstate of a product operator in ``method``'s labels; canonical projects onto N."""
    if method == CANONICAL:
        if N is None:
            raise ValueError("canonical method requires N")
        return project_operator(factors, N)
    if method in (GRAND_CANONICAL, BRUTE):
        return lift_product_operator(factors, mode=method)
    raise ValueError(f"unknown method {method!r}")


def _observable_factors(spec: ModelSpec, site: int) -> list[LocalOperator]:
    op = sigma_z_local() if spec.d == 2 else number_local(spec.d)
    return embed_factor(op, site, spec.L)


def build_observable_superstate(spec: ModelSpec, site: int, method: str, N: int | None = None) -> SuperState:
    """Lift (and optionally project) the default observable at ``site``."""
    return _lift_target(_observable_factors(spec, site), method, N)


def itac_series(
    spec: ModelSpec,
    site: int,
    method: str,
    schedule: TrotterSchedule,
    policy: TruncationPolicy,
    t_max: float,
    cutoff_budget: float = 1.0,
    N: int | None = None,
) -> TimeSeries:
    """Drive a Heisenberg-picture run and record the autocorrelation per step."""
    factors = _observable_factors(spec, site)
    target = _lift_target(factors, method, N)
    reference = lift_product_operator(factors)
    if method == CANONICAL:
        measure = lambda state: itac_canonical(state, reference, N)
    else:
        measure = lambda state: itac_grand_canonical(state, reference)
    meta = {"observable": f"itac site {site}", "method": method, "N": N}
    return observe_series(target, spec, schedule, policy, t_max, cutoff_budget, measure, meta)


def local_density_series(
    spec: ModelSpec,
    psi0_occupations: list[int],
    site: int,
    method: str,
    schedule: TrotterSchedule,
    policy: TruncationPolicy,
    t_max: float,
    cutoff_budget: float = 1.0,
) -> TimeSeries:
    """Heisenberg-picture <psi0|(n_site)_t|psi0> for a Fock initial state.

    For particle-number eigenstates the projected and unprojected
    expectations agree, so the method only changes the charge labels used
    during evolution (canonical projects to N = total occupation).
    """
    if len(psi0_occupations) != spec.L:
        raise ValueError("psi0 length mismatch")
    psi = from_fock(psi0_occupations, spec.d)
    N = sum(psi0_occupations)
    target = _lift_target(embed_factor(number_local(spec.d), site, spec.L), method, N)
    meta = {"observable": f"density site {site}", "method": method, "N": N}
    return observe_series(
        target, spec, schedule, policy, t_max, cutoff_budget,
        lambda state: expectation_in_state(state, psi), meta,
    )


def _fit_model(params: np.ndarray, t: np.ndarray) -> np.ndarray:
    kappa, A, B, gamma, Omega, t0 = params
    return t**kappa * (A + B * np.exp(-gamma * (t - t0)) * np.cos(Omega * (t - t0)))


def _canonicalize_fit(p: np.ndarray) -> np.ndarray:
    """Resolve the (B, t0) gauge: B >= 0 and t0 reduced to [0, 2 pi / Omega).

    Shifting t0 by a period rescales B by exp(gamma * period); a sign flip
    of B is a half-period shift.  The cosine is even, so Omega >= 0.
    """
    kappa, A, B, gamma, Omega, t0 = p
    Omega = abs(Omega)
    if abs(B) > 1e-12 and Omega > 1e-9:
        if B < 0:
            t0 += np.pi / Omega
            B = -B * np.exp(-gamma * np.pi / Omega)
        period = 2 * np.pi / Omega
        k = np.floor(t0 / period)
        t0 -= k * period
        B *= np.exp(gamma * k * period)
    return np.array([kappa, A, B, gamma, Omega, t0])


def fit_itac(series: TimeSeries, window: tuple[float, float]) -> tuple[FitParams, float]:
    """Least-squares fit of Re(series) to t**kappa [A + B exp(-gamma (t-t0)) cos(Omega (t-t0))].

    Deterministic initialization: kappa from the log-log slope of the window
    endpoints, A from the endpoint amplitude, B = 0.1 A, gamma = Omega = 1,
    t0 at the window start.  Returns canonicalized parameters (B >= 0, t0
    folded into one oscillation period) and the root-mean-square residual.
    """
    from scipy.optimize import least_squares  # SciPy loads only when a fit runs

    t_lo, t_hi = window
    mask = (series.times >= t_lo) & (series.times <= t_hi)
    t = series.times[mask]
    y = series.values[mask].real
    if len(t) < 12 or np.any(y <= 0):
        raise ValueError("unfittable window")

    kappa0 = np.log(y[-1] / y[0]) / np.log(t[-1] / t[0])
    A0 = y[-1] / t[-1] ** kappa0
    x0 = np.array([kappa0, A0, 0.1 * A0, 1.0, 1.0, t[0]])

    def residuals(p):
        return _fit_model(p, t) - y

    lower = [-np.inf, -np.inf, -np.inf, 0.0, -np.inf, -np.inf]
    upper = [np.inf] * 6
    result = least_squares(
        residuals, x0, bounds=(lower, upper), method="trf",
        xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=20000,
    )
    if not result.success:
        params = _canonicalize_fit(result.x)
        raise RuntimeError(
            "fit did not converge; best so far: "
            + ", ".join(f"{v:.6g}" for v in params)
        )
    p = _canonicalize_fit(result.x)
    rms = float(np.sqrt(np.mean(residuals(result.x) ** 2)))
    return FitParams(*[float(v) for v in p]), rms
