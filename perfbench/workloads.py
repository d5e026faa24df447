"""Benchmark workloads: inputs from a seed, the timed solve, and the checks.

A workload's seed only picks between a problem and its mirror image
(site m <-> L + 1 - m), which has the same physics and the same cost, so
every seed exercises identical layers with different inputs.

``prepare`` and ``solve`` run in the timed child process.  ``reference``
and ``check`` run in the parent, outside every timed region, against
``mpodyn.oracle``.
"""

from __future__ import annotations

import hashlib

import numpy as np

import mpodyn
from mpodyn import oracle
from mpodyn.models import SIGMA_Z, sigma_z_local


def _pack(values) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values, dtype=np.complex128)]


def _unpack(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.float64).reshape(-1, 2)
    return arr[:, 0] + 1j * arr[:, 1]


def series_digest(out: dict) -> str:
    """sha256 over every time and series value at 17 significant digits."""
    h = hashlib.sha256()
    for key in sorted(out["series"]):
        h.update(key.encode())
        for x in np.asarray(out["series"][key], dtype=np.float64).ravel():
            h.update(b"%.17g," % x)
    for t in out["times"]:
        h.update(b"%.17g;" % t)
    return h.hexdigest()


class DensityWorkload:
    """``local_density_series`` on a Bose-Hubbard chain from a Fock state.

    Checked against ``oracle.dense_statevector_evolve`` at every full step
    (criterion 8's tolerance); the run must stay splitting-dominated, so the
    accumulated cutoff must sit at rounding level.
    """

    TOL = 1e-6
    CUTOFF_MAX = 1e-9

    def __init__(self, L, d, U, method, floor, dt, n_steps, required_layers):
        self.L, self.d, self.U = L, d, U
        self.method, self.floor = method, floor
        self.dt, self.n_steps = dt, n_steps
        self.required_layers = required_layers

    def spec(self):
        return mpodyn.ModelSpec.bose_hubbard(self.L, self.d, self.U)

    def inputs(self, seed: int) -> dict:
        psi0 = [m % 2 for m in range(self.L)]  # 0101...
        site = self.L // 2
        if seed % 2:
            psi0, site = psi0[::-1], self.L + 1 - site
        return {"psi0": psi0, "site": site}

    def prepare(self, inp: dict):
        return (
            self.spec(),
            inp["psi0"],
            inp["site"],
            self.method,
            mpodyn.make_schedule(4, self.dt),
            mpodyn.TruncationPolicy(None, self.floor),
            self.n_steps * self.dt,
        )

    def solve(self, prepared) -> dict:
        s = mpodyn.local_density_series(*prepared)
        return {
            "times": [float(t) for t in s.times],
            "series": {"density": _pack(s.values)},
            "chi_max": int(max(s.meta["chi_used"])),
            "accumulated_cutoff": float(s.meta["accumulated_cutoff"][-1]),
        }

    def reference(self, inp: dict) -> np.ndarray:
        L, d, site = self.L, self.d, inp["site"]
        H = oracle.dense_hamiltonian(self.spec()).entries
        v0 = oracle.fock_statevector(inp["psi0"], d)
        nmat = oracle.site_operator(np.diag(np.arange(float(d))), site, L)
        exact = []
        for k in range(self.n_steps + 1):
            vt = oracle.dense_statevector_evolve(H, v0, k * self.dt)
            exact.append(float((vt.conj() @ (nmat @ vt)).real))
        return np.array(exact)

    def check(self, ref: np.ndarray, out: dict) -> tuple[float, list[str]]:
        """Maximum deviation from the reference, and every failed check."""
        problems = []
        values = _unpack(out["series"]["density"])
        if len(values) != len(ref):
            return float("inf"), [f"{len(values)} points, expected {len(ref)}"]
        dev = float(np.max(np.abs(values - ref)))
        if not dev <= self.TOL:
            problems.append(f"oracle deviation {dev:.3g} > {self.TOL:g}")
        if not out["accumulated_cutoff"] < self.CUTOFF_MAX:
            problems.append(f"accumulated cutoff {out['accumulated_cutoff']:.3g} >= {self.CUTOFF_MAX:g}")
        return dev, problems


class SectorItacWorkload:
    """One grand-canonical XXZ evolution observed in every particle sector.

    After every full step the observer records ``itac_grand_canonical`` and
    ``itac_canonical(state, ref, N)`` for N = 0..L (evolve, then project).
    Checked by ``ensemble_relation_check`` and against a per-sector dense
    reference (``oracle.dense_hamiltonian`` restricted by
    ``oracle.sector_indicator``, diagonalized per N).  The chi cap truncates,
    so the sector values carry a truncation error; ``TOL`` sits above the
    deviation measured at the commit that introduced this benchmark.
    """

    TOL = 1e-2
    ENSEMBLE_TOL = 1e-8

    def __init__(self, L, delta, chi, dt, n_steps, budget, required_layers):
        self.L, self.delta, self.chi = L, delta, chi
        self.dt, self.n_steps, self.budget = dt, n_steps, budget
        self.required_layers = required_layers

    def spec(self):
        return mpodyn.ModelSpec.xxz(self.L, self.delta)

    def inputs(self, seed: int) -> dict:
        site = self.L // 2
        return {"site": self.L + 1 - site if seed % 2 else site}

    def prepare(self, inp: dict):
        ref = mpodyn.lift_product_operator(mpodyn.embed_factor(sigma_z_local(), inp["site"], self.L))
        return ref, ref.copy(), mpodyn.make_schedule(4, self.dt), mpodyn.TruncationPolicy(self.chi, 0.0)

    def solve(self, prepared) -> dict:
        ref, target, schedule, policy = prepared
        L = self.L
        times, g, chis = [], [], []
        c = {N: [] for N in range(L + 1)}

        def observer(t, state, log):
            times.append(float(t))
            g.append(mpodyn.itac_grand_canonical(state, ref))
            for N in range(L + 1):
                c[N].append(mpodyn.itac_canonical(state, ref, N))
            chis.append(state.mps.max_bond_dimension())

        log = mpodyn.evolve(
            target, self.spec(), schedule, self.n_steps * self.dt, policy, self.budget, observer
        )
        series = {"G": _pack(g)}
        series.update({f"C{N}": _pack(c[N]) for N in range(L + 1)})
        return {
            "times": times,
            "series": series,
            "chi_max": int(max(chis)),
            "accumulated_cutoff": float(log.accumulated_cutoff),
            "termination": log.termination_reason,
        }

    def reference(self, inp: dict) -> dict[int, np.ndarray]:
        """Dense C_N(t) = Tr[(P_N O P_N)_t O] / Omega(N) per sector, by eigh."""
        L = self.L
        H = oracle.dense_hamiltonian(self.spec()).entries
        o_diag = np.diag(oracle.site_operator(SIGMA_Z, inp["site"], L)).real
        times = np.arange(self.n_steps + 1) * self.dt
        ref = {}
        for N in range(L + 1):
            mask = oracle.sector_indicator(L, 2, N)
            w, v = np.linalg.eigh(H[np.ix_(mask, mask)])
            o = v.conj().T @ (o_diag[mask][:, None] * v)
            weight = np.abs(o) ** 2
            gaps = w[:, None] - w[None, :]
            ref[N] = np.array(
                [np.sum(weight * np.cos(gaps * t)) / np.count_nonzero(mask) for t in times]
            )
        return ref

    def check(self, ref: dict[int, np.ndarray], out: dict) -> tuple[float, list[str]]:
        L = self.L
        problems = []
        if out["termination"] != "t_max":
            problems.append(f"terminated by {out['termination']}")
        times = np.array(out["times"])
        if len(times) != self.n_steps + 1:
            return float("inf"), problems + [f"{len(times)} points, expected {self.n_steps + 1}"]
        c_by_n = {
            N: mpodyn.TimeSeries(times, _unpack(out["series"][f"C{N}"]), {}) for N in range(L + 1)
        }
        g = mpodyn.TimeSeries(times, _unpack(out["series"]["G"]), {"L": L, "d": 2})
        rel = mpodyn.ensemble_relation_check(g, c_by_n)
        if not rel <= self.ENSEMBLE_TOL:
            problems.append(f"ensemble relation {rel:.3g} > {self.ENSEMBLE_TOL:g}")
        g_ref = sum(mpodyn.omega(2, N, L) * ref[N] for N in range(L + 1)) / 2**L
        dev = max(
            float(np.max(np.abs(g.values - g_ref))),
            max(float(np.max(np.abs(c_by_n[N].values - ref[N]))) for N in range(L + 1)),
        )
        if not dev <= self.TOL:
            problems.append(f"oracle deviation {dev:.3g} > {self.TOL:g}")
        return dev, problems


# layers that must record calls in a traced run, per workload
_BOSON_LAYERS = (
    "models.gate_build",
    "mps_core.gate_apply",
    "charge_tensor.svd",
    "charge_tensor.truncation",
    "charge_tensor.scale_axis",
    "charge_tensor.restore",
    "operator_space.expectation_in_state",
)

WORKLOADS = {
    "bh6_density_canonical": DensityWorkload(
        6, 3, 10.0, mpodyn.CANONICAL, 1e-10, 1.0 / 18, 18,
        _BOSON_LAYERS + (
            "models.band_table",
            "operator_space.apply_out_chain",
            "projector.project_operator",
            "projector.projector_superstate",
        ),
    ),
    "bh6_density_grand_canonical": DensityWorkload(
        6, 3, 10.0, mpodyn.GRAND_CANONICAL, 1e-8, 1.0 / 18, 18, _BOSON_LAYERS,
    ),
    "xxz10_sector_itac": SectorItacWorkload(
        10, 0.8, 64, 0.25, 12, 1e-2,
        (
            "models.gate_build",
            "mps_core.gate_apply",
            "mps_core.canonicalize",
            "charge_tensor.svd",
            "charge_tensor.truncation",
            "charge_tensor.scale_axis",
            "charge_tensor.restore",
            "operator_space.hs_trace_pair",
            "operator_space.out_chain_compose",
            "projector.project_operator",
            "projector.projector_superstate",
        ),
    ),
    # toy sizes for the self-test only
    "toy_density": DensityWorkload(
        4, 2, 2.0, mpodyn.CANONICAL, 1e-10, 1.0 / 8, 4,
        _BOSON_LAYERS + ("projector.project_operator",),
    ),
    "toy_sector_itac": SectorItacWorkload(
        6, 0.8, 16, 0.25, 4, 1.0,
        ("mps_core.gate_apply", "charge_tensor.svd", "operator_space.hs_trace_pair"),
    ),
}
