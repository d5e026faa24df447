import json

import numpy as np
import pytest

from mpodyn import oracle
from mpodyn.charge_tensor import TruncationPolicy
from mpodyn.evolution import (
    EvolutionLog,
    TrotterSchedule,
    TrotterStage,
    evolve,
    load_checkpoint,
    make_schedule,
    save_checkpoint,
    sublattice_bonds,
)
from mpodyn.models import ModelSpec, SIGMA_Z, annihilator_local, sigma_z_local
from mpodyn.mps_core import TruncationRecord, from_fock
from mpodyn.operator_space import (
    CANONICAL,
    GRAND_CANONICAL,
    embed_factor,
    hs_trace_pair,
    identity_superstate,
    lift_product_operator,
)
from mpodyn.projector import project_operator, projector_superstate

from conftest import random_charge_mps

UNRESTRICTED = TruncationPolicy(None, 0.0)


class TestSchedule:
    def test_order_one(self):
        s = make_schedule(1, 0.1)
        assert [(st.sublattice, st.coefficient) for st in s.stages] == [
            ("even", 1.0),
            ("odd", 1.0),
        ]

    def test_order_two_strang(self):
        s = make_schedule(2, 0.1)
        assert [(st.sublattice, st.coefficient) for st in s.stages] == [
            ("even", 0.5),
            ("odd", 1.0),
            ("even", 0.5),
        ]

    def test_order_four_composition_identity(self):
        s = make_schedule(4, 0.1)
        p = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
        q = 1.0 - 4.0 * p
        # the five-fold symmetric composition cancels third order:
        assert abs(4 * p**3 + q**3) < 1e-12
        for sub in ("even", "odd"):
            assert abs(sum(st.coefficient for st in s.stages if st.sublattice == sub) - 1.0) < 1e-12

    @pytest.mark.parametrize("dt", [0.0, -0.1, float("nan"), float("inf")])
    def test_step_must_be_finite_and_positive(self, dt):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            make_schedule(4, dt)

    def test_unsupported_order(self):
        with pytest.raises(ValueError, match="unsupported order"):
            make_schedule(3, 0.1)

    def test_sublattices(self):
        assert sublattice_bonds("even", 6) == [1, 3, 5]
        assert sublattice_bonds("odd", 6) == [2, 4]

    def test_order_four_single_step_error_scaling(self, rng):
        # one step against the dense propagator: error ~ dt^5
        L = 6
        spec = ModelSpec.xxz(L, 0.8)
        psi0 = random_charge_mps(L, 2, [0, 1, 1, 0, 1, 0], rng, n_layers=2)
        H = oracle.dense_hamiltonian(spec).entries
        v0 = psi0.to_statevector()
        errs = []
        dts = [0.2, 0.1, 0.05]
        for dt in dts:
            psi = psi0.copy()
            evolve(psi, spec, make_schedule(4, dt), dt, UNRESTRICTED)
            v_exact = oracle.dense_statevector_evolve(H, v0, dt)
            # global phase is physical here (same propagator), direct difference
            errs.append(np.linalg.norm(psi.to_statevector() - v_exact))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert abs(slope - 5.0) < 0.3


class TestEvolve:
    def test_identity_superstate_fixed_point(self):
        spec = ModelSpec.xxz(5, 0.8)
        one = identity_superstate(5, 2)
        ref = identity_superstate(5, 2)
        log = evolve(one, spec, make_schedule(2, 0.1), 1.0, UNRESTRICTED)
        assert log.accumulated_cutoff < 1e-12
        overlap = hs_trace_pair(ref, one) / ref.hs_norm() ** 2
        assert abs(overlap - 1.0) < 1e-10
        assert max(one.osee_profile()) < 1e-10

    def test_projector_superstate_fixed_point(self):
        spec = ModelSpec.xxz(5, 0.8)
        ps = projector_superstate(2, 5, 2)
        ref = ps.copy()
        profile0 = np.array(ps.osee_profile())
        log = evolve(ps, spec, make_schedule(2, 0.1), 1.0, UNRESTRICTED)
        overlap = hs_trace_pair(ref, ps) / ref.hs_norm() ** 2
        assert abs(overlap - 1.0) < 1e-10
        assert np.max(np.abs(np.array(ps.osee_profile()) - profile0)) < 1e-10

    def test_heisenberg_vs_dense_conjugation(self):
        L = 6
        spec = ModelSpec.xxz(L, 0.8)
        s = lift_product_operator(embed_factor(sigma_z_local(), 3, L))
        evolve(s, spec, make_schedule(4, 1.0 / 16), 2.0, UNRESTRICTED)
        H = oracle.dense_hamiltonian(spec).entries
        want = oracle.dense_heisenberg_evolve(H, oracle.site_operator(SIGMA_Z, 3, L), 2.0)
        assert np.max(np.abs(s.densify() - want)) < 1e-6

    def test_schroedinger_state_evolution(self, rng):
        L = 6
        spec = ModelSpec.xxz(L, 0.8)
        psi = from_fock([0, 1, 0, 1, 0, 1], 2)
        v0 = psi.to_statevector()
        evolve(psi, spec, make_schedule(4, 1.0 / 16), 1.0, UNRESTRICTED)
        H = oracle.dense_hamiltonian(spec).entries
        want = oracle.dense_statevector_evolve(H, v0, 1.0)
        assert np.linalg.norm(psi.to_statevector() - want) < 1e-6

    def test_charge_labels_invariant(self, rng):
        spec = ModelSpec.xxz(4, 0.5)
        s = lift_product_operator(embed_factor(sigma_z_local(), 2, 4))
        evolve(s, spec, make_schedule(2, 0.05), 0.5, UNRESTRICTED)
        assert s.delta_n == 0
        assert s.mps.total_charge == 0
        ps = projector_superstate(2, 4, 2)
        assert ps.mps.total_charge == 2 * sum(ps.weights)
        evolve(ps, spec, make_schedule(2, 0.05), 0.5, UNRESTRICTED)
        assert ps.mps.total_charge == 2 * sum(ps.weights)

    def test_reversibility(self, rng):
        L = 5
        spec = ModelSpec.xxz(L, 1.1)
        psi = random_charge_mps(L, 2, [1, 0, 1, 0, 0], rng, n_layers=2)
        ref = psi.to_statevector()
        evolve(psi, spec, make_schedule(2, 0.1), 0.5, UNRESTRICTED)
        back = TrotterSchedule(
            2, 0.1, tuple(TrotterStage(s.sublattice, -s.coefficient) for s in make_schedule(2, 0.1).stages[::-1])
        )
        evolve(psi, spec, back, 0.5, UNRESTRICTED)
        assert np.linalg.norm(psi.to_statevector() - ref) < 1e-8

    def test_light_cone(self):
        # distant bonds stay unentangled at short times
        L = 10
        spec = ModelSpec.xxz(L, 0.8)
        s = lift_product_operator(embed_factor(sigma_z_local(), 5, L))
        evolve(s, spec, make_schedule(4, 1.0 / 16), 0.125, UNRESTRICTED)
        profile = s.osee_profile()
        assert profile[0] < 1e-6 and profile[-1] < 1e-6
        assert max(profile) > 1e-3  # entanglement did grow near the support

    def test_observer_cadence_and_times(self):
        spec = ModelSpec.xxz(4, 0.5)
        s = lift_product_operator(embed_factor(sigma_z_local(), 2, 4))
        seen = []
        evolve(s, spec, make_schedule(2, 0.25), 1.0, UNRESTRICTED, observer=lambda t, st, lg: seen.append(t))
        assert seen == [0.0, 0.25, 0.5, 0.75, 1.0]

    @pytest.mark.parametrize(
        "dt, t_max, times",
        [
            (0.375, 1.0, [0.0, 0.375, 0.75]),  # 1 / 0.375 = 2.67 steps: stop at 2
            (0.1, 0.3, [0.0, 0.1, 0.2, 0.30000000000000004]),  # 0.3 / 0.1 < 3 in floats
        ],
    )
    def test_never_steps_past_t_max(self, dt, t_max, times):
        spec = ModelSpec.xxz(4, 0.5)
        s = lift_product_operator(embed_factor(sigma_z_local(), 2, 4))
        log = evolve(s, spec, make_schedule(2, dt), t_max, UNRESTRICTED)
        assert log.times == times
        assert log.end_time == times[-1]
        assert log.termination_reason == "t_max"

    def test_negative_t_max_rejected(self):
        spec = ModelSpec.xxz(4, 0.5)
        s = lift_product_operator(embed_factor(sigma_z_local(), 2, 4))
        with pytest.raises(ValueError, match="t_max"):
            evolve(s, spec, make_schedule(2, 0.25), -1.0, UNRESTRICTED)

    @pytest.mark.parametrize("t_max", [float("inf"), float("nan")])
    def test_non_finite_t_max_rejected(self, t_max):
        spec = ModelSpec.xxz(4, 0.5)
        s = lift_product_operator(embed_factor(sigma_z_local(), 2, 4))
        with pytest.raises(ValueError, match="t_max must be finite"):
            evolve(s, spec, make_schedule(2, 0.25), t_max, UNRESTRICTED)

    def test_end_time_is_the_last_time(self):
        spec = ModelSpec.xxz(4, 0.5)
        s = lift_product_operator(embed_factor(sigma_z_local(), 2, 4))
        seen = []
        log = evolve(
            s, spec, make_schedule(2, 0.25), 0.5, UNRESTRICTED,
            observer=lambda t, st, lg: seen.append(lg.end_time),
        )
        assert seen == [0.0, 0.25, 0.5] and log.end_time == 0.5
        assert EvolutionLog().end_time is None
        with pytest.raises(AttributeError):
            log.end_time = 1.0

    def test_budget_termination(self):
        L = 8
        spec = ModelSpec.xxz(L, 0.8)
        s = lift_product_operator(embed_factor(sigma_z_local(), 4, L))
        policy = TruncationPolicy(4, 0.0)
        log = evolve(s, spec, make_schedule(4, 1.0 / 8), 20.0, policy, cutoff_budget=1e-2)
        assert log.termination_reason == "budget"
        assert log.accumulated_cutoff >= 1e-2
        assert log.end_time == log.times[-1]
        assert log.end_time < 20.0
        # the step before termination was still under budget
        prod = 1.0
        recs = iter(log.records)
        # recompute the running product per step boundary
        per_step = len(log.records) // (len(log.times) - 1)
        running = [1.0]
        acc = 1.0
        for i, r in enumerate(log.records):
            acc *= r.nu
            if (i + 1) % per_step == 0:
                running.append(acc)
        assert 1.0 - running[-2] < 1e-2 <= 1.0 - running[-1]


class TestAccumulatedCutoff:
    def test_no_truncation(self):
        assert EvolutionLog().accumulated_cutoff == 0.0

    def test_single_record(self):
        log = EvolutionLog()
        log.record(TruncationRecord(1, 0.999, 0.04471, 3))
        assert abs(log.accumulated_cutoff - 1e-3) < 1e-12

    def test_product_vs_sum(self):
        log = EvolutionLog()
        for _ in range(100):
            log.record(TruncationRecord(1, 0.9999, 0.01414, 2))
        assert abs(log.accumulated_cutoff - (1 - 0.9999**100)) < 1e-12
        assert abs(log.accumulated_cutoff - 9.95e-3) < 5e-5
        # the product stays below the first-order sum of single-step losses
        assert log.accumulated_cutoff < sum(1.0 - r.nu for r in log.records)

    def test_norm_bookkeeping(self, rng):
        # stored norm times the nu product recovers the unnormalized norm
        L = 6
        spec = ModelSpec.xxz(L, 0.8)
        psi = random_charge_mps(L, 2, [0, 1, 1, 0, 1, 0], rng, n_layers=2)
        v0 = psi.to_statevector()
        H = oracle.dense_hamiltonian(spec).entries
        policy = TruncationPolicy(3, 0.0)
        log = evolve(psi, spec, make_schedule(2, 0.1), 0.3, policy)
        v_exact = oracle.dense_statevector_evolve(H, v0, 0.3)
        kept = psi.to_statevector() * log.nu_product
        # the truncated state has norm nu_product and overlaps the exact one
        assert abs(np.linalg.norm(kept) - log.nu_product) < 1e-10
        assert np.linalg.norm(v_exact) == pytest.approx(1.0, abs=1e-10)


class TestCheckpoint:
    def test_superstate_round_trip(self, tmp_path):
        spec = ModelSpec.xxz(4, 0.5)
        s = lift_product_operator(embed_factor(sigma_z_local(), 2, 4))
        log = evolve(s, spec, make_schedule(2, 0.1), 0.3, UNRESTRICTED)
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(prefix, s, log, 0.3)
        target, log2, t = load_checkpoint(prefix)
        assert t == 0.3
        assert log2.termination_reason == log.termination_reason
        assert len(log2.records) == len(log.records)
        assert np.max(np.abs(target.densify() - s.densify())) < 1e-12

    def test_end_time_is_not_stored_and_older_sidecars_load(self, tmp_path):
        spec = ModelSpec.xxz(4, 0.5)
        s = lift_product_operator(embed_factor(sigma_z_local(), 2, 4))
        log = evolve(s, spec, make_schedule(2, 0.1), 0.3, UNRESTRICTED)
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(prefix, s, log, 0.3)
        with open(prefix + ".json") as fh:
            meta = json.load(fh)
        assert "end_time" not in meta["log"]
        # older sidecars still carry the key; it is ignored on load
        meta["log"]["end_time"] = 99.0
        with open(prefix + ".json", "w") as fh:
            json.dump(meta, fh)
        _, log2, _ = load_checkpoint(prefix)
        assert log2.times == log.times
        assert log2.end_time == log.end_time == log.times[-1]

    def test_canonical_superstate_round_trip(self, tmp_path):
        # the charge weights are not stored: they follow from mode, L and d on load
        spec = ModelSpec.xxz(4, 0.5)
        s = project_operator(embed_factor(annihilator_local(2), 2, 4), 2)
        log = evolve(s, spec, make_schedule(2, 0.1), 0.3, UNRESTRICTED)
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(prefix, s, log, 0.3)
        with open(prefix + ".json") as fh:
            meta = json.load(fh)
        assert "qbase" not in meta["super"] and "in_charge" not in meta["super"]
        target, _, _ = load_checkpoint(prefix)
        assert target.mode == CANONICAL
        assert target.weights == (2 * 4 * (2 - 1) + 3, 1)
        # input charge N = 2 and delta N = 1 live in the right bond's charge
        assert target.delta_n == 1
        assert target.mps.total_charge == sum(target.weights) * 2 - target.weights[1] * 1
        assert np.max(np.abs(target.densify() - s.densify())) < 1e-12
        # sidecars that still carry the old packing base or input charge load unchanged
        meta["super"]["qbase"] = 2 * 4 * (2 - 1) + 3
        meta["super"]["in_charge"] = 2
        with open(prefix + ".json", "w") as fh:
            json.dump(meta, fh)
        target, _, _ = load_checkpoint(prefix)
        assert np.max(np.abs(target.densify() - s.densify())) < 1e-12
