import gc
import weakref

import numpy as np
import pytest

from mpodyn import observables, oracle
from mpodyn.charge_tensor import TruncationPolicy
from mpodyn.evolution import evolve, make_schedule, step_loop
from mpodyn.models import ModelSpec, SIGMA_Z, number_local, sigma_z_local
from mpodyn.mps_core import CanonicalMps, from_fock
from mpodyn.observables import (
    FitParams,
    TimeSeries,
    _canonicalize_fit,
    _fit_model,
    _observable_factors,
    build_observable_superstate,
    ensemble_relation_check,
    fit_itac,
    itac_canonical,
    itac_grand_canonical,
    itac_series,
    local_density_series,
    observe_series,
)
from mpodyn.operator_space import (
    BRUTE,
    CANONICAL,
    GRAND_CANONICAL,
    embed_factor,
    expectation_in_state,
    hs_trace_pair,
    lift_product_operator,
)
from mpodyn.projector import omega, project_operator

UNRESTRICTED = TruncationPolicy(None, 0.0)
EXACTISH = TruncationPolicy(None, 1e-12)


def xxz_setup(L=6, delta=0.8, site=3):
    spec = ModelSpec.xxz(L, delta)
    H = oracle.dense_hamiltonian(spec).entries
    O = oracle.site_operator(SIGMA_Z, site, L)
    return spec, H, O


class TestGrandCanonical:
    def test_initial_value_is_one(self):
        spec, _, _ = xxz_setup()
        s = lift_product_operator(embed_factor(sigma_z_local(), 3, 6))
        ref = s.copy()
        assert abs(itac_grand_canonical(s, ref) - 1.0) < 1e-12

    def test_matches_dense_oracle(self):
        spec, H, O = xxz_setup()
        series = itac_series(spec, 3, GRAND_CANONICAL, make_schedule(4, 1 / 16), EXACTISH, 1.0)
        for t, v in zip(series.times, series.values):
            assert abs(v - oracle.dense_itac(H, O, t)) < 1e-6

    def test_free_case_against_oracle(self):
        # delta = 0: no closed form asserted, just oracle agreement
        spec, H, O = xxz_setup(delta=0.0)
        series = itac_series(spec, 3, GRAND_CANONICAL, make_schedule(4, 1 / 16), EXACTISH, 1.0)
        for t, v in zip(series.times, series.values):
            assert abs(v - oracle.dense_itac(H, O, t)) < 1e-6
        # and it decays from 1 on this window
        assert series.values[-1].real < series.values[0].real

    def test_brute_force_agrees(self):
        spec, H, O = xxz_setup(L=4)
        series = itac_series(spec, 2, BRUTE, make_schedule(4, 1 / 16), EXACTISH, 0.5)
        for t, v in zip(series.times, series.values):
            assert abs(v - oracle.dense_itac(H, O, t)) < 1e-6


class TestCanonical:
    def test_initial_value_is_one(self):
        spec, _, _ = xxz_setup()
        series = itac_series(spec, 3, CANONICAL, make_schedule(2, 0.125), EXACTISH, 0.125, N=2)
        assert abs(series.values[0] - 1.0) < 1e-10

    def test_matches_sector_oracle(self):
        spec, H, O = xxz_setup()
        series = itac_series(spec, 3, CANONICAL, make_schedule(4, 1 / 16), EXACTISH, 1.0, N=3)
        for t, v in zip(series.times, series.values):
            assert abs(v - oracle.dense_sector_itac(H, O, t, 6, 2, 3)) < 1e-6

    def test_low_filling_bound(self):
        # 1 - C_N <= 4 N / L
        L, N = 8, 1
        spec = ModelSpec.xxz(L, 0.8)
        series = itac_series(spec, 4, CANONICAL, make_schedule(4, 1 / 8), EXACTISH, 2.0, N=N)
        assert min(series.values.real) >= 1 - 4 * N / L - 1e-9

    def test_projection_order_equivalence(self):
        spec, _, _ = xxz_setup()
        sched = make_schedule(4, 1 / 16)
        ref = lift_product_operator(embed_factor(sigma_z_local(), 3, 6))
        unproj = ref.copy()
        evolve(unproj, spec, sched, 1.0, EXACTISH)
        from mpodyn.projector import project_operator

        proj = project_operator(embed_factor(sigma_z_local(), 3, 6), 2)
        evolve(proj, spec, sched, 1.0, EXACTISH)
        a = itac_canonical(proj, ref, 2)
        b = itac_canonical(unproj, ref, 2)
        assert abs(a - b) < 1e-8

    @pytest.mark.parametrize("N", [5, -1])
    def test_infeasible_sector_rejected(self, N):
        ref = lift_product_operator(embed_factor(sigma_z_local(), 2, 4))
        with pytest.raises(ValueError, match="infeasible particle number"):
            itac_canonical(ref, ref, N)

    @pytest.mark.parametrize("N", [1, 3])
    def test_sector_other_than_the_projection_rejected(self, N):
        from mpodyn.projector import project_operator

        factors = embed_factor(sigma_z_local(), 2, 4)
        ref = lift_product_operator(factors)
        projected = project_operator(factors, 2)
        assert abs(itac_canonical(projected, ref, 2) - 1.0) < 1e-12
        with pytest.raises(ValueError, match=f"not projected onto N = {N}"):
            itac_canonical(projected, ref, N)

    def test_hermitian_series_is_real(self):
        spec, _, _ = xxz_setup(L=4)
        series = itac_series(spec, 2, CANONICAL, make_schedule(2, 0.1), EXACTISH, 0.5, N=2)
        assert np.max(np.abs(series.values.imag)) < 1e-8

    def test_particle_hole_symmetry(self):
        spec, _, _ = xxz_setup()
        sched = make_schedule(4, 1 / 8)
        s1 = itac_series(spec, 3, CANONICAL, sched, EXACTISH, 1.0, N=2)
        s2 = itac_series(spec, 3, CANONICAL, sched, EXACTISH, 1.0, N=4)
        assert np.max(np.abs(s1.values - s2.values)) < 1e-8


def fresh_itac_canonical(evolved, reference, N):
    """The evolve-then-project value with the projection built anew per call."""
    projected = project_operator(reference, N)
    return hs_trace_pair(evolved, projected) / omega(evolved.d, N, evolved.L)


@pytest.fixture
def projection_calls(monkeypatch):
    """Counts the projections ``itac_canonical`` builds."""
    calls = []
    original = observables.project_operator

    def counted(op, N):
        calls.append(N)
        return original(op, N)

    monkeypatch.setattr(observables, "project_operator", counted)
    return calls


class TestProjectedReferenceCache:
    L = 4

    def setup_method(self):
        self.spec = ModelSpec.xxz(self.L, 0.8)
        self.sched = make_schedule(4, 1 / 8)
        self.ref = lift_product_operator(embed_factor(sigma_z_local(), 2, self.L))

    def test_one_projection_per_sector(self, projection_calls):
        L, ref = self.L, self.ref
        values, fresh = [], []

        def observer(t, state, log):
            values.append([itac_canonical(state, ref, N) for N in range(L + 1)])
            fresh.append([fresh_itac_canonical(state, ref, N) for N in range(L + 1)])

        evolve(ref.copy(), self.spec, self.sched, 0.5, TruncationPolicy(4, 0.0), observer=observer)
        assert len(values) == 5
        assert sorted(projection_calls) == list(range(L + 1))
        # bitwise, not within a tolerance: the cache only skips rebuilding
        assert values == fresh

    def test_changed_reference_is_projected_again(self, projection_calls):
        state, ref, N = self.ref.copy(), self.ref, 2
        evolve(state, self.spec, self.sched, 0.25, EXACTISH)
        itac_canonical(state, ref, N)
        itac_canonical(state, ref, N)
        assert len(projection_calls) == 1
        # a gate replaces sites and spectra of the reference's own MPS
        evolve(ref, self.spec, self.sched, 0.125, EXACTISH)
        assert itac_canonical(state, ref, N) == fresh_itac_canonical(state, ref, N)
        assert len(projection_calls) == 2
        ref.prefactor *= 2.0
        assert itac_canonical(state, ref, N) == fresh_itac_canonical(state, ref, N)
        assert len(projection_calls) == 3
        before = itac_canonical(state, ref, N)
        # the stored sites are the state: a replaced spectrum changes no pairing
        ref.mps.lambdas[1] = {q: 0.5 * v for q, v in ref.mps.lambdas[1].items()}
        assert itac_canonical(state, ref, N) == fresh_itac_canonical(state, ref, N) == before
        assert len(projection_calls) == 3
        # a copy shares every site but is its own reference
        assert itac_canonical(state, ref.copy(), N) == itac_canonical(state, ref, N)
        assert len(projection_calls) == 4

    def test_dropped_reference_leaves_the_cache(self):
        ref = lift_product_operator(embed_factor(sigma_z_local(), 3, self.L))
        itac_canonical(ref.copy(), ref, 2)
        projected = weakref.ref(observables._projections[ref][2][2])
        size = len(observables._projections)
        del ref
        gc.collect()
        assert len(observables._projections) == size - 1
        assert projected() is None

    def test_shape_mismatch_rejected_before_projecting(self, projection_calls):
        state = lift_product_operator(embed_factor(sigma_z_local(), 2, 4))
        ref = lift_product_operator(embed_factor(sigma_z_local(), 2, 3))
        with pytest.raises(ValueError, match="reference has L = 3"):
            itac_canonical(state, ref, 1)
        assert projection_calls == []

    @pytest.mark.parametrize("mode", [BRUTE, CANONICAL])
    def test_reference_without_grand_canonical_labels_rejected(self, projection_calls, mode):
        factors = embed_factor(sigma_z_local(), 2, 4)
        state = lift_product_operator(factors)
        if mode == CANONICAL:
            ref = project_operator(factors, 2)
        else:
            ref = lift_product_operator(factors, mode=BRUTE)
        with pytest.raises(ValueError, match=f"reference to project .* not {mode}"):
            itac_canonical(state, ref, 2)
        assert projection_calls == []


class TestEnsembleRelation:
    def test_weighted_average_identity(self):
        L = 6
        spec = ModelSpec.xxz(L, 0.8)
        sched = make_schedule(4, 1 / 8)
        g = itac_series(spec, 3, GRAND_CANONICAL, sched, EXACTISH, 1.0)
        c_by_n = {
            n: itac_series(spec, 3, CANONICAL, sched, EXACTISH, 1.0, N=n)
            for n in range(L + 1)
        }
        dev = ensemble_relation_check(g, c_by_n)
        assert dev <= 1e-8
        # one-dimensional sectors contribute a constant series
        assert np.max(np.abs(c_by_n[0].values - 1.0)) < 1e-10
        assert np.max(np.abs(c_by_n[L].values - 1.0)) < 1e-10

    def test_missing_sector_raises(self):
        L = 4
        spec = ModelSpec.xxz(L, 0.8)
        sched = make_schedule(2, 0.25)
        g = itac_series(spec, 2, GRAND_CANONICAL, sched, EXACTISH, 0.25)
        with pytest.raises(ValueError, match="missing sector"):
            ensemble_relation_check(g, {0: g})


class TestLocalDensity:
    def test_empty_site_starts_at_zero(self):
        spec = ModelSpec.bose_hubbard(4, 3, 4.0)
        series = local_density_series(
            spec, [0, 1, 0, 1], 1, GRAND_CANONICAL, make_schedule(2, 0.05), EXACTISH, 0.1
        )
        assert abs(series.values[0]) < 1e-12

    def test_methods_agree(self):
        spec = ModelSpec.bose_hubbard(4, 3, 4.0)
        sched = make_schedule(4, 1 / 16)
        a = local_density_series(spec, [0, 1, 0, 1], 2, CANONICAL, sched, EXACTISH, 0.5)
        b = local_density_series(spec, [0, 1, 0, 1], 2, GRAND_CANONICAL, sched, EXACTISH, 0.5)
        assert np.max(np.abs(a.values - b.values)) < 1e-8

    def test_values_within_spectrum_range(self):
        spec = ModelSpec.bose_hubbard(4, 3, 4.0)
        series = local_density_series(
            spec, [1, 1, 0, 1], 2, GRAND_CANONICAL, make_schedule(4, 1 / 16), EXACTISH, 1.0
        )
        assert np.all(series.values.real >= -1e-9)
        assert np.all(series.values.real <= spec.d - 1 + 1e-9)

    def test_psi0_length_mismatch(self):
        spec = ModelSpec.bose_hubbard(4, 3, 4.0)
        with pytest.raises(ValueError, match="psi0 length mismatch"):
            local_density_series(spec, [0, 1], 2, GRAND_CANONICAL, make_schedule(2, 0.1), EXACTISH, 0.1)


def full_step_values(target, spec, sched, t_max, measure):
    """``measure(state)`` at t = 0 and after every full step of ``evolve``."""
    values = []
    evolve(target, spec, sched, t_max, UNRESTRICTED, observer=lambda t, s, lg: values.append(measure(s)))
    return np.array(values)


def density_target(spec, site, method, N):
    factors = embed_factor(number_local(spec.d), site, spec.L)
    return project_operator(factors, N) if method == CANONICAL else lift_product_operator(factors, method)


HELD_BACK_CASES = [  # (spec, observed site, Fock psi0)
    (ModelSpec.xxz(4, 0.8), 2, [0, 1, 1, 0]),
    (ModelSpec.xxz(6, 0.8), 3, [1, 0, 1, 0, 1, 0]),
    (ModelSpec.bose_hubbard(4, 3, 2.0), 2, [1, 0, 2, 1]),
    (ModelSpec.bose_hubbard(5, 3, 2.0), 3, [0, 2, 0, 1, 1]),
]


@pytest.mark.parametrize("order", [1, 2, 4])
@pytest.mark.parametrize(
    "case", HELD_BACK_CASES, ids=[f"{s.kind}-L{s.L}-d{s.d}" for s, _, _ in HELD_BACK_CASES]
)
class TestHeldBackStage:
    """A series with a fixed side holds each step's last stage back from the operator
    and moves it onto that side; at exact truncation it reads the full-step values."""

    TOL = 1e-12
    DT, T_MAX = 0.2, 0.6

    def test_densities(self, case, order):
        spec, site, psi0 = case
        sched = make_schedule(order, self.DT)
        psi = from_fock(psi0, spec.d)
        for method in (BRUTE, GRAND_CANONICAL, CANONICAL):
            got = local_density_series(spec, psi0, site, method, sched, UNRESTRICTED, self.T_MAX)
            target = density_target(spec, site, method, sum(psi0))
            want = full_step_values(target, spec, sched, self.T_MAX, lambda s: expectation_in_state(s, psi))
            assert len(got.values) == round(self.T_MAX / self.DT) + 1
            assert np.max(np.abs(got.values - want)) <= self.TOL
            assert got.values[0] == want[0]  # t = 0 reads the unmoved psi0

    def test_itac_every_sector(self, case, order):
        spec, site, _ = case
        sched = make_schedule(order, self.DT)
        n_max = spec.L * (spec.d - 1)
        factors = _observable_factors(spec, site)
        ref = lift_product_operator(factors)
        for method in (BRUTE, GRAND_CANONICAL):
            got = itac_series(spec, site, method, sched, UNRESTRICTED, self.T_MAX)
            want = full_step_values(
                lift_product_operator(factors, method), spec, sched, self.T_MAX,
                lambda s: itac_grand_canonical(s, ref),
            )
            assert np.max(np.abs(got.values - want)) <= self.TOL
            # evolve, then project: every C_N read against the moved reference
            sectors = []
            observe_series(
                lift_product_operator(factors, method), spec, sched, UNRESTRICTED, self.T_MAX, 1.0,
                lambda s, side: sectors.append([itac_canonical(s, side, N) for N in range(n_max + 1)]),
                ref, {},
            )
            want = full_step_values(
                lift_product_operator(factors, method), spec, sched, self.T_MAX,
                lambda s: [itac_canonical(s, ref, N) for N in range(n_max + 1)],
            )
            assert np.max(np.abs(np.array(sectors) - want)) <= self.TOL
        for N in range(n_max + 1):
            if project_operator(factors, N).is_zero:
                continue  # P_0 n P_0 = 0: no canonical run
            got = itac_series(spec, site, CANONICAL, sched, UNRESTRICTED, self.T_MAX, N=N)
            want = full_step_values(
                project_operator(factors, N), spec, sched, self.T_MAX,
                lambda s: itac_canonical(s, ref, N),
            )
            assert np.max(np.abs(got.values - want)) <= self.TOL


class TestStagesPerStep:
    """L = 6: the even sublattice has 3 bonds, the odd one 2."""

    L = 6

    @pytest.mark.parametrize(
        "order,later,per_step,full",
        [
            (1, ["odd", "even"], [3, 5, 5, 5], 5),
            (2, ["even", "odd"], [5, 5, 5, 5], 8),
            (4, ["even", "odd"] * 5, [25, 25, 25, 25], 28),
        ],
    )
    def test_records_per_step(self, order, later, per_step, full):
        spec = ModelSpec.xxz(self.L, 0.8)
        sched = make_schedule(order, 0.1)
        first, fused = sched.held_back()
        assert first == sched.stages[:-1]
        assert [stage.sublattice for stage in fused] == later
        counts = []
        for lists in ((sched.stages, sched.stages), (first, fused)):
            seen = []
            step_loop(
                build_observable_superstate(spec, 3, GRAND_CANONICAL), spec, sched.dt, *lists, 0.4,
                UNRESTRICTED, 1.0, lambda t, s, lg: seen.append(len(lg.records)),
            )
            counts.append(np.diff(seen).tolist())
        assert counts == [[full] * 4, per_step]

    def test_order_four_fused_stage_reuses_a_cached_gate(self):
        sched = make_schedule(4, 0.1)
        _, fused = sched.held_back()
        assert fused[0] == sched.stages[2]  # E(p/2) + E(p/2) is the even stage E(p)

    def test_density_series_applies_the_held_back_layer_once(self, monkeypatch):
        spec = ModelSpec.bose_hubbard(self.L, 2, 1.0)
        calls = []
        apply = CanonicalMps.apply_two_site_gate
        monkeypatch.setattr(
            CanonicalMps, "apply_two_site_gate", lambda mps, *a: calls.append(mps) or apply(mps, *a)
        )
        psi0 = [0, 1, 0, 1, 0, 1]
        series = local_density_series(spec, psi0, 3, GRAND_CANONICAL, make_schedule(4, 0.1), UNRESTRICTED, 0.4)
        assert len(series.values) == 5
        operator_calls = [c for c in calls if c.site_dims == [4] * self.L]
        assert len(operator_calls) == 4 * 25 and len(calls) == 4 * 25 + 3  # 3 even bonds on psi0
        # t = 0 reads no moved state: a run without steps applies no gate
        calls.clear()
        local_density_series(spec, psi0, 3, GRAND_CANONICAL, make_schedule(4, 0.1), UNRESTRICTED, 0.0)
        assert calls == []


class TestOseeShift:
    def test_canonical_tracks_grand_after_offset(self):
        # the projected operator's entropy growth tracks the unprojected one;
        # the projection only adds a static offset
        L, site, N = 6, 3, 3
        spec = ModelSpec.xxz(L, 0.8)
        sched = make_schedule(4, 1 / 8)
        bond = 3

        def osee_series(method, N=None):
            from mpodyn.observables import build_observable_superstate

            target = build_observable_superstate(spec, site, method, N)
            vals = []
            evolve(
                target, spec, sched, 2.0, EXACTISH,
                observer=lambda t, st, lg: vals.append(st.osee_profile()[bond - 1]),
            )
            return np.array(vals)

        grand = osee_series(GRAND_CANONICAL)
        canon = osee_series(CANONICAL, N)
        dg = grand[-1] - grand[0]
        dc = canon[-1] - canon[0]
        assert dg > 0.1  # real growth on this window
        assert abs(dc - dg) <= 0.2 * abs(dg)


class TestFit:
    def make_series(self, params, t):
        vals = _fit_model(np.array(params), t)
        return TimeSeries(t, vals.astype(complex), {})

    def test_recovers_known_parameters(self):
        truth = [-0.83, 1.0, 0.2, 0.5, 3.0, 1.0]
        t = np.linspace(1.5, 11.5, 200)
        series = self.make_series(truth, t)
        params, res = fit_itac(series, (1.5, 11.5))
        got = [params.kappa, params.A, params.B, params.gamma, params.Omega, params.t0]
        for g, w in zip(got, truth):
            assert abs(g - w) < 1e-3
        assert res < 1e-8

    def test_pure_power_law(self):
        t = np.linspace(2.0, 10.0, 60)
        vals = 0.7 * t**-0.5
        series = TimeSeries(t, vals.astype(complex), {})
        params, _ = fit_itac(series, (2.0, 10.0))
        # log-log regression oracle
        slope = np.polyfit(np.log(t), np.log(vals), 1)[0]
        assert abs(params.kappa - slope) < 1e-6
        assert abs(params.kappa + 0.5) < 1e-6

    @pytest.mark.parametrize("t0", [0.3, 2.9, -1.4])
    def test_negative_amplitude_is_a_half_period_shift(self, t0):
        raw = np.array([-0.6, 1.0, -0.3, 0.4, 2.5, t0])
        got = _canonicalize_fit(raw)
        assert got[2] > 0 and 0 <= got[5] < 2 * np.pi / 2.5
        t = np.linspace(1.0, 8.0, 50)
        assert np.allclose(_fit_model(got, t), _fit_model(raw, t), rtol=1e-12, atol=0)

    def test_unfittable_window(self):
        t = np.linspace(1, 2, 20)
        series = TimeSeries(t, np.linspace(-1, 1, 20).astype(complex), {})
        with pytest.raises(ValueError, match="unfittable window"):
            fit_itac(series, (1, 2))

    def test_too_few_samples(self):
        t = np.linspace(1, 2, 5)
        series = TimeSeries(t, np.ones(5, dtype=complex), {})
        with pytest.raises(ValueError, match="unfittable window"):
            fit_itac(series, (1, 2))

    def test_gamma_nonnegative(self):
        with pytest.raises(ValueError):
            FitParams(1, 1, 1, -0.5, 1, 0)
