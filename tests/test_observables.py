import gc
import weakref

import numpy as np
import pytest

from mpodyn import observables, oracle
from mpodyn.charge_tensor import TruncationPolicy
from mpodyn.evolution import evolve, make_schedule
from mpodyn.models import ModelSpec, SIGMA_Z, sigma_z_local
from mpodyn.observables import (
    FitParams,
    TimeSeries,
    _fit_model,
    ensemble_relation_check,
    fit_itac,
    itac_canonical,
    itac_grand_canonical,
    itac_series,
    local_density_series,
)
from mpodyn.operator_space import (
    BRUTE,
    CANONICAL,
    GRAND_CANONICAL,
    embed_factor,
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
