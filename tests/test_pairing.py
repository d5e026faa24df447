"""The observers' block sweeps against dense contractions, and what they must not build.

``hs_trace_pair`` and ``expectation_in_state`` pair stored sector blocks
and bond spectra; here every pairing of modes they meet is pinned against
``np.vdot`` of densified operators (Hilbert-Schmidt scale) and against
statevectors, and a sweep is checked to build no dense site and to stay
far below the size of one.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from conftest import random_charge_mps

from mpodyn import itac_canonical, itac_grand_canonical
from mpodyn.charge_tensor import SymmetricTensor, TruncationPolicy
from mpodyn.evolution import evolve, make_schedule
from mpodyn.models import (
    ModelSpec,
    annihilator_local,
    creator_local,
    number_local,
    sigma_z_local,
)
from mpodyn.mps_core import CanonicalMps, from_fock
from mpodyn.operator_space import (
    BRUTE,
    GRAND_CANONICAL,
    embed_factor,
    expectation_in_state,
    hs_trace_pair,
    lift_product_operator,
)
from mpodyn.projector import project_operator

L_XXZ = 6


def evolved_series(spec, factors, mode, policy, t_max, dt=0.25):
    """Copies of the superstate of ``factors`` after every full step up to ``t_max``."""
    states = []
    evolve(
        lift_product_operator(factors, mode), spec, make_schedule(2, dt), t_max, policy,
        observer=lambda t, s, log: states.append(s.copy()),
    )
    return states


@pytest.fixture(scope="module")
def xxz():
    """Evolved sigma^z at site 3 of an XXZ chain, capped at chi 8 and exact, per mode."""
    spec = ModelSpec.xxz(L_XXZ, 0.8)
    factors = embed_factor(sigma_z_local(), 3, L_XXZ)
    return {
        (mode, chi): evolved_series(spec, factors, mode, TruncationPolicy(chi, 0.0), 1.5)
        for mode in (GRAND_CANONICAL, BRUTE)
        for chi in (8, None)
    }


def assert_pairs_dense(a, b):
    want = np.vdot(a.densify(), b.densify())
    assert abs(hs_trace_pair(a, b) - want) <= 1e-12 * a.hs_norm() * b.hs_norm()


@pytest.mark.parametrize("chi", [8, None], ids=["chi8", "exact"])
class TestXxzPairs:
    def test_grand_canonical_pairs(self, xxz, chi):
        states = xxz[GRAND_CANONICAL, chi]
        assert max(s.mps.max_bond_dimension() for s in states) > 1
        for a, b in itertools.product(states[::2], states[1::2]):
            assert_pairs_dense(a, b)

    def test_grand_canonical_with_every_projection(self, xxz, chi):
        a, b = xxz[GRAND_CANONICAL, chi][-1], xxz[GRAND_CANONICAL, chi][-3]
        for N in range(L_XXZ + 1):
            projected = project_operator(b, N)
            assert_pairs_dense(a, projected)
            assert_pairs_dense(projected, a)

    def test_canonical_pairs(self, xxz, chi):
        a, b = xxz[GRAND_CANONICAL, chi][-1], xxz[GRAND_CANONICAL, chi][-2]
        pa = [project_operator(a, N) for N in range(L_XXZ + 1)]
        pb = [project_operator(b, N) for N in range(L_XXZ + 1)]
        for n, m in itertools.product(range(L_XXZ + 1), repeat=2):
            assert_pairs_dense(pa[n], pb[m])
            if n != m:
                assert hs_trace_pair(pa[n], pb[m]) == 0.0

    def test_brute_with_grand_canonical(self, xxz, chi):
        brute, gc = xxz[BRUTE, chi], xxz[GRAND_CANONICAL, chi]
        for a, b in zip(brute, gc[::-1]):
            assert_pairs_dense(a, b)
            assert_pairs_dense(b, a)


class TestBoseHubbardPairs:
    """d = 3, L = 4: n, a and a^dagger (delta_n 0, +1, -1) evolved at site 2."""

    L, d = 4, 3

    @pytest.fixture(scope="class")
    def evolved(self):
        spec = ModelSpec.bose_hubbard(self.L, self.d, 2.0)
        ops = {"n": number_local(self.d), "a": annihilator_local(self.d), "adag": creator_local(self.d)}
        policy = TruncationPolicy(None, 1e-12)
        return {
            name: evolved_series(spec, embed_factor(op, 2, self.L), GRAND_CANONICAL, policy, 0.5)[-1]
            for name, op in ops.items()
        }

    def test_every_pair(self, evolved):
        assert {s.delta_n for s in evolved.values()} == {-1, 0, 1}
        for a, b in itertools.product(evolved.values(), repeat=2):
            assert_pairs_dense(a, b)

    def test_projections(self, evolved):
        for name, op in evolved.items():
            for N in range(self.L * (self.d - 1) + 1):
                projected = project_operator(op, N)
                assert_pairs_dense(projected, evolved["n"])
                assert_pairs_dense(op, projected)


def dense_expectation(s, psi):
    vec = psi.to_statevector()
    return np.vdot(vec, s.densify() @ vec)


class TestExpectationSweep:
    def test_entangled_state(self, xxz, rng):
        psi = random_charge_mps(L_XXZ, 2, [0, 1, 1, 0, 1, 0], rng)
        assert psi.max_bond_dimension() > 2
        hop = embed_factor(creator_local(2), 2, L_XXZ)
        hop[2] = annihilator_local(2)
        operators = [
            xxz[GRAND_CANONICAL, 8][-1],
            xxz[BRUTE, None][-1],
            project_operator(xxz[GRAND_CANONICAL, None][-1], 3),
            lift_product_operator(hop),
            lift_product_operator(embed_factor(creator_local(2), 4, L_XXZ)),
        ]
        for s in operators:
            want = dense_expectation(s, psi)
            assert abs(expectation_in_state(s, psi) - want) <= 1e-12 * s.hs_norm()
        assert abs(dense_expectation(operators[3], psi)) > 1e-3  # hopping reads coherences

    def test_fock_state_bosons(self):
        L, d = 4, 3
        psi = from_fock([1, 0, 2, 1], d)
        spec = ModelSpec.bose_hubbard(L, d, 2.0)
        policy = TruncationPolicy(None, 1e-12)
        hop = embed_factor(creator_local(d), 2, L)
        hop[2] = annihilator_local(d)
        operators = [
            evolved_series(spec, embed_factor(number_local(d), 3, L), GRAND_CANONICAL, policy, 0.5)[-1],
            evolved_series(spec, hop, GRAND_CANONICAL, policy, 0.5)[-1],
            lift_product_operator(embed_factor(annihilator_local(d), 3, L)),
            lift_product_operator(hop, BRUTE),
        ]
        values = []
        for s in operators:
            values.append(expectation_in_state(s, psi))
            assert abs(values[-1] - dense_expectation(s, psi)) <= 1e-12 * s.hs_norm()
        assert abs(values[0]) > 0.1 and abs(values[1]) > 1e-3


class TestNoDenseSite:
    def test_observers_never_densify(self, xxz, rng, monkeypatch):
        state = xxz[GRAND_CANONICAL, 8][-1]
        ref = lift_product_operator(embed_factor(sigma_z_local(), 3, L_XXZ))
        psi = random_charge_mps(L_XXZ, 2, [0, 1, 1, 0, 1, 0], rng)
        want = [np.vdot(state.densify(), ref.densify()) / 2**L_XXZ, dense_expectation(state, psi)]

        def refuse(*args, **kwargs):
            raise AssertionError("an observer built a dense site")

        monkeypatch.setattr(SymmetricTensor, "densify", refuse)
        monkeypatch.setattr(CanonicalMps, "site_tensor_dense", refuse)
        assert abs(itac_grand_canonical(state, ref) - want[0]) < 1e-12
        for N in range(L_XXZ + 1):
            assert np.isfinite(itac_canonical(state, ref, N))
        assert abs(expectation_in_state(state, psi) - want[1]) < 1e-12

    def test_pairing_memory_grows_with_chi_not_its_square(self):
        L, chi = 10, 64
        ref = lift_product_operator(embed_factor(sigma_z_local(), 5, L))
        state = ref.copy()
        evolve(state, ModelSpec.xxz(L, 0.8), make_schedule(2, 0.25), 2.0, TruncationPolicy(chi, 0.0))
        assert state.mps.max_bond_dimension() == chi and state.mode == GRAND_CANONICAL
        hs_trace_pair(state, ref)  # the first call builds the sites' block views
        tracemalloc.start()
        try:
            hs_trace_pair(state, ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense_site = 16 * state.d**2 * chi**2
        assert peak < dense_site / 4

