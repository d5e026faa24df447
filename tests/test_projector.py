import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpodyn import oracle, operator_space, projector
from mpodyn.charge_tensor import ChargeIndex, SectorMatrices
from mpodyn.mps_core import CanonicalMps
from mpodyn.observables import itac_canonical
from mpodyn.models import (
    SIGMA_Z,
    annihilator_local,
    creator_local,
    identity_local,
    number_local,
    sigma_z_local,
)
from mpodyn.operator_space import (
    CANONICAL,
    GRAND_CANONICAL,
    embed_factor,
    lift_product_operator,
    mode_weights,
    super_site_layout,
)
from mpodyn.projector import (
    _count_rows,
    _split_count,
    omega,
    project_operator,
    projector_osee,
    projector_superstate,
    uniform_fock_superposition,
)


def brute_count(d, n, L):
    """Enumeration oracle for the occupancy count."""
    return sum(
        1 for occ in itertools.product(range(d), repeat=L) if sum(occ) == n
    )


class TestOmega:
    def test_binomial_reduction(self):
        assert omega(2, 3, 5) == 10

    def test_unconstrained_reduction(self):
        assert omega(5, 2, 2) == 3
        assert omega(5, 2, 2) == comb(2 + 2 - 1, 2)

    def test_infeasible(self):
        assert omega(2, 3, 2) == 0

    def test_base_case(self):
        assert omega(3, 0, 0) == 1
        assert omega(3, 1, 0) == 0

    @given(st.integers(2, 5), st.integers(0, 8), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration(self, d, n, L):
        assert omega(d, n, L) == brute_count(d, n, L)

    @given(st.integers(0, 12))
    @settings(max_examples=30, deadline=None)
    def test_spin_case_is_binomial(self, n):
        for L in range(13):
            assert omega(2, n, L) == (comb(L, n) if n <= L else 0)

    def test_long_chains_count_without_recursion(self):
        for n in (0, 1, 2, 7):
            assert omega(2, n, 5000) == comb(5000, n)
        assert omega(3, 2, 4000) == comb(4000, 2) + 4000

    def test_memo_table_object(self):
        assert omega(3, 2, 4) == 10
        hits = omega.cache_info().hits
        assert omega(3, 2, 4) == 10
        assert omega.cache_info().hits == hits + 1

    def test_argument_contract(self):
        assert omega(1, -1, 3) == 0  # negative n is infeasible before any check
        with pytest.raises(ValueError):
            omega(1, 2, 3)
        with pytest.raises(ValueError):
            omega(3, 2, -1)
        big = omega(4, 30, 40)
        assert type(big) is int and big > 2**53


class TestLambdaWeights:
    @given(st.integers(2, 4), st.integers(1, 6), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_exact_normalization(self, d, N, L):
        if N > L * (d - 1):
            return
        # the squared Schmidt values count_l / Omega_d(N, L) sum to one exactly
        table = list(_count_rows(d, N, L))
        for m in range(1, L):
            assert sum(_split_count(table, N, L, m, l) for l in range(N + 1)) == omega(d, N, L)


class TestUniformSuperposition:
    def test_single_pair(self):
        psi = uniform_fock_superposition(1, 2, 2)
        v = psi.to_statevector()
        want = np.zeros(4)
        want[[1, 2]] = 2**-0.5
        assert np.max(np.abs(v - want)) < 1e-14

    def test_zero_particles(self):
        psi = uniform_fock_superposition(0, 4, 2)
        assert psi.max_bond_dimension() == 1
        assert np.allclose(psi.to_statevector(), oracle.fock_statevector([0] * 4, 2))

    def test_uniform_amplitudes_with_cap(self):
        psi = uniform_fock_superposition(2, 4, 3)
        v = psi.to_statevector()
        nz = np.abs(v) > 1e-14
        assert nz.sum() == omega(3, 2, 4)
        assert np.allclose(v[nz], omega(3, 2, 4) ** -0.5)
        # and the support is exactly the two-particle sector
        assert np.array_equal(nz, oracle.sector_indicator(4, 3, 2))

    def test_canonical_form_and_chi(self):
        psi = uniform_fock_superposition(3, 6, 2)
        psi.assert_canonical()
        assert psi.max_bond_dimension() == 4  # N + 1 at a central bond
        for m in range(7):
            assert psi.bond_dimension(m) <= 4

    def test_infeasible_raises(self):
        with pytest.raises(ValueError, match="infeasible"):
            uniform_fock_superposition(3, 2, 2)

    def test_default_local_dimension(self):
        psi = uniform_fock_superposition(2, 3)
        assert psi.site_dims == [3, 3, 3]


class TestProjectorSuperstate:
    @pytest.mark.parametrize("L,d", [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3)])
    def test_matches_sector_indicator(self, L, d):
        for N in range(L * (d - 1) + 1):
            ps = projector_superstate(N, L, d)
            want = np.diag(oracle.sector_indicator(L, d, N).astype(float))
            assert np.max(np.abs(ps.densify() - want)) < 1e-12
            assert ps.delta_n == 0
            assert ps.mps.total_charge == sum(ps.weights) * N

    def test_vacuum_projector(self):
        ps = projector_superstate(0, 2, 2)
        assert np.allclose(ps.densify(), np.diag([1.0, 0, 0, 0]))

    def test_completeness(self):
        L, d = 4, 3
        total = sum(projector_superstate(N, L, d).densify() for N in range(L * (d - 1) + 1))
        assert np.max(np.abs(total - np.eye(d**L))) < 1e-12

    def test_idempotent_and_orthogonal(self):
        L, d = 5, 2
        mats = [projector_superstate(N, L, d).densify() for N in range(L + 1)]
        for i, P in enumerate(mats):
            assert np.max(np.abs(P @ P - P)) < 1e-12
            for Q in mats[i + 1 :]:
                assert np.max(np.abs(P @ Q)) < 1e-12

    def test_hs_norm_is_sqrt_count(self):
        ps = projector_superstate(2, 5, 2)
        assert abs(ps.hs_norm() - omega(2, 2, 5) ** 0.5) < 1e-12


class TestProjectOperator:
    def test_identity_factors_give_projector(self):
        L, d, N = 3, 2, 1
        s = project_operator([identity_local(d)] * L, N)
        want = np.diag(oracle.sector_indicator(L, d, N).astype(float))
        assert np.max(np.abs(s.densify() - want)) < 1e-12

    def test_sigma_z_sandwich(self):
        s = project_operator(embed_factor(sigma_z_local(), 1, 2), 1)
        # basis order (site 1 fastest): |00>, |10>, |01>, |11>
        want = np.diag([0.0, 1.0, -1.0, 0.0])
        assert np.max(np.abs(s.densify() - want)) < 1e-12

    def test_annihilator_on_vacuum_sector_is_zero(self):
        s = project_operator(embed_factor(annihilator_local(2), 1, 3), 0)
        assert s.is_zero

    def test_superstate_input_matches_dense(self, rng):
        L, d, N = 4, 2, 2
        lifted = lift_product_operator(embed_factor(sigma_z_local(), 2, L))
        s = project_operator(lifted, N)
        P = np.diag(oracle.sector_indicator(L, d, N).astype(float))
        want = P @ oracle.site_operator(SIGMA_Z, 2, L) @ P
        assert np.max(np.abs(s.densify() - want)) < 1e-10

    def test_superstate_input_charged_operator(self):
        L, d, N = 3, 3, 2
        lifted = lift_product_operator(embed_factor(annihilator_local(d), 2, L))
        s = project_operator(lifted, N)
        assert s.delta_n == 1
        w_in, w_out = s.weights
        assert s.mps.total_charge == (w_in + w_out) * N - w_out * s.delta_n
        P_in = np.diag(oracle.sector_indicator(L, d, N).astype(float))
        P_out = np.diag(oracle.sector_indicator(L, d, N - 1).astype(float))
        amat = np.diag(np.sqrt(np.arange(1.0, d)), k=1)
        want = P_out @ oracle.site_operator(amat, 2, L) @ P_in
        assert np.max(np.abs(s.densify() - want)) < 1e-10

    def test_count_beyond_64_bits(self):
        # Omega_2(35, 70) = comb(70, 35) >= 2^64: no fixed-width integer holds it
        assert comb(70, 35) >= 2**64
        assert abs(projector_superstate(35, 70, 2).prefactor ** 2 / comb(70, 35) - 1) < 1e-15
        # P sigma_z P has one entry +-1 per 35-particle state: the same HS norm
        s = project_operator(embed_factor(sigma_z_local(), 35, 70), 35)
        assert abs(s.prefactor**2 / comb(70, 35) - 1) < 1e-13

    def test_decaying_chain_keeps_every_schmidt_value(self):
        # P sigma_z P at L=64 decays as 2^(-k/2) along the composed chain; every
        # one of the 33 Schmidt values at the middle bond must survive the floor
        f = embed_factor(sigma_z_local(), 32, 64)
        s = project_operator(f, 32)
        assert sum(len(v) for v in s.mps.schmidt_spectrum(32).values()) == 33
        c = itac_canonical(s, lift_product_operator(f), 32)
        assert 1 - c.real <= 1e-12 and abs(c.imag) <= 1e-12

    def test_hermitian_in_hermitian_out(self):
        s = project_operator(embed_factor(sigma_z_local(), 2, 4), 2)
        dense = s.densify()
        assert np.max(np.abs(dense - dense.conj().T)) < 1e-12

    @pytest.mark.parametrize("n_factors", [0, 1, 3])
    def test_composes_once_per_projection(self, monkeypatch, n_factors):
        d, L = 3, 4
        factors = [identity_local(d)] * L
        factors[:n_factors] = [annihilator_local(d), creator_local(d), number_local(d)][:n_factors]
        calls = []
        compose = operator_space.out_chain_compose

        def counted(op_s, target):
            calls.append(1)
            return compose(op_s, target)

        monkeypatch.setattr(operator_space, "out_chain_compose", counted)
        monkeypatch.setattr(projector, "out_chain_compose", counted)
        for N in range(1, L * (d - 1)):
            calls.clear()
            project_operator(factors, N)
            assert len(calls) == 1

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("delta", [0, 1, -1])
    def test_product_operator_matches_dense_sandwich(self, d, delta):
        a, n, one = annihilator_local(d), number_local(d), identity_local(d)
        adag = creator_local(d)
        factors = {0: [a, one, adag, n], 1: [a, n, one, n], -1: [n, adag, adag, a]}[delta]
        L = len(factors)
        dense_op = np.eye(d**L)
        for m, f in enumerate(factors, start=1):
            dense_op = dense_op @ oracle.site_operator(f.entries, m, L)
        for N in range(L * (d - 1) + 1):
            s = project_operator(factors, N)
            assert s.delta_n == delta
            P_in = np.diag(oracle.sector_indicator(L, d, N).astype(float))
            P_out = np.diag(oracle.sector_indicator(L, d, N - delta).astype(float))
            assert np.max(np.abs(s.densify() - P_out @ dense_op @ P_in)) < 1e-12

    def test_mixed_local_dimensions_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            project_operator([sigma_z_local(), identity_local(3)], 1)

    def test_empty_factor_list_rejected(self):
        with pytest.raises(ValueError, match="need at least one factor"):
            project_operator([], 0)


class TestProjectorOsee:
    def test_single_particle_pair(self):
        assert abs(projector_osee(1, 2, 2, 1) - 1.0) < 1e-12

    def test_matches_superstate_profile(self):
        for N, L, d in [(1, 4, 2), (2, 4, 2), (2, 5, 3)]:
            ps = projector_superstate(N, L, d)
            profile = ps.osee_profile()
            for m in range(1, L):
                assert abs(projector_osee(N, L, d, m) - profile[m - 1]) < 1e-12

    def test_bounded_by_log(self):
        for N in range(1, 21):
            assert projector_osee(N, 40, 2, 20) <= np.log2(N + 1) + 1e-12

    def test_half_filling_peak_and_symmetry(self):
        L = 40
        vals = [projector_osee(N, L, 2, L // 2) for N in range(1, L)]
        mid = L // 2 - 1
        assert np.argmax(vals) == mid
        for k in range(1, L // 2):
            assert abs(vals[mid - k] - vals[mid + k]) < 1e-12

    def test_bond_out_of_range(self):
        with pytest.raises(ValueError):
            projector_osee(1, 4, 2, 4)

    @pytest.mark.parametrize("N", [-1, 5])
    def test_infeasible_particle_number(self, N):
        with pytest.raises(ValueError, match="infeasible particle number"):
            projector_osee(N, 4, 2, 2)


def _uniform_by_fractions(N, L, d):
    """Reference: the uniform superposition in the closed form of its stored
    sites B = Gamma lambda, with every ratio an exact ``Fraction`` and
    charges counted in particles."""
    phys = ChargeIndex.occupation(d)
    sites, lambdas, prev = [], [], [0]
    for m in range(1, L + 1):
        cur = [l for l in range(N + 1) if omega(d, l, m) > 0 and omega(d, N - l, L - m) > 0]
        left = ChargeIndex(tuple((l, 1) for l in prev))
        right = ChargeIndex(tuple((r, 1) for r in cur))
        blocks = {}
        for lpos, l in enumerate(prev):
            for rpos, r in enumerate(cur):
                j = r - l
                if 0 <= j <= d - 1:
                    ratio = Fraction(omega(d, N - r, L - m), omega(d, N - l, L - m + 1))
                    blocks[(lpos, j, rpos)] = np.array([[[float(np.sqrt(float(ratio)))]]], dtype=np.complex128)
        sites.append(SectorMatrices.from_blocks((left, phys, right), blocks))
        if m < L:
            lambdas.append({
                l: np.array([float(np.sqrt(float(Fraction(
                    omega(d, l, m) * omega(d, N - l, L - m), omega(d, N, L)
                ))))])
                for l in cur
            })
        prev = cur
    return CanonicalMps(sites, lambdas)


def _projector_by_relabel(N, L, d):
    """Reference: the projector chain as first written, a second pass that
    copies the uniform superposition into canonical labels."""
    state = _uniform_by_fractions(N, L, d)
    weights = mode_weights(CANONICAL, L, d)
    phys = super_site_layout(d, weights)[0]
    w = sum(weights)

    def relabel(ix):
        return ChargeIndex(tuple((l * w, dim) for l, dim in ix.sectors))

    links = [
        SectorMatrices.from_blocks(
            (relabel(g.indices[0]), phys, relabel(g.indices[2])),
            {(lpos, phys.position(j * w), rpos): blk for (lpos, j, rpos), blk in g.blocks.items()},
        )
        for g in state.sites
    ]
    return CanonicalMps(links, [{l * w: v for l, v in lam.items()} for lam in state.lambdas])


def _assert_same_chain(got, want):
    assert len(got.sites) == len(want.sites)
    for a, b in zip(got.sites, want.sites):
        assert a.indices == b.indices
        assert list(a.blocks) == list(b.blocks)
        for key in a.blocks:
            assert np.array_equal(a.blocks[key], b.blocks[key])
    assert [list(lam) for lam in got.lambdas] == [list(lam) for lam in want.lambdas]
    for lam, ref in zip(got.lambdas, want.lambdas):
        for q in lam:
            assert np.array_equal(lam[q], ref[q])


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("L", range(1, 7))
def test_one_pass_chains_match_fractions_and_relabel_bit_for_bit(L, d):
    for N in range(L * (d - 1) + 1):
        _assert_same_chain(uniform_fock_superposition(N, L, d), _uniform_by_fractions(N, L, d))
        ps = projector_superstate(N, L, d)
        _assert_same_chain(ps.mps, _projector_by_relabel(N, L, d))
        assert ps.prefactor == float(np.sqrt(omega(d, N, L)))


@pytest.mark.parametrize("d,L", [(2, 40), (3, 12)])
def test_projector_osee_matches_fractions_bit_for_bit(d, L):
    for N in range(L * (d - 1) + 1):
        for m in (1, L // 3, L // 2, L - 1):
            want = 0.0
            for l in range(N + 1):
                p = Fraction(omega(d, l, m) * omega(d, N - l, L - m), omega(d, N, L))
                if p > 0:
                    want -= float(p) * np.log2(float(p))
            assert projector_osee(N, L, d, m) == float(want)
