from math import comb

import numpy as np
import pytest

from mpodyn import oracle
from mpodyn.models import ModelSpec, SIGMA_X, SIGMA_Y, SIGMA_Z


class TestDenseHamiltonian:
    def test_xxz_two_sites_hand_writeout(self):
        H = oracle.dense_hamiltonian(ModelSpec.xxz(2, 0.8)).entries
        want = -0.5 * (
            np.kron(SIGMA_X, SIGMA_X)
            + np.kron(SIGMA_Y, SIGMA_Y)
            + 0.8 * np.kron(SIGMA_Z, SIGMA_Z)
        )
        assert np.max(np.abs(H - want)) < 1e-14

    def test_bh_interaction_diagonal(self):
        spec = ModelSpec.bose_hubbard(2, 3, 4.0, hopping=0.0)
        H = oracle.dense_hamiltonian(spec).entries
        # on-site energies n(n-1) U/2 per site: occupations (0,1,2) per site
        want = np.zeros(9)
        for idx, occ in enumerate(oracle.occupations_iter(2, 3)):
            want[idx] = sum(4.0 / 2 * n * (n - 1) for n in occ)
        assert np.max(np.abs(H - np.diag(want))) < 1e-12

    def test_commutes_with_total_number(self):
        for spec in (ModelSpec.xxz(4, 0.8), ModelSpec.bose_hubbard(3, 4, 10.0)):
            H = oracle.dense_hamiltonian(spec).entries
            N = oracle.dense_total_number(spec.L, spec.d)
            assert np.max(np.abs(H @ N - N @ H)) < 1e-12

    def test_bitwise_equal_to_dense_products(self):
        # the global formula with every term a product of dense site operators
        site = oracle.site_operator
        spec = ModelSpec.xxz(6, 0.8)
        sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
        sy = np.array([[0, 1j], [-1j, 0]], dtype=np.complex128)
        sz = np.array([[-1, 0], [0, 1]], dtype=np.complex128)
        want = np.zeros((2**6, 2**6), dtype=np.complex128)
        for m in range(1, 6):
            for op, w in ((sx, 1.0), (sy, 1.0), (sz, spec.delta)):
                want += -0.5 * w * site(op, m, 6) @ site(op, m + 1, 6)
        assert np.array_equal(oracle.dense_hamiltonian(spec).entries, want)

        spec = ModelSpec.bose_hubbard(3, 3, 2.5, hopping=0.7)
        a = np.diag(np.sqrt(np.arange(1.0, 3)), k=1).astype(np.complex128)
        n = np.diag(np.arange(3, dtype=np.float64)).astype(np.complex128)
        want = np.zeros((27, 27), dtype=np.complex128)
        for m in range(1, 3):
            hop = site(a.conj().T, m, 3) @ site(a, m + 1, 3)
            want += -spec.hopping * (hop + hop.conj().T)
        for m in range(1, 4):
            nm = site(n, m, 3)
            want += 0.5 * spec.interaction * (nm @ nm - nm)
        assert np.array_equal(oracle.dense_hamiltonian(spec).entries, want)

    def test_cap_enforced(self):
        import pytest

        with pytest.raises(ValueError, match="cap"):
            oracle.dense_hamiltonian(ModelSpec.xxz(14, 0.5))


class TestHeisenbergEvolve:
    def test_zero_time(self):
        H = oracle.dense_hamiltonian(ModelSpec.xxz(3, 0.8)).entries
        O = oracle.site_operator(SIGMA_Z, 2, 3)
        assert np.max(np.abs(oracle.dense_heisenberg_evolve(H, O, 0.0) - O)) < 1e-12

    def test_commuting_observable_is_static(self):
        H = oracle.dense_hamiltonian(ModelSpec.xxz(3, 0.8)).entries
        N = oracle.dense_total_number(3, 2)
        assert np.max(np.abs(oracle.dense_heisenberg_evolve(H, N, 1.7) - N)) < 1e-10

    def test_spectrum_invariant(self):
        H = oracle.dense_hamiltonian(ModelSpec.xxz(3, 0.8)).entries
        O = oracle.site_operator(SIGMA_Z, 1, 3)
        Ot = oracle.dense_heisenberg_evolve(H, O, 0.9)
        w0 = np.sort(np.linalg.eigvalsh(O))
        w1 = np.sort(np.linalg.eigvalsh(Ot))
        assert np.max(np.abs(w0 - w1)) < 1e-10


class TestItac:
    def test_initial_value(self):
        H = oracle.dense_hamiltonian(ModelSpec.xxz(4, 0.8)).entries
        O = oracle.site_operator(SIGMA_Z, 2, 4)
        assert abs(oracle.dense_itac(H, O, 0.0) - 1.0) < 1e-12

    def test_sector_dimension_is_binomial(self):
        for L in (4, 6):
            for N in range(L + 1):
                assert int(oracle.sector_indicator(L, 2, N).sum()) == comb(L, N)

    def test_full_trace_is_weighted_sector_sum(self):
        L = 5
        H = oracle.dense_hamiltonian(ModelSpec.xxz(L, 0.8)).entries
        O = oracle.site_operator(SIGMA_Z, 3, L)
        t = 0.7
        full = oracle.dense_itac(H, O, t)
        parts = sum(
            comb(L, N) * oracle.dense_sector_itac(H, O, t, L, 2, N)
            for N in range(L + 1)
        ) / 2**L
        assert abs(full - parts) < 1e-10


class TestStatevector:
    def test_fock_state_index(self):
        v = oracle.fock_statevector([1, 0, 2], 3)
        assert v[1 + 0 * 3 + 2 * 9] == 1.0
        assert np.sum(np.abs(v)) == 1.0

    @pytest.mark.parametrize("occupations", [[2, 0, 0], [0, -1, 1], [0, 0, 5]])
    def test_occupation_outside_local_dimension_rejected(self, occupations):
        with pytest.raises(ValueError, match="outside 0..1"):
            oracle.fock_statevector(occupations, 2)

    def test_krylov_propagator_matches_eigh(self):
        H = oracle.dense_hamiltonian(ModelSpec.xxz(4, 0.8)).entries
        v0 = oracle.fock_statevector([0, 1, 0, 1], 2)
        t = 0.8
        w, P = np.linalg.eigh(H)
        want = P @ (np.exp(-1j * w * t) * (P.conj().T @ v0))
        got = oracle.dense_statevector_evolve(H, v0, t)
        assert np.max(np.abs(got - want)) < 1e-10
