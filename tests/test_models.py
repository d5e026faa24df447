import numpy as np
import pytest
from scipy.linalg import expm

from mpodyn import oracle
from mpodyn.charge_tensor import ChargeIndex, ChargeMismatchError, pair_bands
from mpodyn.models import (
    BondGate,
    ModelSpec,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bond_gate,
    bond_hamiltonian,
    sigma_z_local,
    super_gate,
)
from mpodyn.operator_space import (
    BRUTE,
    CANONICAL,
    GRAND_CANONICAL,
    embed_factor,
    lift_product_operator,
    mode_weights,
    super_site_layout,
)
from mpodyn.charge_tensor import TruncationPolicy

from conftest import random_conserving_gate

UNRESTRICTED = TruncationPolicy(None, 0.0)


class TestModelSpec:
    @pytest.mark.parametrize("field", ["delta", "hopping", "interaction"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coupling_names_the_field(self, field, value):
        for kind, d in (("xxz", 2), ("bose_hubbard", 3)):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                ModelSpec(kind, 4, d, **{field: value})


class TestBondHamiltonian:
    def test_xxz_flip_flop_amplitude(self):
        h = bond_hamiltonian(ModelSpec.xxz(4, 0.0), 1)
        # |01> and |10> with the left site slow: indices 1 and 2
        assert abs(h[1, 2] - (-1.0)) < 1e-14
        assert abs(h[2, 1] - (-1.0)) < 1e-14
        assert abs(h[1, 1]) < 1e-14  # no diagonal at delta = 0

    def test_xxz_diagonal_sign_convention(self):
        delta = 0.7
        h = bond_hamiltonian(ModelSpec.xxz(4, delta), 2)
        # sigma^z|0> = -|0>, so |00> picks up -delta/2 * (+1)
        assert abs(h[0, 0] - (-delta / 2)) < 1e-14
        assert abs(h[3, 3] - (-delta / 2)) < 1e-14
        assert abs(h[1, 1] - (+delta / 2)) < 1e-14

    def test_xxz_hand_writeout(self):
        delta = 0.8
        h = bond_hamiltonian(ModelSpec.xxz(2, delta), 1)
        want = -0.5 * (
            np.kron(SIGMA_X, SIGMA_X)
            + np.kron(SIGMA_Y, SIGMA_Y)
            + delta * np.kron(SIGMA_Z, SIGMA_Z)
        )
        assert np.max(np.abs(h - want)) < 1e-14
        assert np.max(np.abs(h - h.conj().T)) < 1e-14

    def test_bh_onsite_energy(self):
        spec = ModelSpec.bose_hubbard(2, 4, 10.0)
        h = bond_hamiltonian(spec, 1)
        # |2> at the left site, vacuum right: diagonal energy U/2 * 2 * 1 = 10
        idx = 2 * 4 + 0
        assert abs(h[idx, idx] - 10.0) < 1e-12

    def test_bh_split_sums_to_full_hamiltonian(self):
        spec = ModelSpec.bose_hubbard(4, 3, 7.0)
        total = sum(
            oracle.two_site_operator(bond_hamiltonian(spec, m), m, spec.L, spec.d)
            for m in range(1, spec.L)
        )
        assert np.max(np.abs(total - oracle.dense_hamiltonian(spec).entries)) < 1e-12

    def test_number_conservation(self):
        for spec in (ModelSpec.xxz(3, 0.8), ModelSpec.bose_hubbard(3, 4, 10.0)):
            h = bond_hamiltonian(spec, 1)
            occ = np.arange(spec.d, dtype=float)
            n2 = np.diag(np.add.outer(occ, occ).ravel())
            assert np.max(np.abs(h @ n2 - n2 @ h)) < 1e-12

    def test_max_onsite_energy_scale(self):
        spec = ModelSpec.bose_hubbard(2, 5, 6.0)
        h = bond_hamiltonian(spec, 1)
        d = spec.d
        # highest occupation on one site, interaction part only
        idx = (d - 1) * d + 0
        hop_free = h[idx, idx].real
        assert abs(hop_free - 0.5 * spec.interaction * (d - 1) * (d - 2)) < 1e-12


class TestBondGate:
    def test_zero_time_is_identity(self):
        g = bond_gate(ModelSpec.xxz(4, 0.8), 1, 0.0)
        assert np.max(np.abs(g.dense - np.eye(4))) < 1e-14

    def test_forward_backward_cancels(self):
        g = bond_gate(ModelSpec.bose_hubbard(4, 3, 5.0), 2, 0.17)
        ginv = bond_gate(ModelSpec.bose_hubbard(4, 3, 5.0), 2, -0.17)
        assert np.max(np.abs(g.dense @ ginv.dense - np.eye(9))) < 1e-12

    def test_matches_dense_expm(self):
        for spec, m, dt in [
            (ModelSpec.xxz(5, 1.3), 2, 0.21),
            (ModelSpec.bose_hubbard(5, 4, 8.0), 3, 0.05),
        ]:
            h = bond_hamiltonian(spec, m)
            g = bond_gate(spec, m, dt)
            assert np.max(np.abs(g.dense - expm(-1j * h * dt))) < 1e-12

    def test_unitary(self):
        g = bond_gate(ModelSpec.xxz(3, 0.8), 1, 0.3)
        assert np.max(np.abs(g.dense @ g.dense.conj().T - np.eye(4))) < 1e-12

    def test_commutes_with_pair_number(self):
        for spec in (ModelSpec.xxz(3, 0.8), ModelSpec.bose_hubbard(3, 4, 10.0)):
            g = bond_gate(spec, 1, 0.13)
            occ = np.arange(spec.d, dtype=float)
            n2 = np.diag(np.add.outer(occ, occ).ravel())
            assert np.max(np.abs(g.dense @ n2 - n2 @ g.dense)) < 1e-12


class TestSuperGate:
    def test_identity_maps_to_identity(self):
        g = BondGate(np.eye(4, dtype=complex), ChargeIndex.occupation(2))
        sg = super_gate(g, mode_weights(GRAND_CANONICAL, 2, 2))
        assert np.max(np.abs(sg.dense - np.eye(16))) < 1e-14

    def test_reproduces_heisenberg_conjugation(self, rng):
        L, d = 4, 2
        spec = ModelSpec.xxz(L, 0.8)
        g = bond_gate(spec, 2, 0.1)
        sg = super_gate(g, mode_weights(GRAND_CANONICAL, L, d))
        s = lift_product_operator(embed_factor(sigma_z_local(), 2, L))
        s.mps.apply_two_site_gate(2, sg, UNRESTRICTED)
        U = oracle.two_site_operator(g.dense, 2, L, d)
        want = U.conj().T @ oracle.site_operator(SIGMA_Z, 2, L) @ U
        assert np.max(np.abs(s.densify() - want)) < 1e-12

    def test_exhaustive_two_site_basis(self, rng):
        # conjugation on every matrix unit of a d=3 bond (L=2)
        d = 3
        spec = ModelSpec.bose_hubbard(2, d, 4.0)
        g = bond_gate(spec, 1, 0.23)
        sg = super_gate(g, mode_weights(BRUTE, 2, d))
        from mpodyn.operator_space import LocalOperator

        for xi in range(d):
            for yi in range(d):
                for xj in range(d):
                    for yj in range(d):
                        m1 = np.zeros((d, d), dtype=complex)
                        m1[xi, yi] = 1.0
                        m2 = np.zeros((d, d), dtype=complex)
                        m2[xj, yj] = 1.0
                        s = lift_product_operator(
                            [LocalOperator.from_matrix(m1), LocalOperator.from_matrix(m2)],
                            mode=BRUTE,
                        )
                        s.mps.apply_two_site_gate(1, sg, UNRESTRICTED)
                        want = g.dense.conj().T @ np.kron(m2, m1) @ g.dense
                        assert np.max(np.abs(s.densify() - want)) < 1e-12

    def test_identity_superstate_invariant(self, rng):
        from mpodyn.operator_space import identity_superstate

        one = identity_superstate(4, 2)
        sg = super_gate(random_conserving_gate(2, rng), mode_weights(GRAND_CANONICAL, 4, 2))
        one.mps.apply_two_site_gate(2, sg, UNRESTRICTED)
        assert np.max(np.abs(one.densify() - np.eye(16))) < 1e-12
        assert max(one.osee_profile()) < 1e-12

    def test_conserves_difference_and_pair_charges(self, rng):
        # the lifted gate couples only doubled-site pairs of equal total
        # charge in both gradings, which is the conservation statement
        d = 3
        g = random_conserving_gate(d, rng)
        j, i = np.divmod(np.arange(d * d), d)  # dense super index k = j*d + i
        for weights, site_q in (((1, -1), j - i), ((25, 1), j * 25 + i)):
            sg = super_gate(g, weights)
            pair_q = (site_q[:, None] + site_q[None, :]).ravel()
            assert np.max(np.abs(sg.dense[pair_q[:, None] != pair_q[None, :]])) <= 1e-12
            band_sq = sum(np.sum(np.abs(b) ** 2) for b in sg.band_table().values())
            total_sq = np.sum(np.abs(sg.dense) ** 2)
            assert abs(band_sq - total_sq) <= 1e-12 * total_sq


def _bands_by_loops(dense, index, perm):
    """Per two-site charge the gate block, and every sector pair's offset in its
    band's basis, built one sector pair and one state at a time: pairs (s1, s2)
    in sorted order, each spanning (i1, i2)."""
    D = index.dim
    bases: dict[int, list] = {}
    offsets = np.zeros((index.nsectors, index.nsectors), dtype=np.intp)
    for s1 in range(index.nsectors):
        for s2 in range(index.nsectors):
            idx = bases.setdefault(index.charges[s1] + index.charges[s2], [])
            offsets[s1, s2] = len(idx)
            for a in range(index.dims[s1]):
                k1 = perm[index.offsets[s1] + a]
                for c in range(index.dims[s2]):
                    idx.append(k1 * D + perm[index.offsets[s2] + c])
    return {q: dense[np.ix_(idx, idx)] for q, idx in bases.items()}, offsets


def _distinct_conserving_matrix(index, perm) -> np.ndarray:
    """Two-site matrix with a different value at every charge-conserving entry,
    so any misplaced row or column of a band shows."""
    site_q = np.empty(index.dim, dtype=np.int64)
    site_q[perm] = np.repeat(index.charges, index.dims)
    pair_q = np.add.outer(site_q, site_q).ravel()
    n = len(pair_q)
    values = np.arange(1, n * n + 1).reshape(n, n) * (1.0 - 0.5j)
    return np.where(pair_q[:, None] == pair_q[None, :], values, 0.0)


BAND_LEGS = [("occupation", d) for d in (2, 3, 4, 5)] + [
    (mode, d) for mode in (BRUTE, GRAND_CANONICAL, CANONICAL) for d in (2, 3)
]


@pytest.mark.parametrize("leg, d", BAND_LEGS, ids=[f"{leg}-d{d}" for leg, d in BAND_LEGS])
def test_bands_match_the_per_sector_loop(leg, d):
    if leg == "occupation":
        index, perm = ChargeIndex.occupation(d), np.arange(d)
    else:
        index, _, perm = super_site_layout(d, mode_weights(leg, 4, d))
    dense = _distinct_conserving_matrix(index, perm)
    got = BondGate(dense, index, perm).band_table()
    want, want_offsets = _bands_by_loops(dense, index, perm)
    assert got.keys() == want.keys()
    for q in want:
        assert np.array_equal(got[q], want[q]), q
    charges, dims, offsets = pair_bands(index)
    assert charges.tolist() == sorted(want)
    assert dims.tolist() == [len(want[q]) for q in sorted(want)]
    assert np.array_equal(offsets, want_offsets)
