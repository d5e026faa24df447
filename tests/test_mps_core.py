import json

import numpy as np
import pytest

from mpodyn import mps_core
from mpodyn.charge_tensor import (
    ChargeMismatchError,
    SectorMatrices,
    SymmetricTensor,
    TruncationPolicy,
    ZeroNormError,
    block_svd,
)
from mpodyn.evolution import evolve, make_schedule
from mpodyn.mps_core import CanonicalMps, canonicalize, from_fock, load_mps, save_mps
from mpodyn.models import BondGate, ModelSpec, bond_gate, sigma_z_local, super_gate
from mpodyn.observables import build_observable_superstate
from mpodyn.operator_space import CANONICAL, GRAND_CANONICAL, embed_factor, identity_superstate, mode_weights
from mpodyn.charge_tensor import ChargeIndex
from mpodyn.projector import project_operator, uniform_fock_superposition
from mpodyn import oracle

from conftest import random_charge_mps, random_conserving_gate

UNRESTRICTED = TruncationPolicy(None, 0.0)


def _identity_plus_off_band(eps: float) -> np.ndarray:
    """Two-site identity plus one entry ``eps`` coupling |01> to |00>."""
    dense = np.eye(4, dtype=complex)
    dense[0, 1] = eps
    return dense


def _swap_gate(d: int = 2) -> BondGate:
    swap = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            swap[j * d + i, i * d + j] = 1.0
    return BondGate(swap, ChargeIndex.occupation(d))


def _evolved_superstate(mode: str):
    """Bose-Hubbard L=4, d=3 density at site 2, three Trotter steps in (bonds chi > 3).

    Canonical labels give one-dimensional physical sectors and many gate
    bands; grand-canonical labels give multi-dimensional sectors.
    """
    spec = ModelSpec.bose_hubbard(4, 3, 4.0)
    s = build_observable_superstate(spec, 2, mode, 4 if mode == CANONICAL else None)
    evolve(s, spec, make_schedule(2, 0.2), 0.6, UNRESTRICTED)
    assert s.mps.bond_dimension(2) > 3
    return spec, s


def _dense_gated_two_site(mps: CanonicalMps, m: int, gate: BondGate) -> np.ndarray:
    """``gate`` on the outer-weighted two-site tensor of bond m, as a dense
    (chi_l * D, D * chi_r) matrix in sector-layout order."""
    left = mps.site_tensor_dense(m) * mps._bond_values(m - 1)[:, None, None]
    theta = np.einsum("axc,cyb->axyb", left, mps.site_tensor_dense(m + 1))
    D, p = gate.d, gate.perm
    layout_gate = gate.dense.reshape(D, D, D, D)[np.ix_(p, p, p, p)]
    gated = np.einsum("uvxy,axyb->auvb", layout_gate, theta)
    return gated.reshape(left.shape[0] * D, D * theta.shape[3])


def _assert_stored_blocks_valid(t) -> None:
    t.validate()
    assert all(blk.any() for blk in t.blocks.values())


SUPER_MODES = pytest.mark.parametrize("mode", [CANONICAL, GRAND_CANONICAL])


def _two_branch_state() -> CanonicalMps:
    """(|0101> + 2|1010>) / sqrt(5), site 1 first; both branches hold one
    particle on sites 1-2, so bond 2 is one charge-1 sector of dimension 2."""
    phys = ChargeIndex.occupation(2)
    b1, b2, b3 = ChargeIndex(((0, 1), (1, 1))), ChargeIndex(((1, 2),)), ChargeIndex(((1, 1), (2, 1)))
    links = [
        ((ChargeIndex.trivial(), phys, b1), {(0, 0, 0): [[[1]]], (0, 1, 1): [[[2]]]}),
        ((b1, phys, b2), {(0, 1, 0): [[[1, 0]]], (1, 0, 0): [[[0, 1]]]}),
        ((b2, phys, b3), {(0, 0, 0): [[[1]], [[0]]], (0, 1, 1): [[[0]], [[1]]]}),
        ((b3, phys, ChargeIndex.trivial(2)), {(0, 1, 0): [[[1]]], (1, 0, 0): [[[1]]]}),
    ]
    mps, norm = canonicalize([SymmetricTensor(legs, blocks) for legs, blocks in links])
    assert abs(norm - np.sqrt(5)) < 1e-14
    return mps


class TestFromFock:
    def test_basic_product_state(self):
        psi = from_fock([0, 1, 0, 1], 2)
        assert psi.total_charge == 2
        assert psi.max_bond_dimension() == 1
        assert all(len(lam) == 1 for lam in psi.lambdas)

    def test_vacuum_has_zero_entropy(self):
        psi = from_fock([0, 0, 0], 2)
        assert psi.total_charge == 0
        assert psi.entropy_profile() == [0.0, 0.0]

    def test_boson_occupation(self):
        psi = from_fock([0, 2, 0], 3)
        assert psi.total_charge == 2
        assert psi.max_bond_dimension() == 1

    def test_total_charge_is_none_for_a_mixed_right_bond(self):
        # one site whose right bond holds both charges: no definite total
        phys = ChargeIndex.occupation(2)
        one = np.ones((1, 1, 1))
        g = SymmetricTensor((ChargeIndex.trivial(), phys, phys), {(0, 0, 0): one, (0, 1, 1): one})
        assert CanonicalMps([SectorMatrices.from_tensor(g)], []).total_charge is None

    def test_occupation_out_of_range(self):
        with pytest.raises(ValueError, match="local dimension exceeded"):
            from_fock([0, 2], 2)


class TestSchmidtSpectrum:
    def test_product_state_single_value(self):
        psi = from_fock([1, 0, 1], 2)
        spec = psi.schmidt_spectrum(1)
        assert list(spec) == [1]  # one particle left of the bond
        assert np.allclose(spec[1], [1.0])

    def test_bell_pair(self):
        psi = uniform_fock_superposition(1, 2, 2)
        spec = psi.schmidt_spectrum(1)
        assert set(spec) == {0, 1}
        assert all(np.allclose(v, [2**-0.5]) for v in spec.values())

    def test_uniform_two_particle_spins(self):
        # enumeration oracle: lambda^2 at bond 2 of L=4, d=2 is (1,4,1)/6
        psi = uniform_fock_superposition(2, 4, 2)
        spec = psi.schmidt_spectrum(2)
        assert {q: v**2 for q, v in spec.items()} == pytest.approx(
            {0: [1 / 6], 1: [4 / 6], 2: [1 / 6]}
        )

    def test_bond_out_of_range(self):
        psi = from_fock([0, 1], 2)
        with pytest.raises(ValueError):
            psi.schmidt_spectrum(2)

    def test_returns_copy(self):
        psi = uniform_fock_superposition(1, 2, 2)
        spec = psi.schmidt_spectrum(1)
        spec[0][0] = 5.0
        del spec[1]
        assert set(psi.lambdas[0]) == {0, 1}
        assert np.allclose(psi.lambdas[0][0], [2**-0.5])


class TestEntropy:
    def test_product_state(self):
        assert from_fock([1, 0], 2).entanglement_entropy(1) == 0.0

    def test_equal_pair_is_one_bit(self):
        psi = uniform_fock_superposition(1, 2, 2)
        assert abs(psi.entanglement_entropy(1) - 1.0) < 1e-12

    def test_direct_evaluation(self):
        p = np.array([1 / 6, 4 / 6, 1 / 6])
        expected = float(-np.sum(p * np.log2(p)))
        psi = uniform_fock_superposition(2, 4, 2)
        assert abs(psi.entanglement_entropy(2) - expected) < 1e-12
        assert abs(expected - 1.2516) < 1e-4

    def test_bounded_by_log_chi(self, rng):
        psi = random_charge_mps(5, 2, [0, 1, 0, 1, 0], rng)
        for m in range(1, 5):
            assert psi.entanglement_entropy(m) <= np.log2(psi.bond_dimension(m)) + 1e-12


class TestGateApplication:
    def test_identity_gate_keeps_lambdas(self, rng):
        psi = random_charge_mps(4, 2, [0, 1, 1, 0], rng)
        before = psi.schmidt_spectrum(2)
        ident = BondGate(np.eye(4, dtype=complex), ChargeIndex.occupation(2))
        rec = psi.apply_two_site_gate(2, ident, UNRESTRICTED)
        assert abs(rec.nu - 1.0) < 1e-12
        assert rec.discarded_weight < 1e-12
        after = psi.schmidt_spectrum(2)
        assert after.keys() == before.keys()
        assert all(np.allclose(after[q], before[q]) for q in before)

    def test_swap_gate_on_fock(self):
        psi = from_fock([0, 1], 2)
        psi.apply_two_site_gate(1, _swap_gate(), UNRESTRICTED)
        out = psi.to_statevector()
        assert np.allclose(out, oracle.fock_statevector([1, 0], 2))

    def test_random_gates_match_dense_oracle(self, rng):
        L, d = 6, 2
        occ = [0, 1, 1, 0, 1, 0]
        psi = from_fock(occ, d)
        vec = oracle.fock_statevector(occ, d)
        for _ in range(2):
            for m in range(1, L):
                g = random_conserving_gate(d, rng)
                psi.apply_two_site_gate(m, g, UNRESTRICTED)
                vec = oracle.two_site_operator(g.dense, m, L, d) @ vec
        psi.assert_canonical()
        assert np.max(np.abs(psi.to_statevector() - vec)) < 1e-10

    @pytest.mark.parametrize("d, occ", [(2, [0, 1, 1, 0]), (3, [0, 2, 1, 0])], ids=["d2", "d3"])
    def test_gate_matches_dense_oracle(self, rng, d, occ):
        L = len(occ)
        psi = random_charge_mps(L, d, occ, rng)
        vec = psi.to_statevector()
        g = random_conserving_gate(d, rng)
        psi.apply_two_site_gate(2, g, UNRESTRICTED)
        want = oracle.two_site_operator(g.dense, 2, L, d) @ vec
        assert np.max(np.abs(psi.to_statevector() - want)) < 1e-12

    def test_banded_path_thread_determinism(self, rng, monkeypatch):
        psi = random_charge_mps(5, 2, [0, 1, 1, 0, 1], rng)
        cases = [(psi, random_conserving_gate(2, rng), 3)]
        for mode in (CANONICAL, GRAND_CANONICAL):
            spec, s = _evolved_superstate(mode)
            cases.append((s, super_gate(bond_gate(spec, 2, 0.37), s.weights), 2))
        for state, g, m in cases:
            runs = []
            for threads in ("1", "3"):
                monkeypatch.setenv("MPODYN_THREADS", threads)
                x = state.copy()
                mps = getattr(x, "mps", x)  # a superstate or a plain state
                mps.apply_two_site_gate(m, g, UNRESTRICTED)
                for t in mps.sites[m - 1 : m + 1]:
                    _assert_stored_blocks_valid(t)
                dense = x.to_statevector() if mps is x else x.densify()
                runs.append((dense, mps.lambdas[m - 1]))
            (dense_1, lam_1), (dense_3, lam_3) = runs
            assert np.array_equal(dense_1, dense_3)
            assert lam_1.keys() == lam_3.keys()
            assert all(np.array_equal(lam_1[q], lam_3[q]) for q in lam_1)

    @SUPER_MODES
    def test_super_gate_matches_dense_conjugation(self, mode):
        spec, s = _evolved_superstate(mode)
        g = bond_gate(spec, 2, 0.37)
        before = s.densify()
        s.mps.apply_two_site_gate(2, super_gate(g, s.weights), UNRESTRICTED)
        U = oracle.two_site_operator(g.dense, 2, spec.L, spec.d)
        assert np.max(np.abs(s.densify() - U.conj().T @ before @ U)) < 1e-12

    def test_sector_matrices_have_no_zero_row_or_column_block(self, monkeypatch):
        seen = []
        gather = mps_core._GatePlan.gather

        def spy(plan, gated, left):
            out = gather(plan, gated, left)
            seen.append(out)
            return out

        monkeypatch.setattr(mps_core._GatePlan, "gather", spy)
        # swaps on a Fock state leave most (l, p1) x (p2, r) blocks zero
        psi = from_fock([0, 1, 1, 0], 2)
        for m in (1, 2, 3):
            psi.apply_two_site_gate(m, _swap_gate(), UNRESTRICTED)
        for mode in (CANONICAL, GRAND_CANONICAL):
            spec, s = _evolved_superstate(mode)
            for m in range(1, spec.L):
                s.mps.apply_two_site_gate(m, super_gate(bond_gate(spec, m, 0.37), s.weights), UNRESTRICTED)
        assert seen
        for sectors, tildes, (row_q, _, row_dims), (col_q, _, col_dims) in seen:
            assert sorted(sectors) == sorted(tildes) == np.unique(row_q).tolist() == np.unique(col_q).tolist()
            for q, mat in tildes.items():
                assert sectors[q].shape == mat.shape
                row_sizes = row_dims[:, row_q == q].prod(axis=0)
                col_sizes = col_dims[:, col_q == q].prod(axis=0)
                assert mat.shape == (sum(row_sizes), sum(col_sizes))
                for part in np.split(mat, np.cumsum(row_sizes)[:-1], axis=0):
                    assert part.any()
                for part in np.split(mat, np.cumsum(col_sizes)[:-1], axis=1):
                    assert part.any()

    def test_capped_split_drops_an_all_zero_block(self):
        psi = _two_branch_state()
        want = np.zeros(16)
        want[[10, 5]] = np.array([1.0, 2.0]) / np.sqrt(5)  # |0101>, |1010>
        assert np.allclose(psi.to_statevector(), want, atol=1e-14)
        # the split at bond 2 is diag(1, 2) / sqrt(5) over the row blocks
        # (l=0, p=1) and (l=1, p=0); a cap of one keeps the 2, so the kept U
        # is exactly zero on the (l=0, p=1) block, which must not be stored
        identity = BondGate(np.eye(4, dtype=complex), ChargeIndex.occupation(2))
        rec = psi.apply_two_site_gate(2, identity, TruncationPolicy(1, 0.0))
        assert abs(rec.nu - 2 / np.sqrt(5)) < 1e-14 and rec.chi_used == 1
        assert list(psi.sites[1].blocks) == [(1, 0, 0)]
        for g in psi.sites:
            _assert_stored_blocks_valid(g)
        want = np.zeros(16)
        want[5] = 1.0
        assert np.allclose(psi.to_statevector(), want, atol=1e-14)

    def test_capped_split_drops_an_all_zero_column_block(self):
        # the mirror of the row case above: the kept V^dagger of the same split
        # is exactly zero on the (p2=0, r=0) column block of |0101>'s branch
        psi = _two_branch_state()
        identity = BondGate(np.eye(4, dtype=complex), ChargeIndex.occupation(2))
        psi.apply_two_site_gate(2, identity, TruncationPolicy(1, 0.0))
        assert psi._sites[2].leg == 0  # stored as the right factor of the split
        assert list(psi.sites[2].blocks) == [(0, 1, 1)]
        for g in psi.sites:
            _assert_stored_blocks_valid(g)

    def test_canonicalize_drops_an_all_zero_column_block(self, monkeypatch):
        # |011> + |110> with a stored all-zero (l=1, p=0, r=0) block at site 2: the
        # right-to-left sweep splits site 2 at bond 1, where the matrix of charge 1
        # stacks that zero block beside the |110> block; no split of either sweep
        # may store an all-zero block in its stacked factor
        cuts = []

        def spy(site, leg, policy):
            out = block_svd(site, leg, policy)
            cuts.append((leg, out[0].tensor()))
            return out

        monkeypatch.setattr(mps_core, "block_svd", spy)
        phys, b1, b2 = ChargeIndex.occupation(2), ChargeIndex(((0, 1), (1, 1))), ChargeIndex(((1, 1), (2, 1)))
        one, zero = np.ones((1, 1, 1)), np.zeros((1, 1, 1))
        links = [
            ((ChargeIndex.trivial(), phys, b1), {(0, 0, 0): one, (0, 1, 1): one}),
            ((b1, phys, b2), {(0, 1, 0): one, (1, 0, 0): zero, (1, 1, 1): one}),
            ((b2, phys, ChargeIndex.trivial(2)), {(0, 1, 0): one, (1, 0, 0): one}),
        ]
        mps, norm = canonicalize([SymmetricTensor(legs, blocks) for legs, blocks in links])
        assert abs(norm - np.sqrt(2)) < 1e-14
        assert [leg for leg, _ in cuts] == [0, 0, 2, 2]
        for _, stacked in cuts:
            _assert_stored_blocks_valid(stacked)
        assert (1, 0, 0) not in mps.sites[1].blocks
        for g in mps.sites:
            _assert_stored_blocks_valid(g)
        mps.assert_canonical()
        want = np.zeros(8)
        want[[6, 3]] = 2**-0.5  # site 1 fastest: |011> -> 6, |110> -> 3
        assert np.allclose(mps.to_statevector(), want, atol=1e-14)

    @SUPER_MODES
    def test_capped_super_gate_keeps_largest_values(self, mode):
        spec, s = _evolved_superstate(mode)
        sg = super_gate(bond_gate(spec, 2, 0.37), s.weights)
        values = np.linalg.svd(_dense_gated_two_site(s.mps, 2, sg), compute_uv=False)
        assert values[3] > 1e-8  # the cap cuts real weight
        rec = s.mps.apply_two_site_gate(2, sg, TruncationPolicy(3, 0.0))
        kept = np.sort(np.concatenate(list(s.mps.lambdas[1].values())))[::-1] * rec.nu
        assert np.max(np.abs(kept - values[:3])) < 1e-12
        assert abs(rec.nu**2 + rec.discarded_weight**2 - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "dense",
        [
            np.kron(np.array([[0, 1], [1, 0]], dtype=complex), np.eye(2)),
            _identity_plus_off_band(1e-8),
        ],
        ids=["site_flip", "off_band_1e-8"],
    )
    def test_non_conserving_gate_rejected(self, dense):
        with pytest.raises(ChargeMismatchError, match="charge mismatch"):
            BondGate(dense, ChargeIndex.occupation(2))

    def test_gate_grading_mismatch_rejected(self, rng):
        psi = from_fock([0, 1, 1, 0], 2)
        with pytest.raises(ChargeMismatchError, match="charge mismatch"):
            psi.apply_two_site_gate(2, random_conserving_gate(3, rng), UNRESTRICTED)

    def test_canonical_gate_on_grand_canonical_operator_rejected(self, rng):
        one = identity_superstate(4, 2, GRAND_CANONICAL)
        sg = super_gate(random_conserving_gate(2, rng), mode_weights(CANONICAL, 4, 2))
        with pytest.raises(ChargeMismatchError, match="charge mismatch"):
            one.mps.apply_two_site_gate(2, sg, UNRESTRICTED)

    def test_charge_constant_under_gates(self, rng):
        psi = random_charge_mps(4, 3, [1, 2, 0, 1], rng)
        assert psi.total_charge == 4
        psi.apply_two_site_gate(2, random_conserving_gate(3, rng), UNRESTRICTED)
        assert psi.total_charge == 4
        assert psi.bond_index(4).charges == (4,)

    def test_truncation_never_increases_lambda(self, rng):
        psi = random_charge_mps(6, 2, [1, 0, 1, 0, 1, 0], rng)
        g = random_conserving_gate(2, rng)
        full = psi.copy()
        full.apply_two_site_gate(3, g, UNRESTRICTED)
        cut = psi.copy()
        rec = cut.apply_two_site_gate(3, g, TruncationPolicy(2, 0.0))
        assert rec.nu <= 1.0 + 1e-12
        assert rec.chi_used <= 2
        assert abs(rec.nu**2 + rec.discarded_weight**2 - 1.0) < 1e-10

    def test_right_site_is_isometric_next_to_a_tiny_bond_value(self, rng):
        # a branch of weight 1e-13 puts a value of about 1e-13 on every interior bond
        psi = _fock_superposition([(0, 1, 1, 0), (1, 0, 0, 1)], [1.0, 1e-13], 2)
        assert all(min(np.concatenate(list(lam.values()))) <= 1e-12 for lam in psi.lambdas)
        vec = psi.to_statevector()
        g = random_conserving_gate(2, rng)
        psi.apply_two_site_gate(2, g, UNRESTRICTED)
        b = psi.site_tensor_dense(3)
        assert np.max(np.abs(np.einsum("akc,bkc->ab", b, b.conj()) - np.eye(b.shape[0]))) < 1e-13
        want = oracle.two_site_operator(g.dense, 2, 4, 2) @ vec
        assert np.max(np.abs(psi.to_statevector() - want)) < 1e-13

    @pytest.mark.parametrize("seed", [7, 8])
    def test_left_site_is_isometric_under_many_small_gates(self, seed):
        # near-identity gates on a product operator grow bond values down to
        # the floor; a site m made by dividing by them loses B B^dagger = 1
        spec = ModelSpec.bose_hubbard(5, 3, 4.0)
        s = build_observable_superstate(spec, 3, GRAND_CANONICAL)
        rng = np.random.default_rng(seed)
        for k in range(400):
            m = k % (spec.L - 1) + 1
            gate = super_gate(random_conserving_gate(3, rng, 1e-3), s.weights)
            s.mps.apply_two_site_gate(m, gate, UNRESTRICTED)
            b = s.mps.site_tensor_dense(m)
            assert np.max(np.abs(np.einsum("akc,bkc->ab", b, b.conj()) - np.eye(b.shape[0]))) < 1e-9

    def test_annihilation_raises(self):
        # projector-style non-unitary gate that kills the state outright
        proj = np.zeros((4, 4), dtype=complex)
        proj[0, 0] = 1.0  # keeps only |00>
        psi = from_fock([1, 1], 2)
        gate = BondGate(proj, ChargeIndex.occupation(2))
        with pytest.raises(ZeroNormError, match="state annihilated"):
            psi.apply_two_site_gate(1, gate, UNRESTRICTED)


class TestSectorMatrixStorage:
    @pytest.mark.parametrize("kind", [CANONICAL, GRAND_CANONICAL, "state"])
    def test_reading_views_leaves_evolution_unchanged(self, kind):
        spec = ModelSpec.bose_hubbard(4, 3, 4.0)

        def read_every_site(t, target, log):
            mps = getattr(target, "mps", target)
            for m, g in enumerate(mps.sites, start=1):
                assert all(blk.any() for blk in g.blocks.values())
                mps.site_tensor(m).densify()

        runs = []
        for observer in (None, read_every_site):
            if kind == "state":
                target = from_fock([1, 0, 2, 0], 3)
            else:
                target = build_observable_superstate(spec, 2, kind, 4 if kind == CANONICAL else None)
            evolve(target, spec, make_schedule(2, 0.2), 0.6, UNRESTRICTED, observer=observer)
            mps = getattr(target, "mps", target)
            dense = target.to_statevector() if mps is target else target.densify()
            runs.append((mps.lambdas, dense))
        (lam_a, dense_a), (lam_b, dense_b) = runs
        assert [lam.keys() for lam in lam_a] == [lam.keys() for lam in lam_b]
        assert all(np.array_equal(a[q], b[q]) for a, b in zip(lam_a, lam_b) for q in a)
        assert np.array_equal(dense_a, dense_b)

    @SUPER_MODES
    def test_canonical_form_survives_many_random_exact_gates(self, mode, rng):
        spec, s = _evolved_superstate(mode)
        gates = [super_gate(random_conserving_gate(spec.d, rng), s.weights) for _ in range(4)]
        for _ in range(200):
            m = int(rng.integers(1, spec.L))
            s.mps.apply_two_site_gate(m, gates[rng.integers(len(gates))], UNRESTRICTED)
        assert s.mps.max_bond_dimension() > 3
        s.mps.assert_canonical()

    def test_block_views_share_the_stored_matrices(self):
        # a gate stores site m in one layout and site m+1 in the other; the block
        # views of both, and of each site moved to the other layout, copy nothing
        _, s = _evolved_superstate(GRAND_CANONICAL)
        sites = s.mps._sites
        assert {site.leg for site in sites} == {0, 2}
        for site in sites + [site.on_leg(2 - site.leg) for site in sites]:
            assert all(np.shares_memory(blk, site.flat) for blk in site.tensor().blocks.values())

    def test_checkpoint_of_gate_updated_state_holds_the_block_views(self, tmp_path):
        # after gates, sites sit in both sector-matrix layouts; the file must hold
        # exactly the block views: the same array names and bytes
        _, s = _evolved_superstate(GRAND_CANONICAL)
        mps = s.mps
        path = tmp_path / "state.npz"
        save_mps(str(path), mps)
        want = {
            f"g{m}/{','.join(map(str, key))}": blk
            for m, g in enumerate(mps.sites)
            for key, blk in g.blocks.items()
        }
        want.update(
            {f"lam{m}/{q}": v for m, lam in enumerate(mps.lambdas) for q, v in lam.items()}
        )
        with np.load(path) as data:
            assert set(data.files) == set(want) | {"__meta__"}
            for name, arr in want.items():
                stored = data[name]
                assert (stored.dtype, stored.shape) == (arr.dtype, arr.shape)
                assert stored.tobytes() == arr.tobytes()
        back = load_mps(str(path))
        for g_back, g in zip(back.sites, mps.sites):
            assert g_back.indices == g.indices and g_back.blocks.keys() == g.blocks.keys()
            assert all(g_back.blocks[k].tobytes() == g.blocks[k].tobytes() for k in g.blocks)
        assert all(
            a.keys() == b.keys() and all(np.array_equal(a[q], b[q]) for q in a)
            for a, b in zip(back.lambdas, mps.lambdas)
        )
        s_back = s.copy()
        s_back.mps = back
        assert np.array_equal(s_back.densify(), s.densify())


def _plan_target(kind: str):
    """A run that revisits bond structures: its target, model and truncation policy."""
    if kind == "bose_hubbard_state":
        spec = ModelSpec.bose_hubbard(5, 3, 4.0)
        return from_fock([1, 0, 2, 0, 1], 3), spec, TruncationPolicy(None, 1e-10)
    if kind == "capped_grand_canonical":
        spec = ModelSpec.xxz(8, 0.8)
        return build_observable_superstate(spec, 4, GRAND_CANONICAL), spec, TruncationPolicy(6, 0.0)
    spec = ModelSpec.bose_hubbard(4, 3, 4.0)
    return build_observable_superstate(spec, 2, CANONICAL, 4), spec, UNRESTRICTED


def _stored(mps: CanonicalMps) -> list:
    """Every stored site's indices, layout, keys and matrices, and every spectrum, in a row."""
    out = []
    for s in mps._sites:
        out += [(s.indices, s.leg), s.keys, s.flat]
    for lam in mps.lambdas:
        for q in sorted(lam):
            out += [q, lam[q]]
    return out


def _assert_same_stored(a: list, b: list) -> None:
    assert len(a) == len(b)
    for u, v in zip(a, b):
        if isinstance(u, np.ndarray):
            assert u.dtype == v.dtype and np.array_equal(u, v)
        else:
            assert u == v


def _fock_superposition(configs, coeffs, d: int) -> CanonicalMps:
    """sum_k coeffs[k] |configs[k]>, all of one total charge, canonicalized from a
    chain whose interior bonds hold one state per term, grouped by the term's
    charge left of the bond."""
    L, phys = len(configs[0]), ChargeIndex.occupation(d)
    left = np.cumsum([[0, *c] for c in configs], axis=1)
    bonds = []  # per bond: its index and every term's (sector, position) on it
    for m in range(L + 1):
        q = left[:, m].tolist()
        if m in (0, L):
            bonds.append((ChargeIndex.trivial(q[0]), [(0, 0)] * len(q)))
            continue
        charges = sorted(set(q))
        at = [(charges.index(x), q[:k].count(x)) for k, x in enumerate(q)]
        bonds.append((ChargeIndex(tuple((x, q.count(x)) for x in charges)), at))
    links = []
    for m in range(L):
        (lix, lat), (rix, rat) = bonds[m], bonds[m + 1]
        blocks = {}
        for k, c in enumerate(configs):
            (ls, li), (rs, ri) = lat[k], rat[k]
            key = (ls, phys.position(c[m]), rs)
            blk = blocks.setdefault(key, np.zeros((lix.dims[ls], 1, rix.dims[rs]), dtype=complex))
            blk[li, 0, ri] = coeffs[k] if m == 0 else 1.0
        links.append(SymmetricTensor((lix, phys, rix), blocks))
    return canonicalize(links)[0]


def _build_a_plan_per_gate(monkeypatch) -> None:
    """Make every gate build its own plan, so nothing is reused."""
    monkeypatch.setattr(CanonicalMps, "_gate_plan", lambda self, m, s1, s2: mps_core._GatePlan(s1, s2))


@pytest.fixture
def plan_builds(monkeypatch) -> list:
    """Records every gate plan built while the test runs."""
    built = []

    class Counted(mps_core._GatePlan):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(mps_core, "_GatePlan", Counted)
    return built


def _plan_values(obj) -> list:
    """Every value a gate plan holds, walked down to arrays and scalars."""
    if isinstance(obj, (list, tuple)):
        return [x for item in obj for x in _plan_values(item)]
    if isinstance(obj, mps_core._GatePlan):
        return _plan_values([getattr(obj, name) for name in mps_core._GatePlan.__slots__])
    return [obj]


class TestGatePlans:
    KINDS = ["bose_hubbard_state", "capped_grand_canonical", "canonical_superstate"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_plan_reuse_is_bit_invisible(self, kind, monkeypatch, plan_builds):
        runs = []
        for fresh in (False, True):
            if fresh:
                _build_a_plan_per_gate(monkeypatch)
            target, spec, policy = _plan_target(kind)
            del plan_builds[:]
            log = evolve(target, spec, make_schedule(4, 0.25), 1.0, policy)
            runs.append((_stored(getattr(target, "mps", target)), len(plan_builds), len(log.records)))
        (reused, built, gates), (fresh, built_fresh, gates_fresh) = runs
        assert built < gates and built_fresh == gates_fresh == gates
        if kind == "capped_grand_canonical":
            assert log.accumulated_cutoff > 0
        _assert_same_stored(reused, fresh)

    @pytest.mark.parametrize(
        "configs, gates",
        [
            ([(0, 1, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1)], "2i 2s 3s 1s 2s 2i 3s 3s"),
            ([(0, 0, 1, 1), (1, 0, 0, 1), (1, 1, 0, 0)], "3s 1i 1s 3i 3s 3i 1s 3s"),
        ],
        ids=["site_in_the_other_layout", "site_with_other_blocks"],
    )
    def test_each_bond_structure_gets_its_own_plan(self, configs, gates, monkeypatch, plan_builds):
        # exact swaps (s) and identities (i) on a Fock superposition bring a bond
        # back to a structure that differs from one it holds a plan for only in
        # one site's layout (first case) or one site's blocks (second case)
        d = 3
        ops = {"s": _swap_gate(d), "i": BondGate(np.eye(d * d, dtype=complex), ChargeIndex.occupation(d))}
        runs = []
        for fresh in (False, True):
            if fresh:
                _build_a_plan_per_gate(monkeypatch)
            psi = _fock_superposition(configs, [1.0, 2.0j, -3.0], d)
            del plan_builds[:]
            for m, op in gates.split():
                psi.apply_two_site_gate(int(m), ops[op], UNRESTRICTED)
            runs.append((_stored(psi), len(plan_builds)))
        (reused, built), (fresh, built_fresh) = runs
        assert built < built_fresh == len(gates.split())
        _assert_same_stored(reused, fresh)

    def test_hit_path_is_thread_independent(self, monkeypatch, plan_builds):
        spec, s = _evolved_superstate(GRAND_CANONICAL)
        gate = super_gate(bond_gate(spec, 2, 0.37), s.weights)
        runs = []
        for threads in ("1", "3"):
            monkeypatch.setenv("MPODYN_THREADS", threads)
            x = s.copy()
            for _ in range(2):
                x.mps.apply_two_site_gate(2, gate, UNRESTRICTED)
            built = len(plan_builds)
            x.mps.apply_two_site_gate(2, gate, UNRESTRICTED)
            assert len(plan_builds) == built  # the third gate reuses the second's plan
            runs.append(_stored(x.mps))
        _assert_same_stored(*runs)

    def test_a_bond_keeps_at_most_two_integer_plans(self):
        spec, s = _evolved_superstate(GRAND_CANONICAL)
        evolve(s, spec, make_schedule(4, 0.2), 0.4, UNRESTRICTED)
        plans = s.mps._plans
        assert len(plans) == spec.L - 1
        assert all(len(bond) <= 2 for bond in plans) and any(len(bond) == 2 for bond in plans)
        for bond in plans:
            for _, plan in bond:
                values = _plan_values(plan)
                arrays = [v for v in values if isinstance(v, np.ndarray)]
                assert arrays and all(v.dtype.kind in "iu" for v in arrays)
                others = [v for v in values if not isinstance(v, np.ndarray)]
                assert all(v is None or isinstance(v, int) for v in others)


def _checkpoint_arrays(path) -> dict[str, tuple]:
    """dtype, shape and bytes of every array in a checkpoint, by name."""
    with np.load(path) as data:
        return {name: (data[name].dtype, data[name].shape, data[name].tobytes()) for name in data.files}


def _snapshot(x, path) -> tuple:
    """Dense form, spectra and checkpoint arrays of a state or superstate, as bytes."""
    mps = getattr(x, "mps", x)
    dense = x.to_statevector() if mps is x else x.densify()
    save_mps(str(path), mps)
    with np.load(path) as data:
        arrays = {name: data[name].tobytes() for name in data.files}
    spectra = [{q: v.tobytes() for q, v in lam.items()} for lam in mps.lambdas]
    return dense.tobytes(), spectra, arrays


def _state_of_kind(kind: str):
    """A state or superstate, the same on every call; gate-updated states end
    a sweep in either direction, so their sites sit in both layouts."""
    rng = np.random.default_rng(7)
    if kind == "block_built":
        return uniform_fock_superposition(3, 5, 3)
    if kind == "superstate":
        return _evolved_superstate(GRAND_CANONICAL)[1]
    x = random_charge_mps(5, 3, [0, 2, 1, 0, 1], rng)
    if kind == "swept_right_to_left":
        for m in range(4, 0, -1):
            x.apply_two_site_gate(m, random_conserving_gate(3, rng), UNRESTRICTED)
    return x


class TestOneSiteType:
    @pytest.mark.parametrize("kind", ["block_built", "superstate", "swept_right_to_left"])
    def test_block_tensors_in_stored_matrices_out(self, kind, tmp_path):
        # inputs with their blocks in sorted, reversed and layout order
        mps = getattr(_state_of_kind(kind), "mps", _state_of_kind(kind))
        for order in (sorted, lambda keys: sorted(keys, reverse=True), list):
            inputs = [
                SymmetricTensor(g.indices, {k: g.blocks[k].copy() for k in order(g.blocks)})
                for g in mps.sites
            ]
            built = CanonicalMps([SectorMatrices.from_tensor(t) for t in inputs], mps.lambdas)
            assert all(type(site) is SectorMatrices for site in built._sites)
            for g, want in zip(built.sites, inputs):
                assert g.indices == want.indices
                assert list(g.blocks) == list(want.blocks)
                for key, blk in want.blocks.items():
                    got = g.blocks[key]
                    assert (got.dtype, got.shape) == (blk.dtype, blk.shape)
                    assert got.tobytes() == blk.tobytes()

    @pytest.mark.parametrize("kind", ["block_built", "superstate", "swept_right_to_left"])
    def test_save_load_save_keeps_every_byte(self, kind, tmp_path):
        mps = getattr(_state_of_kind(kind), "mps", _state_of_kind(kind))
        first, second = tmp_path / "a.npz", tmp_path / "b.npz"
        save_mps(str(first), mps)
        back = load_mps(str(first))
        assert all(type(site) is SectorMatrices for site in back._sites)
        save_mps(str(second), back)
        assert _checkpoint_arrays(first) == _checkpoint_arrays(second)


def _tampered(path, out, edit) -> str:
    """A copy of checkpoint ``path`` with ``edit(meta, arrays)`` applied."""
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    edit(meta, arrays)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez_compressed(out, **arrays)
    return str(out)


class TestLoadRejectsMalformedFiles:
    @pytest.fixture
    def saved(self, rng, tmp_path):
        psi = random_charge_mps(5, 3, [0, 2, 1, 0, 1], rng)
        path = tmp_path / "state.npz"
        save_mps(str(path), psi)
        return psi, path

    def test_spectrum_value_moved_between_sectors(self, saved, tmp_path):
        psi, path = saved
        m, lam = next((m, lam) for m, lam in enumerate(psi.lambdas) if any(len(v) > 1 for v in lam.values()))
        q_from = next(q for q, v in lam.items() if len(v) > 1)
        q_to = next(q for q in lam if q != q_from)

        def move_one_value(meta, arrays):
            src, dst = arrays[f"lam{m}/{q_from}"], arrays[f"lam{m}/{q_to}"]
            arrays[f"lam{m}/{q_from}"], arrays[f"lam{m}/{q_to}"] = src[:-1], np.append(dst, src[-1])

        bad = _tampered(path, tmp_path / "bad.npz", move_one_value)
        with pytest.raises(ValueError, match=f"spectrum of bond {m + 1} does not match"):
            load_mps(bad)

    def test_spectrum_with_a_missing_charge(self, saved, tmp_path):
        psi, path = saved
        m = next(m for m, lam in enumerate(psi.lambdas) if len(lam) > 1)

        def drop_a_charge(meta, arrays):
            q = meta["lambda_charges"][m].pop()
            del arrays[f"lam{m}/{q}"]

        with pytest.raises(ValueError, match=f"spectrum of bond {m + 1} does not match"):
            load_mps(_tampered(path, tmp_path / "bad.npz", drop_a_charge))

    def test_neighbouring_sites_disagree_on_a_bond(self, saved, tmp_path):
        _, path = saved

        def extra_sector(meta, arrays):
            # site 3's bond-in leg gains a sector no block uses
            meta["indices"][3 * 2]["sectors"].append([99, 1])

        with pytest.raises(ValueError, match="sites 2 and 3 disagree on bond 2"):
            load_mps(_tampered(path, tmp_path / "bad.npz", extra_sector))

    def test_block_of_the_wrong_shape(self, saved, tmp_path):
        _, path = saved

        def reshape_a_block(meta, arrays):
            name = next(n for n in arrays if n.startswith("g2/") and arrays[n].shape[0] != arrays[n].shape[2])
            arrays[name] = arrays[name].transpose(2, 1, 0)

        with pytest.raises(ChargeMismatchError, match="block shapes do not match"):
            load_mps(_tampered(path, tmp_path / "bad.npz", reshape_a_block))


class TestCopiesShareImmutableValues:
    @pytest.mark.parametrize(
        "kind", ["block_built", "swept_left_to_right", "swept_right_to_left", "superstate"]
    )
    def test_gates_on_copies_leave_the_original_unchanged(self, kind, rng, tmp_path):
        # one gate per fresh copy, so every bond reads the original's stored sites;
        # nothing reads the original before the end, so no cached view hides a write
        x, twin = _state_of_kind(kind), _state_of_kind(kind)
        spec = ModelSpec.bose_hubbard(4, 3, 4.0)
        x_mps = getattr(x, "mps", x)
        for m in range(1, x_mps.L):
            y = x.copy()
            y_mps = getattr(y, "mps", y)
            if kind == "superstate":
                gate = super_gate(bond_gate(spec, m, 0.37), y.weights)
            else:
                gate = random_conserving_gate(3, rng)
            y_mps.apply_two_site_gate(m, gate, UNRESTRICTED)
            y_mps.site_tensor(m), y_mps.site_tensor(m + 1)  # builds the new sites' views
            spectra = [{q: v.tobytes() for q, v in s.lambdas[m - 1].items()} for s in (x_mps, y_mps)]
            assert spectra[0] != spectra[1]
        assert _snapshot(x, tmp_path / "x.npz") == _snapshot(twin, tmp_path / "twin.npz")

    @pytest.mark.parametrize("kind", ["swept_left_to_right", "swept_right_to_left", "superstate"])
    def test_gating_a_copy_with_inherited_plans(self, kind, tmp_path, monkeypatch):
        # a copy shares the original's plans; its gates reuse them, and neither
        # the original's sites nor its plan lists move
        spec = ModelSpec.bose_hubbard(4, 3, 4.0)

        def sweeps(x):
            mps = getattr(x, "mps", x)
            rng = np.random.default_rng(11)
            for m in [*range(1, mps.L), *range(mps.L - 1, 0, -1)] * 2:
                if kind == "superstate":
                    gate = super_gate(bond_gate(spec, m, 0.37), x.weights)
                else:
                    gate = random_conserving_gate(3, rng)
                mps.apply_two_site_gate(m, gate, UNRESTRICTED)

        x, twin = _state_of_kind(kind), _state_of_kind(kind)
        x_mps = getattr(x, "mps", x)
        plans = [list(bond) for bond in x_mps._plans]
        assert any(plans)
        y = x.copy()
        lookup, used = CanonicalMps._gate_plan, []
        monkeypatch.setattr(CanonicalMps, "_gate_plan", lambda *args: used.append(lookup(*args)) or used[-1])
        sweeps(y)
        inherited = {id(plan) for bond in plans for _, plan in bond}
        assert any(id(plan) in inherited for plan in used)
        assert [[(k, id(p)) for k, p in bond] for bond in x_mps._plans] == [
            [(k, id(p)) for k, p in bond] for bond in plans
        ]
        assert _snapshot(x, tmp_path / "x.npz") == _snapshot(twin, tmp_path / "twin.npz")
        y_twin = _state_of_kind(kind)
        sweeps(y_twin)
        assert _snapshot(y, tmp_path / "y.npz") == _snapshot(y_twin, tmp_path / "y_twin.npz")

    def test_canonicalize_leaves_its_input_unchanged(self, rng, tmp_path):
        x = random_charge_mps(5, 3, [0, 2, 1, 0, 1], rng)
        chain = x.sites  # a non-canonical chain of the stored sites' views
        blocks = [{k: blk.tobytes() for k, blk in g.blocks.items()} for g in chain]
        before = _snapshot(x, tmp_path / "before.npz")
        mps_core.canonicalize(chain)
        assert [{k: blk.tobytes() for k, blk in g.blocks.items()} for g in chain] == blocks
        assert _snapshot(x, tmp_path / "after.npz") == before


def test_canonicalize_keeps_a_chain_of_small_sites():
    # every site 1e-3 times a Fock state's: the tail's scale shrinks 1e-3 per
    # site, but the state and the 1e-24 norm come back exactly
    psi = from_fock([0, 1, 1, 0, 1, 0, 0, 1], 2)
    chain = [SymmetricTensor(g.indices, {k: 1e-3 * blk for k, blk in g.blocks.items()}) for g in psi.sites]
    mps, norm = canonicalize(chain)
    assert abs(norm / 1e-24 - 1) < 1e-14
    assert np.max(np.abs(mps.to_statevector() - psi.to_statevector())) < 1e-15
    mps.assert_canonical()


def test_canonicalize_converts_each_link_once_and_builds_no_view(monkeypatch):
    # one L=10 projection: canonicalize converts each composed link once and
    # works on sector matrices from there on; no block view is built in the call
    inside, conversions, views = [], [], []
    canonical, convert, view = mps_core.canonicalize, SectorMatrices.from_tensor, SectorMatrices.tensor

    def spy_canonicalize(links):
        inside.append(True)
        try:
            return canonical(links)
        finally:
            inside.pop()

    def spy_convert(t):
        if inside:
            conversions.append(t)
        return convert(t)

    def spy_view(site):
        if site._tensor is None:
            views.append(site)
        return view(site)

    monkeypatch.setattr(mps_core, "canonicalize", spy_canonicalize)
    monkeypatch.setattr(SectorMatrices, "from_tensor", staticmethod(spy_convert))
    monkeypatch.setattr(SectorMatrices, "tensor", spy_view)
    s = project_operator(embed_factor(sigma_z_local(), 5, 10), 5)
    assert (len(views), len(conversions)) == (0, 10)
    s.mps.assert_canonical()


class TestReversibility:
    def test_gate_then_inverse(self, rng):
        psi = random_charge_mps(5, 2, [0, 1, 1, 0, 1], rng)
        ref = psi.to_statevector()
        g = random_conserving_gate(2, rng)
        inv = BondGate(g.dense.conj().T, ChargeIndex.occupation(2))
        psi.apply_two_site_gate(2, g, UNRESTRICTED)
        psi.apply_two_site_gate(2, inv, UNRESTRICTED)
        assert np.max(np.abs(psi.to_statevector() - ref)) < 1e-10


class TestSerialization:
    def test_round_trip(self, rng, tmp_path):
        psi = random_charge_mps(5, 3, [0, 2, 1, 0, 1], rng)
        path = tmp_path / "state.npz"
        save_mps(str(path), psi)
        back = load_mps(str(path))
        assert back.total_charge == psi.total_charge
        assert np.max(np.abs(back.to_statevector() - psi.to_statevector())) < 1e-14
        with np.load(path) as data:
            meta = json.loads(bytes(data["__meta__"]).decode())
        assert "total_charge" not in meta
        assert all(set(entry) == {"sectors"} for entry in meta["indices"])
        assert meta["form"] == "B"

    def test_loads_a_file_of_gammas(self, rng, tmp_path):
        # a file as written before the B form: every site but the last holds
        # Gamma = B / lambda, and the header has no "form" key
        psi = random_charge_mps(5, 3, [0, 2, 1, 0, 1], rng)
        path = tmp_path / "state.npz"
        save_mps(str(path), psi)

        def to_gammas(meta, arrays):
            del meta["form"]
            for name in [n for n in arrays if n.startswith("g")]:
                m, key = int(name[1 : name.index("/")]), name[name.index("/") + 1 :]
                if m < psi.L - 1:
                    r = int(key.split(",")[2])
                    lam = psi.lambdas[m][psi.bond_index(m + 1).charges[r]]
                    arrays[name] = arrays[name] / lam

        back = load_mps(_tampered(path, tmp_path / "gammas.npz", to_gammas))
        assert np.max(np.abs(back.to_statevector() - psi.to_statevector())) < 1e-14
        back.assert_canonical(atol=1e-12)

    def test_unknown_site_form_rejected(self, rng, tmp_path):
        path = tmp_path / "state.npz"
        save_mps(str(path), random_charge_mps(4, 2, [0, 1, 1, 0], rng))

        def other_form(meta, arrays):
            meta["form"] = "A"

        with pytest.raises(ValueError, match="unknown site form 'A'"):
            load_mps(_tampered(path, tmp_path / "bad.npz", other_form))

    def test_loads_files_with_directions_and_total_charge(self, tmp_path):
        # a two-site, one-particle state in the older layout, written by hand:
        # sqrt(0.36) |j1=0, j2=1> + sqrt(0.64) |j1=1, j2=0>
        occ = [[0, 1], [1, 1]]
        meta = {
            "L": 2,
            "total_charge": 1,
            "indices": [
                {"sectors": [[0, 1]], "direction": "in"},
                {"sectors": occ, "direction": "in"},
                {"sectors": occ, "direction": "out"},
                {"sectors": occ, "direction": "in"},
                {"sectors": occ, "direction": "in"},
                {"sectors": [[1, 1]], "direction": "out"},
            ],
            "block_keys": [[[0, 0, 0], [0, 1, 1]], [[0, 1, 0], [1, 0, 0]]],
            "lambda_charges": [[0, 1]],
        }
        one = np.ones((1, 1, 1), dtype=np.complex128)
        path = tmp_path / "old.npz"
        np.savez_compressed(
            path,
            __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            **{"g0/0,0,0": one, "g0/0,1,1": one, "g1/0,1,0": one, "g1/1,0,0": one},
            **{"lam0/0": np.array([0.6]), "lam0/1": np.array([0.8])},
        )
        psi = load_mps(str(path))
        assert psi.total_charge == 1
        spectrum = psi.schmidt_spectrum(1)
        assert spectrum.keys() == {0, 1}
        assert spectrum[0].tolist() == [0.6] and spectrum[1].tolist() == [0.8]
        for g in psi.sites:
            g.validate()
        # site 1 is the fastest index: |j1=1, j2=0> is entry 1, |j1=0, j2=1> entry 2
        assert np.array_equal(psi.to_statevector(), np.array([0, 0.8, 0.6, 0]))
