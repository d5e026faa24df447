import numpy as np
import pytest

from mpodyn import oracle
from mpodyn.charge_tensor import ChargeIndex, ChargeMismatchError, SectorMatrices, SymmetricTensor, TruncationPolicy
from mpodyn.evolution import evolve, make_schedule
from mpodyn.models import (
    SIGMA_Z,
    ModelSpec,
    annihilator_local,
    boson_annihilator,
    creator_local,
    identity_local,
    number_local,
    sigma_z_local,
)
from mpodyn.mps_core import CanonicalMps, from_fock
from mpodyn.operator_space import (
    _merged_pair_index,
    BRUTE,
    CANONICAL,
    GRAND_CANONICAL,
    LocalOperator,
    apply_out_chain,
    embed_factor,
    expectation_in_state,
    hs_trace_pair,
    identity_superstate,
    lift_product_operator,
    mode_weights,
    out_chain_compose,
    super_site_layout,
)
from mpodyn.projector import projector_superstate, uniform_fock_superposition


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("L", [1, 2, 3, 4])
class TestChargeRule:
    """The weight rule against the per-mode formulas it replaced."""

    def test_layout_matches_per_mode_formulas(self, L, d):
        k_order = [(j, i) for j in range(d) for i in range(d)]
        qbase = 2 * L * (d - 1) + 3
        expected = {
            BRUTE: [(0, k_order)],
            GRAND_CANONICAL: [
                (c, [(j, j - c) for j in range(d) if 0 <= j - c < d]) for c in range(-(d - 1), d)
            ],
            CANONICAL: [(j * qbase + i, [(j, i)]) for j, i in k_order],
        }
        for mode, sectors in expected.items():
            index, states, perm = super_site_layout(d, mode_weights(mode, L, d))
            assert index.sectors == tuple((q, len(sec)) for q, sec in sectors)
            assert [list(sec) for sec in states] == [sec for _, sec in sectors]
            assert perm.tolist() == [j * d + i for _, sec in sectors for j, i in sec]

    def test_projector_bond_labels(self, L, d):
        qbase = 2 * L * (d - 1) + 3
        for N in range(L * (d - 1) + 1):
            counts = uniform_fock_superposition(N, L, d)
            mps = projector_superstate(N, L, d).mps
            for m in range(L + 1):
                labels = tuple(l * qbase + l for l in counts.bond_index(m).charges)
                assert mps.bond_index(m).charges == labels
            assert mps.total_charge == N * qbase + N


class TestLocalOperator:
    def test_infer_delta(self):
        assert LocalOperator.from_matrix(SIGMA_Z).delta_n == 0
        assert LocalOperator.from_matrix(boson_annihilator(4)).delta_n == 1
        mixed = LocalOperator.from_matrix(np.array([[0, 1], [1, 0]]))
        assert mixed.delta_n is None

    def test_dagger_flips_delta(self):
        a = annihilator_local(3)
        assert a.dagger().delta_n == -1
        assert np.allclose(a.dagger().entries, a.entries.conj().T)

    def test_band_violation_rejected(self):
        with pytest.raises(ChargeMismatchError):
            LocalOperator(2, np.array([[0, 1], [0, 0]]), 0)


class TestIdentitySuperstate:
    def test_product_structure(self):
        one = identity_superstate(3, 2)
        assert one.mps.max_bond_dimension() == 1
        assert one.osee_profile() == [0.0, 0.0]
        assert one.delta_n == 0

    def test_single_site_large_d(self):
        one = identity_superstate(1, 4)
        assert np.allclose(one.densify(), np.eye(4))

    def test_densify_two_sites(self):
        one = identity_superstate(2, 2)
        assert np.allclose(one.densify(), np.eye(4))

    def test_hs_norm_convention(self):
        assert abs(identity_superstate(4, 3).hs_norm() - 3**2.0) < 1e-12


class TestLift:
    @pytest.mark.parametrize("site", [0, 4])
    def test_embed_site_out_of_range(self, site):
        with pytest.raises(ValueError, match="site out of range"):
            embed_factor(sigma_z_local(), site, 3)

    def test_sigma_z_product(self):
        s = lift_product_operator(embed_factor(sigma_z_local(), 2, 3))
        assert s.mps.max_bond_dimension() == 1
        assert s.delta_n == 0
        expected = oracle.site_operator(SIGMA_Z, 2, 3)
        assert np.max(np.abs(s.densify() - expected)) < 1e-12

    def test_annihilator_delta(self):
        s = lift_product_operator(embed_factor(annihilator_local(4), 2, 3))
        assert s.delta_n == 1
        expected = oracle.site_operator(boson_annihilator(4), 2, 3)
        assert np.max(np.abs(s.densify() - expected)) < 1e-12

    def test_round_trip_tensor_product(self, rng):
        # product of random definite-charge factors
        mats = []
        factors = []
        for delta in (0, 1, 0, -1):
            m = np.zeros((3, 3), dtype=complex)
            for x in range(3):
                y = x + delta
                if 0 <= y < 3:
                    m[x, y] = rng.normal() + 1j * rng.normal()
            mats.append(m)
            factors.append(LocalOperator(3, m, delta))
        s = lift_product_operator(factors)
        dense = s.densify()
        expected = np.kron(np.kron(np.kron(mats[3], mats[2]), mats[1]), mats[0])
        assert np.max(np.abs(dense - expected)) < 1e-12

    def test_mixed_factor_rejected_with_charges(self):
        sx = LocalOperator.from_matrix(np.array([[0, 1], [1, 0]]))
        with pytest.raises(ChargeMismatchError, match="indefinite charge"):
            lift_product_operator(embed_factor(sx, 1, 2))

    def test_mixed_factor_allowed_brute(self):
        sx = LocalOperator.from_matrix(np.array([[0, 1], [1, 0]]))
        s = lift_product_operator(embed_factor(sx, 1, 2), mode=BRUTE)
        expected = oracle.site_operator(np.array([[0, 1], [1, 0]]), 1, 2)
        assert np.max(np.abs(s.densify() - expected)) < 1e-12

    def test_zero_product_keeps_indefinite_charge_brute(self):
        sx = LocalOperator.from_matrix(np.array([[0, 1], [1, 0]]))
        zero = lift_product_operator([LocalOperator(2, np.zeros((2, 2)), 0), sx], mode=BRUTE)
        assert zero.is_zero and zero.delta_n is None


class TestApplyOutChain:
    def test_number_on_identity(self):
        one = identity_superstate(3, 2)
        s = apply_out_chain(embed_factor(number_local(2), 2, 3), one)
        expected = oracle.site_operator(np.diag([0.0, 1.0]), 2, 3)
        assert np.max(np.abs(s.densify() - expected)) < 1e-12
        assert s.delta_n == 0

    def test_annihilate_then_create(self):
        one = identity_superstate(2, 2)
        s = apply_out_chain(embed_factor(annihilator_local(2), 1, 2), one)
        assert s.delta_n == 1
        s = apply_out_chain(embed_factor(creator_local(2), 1, 2), s)
        assert s.delta_n == 0
        amat = boson_annihilator(2)
        expected = oracle.site_operator(amat.conj().T @ amat, 1, 2)
        assert np.max(np.abs(s.densify() - expected)) < 1e-12

    def test_sigma_z_on_projector(self):
        ps = projector_superstate(1, 3, 2)
        s = apply_out_chain(embed_factor(sigma_z_local(), 2, 3), ps)
        assert s.delta_n == 0
        P = np.diag(oracle.sector_indicator(3, 2, 1).astype(float))
        expected = P @ oracle.site_operator(SIGMA_Z, 2, 3) @ P
        assert np.max(np.abs(s.densify() - expected)) < 1e-10

    def test_annihilator_kills_vacuum_projector(self):
        ps = projector_superstate(0, 2, 2)
        s = apply_out_chain(embed_factor(annihilator_local(2), 1, 2), ps)
        assert s.is_zero

    def test_indefinite_charge_rejected_in_brute_mode(self):
        one = identity_superstate(3, 2, BRUTE)
        sigma_x = LocalOperator.from_matrix(np.array([[0, 1], [1, 0]]))
        with pytest.raises(ChargeMismatchError, match="indefinite charge"):
            apply_out_chain(embed_factor(sigma_x, 2, 3), one)

    def test_product_of_several_factors_in_one_pass(self):
        d, L = 3, 4
        factors = [annihilator_local(d), identity_local(d), creator_local(d), number_local(d)]
        s = apply_out_chain(factors, identity_superstate(L, d))
        assert s.delta_n == 0
        a = boson_annihilator(d)
        expected = (
            oracle.site_operator(a, 1, L)
            @ oracle.site_operator(a.conj().T, 3, L)
            @ oracle.site_operator(a.conj().T @ a, 4, L)
        )
        assert np.max(np.abs(s.densify() - expected)) < 1e-12

    @pytest.mark.parametrize(
        "factors, match",
        [
            ([], "need at least one factor"),
            ([sigma_z_local(), identity_local(3)], "shape mismatch"),
            ([identity_local(2)] * 2, "shape mismatch"),
        ],
    )
    def test_rejects_malformed_factor_lists(self, factors, match):
        with pytest.raises(ValueError, match=match):
            apply_out_chain(factors, identity_superstate(3, 2))


def _evolved(op, site, L, d, mode=GRAND_CANONICAL):
    """Lifted single-site operator after a short exact evolution (bond dimension > 1)."""
    spec = ModelSpec.xxz(L, 0.8) if d == 2 else ModelSpec.bose_hubbard(L, d, 2.0)
    s = lift_product_operator(embed_factor(op, site, L), mode)
    evolve(s, spec, make_schedule(2, 0.1), 0.3, TruncationPolicy(None, 0.0))
    return s


def _charge_breaking_operator(L):
    """Lifted annihilator whose site block sits in the creator's sector; its bonds say +1."""
    site = min(2, L)
    s = lift_product_operator(embed_factor(annihilator_local(2), site, L))
    sites = s.mps.sites
    g = sites[site - 1]
    ((left, _, right), blk), = g.blocks.items()
    wrong = g.indices[1].position(-1)
    sites[site - 1] = SymmetricTensor(g.indices, {(left, wrong, right): blk})
    s.mps = CanonicalMps([SectorMatrices.from_tensor(t) for t in sites], s.mps.lambdas)
    return s


class TestOutChainCompose:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("target_kind", ["grand_canonical", "brute", "projector"])
    def test_mpo_on_mpo_matches_dense(self, d, target_kind):
        # both chains have bond dimension > 1, so the merged bond interleaves them
        L = 3
        op = _evolved(annihilator_local(d), 2, L, d)
        assert op.mps.max_bond_dimension() > 1
        assert max(len({k[1] for k in g.blocks}) for g in op.mps.sites) > 1
        if target_kind == "projector":
            target = projector_superstate(d - 1, L, d)
        else:
            target = _evolved(creator_local(d), 1, L, d, target_kind)
        s = out_chain_compose(op, target)
        assert s.mode == target.mode
        assert s.delta_n == 1 + target.delta_n
        assert np.max(np.abs(s.densify() - op.densify() @ target.densify())) < 1e-12

    @pytest.mark.parametrize(
        "make_target",
        [
            lambda: identity_superstate(3, 2),
            lambda: projector_superstate(1, 3, 2),
            lambda: identity_superstate(1, 2),
            lambda: projector_superstate(0, 1, 2),
        ],
        ids=["identity-L3", "projector-L3", "identity-L1", "projector-L1"],
    )
    def test_charge_violation_rejected(self, make_target):
        target = make_target()
        with pytest.raises(ChargeMismatchError, match="charge mismatch"):
            out_chain_compose(_charge_breaking_operator(target.L), target)


def _merged_pair_loop(ix_t, ix_o, w_out):
    """The per-pair loop ``_merged_pair_index`` replaced: the merged index and
    {(pt, po): (merged sector, offset)}."""
    pairs = []
    for pt, (qt, dt) in enumerate(ix_t.sectors):
        for po, (qo, do) in enumerate(ix_o.sectors):
            pairs.append((qt - w_out * qo, pt, po, dt * do))
    charges = sorted({q for q, _, _, _ in pairs})
    dims = {q: 0 for q in charges}
    placement = {}
    for q, pt, po, size in sorted(pairs, key=lambda e: (e[0], e[1], e[2])):
        placement[(pt, po)] = (charges.index(q), dims[q])
        dims[q] += size
    return ChargeIndex(tuple((q, dims[q]) for q in charges)), placement


def _random_bond(rng):
    charges = np.sort(rng.choice(np.arange(-4, 7), size=rng.integers(1, 6), replace=False))
    return ChargeIndex(tuple((int(q), int(rng.integers(1, 5))) for q in charges))


# 0, -1 and 1 are the out-weights of brute, grand-canonical and canonical targets
@pytest.mark.parametrize("w_out", [0, -1, 1])
def test_merged_pair_index_matches_the_pair_loop(rng, w_out):
    for _ in range(25):
        ix_t, ix_o = _random_bond(rng), _random_bond(rng)
        merged, sec, off = _merged_pair_index(ix_t, ix_o, w_out)
        want, placement = _merged_pair_loop(ix_t, ix_o, w_out)
        assert merged == want
        assert all(isinstance(x, int) for q, n in merged.sectors for x in (q, n))
        assert np.shape(sec) == np.shape(off) == (ix_t.nsectors, ix_o.nsectors)
        pairs = np.ndindex(ix_t.nsectors, ix_o.nsectors)
        assert {(pt, po): (sec[pt][po], off[pt][po]) for pt, po in pairs} == placement


class TestTraces:
    def test_identity_pair(self):
        one = identity_superstate(2, 2)
        assert abs(hs_trace_pair(one, one) - 4.0) < 1e-12

    def test_pauli_normalization(self):
        s = lift_product_operator(embed_factor(sigma_z_local(), 2, 3))
        assert abs(hs_trace_pair(s, s) - 8.0) < 1e-12

    def test_random_pair_vs_dense(self, rng):
        f1 = [
            LocalOperator.from_matrix(np.diag(rng.normal(size=2))) for _ in range(3)
        ]
        f2 = [
            LocalOperator.from_matrix(np.diag(rng.normal(size=2))) for _ in range(3)
        ]
        a = lift_product_operator(f1)
        b = lift_product_operator(f2)
        want = np.trace(a.densify().conj().T @ b.densify())
        assert abs(hs_trace_pair(a, b) - want) < 1e-10

    def test_cross_mode_pairing(self):
        # canonical-labelled projector against grand-canonical identity
        ps = projector_superstate(1, 3, 2)
        one = identity_superstate(3, 2)
        want = np.trace(ps.densify().conj().T @ one.densify())
        assert abs(hs_trace_pair(ps, one) - want) < 1e-10

    def test_positive_squared_norm(self, rng):
        s = lift_product_operator(embed_factor(number_local(3), 2, 3))
        val = hs_trace_pair(s, s)
        assert val.imag < 1e-12
        assert abs(val.real - s.hs_norm() ** 2) < 1e-10


class TestExpectation:
    def test_identity_gives_one(self, rng):
        from conftest import random_charge_mps

        psi = random_charge_mps(4, 2, [0, 1, 1, 0], rng)
        one = identity_superstate(4, 2)
        assert abs(expectation_in_state(one, psi) - 1.0) < 1e-10

    def test_density_on_fock(self):
        s = lift_product_operator(embed_factor(number_local(2), 2, 2))
        psi = from_fock([0, 1], 2)
        assert abs(expectation_in_state(s, psi) - 1.0) < 1e-12

    def test_against_dense(self, rng):
        from conftest import random_charge_mps

        psi = random_charge_mps(4, 2, [0, 1, 1, 0], rng)
        s = lift_product_operator(embed_factor(number_local(2), 3, 4))
        vec = psi.to_statevector()
        want = np.vdot(vec, oracle.site_operator(np.diag([0.0, 1.0]), 3, 4) @ vec)
        assert abs(expectation_in_state(s, psi) - want) < 1e-10


class TestOsee:
    def test_identity_zero_everywhere(self):
        assert identity_superstate(4, 2).osee_profile() == [0.0, 0.0, 0.0]

    def test_sector_projector_against_schmidt_oracle(self):
        # P_1 = |01><01| + |10><10| on two spins: the doubled-space vector
        # pairs (0,0) with (1,1) across the bond, so one bit of operator
        # entropy (dense SVD oracle below)
        ps = projector_superstate(1, 2, 2)
        proj = np.diag(oracle.sector_indicator(2, 2, 1).astype(complex))
        assert np.max(np.abs(ps.densify() - proj)) < 1e-12
        # independent oracle: Schmidt values of the doubled-space vector
        mat = np.zeros((4, 4), dtype=complex)  # super-site1 x super-site2
        for x in range(2):
            for y in range(2):
                for xp in range(2):
                    for yp in range(2):
                        k1 = y * 2 + x  # (in, out) at site 1
                        k2 = yp * 2 + xp
                        mat[k1, k2] = proj[x + 2 * xp, y + 2 * yp]
        s = np.linalg.svd(mat, compute_uv=False)
        p = (s / np.linalg.norm(s)) ** 2
        p = p[p > 1e-16]
        expected = float(-np.sum(p * np.log2(p)))
        assert abs(expected - 1.0) < 1e-12
        assert abs(ps.osee_profile()[0] - expected) < 1e-10

    def test_projector_center_bond(self):
        ps = projector_superstate(1, 2, 2)
        assert abs(ps.osee_profile()[0] - 1.0) < 1e-12


class TestDeltaBookkeeping:
    def test_applying_operator_moves_sectors(self, rng):
        # densified operator maps the N sector into the N - delta_n sector
        L, d = 4, 3
        factors = [identity_local(d)] * L
        factors[1] = annihilator_local(d)
        factors[2] = LocalOperator(
            d, boson_annihilator(d) @ boson_annihilator(d), 2
        )
        s = lift_product_operator(factors)
        assert s.delta_n == 3
        dense = s.densify()
        for N in range(0, L * (d - 1) + 1):
            mask_in = oracle.sector_indicator(L, d, N)
            image = dense[:, mask_in]
            target = N - s.delta_n
            for Np in range(0, L * (d - 1) + 1):
                blockn = image[oracle.sector_indicator(L, d, Np), :]
                if Np != target and blockn.size:
                    assert np.max(np.abs(blockn)) < 1e-12
