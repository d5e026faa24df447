import numpy as np
import pytest

from mpodyn.charge_tensor import (
    IN,
    OUT,
    ChargeIndex,
    ChargeMismatchError,
    TruncationPolicy,
    ZeroNormError,
    block_svd,
    contract,
    global_truncation,
    scale_axis,
    SymmetricTensor,
)


def descending(values):
    """All values of a bond spectrum dict, largest first."""
    return np.sort(np.concatenate(list(values.values())))[::-1]


def make_random_three_leg(rng):
    """Charge-conserving 3-leg tensor (l IN, p IN, r OUT) with mixed sector dims."""
    left = ChargeIndex(((0, 2), (1, 3)))
    phys = ChargeIndex.occupation(2)
    right = ChargeIndex(((0, 2), (1, 4), (2, 3)))
    blocks = {}
    for lp, (lq, ld) in enumerate(left.sectors):
        for pp, (pq, pd) in enumerate(phys.sectors):
            for rp, (rq, rd) in enumerate(right.sectors):
                if rq - lq - pq == 0:
                    blocks[(lp, pp, rp)] = rng.normal(size=(ld, pd, rd)) + 1j * rng.normal(
                        size=(ld, pd, rd)
                    )
    return SymmetricTensor((left, phys, right), (IN, IN, OUT), blocks, 0)


class TestChargeIndex:
    def test_ordering_enforced(self):
        with pytest.raises(ChargeMismatchError):
            ChargeIndex(((1, 2), (0, 1)))

    def test_dims_and_offsets(self):
        ix = ChargeIndex(((0, 2), (2, 3)))
        assert ix.dim == 5
        assert ix.offsets == (0, 2)


class TestDensify:
    def test_charge_forbidden_entries_are_zero(self, rng):
        t = make_random_three_leg(rng)
        dense = t.densify()
        loff = t.indices[0].offsets
        poff = t.indices[1].offsets
        roff = t.indices[2].offsets
        for lp, (lq, ld) in enumerate(t.indices[0].sectors):
            for pp, (pq, pd) in enumerate(t.indices[1].sectors):
                for rp, (rq, rd) in enumerate(t.indices[2].sectors):
                    sl = dense[
                        loff[lp] : loff[lp] + ld,
                        poff[pp] : poff[pp] + pd,
                        roff[rp] : roff[rp] + rd,
                    ]
                    if rq - lq - pq != 0:
                        assert np.all(sl == 0)


class TestContract:
    def test_identity_contraction(self, rng):
        t = make_random_three_leg(rng)
        right = t.indices[2]
        eye_blocks = {
            (p, p): np.eye(dim, dtype=complex) for p, (q, dim) in enumerate(right.sectors)
        }
        ident = SymmetricTensor((right, right), (IN, OUT), eye_blocks, 0)
        out = contract(t, ident, [(2, 0)])
        assert np.allclose(out.densify(), t.densify(), atol=1e-14)

    def test_full_contraction_gives_squared_norm(self, rng):
        t = make_random_three_leg(rng)
        val = contract(t, t.conj(), [(0, 0), (1, 1), (2, 2)])
        assert np.allclose(val.blocks[()], t.norm() ** 2)

    def test_against_dense(self, rng):
        a = make_random_three_leg(rng)
        b = make_random_three_leg(rng)
        out = contract(a, b.conj(), [(2, 2)])
        dense = np.tensordot(a.densify(), b.densify().conj(), axes=(2, 2))
        assert np.max(np.abs(out.densify() - dense)) < 1e-12

    def test_sector_mismatch_raises(self, rng):
        a = make_random_three_leg(rng)
        with pytest.raises(ChargeMismatchError, match="charge mismatch"):
            contract(a, a.conj(), [(0, 2)])


class TestBlockSvd:
    def test_identity_two_values(self):
        ix = ChargeIndex(((0, 2),))
        t = SymmetricTensor(
            (ix, ix), (IN, OUT), {(0, 0): np.eye(2, dtype=complex)}, 0
        )
        _, values, _, _, discarded = block_svd(t, (0,), TruncationPolicy(2, 0.0))
        assert np.allclose(descending(values), [1.0, 1.0])
        assert discarded == 0.0

    def test_global_top_chi_across_blocks(self):
        ix = ChargeIndex(((0, 1), (1, 2)))
        blocks = {
            (0, 0): np.array([[0.9]], dtype=complex),
            (1, 1): np.diag([0.8, 0.1]).astype(complex),
        }
        t = SymmetricTensor((ix, ix), (IN, OUT), blocks, 0)
        _, values, _, _, discarded = block_svd(t, (0,), TruncationPolicy(2, 0.0))
        assert np.allclose(descending(values), [0.9, 0.8])
        assert np.allclose(discarded, 0.1)

    def test_reconstruction_matches_dense_svd(self, rng):
        t = make_random_three_leg(rng)
        left, values, right, _, _ = block_svd(t, (0, 1), TruncationPolicy(None, 0.0))
        rebuilt = contract(scale_axis(left, 2, values), right, [(2, 0)])
        assert np.max(np.abs(rebuilt.densify() - t.densify())) < 1e-12
        # dense SVD oracle: the same values, globally sorted
        dense = t.densify().reshape(t.shape[0] * t.shape[1], t.shape[2])
        s_dense = np.linalg.svd(dense, compute_uv=False)
        s_dense = s_dense[s_dense > 1e-13]
        assert np.allclose(descending(values)[: len(s_dense)], s_dense)

    def test_normalized_spectrum(self, rng):
        t = make_random_three_leg(rng)
        _, values, _, kept, discarded = block_svd(t, (0, 1), TruncationPolicy(4, 0.0))
        # values come back unnormalized; kept_norm is their 2-norm
        assert abs(np.sum(descending(values) ** 2) - kept**2) < 1e-12
        assert abs(kept**2 + discarded**2 - t.norm() ** 2) < 1e-10

    def test_kept_values_dominate_discarded(self, rng):
        t = make_random_three_leg(rng)
        all_vals = descending(block_svd(t, (0, 1), TruncationPolicy(None, 0.0))[1])
        cut = descending(block_svd(t, (0, 1), TruncationPolicy(3, 0.0))[1])
        assert cut.min() >= all_vals[3:].max() - 1e-14

    def test_zero_tensor_raises(self):
        ix = ChargeIndex(((0, 2),))
        t = SymmetricTensor((ix, ix), (IN, OUT), {(0, 0): np.zeros((2, 2))}, 0)
        with pytest.raises(ZeroNormError, match="zero norm"):
            block_svd(t, (0,), TruncationPolicy(2, 0.0))

    def test_inconsistent_grading_raises(self, rng):
        ix = ChargeIndex(((0, 2), (1, 2)))
        t = SymmetricTensor(
            (ix, ix), (IN, OUT), {(0, 1): rng.normal(size=(2, 2))}, 0
        )
        with pytest.raises(ChargeMismatchError, match="charge mismatch"):
            block_svd(t, (0,), TruncationPolicy(2, 0.0))

    def test_deterministic_under_thread_count(self, rng, monkeypatch):
        t = make_random_three_leg(rng)
        left1, values1, _, _, _ = block_svd(t, (0, 1), TruncationPolicy(5, 0.0))
        monkeypatch.setenv("MPODYN_THREADS", "4")
        left2, values2, _, _, _ = block_svd(t, (0, 1), TruncationPolicy(5, 0.0))
        assert values1.keys() == values2.keys()
        for q in values1:
            assert np.array_equal(values1[q], values2[q])
        for key in left1.blocks:
            assert np.array_equal(left1.blocks[key], left2.blocks[key])


class TestGlobalTruncation:
    """The one tie-break rule: descending value, then lower charge, then
    position in the sector."""

    def test_tie_at_cutoff_keeps_lower_charge(self):
        values = {1: np.array([0.5, 0.2]), 0: np.array([0.9, 0.5, 0.1])}
        counts, _, _ = global_truncation(values, TruncationPolicy(2, 0.0))
        assert counts == {0: 2}
        counts, _, _ = global_truncation(values, TruncationPolicy(3, 0.0))
        assert counts == {0: 2, 1: 1}

    def test_kept_counts_are_prefixes(self):
        # equal values inside one sector are kept in sector order
        values = {0: np.array([0.6, 0.4, 0.4, 0.4]), 2: np.array([0.4, 0.4])}
        for chi in range(1, 7):
            counts, _, _ = global_truncation(values, TruncationPolicy(chi, 0.0))
            assert sum(counts.values()) == chi
            assert counts[0] == min(chi, 4)
            assert counts.get(2, 0) == max(0, chi - 4)

    def test_norms(self):
        values = {0: np.array([0.8, 0.3]), 1: np.array([0.4, 0.2])}
        counts, kept, discarded = global_truncation(values, TruncationPolicy(2, 0.0))
        assert counts == {0: 1, 1: 1}
        assert abs(kept - np.sqrt(0.8**2 + 0.4**2)) < 1e-15
        assert abs(discarded - np.sqrt(0.3**2 + 0.2**2)) < 1e-15
        counts, kept, discarded = global_truncation(values, TruncationPolicy(None, 0.25))
        assert counts == {0: 2, 1: 1}
        assert abs(discarded - 0.2) < 1e-15

    def test_floor_above_every_value_raises(self):
        values = {0: np.array([0.8, 0.3]), 1: np.array([0.4])}
        with pytest.raises(ZeroNormError):
            global_truncation(values, TruncationPolicy(None, 0.9))
