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
    SymmetricTensor,
)


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
        res = block_svd(t, (0,), TruncationPolicy(2, 0.0), normalize=False)
        assert np.allclose(res.spectrum.values, [1.0, 1.0])
        assert res.discarded_norm == 0.0

    def test_global_top_chi_across_blocks(self):
        ix = ChargeIndex(((0, 1), (1, 2)))
        blocks = {
            (0, 0): np.array([[0.9]], dtype=complex),
            (1, 1): np.diag([0.8, 0.1]).astype(complex),
        }
        t = SymmetricTensor((ix, ix), (IN, OUT), blocks, 0)
        res = block_svd(t, (0,), TruncationPolicy(2, 0.0), normalize=False)
        assert np.allclose(res.spectrum.values, [0.9, 0.8])
        assert np.allclose(res.discarded_norm, 0.1)

    def test_reconstruction_matches_dense_svd(self, rng):
        t = make_random_three_leg(rng)
        res = block_svd(t, (0, 1), TruncationPolicy(None, 0.0), normalize=False)
        lam = {q: v for q, v in res.spectrum.sectors}
        from mpodyn.charge_tensor import scale_axis

        rebuilt = contract(scale_axis(res.left, 2, lam), res.right, [(2, 0)])
        assert np.max(np.abs(rebuilt.densify() - t.densify())) < 1e-12
        # dense SVD oracle: the same values, globally sorted
        dense = t.densify().reshape(t.shape[0] * t.shape[1], t.shape[2])
        s_dense = np.linalg.svd(dense, compute_uv=False)
        s_dense = s_dense[s_dense > 1e-13]
        assert np.allclose(np.sort(res.spectrum.values)[::-1][: len(s_dense)], s_dense)

    def test_normalized_spectrum(self, rng):
        t = make_random_three_leg(rng)
        res = block_svd(t, (0, 1), TruncationPolicy(4, 0.0), normalize=True)
        assert abs(np.sum(res.spectrum.values**2) - 1.0) < 1e-12
        # discarded weight reported before normalization
        assert abs(res.kept_norm**2 + res.discarded_norm**2 - t.norm() ** 2) < 1e-10

    def test_kept_values_dominate_discarded(self, rng):
        t = make_random_three_leg(rng)
        full = block_svd(t, (0, 1), TruncationPolicy(None, 0.0), normalize=False)
        cut = block_svd(t, (0, 1), TruncationPolicy(3, 0.0), normalize=False)
        all_vals = full.spectrum.values
        assert cut.spectrum.values.min() >= all_vals[3:].max() - 1e-14

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
        res1 = block_svd(t, (0, 1), TruncationPolicy(5, 0.0))
        monkeypatch.setenv("MPODYN_THREADS", "4")
        res2 = block_svd(t, (0, 1), TruncationPolicy(5, 0.0))
        assert np.array_equal(res1.spectrum.values, res2.spectrum.values)
        for key in res1.left.blocks:
            assert np.array_equal(res1.left.blocks[key], res2.left.blocks[key])
