import math

import numpy as np
import pytest

from mpodyn import charge_tensor
from mpodyn.charge_tensor import (
    ChargeIndex,
    ChargeMismatchError,
    TruncationPolicy,
    SectorMatrices,
    ZeroNormError,
    block_svd,
    contract,
    global_truncation,
    group_by_charge,
    pair_bands,
    scale_axis,
    truncated_split,
)


def descending(values):
    """All values of a bond spectrum dict, largest first."""
    return np.sort(np.concatenate(list(values.values())))[::-1]


def dense(indices, blocks) -> np.ndarray:
    """Dense array of ``blocks``, per-leg sector positions -> dense block, with every
    leg of ``indices`` laid out sector by sector (charge ascending)."""
    out = np.zeros([ix.dim for ix in indices], dtype=complex)
    for key, blk in blocks.items():
        out[tuple(slice(ix.offsets[p], ix.offsets[p] + ix.dims[p]) for ix, p in zip(indices, key))] = blk
    return out


def as_dense(x) -> np.ndarray:
    """A split factor as one dense array: a link densified, a plain matrix as it is."""
    return x if isinstance(x, np.ndarray) else x.densify()


def make_random_three_leg(rng):
    """Chain link (l, p, r) with r = l + p and mixed sector dims."""
    left, phys, right = legs = (
        ChargeIndex(((0, 2), (1, 3))), ChargeIndex.occupation(2), ChargeIndex(((0, 2), (1, 4), (2, 3)))
    )
    blocks = {
        (lp, pp, rp): rng.normal(size=(ld, pd, rd)) + 1j * rng.normal(size=(ld, pd, rd))
        for lp, (lq, ld) in enumerate(left.sectors)
        for pp, (pq, pd) in enumerate(phys.sectors)
        for rp, (rq, rd) in enumerate(right.sectors)
        if rq - lq - pq == 0
    }
    return SectorMatrices.from_blocks(legs, blocks)


def make_random_two_leg(rng, first):
    """A matrix from leg ``first`` to a second leg, block-diagonal in charge, with one
    extra second-leg sector that no block reaches: the second leg and the diagonal
    blocks, in sector order."""
    second = ChargeIndex(tuple((q, dim % 3 + 1) for q, dim in first.sectors) + ((9, 2),))
    mats = [
        rng.normal(size=(first.dims[p], second.dims[p])) + 1j * rng.normal(size=(first.dims[p], second.dims[p]))
        for p in range(first.nsectors)
    ]
    return second, mats


def split(t, n_row, policy):
    """``block_svd`` of link ``t`` cut after its first ``n_row`` legs (1 or 2):
    (left, values, right, kept_norm, discarded_norm), the stacked factor as
    ``SectorMatrices`` and the other as a dense matrix between the cut leg and the
    new bond."""
    leg = 2 if n_row == 2 else 0
    factor, values, other, kept, discarded = block_svd(t, leg, policy)
    cut, bond = t.indices[leg], factor.indices[leg]
    sec = [cut.position(q) for q in bond.charges]
    if leg == 2:
        right = dense((bond, cut), {(b, s): vh for b, (s, vh) in enumerate(zip(sec, other))})
        return factor, values, right, kept, discarded
    left = dense((cut, bond), {(s, b): u for b, (s, u) in enumerate(zip(sec, other))})
    return left, values, factor, kept, discarded


def rebuild(left, values, right) -> np.ndarray:
    """Dense chain product left . diag(values) . right of a split's factors."""
    w = np.concatenate([values[q] for q in sorted(values)])
    return np.tensordot(as_dense(left) * w, as_dense(right), axes=(-1, 0))


class TestChargeIndex:
    def test_ordering_enforced(self):
        with pytest.raises(ChargeMismatchError):
            ChargeIndex(((1, 2), (0, 1)))

    def test_dims_and_offsets(self):
        ix = ChargeIndex(((0, 2), (2, 3)))
        assert ix.dim == 5
        assert ix.offsets == (0, 2)
        # the same as read-only arrays, built once
        for arr, want in ((ix.charge_array, [0, 2]), (ix.dim_array, [2, 3]), (ix.offset_array, [0, 2])):
            assert arr.tolist() == want and not arr.flags.writeable
        assert ix.dim_array is ix.dim_array

    def test_pair_bands_by_hand(self):
        # pairs (0,0): charge 0, 1 state; (0,1) and (1,0): charge 1, 2 states each,
        # (0,1) first; (1,1): charge 2, 4 states
        charges, dims, offsets = pair_bands(ChargeIndex(((0, 1), (1, 2))))
        assert charges.tolist() == [0, 1, 2]
        assert dims.tolist() == [1, 4, 4]
        assert offsets.tolist() == [[0, 0], [2, 0]]

    def test_pair_bands_with_a_charge_gap(self):
        # charges 0, 2, 3: the charge pairs (0,2) and (2,0) fill band 2, (0,3) and (3,0) band 3
        charges, dims, offsets = pair_bands(ChargeIndex(((0, 2), (2, 1), (3, 3))))
        assert charges.tolist() == [0, 2, 3, 4, 5, 6]
        assert dims.tolist() == [4, 4, 12, 1, 6, 9]
        assert offsets.tolist() == [[0, 0, 0], [2, 0, 0], [6, 3, 0]]


class TestGroupByCharge:
    def test_charge_gap(self):
        # no item has charge 3 or 4: the groups are 2 then 5, each in item order
        charges, totals, group, offset = group_by_charge(np.array([5, 2, 5, 2]), np.array([3, 1, 2, 4]))
        assert charges.tolist() == [2, 5]
        assert totals.tolist() == [5, 5]
        assert group.tolist() == [1, 0, 1, 0]
        assert offset.tolist() == [0, 0, 3, 1]

    def test_single_group(self):
        charges, totals, group, offset = group_by_charge(np.array([-1, -1, -1]), np.array([2, 3, 1]))
        assert charges.tolist() == [-1]
        assert totals.tolist() == [6]
        assert group.tolist() == [0, 0, 0]
        assert offset.tolist() == [0, 2, 5]

    def test_order_is_kept_inside_a_group(self):
        # the same items listed in another order take other places in their groups
        q, size = np.array([1, 0, 1, 1, 0]), np.array([2, 1, 3, 1, 4])
        charges, totals, group, offset = group_by_charge(q, size)
        assert (charges.tolist(), totals.tolist()) == ([0, 1], [5, 6])
        assert offset.tolist() == [0, 0, 2, 5, 1]
        rev = group_by_charge(q[::-1], size[::-1])[3]
        assert rev[::-1].tolist() == [4, 4, 1, 0, 0]


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


class TestValidate:
    """The checks of ``SectorMatrices.from_blocks``, the one way in from blocks."""

    def test_rejects_wrong_last_leg_charge(self, rng):
        t = make_random_three_leg(rng)
        # l = 1, p = 0 must end in r = 1; the block has the shape of r = 2,
        # so only its charge is wrong
        bad = dict(t.blocks)
        bad[(1, 0, 2)] = np.ones((3, 1, t.indices[2].dims[2]))
        with pytest.raises(ChargeMismatchError, match="charge mismatch"):
            SectorMatrices.from_blocks(t.indices, bad)

    @staticmethod
    def _per_block_verdict(indices, blocks):
        """Reference: the rule checked one block at a time, shapes first."""
        for key, blk in blocks.items():
            if blk.shape != tuple(ix.dims[p] for ix, p in zip(indices, key)):
                return "block shapes do not match"
        for key in blocks:
            *rest, last = (ix.charges[p] for ix, p in zip(indices, key))
            if sum(rest) != last:
                return "charge mismatch"
        return None

    def test_vectorized_rule_matches_per_block_loop(self, rng):
        verdicts = set()
        for trial in range(300):
            n = 3  # a link's legs
            indices = tuple(
                ChargeIndex(tuple(
                    (int(q), int(rng.integers(1, 3)))
                    for q in np.sort(rng.choice(np.arange(-3, 4), rng.integers(1, 4), replace=False))
                ))
                for _ in range(n)
            )
            keys = {tuple(int(rng.integers(ix.nsectors)) for ix in indices) for _ in range(4)}
            blocks = {}
            for key in keys:
                shape = [ix.dims[p] for ix, p in zip(indices, key)]
                if rng.random() < 0.1:
                    shape[int(rng.integers(n))] += 1
                blocks[key] = np.ones(shape, dtype=complex)
            want = self._per_block_verdict(indices, blocks)
            verdicts.add(want)
            if want is None:
                site = SectorMatrices.from_blocks(indices, blocks)
                assert np.array_equal(site.densify(), dense(indices, blocks))
            else:
                with pytest.raises(ChargeMismatchError, match=want):
                    SectorMatrices.from_blocks(indices, blocks)
        assert verdicts == {None, "block shapes do not match", "charge mismatch"}

    def test_rejects_a_key_without_one_position_per_leg(self, rng):
        t = make_random_three_leg(rng)
        bad = dict(t.blocks)
        bad[(0, 0)] = np.ones((2, 1))
        with pytest.raises(ChargeMismatchError, match="charge mismatch"):
            SectorMatrices.from_blocks(t.indices, bad)

    @pytest.mark.parametrize("key", [(0, -1, -1), (0, 2, 2)])
    def test_rejects_a_key_that_names_no_sector(self, key):
        # a negative position would otherwise wrap to the last sector and pass
        phys = ChargeIndex.occupation(2)
        legs = (ChargeIndex.trivial(), phys, ChargeIndex(((0, 1), (1, 1))))
        with pytest.raises(ChargeMismatchError, match="names no sector"):
            SectorMatrices.from_blocks(legs, {key: np.ones((1, 1, 1))})

    def test_blocks_are_copied_and_viewed_from_the_matrices(self, rng):
        t = make_random_three_leg(rng)
        given = {key: blk.copy() for key, blk in t.blocks.items()}
        site = SectorMatrices.from_blocks(t.indices, given)
        want = site.densify()
        for blk in given.values():
            blk[...] = 5.0
        assert np.array_equal(site.densify(), want)
        assert site.blocks is site.blocks
        assert all(np.shares_memory(blk, site.flat) for blk in site.blocks.values())


class TestContract:
    def test_identity_contraction(self, rng):
        t = make_random_three_leg(rng)
        for leg in (0, 2):
            ix = t.indices[leg]
            out = contract(t, leg, ix, [np.eye(dim, dtype=complex) for dim in ix.dims])
            assert out.leg == leg and out.indices == t.indices
            assert np.array_equal(out.densify(), t.densify())

    def test_against_dense(self, rng):
        a = make_random_three_leg(rng)
        second, mats = make_random_two_leg(rng, a.indices[2])
        b = dense((a.indices[2], second), {(p, p): m for p, m in enumerate(mats)})
        # b's second leg has one sector (charge 9) that no block reaches
        bond = ChargeIndex(second.sectors[:-1])
        out = contract(a, 2, bond, mats)
        SectorMatrices.from_blocks(out.indices, out.blocks)  # every block obeys the charge rule
        assert out.indices == a.indices[:2] + (bond,)
        want = np.tensordot(a.densify(), b, axes=(2, 0))[..., : bond.dim]
        assert np.max(np.abs(out.densify() - want)) < 1e-12
        # from the left: b^T on the bond-in leg of a link whose bond-in leg is a's bond-out
        c = SectorMatrices.from_blocks((a.indices[2], a.indices[1], ChargeIndex(((0, 2), (1, 4), (2, 3), (3, 4)))), {
            (r, p, r + p): rng.normal(size=(a.indices[2].dims[r], 1, (2, 4, 3, 4)[r + p]))
            for r in range(3) for p in range(2)
        })
        out = contract(c, 0, bond, [m.T for m in mats])
        want = np.tensordot(b[:, : bond.dim].T, c.densify(), axes=(1, 0))
        assert np.max(np.abs(out.densify() - want)) < 1e-12

    def test_a_charge_the_bond_lacks_is_dropped(self, rng):
        t = make_random_three_leg(rng)
        right = t.indices[2]  # charges 0, 1, 2
        bond = ChargeIndex((right.sectors[0], right.sectors[2]))
        out = contract(t, 2, bond, [np.eye(dim) for dim in bond.dims])
        assert sorted(out.blocks) == sorted((l, p, 0 if r == 0 else 1) for l, p, r in t.blocks if r != 1)
        full = t.densify()
        assert np.array_equal(out.densify(), np.concatenate([full[..., :2], full[..., 6:]], axis=2))

    def test_sector_mismatch_raises(self, rng):
        site = make_random_three_leg(rng)
        # a's last leg holds charges (0, 1, 2): a bond with charge 5 or one matrix too few
        with pytest.raises(ChargeMismatchError, match="charge mismatch"):
            contract(site, 2, ChargeIndex(((0, 2), (5, 1))), [np.eye(2), np.eye(1)])
        with pytest.raises(ChargeMismatchError, match="charge mismatch"):
            contract(site, 2, site.indices[2], [np.eye(2)])


class TestScaleAxis:
    @pytest.mark.parametrize("layout", [0, 2])
    @pytest.mark.parametrize("axis", [0, 2])
    def test_against_dense(self, rng, layout, axis):
        t = make_random_link(rng)
        site = t.on_leg(layout)
        ix = t.indices[axis]
        values = {q: rng.uniform(0.5, 2.0, size=dim) for q, dim in ix.sectors}
        w = np.concatenate([values[q] for q in ix.charges]).reshape((-1, 1, 1) if axis == 0 else (1, 1, -1))
        for inverse, want in ((False, t.densify() * w), (True, t.densify() / w)):
            out = scale_axis(site, axis, values, inverse)
            assert out.indices == t.indices
            assert out.leg == 2
            assert np.array_equal(out.densify(), want)

    def test_only_a_bond_leg(self, rng):
        t = make_random_three_leg(rng)
        with pytest.raises(ValueError, match="bond leg"):
            scale_axis(t, 1, {q: np.ones(dim) for q, dim in t.indices[1].sectors})


def bond_to_bond(ix: ChargeIndex, blocks: dict) -> SectorMatrices:
    """Link (ix, trivial physical leg, ix) whose (p, p) block is ``blocks[p]``."""
    return SectorMatrices.from_blocks(
        (ix, ChargeIndex.trivial(), ix),
        {(p, 0, p): np.asarray(m, dtype=complex)[:, None, :] for p, m in blocks.items()},
    )


class TestBlockSvd:
    def test_identity_two_values(self):
        t = bond_to_bond(ChargeIndex(((0, 2),)), {0: np.eye(2)})
        for n_row in (1, 2):
            _, values, _, _, discarded = split(t, n_row, TruncationPolicy(2, 0.0))
            assert np.allclose(descending(values), [1.0, 1.0])
            assert discarded == 0.0

    def test_global_top_chi_across_blocks(self):
        t = bond_to_bond(ChargeIndex(((0, 1), (1, 2))), {0: [[0.9]], 1: np.diag([0.8, 0.1])})
        for n_row in (1, 2):
            _, values, _, _, discarded = split(t, n_row, TruncationPolicy(2, 0.0))
            assert np.allclose(descending(values), [0.9, 0.8])
            assert np.allclose(discarded, 0.1)

    def test_reconstruction_matches_dense_svd(self, rng):
        t = make_random_three_leg(rng)
        for n_row in (1, 2):
            left, values, right, _, _ = split(t, n_row, TruncationPolicy(None, 0.0))
            stacked = left if n_row == 2 else right
            SectorMatrices.from_blocks(stacked.indices, stacked.blocks)  # every block obeys the charge rule
            assert np.max(np.abs(rebuild(left, values, right) - t.densify())) < 1e-12
            # dense SVD oracle: the same values, globally sorted
            rows = int(np.prod([ix.dim for ix in t.indices[:n_row]]))
            s_dense = np.linalg.svd(t.densify().reshape(rows, -1), compute_uv=False)
            s_dense = s_dense[s_dense > 1e-13]
            assert np.allclose(descending(values)[: len(s_dense)], s_dense)

    @pytest.mark.parametrize("leg", [1, 3])
    def test_cut_must_fall_on_a_bond_leg(self, rng, leg):
        site = make_random_three_leg(rng)
        with pytest.raises(ValueError, match="bond leg"):
            block_svd(site, leg, TruncationPolicy(None, 0.0))

    def test_rejects_a_link_without_three_legs(self, rng):
        phys = ChargeIndex.occupation(2)
        blocks = {
            (0, i, j, i + j): rng.normal(size=(1, 1, 1, 1)) for i in range(2) for j in range(2)
        }
        four = (ChargeIndex.trivial(), phys, phys, ChargeIndex.occupation(3)), blocks
        two = (phys, phys), {(0, 0): np.ones((1, 1)), (1, 1): np.ones((1, 1))}
        for legs, blks in (four, two):
            # a link is built from blocks only through this constructor
            with pytest.raises(ValueError, match="chain link"):
                SectorMatrices.from_blocks(legs, blks)

    @pytest.mark.parametrize(
        "n_row, legs, zero",
        [
            (2, (ChargeIndex(((0, 1), (1, 1))), ChargeIndex.occupation(2), ChargeIndex.trivial(1)), (1, 0, 0)),
            (1, (ChargeIndex.trivial(), ChargeIndex.occupation(2), ChargeIndex(((0, 1), (1, 1)))), (0, 1, 1)),
        ],
        ids=["rows", "columns"],
    )
    def test_all_zero_block_is_not_stored(self, n_row, legs, zero):
        # the cut bond has one sector whose matrix stacks a 0.6 block and an
        # all-zero block; the stacked factor keeps only the first
        kept = (0, 1, 0) if n_row == 2 else (0, 0, 0)
        t = SectorMatrices.from_blocks(legs, {kept: np.full((1, 1, 1), 0.6), zero: np.zeros((1, 1, 1))})
        left, values, right, _, _ = split(t, n_row, TruncationPolicy(None, 0.0))
        stacked = left if n_row == 2 else right
        SectorMatrices.from_blocks(stacked.indices, stacked.blocks)
        assert [key[:2] if n_row == 2 else key[1:] for key in stacked.blocks] == [kept[:2] if n_row == 2 else kept[1:]]
        assert np.max(np.abs(rebuild(left, values, right) - t.densify())) < 1e-15

    def test_normalized_spectrum(self, rng):
        t = make_random_three_leg(rng)
        _, values, _, kept, discarded = split(t, 2, TruncationPolicy(4, 0.0))
        # values come back unnormalized; kept_norm is their 2-norm
        assert abs(np.sum(descending(values) ** 2) - kept**2) < 1e-12
        assert abs(kept**2 + discarded**2 - np.linalg.norm(t.densify()) ** 2) < 1e-10

    def test_kept_values_dominate_discarded(self, rng):
        t = make_random_three_leg(rng)
        all_vals = descending(split(t, 2, TruncationPolicy(None, 0.0))[1])
        cut = descending(split(t, 2, TruncationPolicy(3, 0.0))[1])
        assert cut.min() >= all_vals[3:].max() - 1e-14

    def test_zero_tensor_raises(self):
        ix = ChargeIndex(((0, 2),))
        for t in (bond_to_bond(ix, {0: np.zeros((2, 2))}), bond_to_bond(ix, {})):
            for n_row in (1, 2):
                with pytest.raises(ZeroNormError, match="zero norm"):
                    split(t, n_row, TruncationPolicy(2, 0.0))

    def test_inconsistent_grading_raises(self, rng):
        ix = ChargeIndex(((0, 2), (1, 2)))
        # a link breaking the charge rule cannot be built, so it never reaches a split
        with pytest.raises(ChargeMismatchError, match="charge mismatch"):
            SectorMatrices.from_blocks((ix, ChargeIndex.trivial(), ix), {(0, 0, 1): rng.normal(size=(2, 1, 2))})

    def test_deterministic_under_thread_count(self, rng, monkeypatch):
        t = make_random_three_leg(rng)
        left1, values1, _, _, _ = split(t, 2, TruncationPolicy(5, 0.0))
        monkeypatch.setenv("MPODYN_THREADS", "4")
        left2, values2, _, _, _ = split(t, 2, TruncationPolicy(5, 0.0))
        assert values1.keys() == values2.keys()
        for q in values1:
            assert np.array_equal(values1[q], values2[q])
        for key in left1.blocks:
            assert np.array_equal(left1.blocks[key], left2.blocks[key])


class TestTruncationPolicy:
    @pytest.mark.parametrize("chi", [2.5, True, False, 0, -3, "4", np.float64(4.0)])
    def test_chi_max_must_be_a_positive_integer(self, chi):
        with pytest.raises(ValueError, match="chi_max"):
            TruncationPolicy(chi)

    @pytest.mark.parametrize("floor", [math.nan, math.inf, -math.inf, -1e-3])
    def test_floor_must_be_finite_and_non_negative(self, floor):
        with pytest.raises(ValueError, match="singular_value_floor"):
            TruncationPolicy(None, floor)

    @pytest.mark.parametrize("chi", [None, 1, 64, np.int64(8)])
    def test_accepted_values(self, chi):
        assert TruncationPolicy(chi, 1e-10).chi_max == chi


class TestThreadSetting:
    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", " ", "²"])
    def test_must_be_a_positive_integer(self, rng, monkeypatch, value):
        monkeypatch.setenv("MPODYN_THREADS", value)
        with pytest.raises(ValueError, match="MPODYN_THREADS must be a positive integer"):
            split(make_random_three_leg(rng), 2, TruncationPolicy(None, 0.0))

    @pytest.mark.parametrize("value", [None, "", "1", "2", " 3 "])
    def test_accepted_values(self, rng, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("MPODYN_THREADS", raising=False)
        else:
            monkeypatch.setenv("MPODYN_THREADS", value)
        split(make_random_three_leg(rng), 2, TruncationPolicy(None, 0.0))


def test_thread_setting_is_parsed_once_per_value(rng, monkeypatch):
    t = make_random_three_leg(rng)
    monkeypatch.setenv("MPODYN_THREADS", "1")
    split(t, 2, TruncationPolicy(None, 0.0))
    misses = charge_tensor._thread_count.cache_info().misses
    for _ in range(3):
        split(t, 2, TruncationPolicy(None, 0.0))
    assert charge_tensor._thread_count.cache_info().misses == misses


def test_gesvd_fallback_matches_the_normal_split(rng, monkeypatch):
    # gesdd failing on the first sector sends that sector to scipy's gesvd
    monkeypatch.delenv("MPODYN_THREADS", raising=False)
    t, policy = make_random_three_leg(rng), TruncationPolicy(None, 0.0)
    want = split(t, 2, policy)
    svd, calls = np.linalg.svd, []

    def fails_once(*args, **kwargs):
        calls.append(np.shape(args[0]))
        if len(calls) == 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", fails_once)
    got = split(t, 2, policy)
    assert len(calls) == len(want[1])  # one try per sector; the first went on to gesvd
    assert list(got[1]) == list(want[1])
    for q in want[1]:
        assert np.allclose(got[1][q], want[1][q], rtol=0, atol=1e-12)
    assert np.allclose(rebuild(*got[:3]), rebuild(*want[:3]), rtol=0, atol=1e-12)
    assert got[3] == pytest.approx(want[3], abs=1e-12) and got[4] == pytest.approx(want[4], abs=1e-12)


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


def _global_truncation_by_entry_sort(values_by_q, policy):
    """Reference: the per-entry Python sort ``global_truncation`` was first written as."""
    entries = []
    for q in sorted(values_by_q):
        for pos, v in enumerate(values_by_q[q]):
            entries.append((float(v), q, pos))
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))

    floor = policy.singular_value_floor
    n_above = sum(1 for v, _, _ in entries if v >= floor and v > 0.0)
    n_keep = n_above if policy.chi_max is None else min(policy.chi_max, n_above)
    kept = entries[:n_keep]
    dropped = entries[n_keep:]

    kept_norm = float(np.sqrt(sum(v * v for v, _, _ in kept)))
    discarded_norm = float(np.sqrt(sum(v * v for v, _, _ in dropped)))
    if n_keep == 0 or kept_norm == 0.0:
        raise ZeroNormError("zero norm after truncation")

    keep_count: dict[int, int] = {}
    for _, q, pos in kept:
        keep_count[q] = max(keep_count.get(q, 0), pos + 1)
    return keep_count, kept_norm, discarded_norm


def test_global_truncation_matches_entry_sort_bit_for_bit(rng):
    # few distinct values, so ties across and within sectors are common, and zeros
    pool = np.array([0.0, 0.0, 1e-9, 0.125, 0.3, 1 / 3, 0.5, 0.7])
    cases = 0
    for _ in range(400):
        charges = rng.choice(np.arange(-5, 6), size=rng.integers(1, 6), replace=False)
        spectra = {}
        for q in charges:
            values = np.concatenate([rng.choice(pool, rng.integers(1, 7)), rng.random(rng.integers(0, 3))])
            spectra[int(q)] = np.sort(values)[::-1]
        n = sum(len(v) for v in spectra.values())
        chi = None if rng.random() < 0.3 else int(rng.integers(1, n + 2))
        policy = TruncationPolicy(chi, float(rng.choice([0.0, 1e-9, 0.125, 1 / 3])))
        try:
            want = _global_truncation_by_entry_sort(spectra, policy)
        except ZeroNormError:
            with pytest.raises(ZeroNormError):
                global_truncation(spectra, policy)
            continue
        got = global_truncation(spectra, policy)
        assert got[0] == want[0]
        assert got[1] == want[1] and got[2] == want[2]  # same bits, not just close
        cases += 1
    assert cases > 300



def _block_svd_by_zero_filled_assembly(t, n_row, policy):
    """Reference: ``block_svd`` as first written, for any cut, placing each
    block into a zero-filled matrix of its row charge and cutting both
    factors back into blocks (all-zero pieces dropped)."""
    groups = {}
    for key in sorted(t.blocks):
        rk, ck = key[:n_row], key[n_row:]
        q = sum(ix.charges[p] for ix, p in zip(t.indices, rk))
        block = t.blocks[key]
        rows, cols, parts = groups.setdefault(q, ({}, {}, []))
        rows[rk], cols[ck] = block.shape[:n_row], block.shape[n_row:]
        parts.append((rk, ck, block))

    def layout(shapes):
        order, start, acc = sorted(shapes.items()), {}, 0
        for key, dims in order:
            start[key] = acc
            acc += math.prod(dims)
        return order, start, acc

    def cut(mat, blocks, axis):
        start = 0
        for key, dims in blocks:
            size = math.prod(dims)
            piece = mat[start : start + size] if axis == 0 else mat[:, start : start + size]
            start += size
            if piece.any():
                shape = dims + mat.shape[1:] if axis == 0 else mat.shape[:1] + dims
                yield key, piece.reshape(shape)

    sectors, orders = {}, {}
    for q, (rows, cols, parts) in groups.items():
        row_order, row_start, nrows = layout(rows)
        col_order, col_start, ncols = layout(cols)
        mat = np.zeros((nrows, ncols), dtype=np.complex128)
        for rk, ck, block in parts:
            r0, c0 = row_start[rk], col_start[ck]
            nr, nc = math.prod(block.shape[:n_row]), math.prod(block.shape[n_row:])
            mat[r0 : r0 + nr, c0 : c0 + nc] = block.reshape(nr, nc)
        sectors[q], orders[q] = mat, (row_order, col_order)

    bond, values, us, vhs, kept_norm, discarded_norm = truncated_split(sectors, policy)
    left_blocks, right_blocks = {}, {}
    for pos, (q, u, vh) in enumerate(zip(bond.charges, us, vhs)):
        rows, cols = orders[q]
        for rk, part in cut(u, rows, 0):
            left_blocks[rk + (pos,)] = part
        for ck, part in cut(vh, cols, 1):
            right_blocks[(pos,) + ck] = part
    left = (t.indices[:n_row] + (bond,), left_blocks)
    right = ((bond,) + t.indices[n_row:], right_blocks)
    return left, values, right, kept_norm, discarded_norm


def _assert_same_split(got, want):
    """``split`` against the reference, whose factors are (indices, blocks) pairs."""
    for a, (indices, blocks) in ((got[0], want[0]), (got[2], want[2])):
        if isinstance(a, np.ndarray):  # the bond-side factor, one dense matrix
            assert np.array_equal(a, dense(indices, blocks))
            continue
        assert a.indices == indices
        assert list(a.blocks) == list(blocks)
        for key in a.blocks:
            assert np.array_equal(a.blocks[key], blocks[key])
    assert list(got[1]) == list(want[1])
    for q in got[1]:
        assert np.array_equal(got[1][q], want[1][q])
    assert got[3] == want[3] and got[4] == want[4]


def _zero_block_links():
    """Two small links, one per cut, each storing an all-zero block whose
    stacked matrix is [[1, 0], [0, 2], [0, 0]] or its transpose."""
    phys = ChargeIndex.occupation(3)
    # cut at the last bond: rows (l, p) with l + p = 1 stacked above each other
    left = ChargeIndex(((-1, 1), (0, 1), (1, 1)))
    rows = {
        (0, 2, 0): [[[1, 0]]],
        (1, 1, 0): [[[0, 2]]],
        (2, 0, 0): [[[0, 0]]],
    }
    last = SectorMatrices.from_blocks((left, phys, ChargeIndex(((1, 2),))), rows)
    # cut at the first bond: columns (p, r) with r = p stacked side by side
    right = ChargeIndex(((0, 1), (1, 1), (2, 1)))
    cols = {
        (0, 0, 0): [[[1]], [[0]]],
        (0, 1, 1): [[[0]], [[2]]],
        (0, 2, 2): [[[0]], [[0]]],
    }
    first = SectorMatrices.from_blocks((ChargeIndex(((0, 2),)), phys, right), cols)
    return [(last, 2), (first, 1)]


def make_random_link(rng):
    """Chain link (l, p, r) with random sectors; some allowed blocks are not
    stored, some are stored exactly zero, and r may have a sector no block
    reaches."""

    def sectors(charges):
        return ChargeIndex(tuple((int(q), int(rng.integers(1, 4))) for q in sorted(charges)))

    left = sectors(rng.choice(5, size=rng.integers(1, 4), replace=False))
    phys = sectors(range(int(rng.integers(2, 4))))
    sums = sorted({ql + qp for ql in left.charges for qp in phys.charges})
    right = sectors(set(rng.choice(sums, size=rng.integers(1, len(sums) + 1), replace=False)) | {9})
    blocks = {}
    for (lp, ld), (pp, pd), (rp, rd) in (
        ((a, left.dims[a]), (b, phys.dims[b]), (c, right.dims[c]))
        for a in range(left.nsectors)
        for b in range(phys.nsectors)
        for c in range(right.nsectors)
        if left.charges[a] + phys.charges[b] == right.charges[c]
    ):
        if rng.random() < 0.8:
            shape = (ld, pd, rd)
            blk = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            blocks[(lp, pp, rp)] = blk if rng.random() > 0.15 else np.zeros(shape)
    return SectorMatrices.from_blocks((left, phys, right), blocks)


def test_block_svd_matches_zero_filled_assembly_bit_for_bit(rng):
    policies = [
        TruncationPolicy(None, 0.0),
        TruncationPolicy(3, 0.0),
        TruncationPolicy(1, 0.0),
        TruncationPolicy(None, 0.5),
    ]
    cases = 0
    for i in range(80):
        three = make_random_link(rng) if i % 4 else make_random_three_leg(rng)
        for n_row in (1, 2):
            for policy in policies:
                try:
                    want = _block_svd_by_zero_filled_assembly(three, n_row, policy)
                except ZeroNormError:
                    with pytest.raises(ZeroNormError):
                        split(three, n_row, policy)
                    continue
                _assert_same_split(split(three, n_row, policy), want)
                cases += 1
    assert cases > 500


def test_block_svd_drops_an_exactly_zero_factor_block():
    exact = TruncationPolicy(None, 0.0)
    for t, n_row in _zero_block_links():
        left, values, right, kept, discarded = got = split(t, n_row, exact)
        _assert_same_split(got, _block_svd_by_zero_filled_assembly(t, n_row, exact))
        assert np.array_equal(descending(values), [2.0, 1.0])
        # the stored zero block leaves no block in the stacked factor
        if n_row == 2:
            assert [key[:2] for key in left.blocks] == [(0, 2), (1, 1)]
        else:
            assert [key[1:] for key in right.blocks] == [(0, 0), (1, 1)]
        assert np.array_equal(rebuild(left, values, right), t.densify())
