import math

import numpy as np
import pytest

from mpodyn.charge_tensor import (
    ChargeIndex,
    ChargeMismatchError,
    TruncationPolicy,
    ZeroNormError,
    block_svd,
    contract,
    global_truncation,
    scale_axis,
    SymmetricTensor,
    truncated_split,
)


def descending(values):
    """All values of a bond spectrum dict, largest first."""
    return np.sort(np.concatenate(list(values.values())))[::-1]


def make_random_three_leg(rng):
    """Chain tensor (l, p, r) with r = l + p and mixed sector dims."""
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
    return SymmetricTensor((left, phys, right), blocks)


def make_random_two_leg(rng, first):
    """Chain tensor (first, second): block-diagonal in charge, with one extra
    second-leg sector that no block reaches."""
    second = ChargeIndex(tuple((q, dim % 3 + 1) for q, dim in first.sectors) + ((9, 2),))
    blocks = {
        (p, p): rng.normal(size=(first.dims[p], second.dims[p]))
        + 1j * rng.normal(size=(first.dims[p], second.dims[p]))
        for p in range(first.nsectors)
    }
    return SymmetricTensor((first, second), blocks)


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


class TestValidate:
    def test_rejects_wrong_last_leg_charge(self, rng):
        t = make_random_three_leg(rng)
        # l = 1, p = 0 must end in r = 1; the block has the shape of r = 2,
        # so only its charge is wrong
        bad = dict(t.blocks)
        bad[(1, 0, 2)] = np.ones((3, 1, t.indices[2].dims[2]))
        with pytest.raises(ChargeMismatchError, match="charge mismatch"):
            SymmetricTensor(t.indices, bad).validate()


class TestContract:
    def test_identity_contraction(self, rng):
        t = make_random_three_leg(rng)
        right = t.indices[2]
        eye_blocks = {
            (p, p): np.eye(dim, dtype=complex) for p, (q, dim) in enumerate(right.sectors)
        }
        ident = SymmetricTensor((right, right), eye_blocks)
        out = contract(t, ident)
        assert np.allclose(out.densify(), t.densify(), atol=1e-14)

    def test_against_dense(self, rng):
        a = make_random_three_leg(rng)
        b = make_random_two_leg(rng, a.indices[2])
        out = contract(a, b)
        out.validate()
        assert out.indices == a.indices[:2] + b.indices[1:]
        dense = np.tensordot(a.densify(), b.densify(), axes=(2, 0))
        assert np.max(np.abs(out.densify() - dense)) < 1e-12

    def test_sector_mismatch_raises(self, rng):
        a = make_random_three_leg(rng)
        # a's last leg (0, 1, 2) and first leg (0, 1) differ
        with pytest.raises(ChargeMismatchError, match="charge mismatch"):
            contract(a, a)


class TestBlockSvd:
    def test_identity_two_values(self):
        ix = ChargeIndex(((0, 2),))
        t = SymmetricTensor((ix, ix), {(0, 0): np.eye(2, dtype=complex)})
        _, values, _, _, discarded = block_svd(t, 1, TruncationPolicy(2, 0.0))
        assert np.allclose(descending(values), [1.0, 1.0])
        assert discarded == 0.0

    def test_global_top_chi_across_blocks(self):
        ix = ChargeIndex(((0, 1), (1, 2)))
        blocks = {
            (0, 0): np.array([[0.9]], dtype=complex),
            (1, 1): np.diag([0.8, 0.1]).astype(complex),
        }
        t = SymmetricTensor((ix, ix), blocks)
        _, values, _, _, discarded = block_svd(t, 1, TruncationPolicy(2, 0.0))
        assert np.allclose(descending(values), [0.9, 0.8])
        assert np.allclose(discarded, 0.1)

    def test_reconstruction_matches_dense_svd(self, rng):
        t = make_random_three_leg(rng)
        for n_row in (1, 2):
            left, values, right, _, _ = block_svd(t, n_row, TruncationPolicy(None, 0.0))
            left.validate()
            right.validate()
            rebuilt = contract(scale_axis(left, n_row, values), right)
            assert np.max(np.abs(rebuilt.densify() - t.densify())) < 1e-12
            # dense SVD oracle: the same values, globally sorted
            rows = int(np.prod(t.shape[:n_row]))
            s_dense = np.linalg.svd(t.densify().reshape(rows, -1), compute_uv=False)
            s_dense = s_dense[s_dense > 1e-13]
            assert np.allclose(descending(values)[: len(s_dense)], s_dense)

    @pytest.mark.parametrize("n_row", [0, 3])
    def test_cut_must_leave_legs_on_both_sides(self, rng, n_row):
        with pytest.raises(ValueError, match="both sides"):
            block_svd(make_random_three_leg(rng), n_row, TruncationPolicy(None, 0.0))

    def test_cut_must_fall_on_the_first_or_last_bond(self, rng):
        phys = ChargeIndex.occupation(2)
        blocks = {
            (0, i, j, i + j): rng.normal(size=(1, 1, 1, 1)) for i in range(2) for j in range(2)
        }
        legs = (ChargeIndex.trivial(), phys, phys, ChargeIndex.occupation(3))
        four = SymmetricTensor(legs, blocks)
        with pytest.raises(ValueError, match="first or the last bond"):
            block_svd(four, 2, TruncationPolicy(None, 0.0))
        for n_row in (1, 3):
            left, values, right, _, _ = block_svd(four, n_row, TruncationPolicy(None, 0.0))
            rebuilt = contract(scale_axis(left, n_row, values), right)
            assert np.max(np.abs(rebuilt.densify() - four.densify())) < 1e-12

    def test_normalized_spectrum(self, rng):
        t = make_random_three_leg(rng)
        _, values, _, kept, discarded = block_svd(t, 2, TruncationPolicy(4, 0.0))
        # values come back unnormalized; kept_norm is their 2-norm
        assert abs(np.sum(descending(values) ** 2) - kept**2) < 1e-12
        assert abs(kept**2 + discarded**2 - t.norm() ** 2) < 1e-10

    def test_kept_values_dominate_discarded(self, rng):
        t = make_random_three_leg(rng)
        all_vals = descending(block_svd(t, 2, TruncationPolicy(None, 0.0))[1])
        cut = descending(block_svd(t, 2, TruncationPolicy(3, 0.0))[1])
        assert cut.min() >= all_vals[3:].max() - 1e-14

    def test_zero_tensor_raises(self):
        ix = ChargeIndex(((0, 2),))
        t = SymmetricTensor((ix, ix), {(0, 0): np.zeros((2, 2))})
        with pytest.raises(ZeroNormError, match="zero norm"):
            block_svd(t, 1, TruncationPolicy(2, 0.0))

    def test_inconsistent_grading_raises(self, rng):
        ix = ChargeIndex(((0, 2), (1, 2)))
        t = SymmetricTensor((ix, ix), {(0, 1): rng.normal(size=(2, 2))})
        with pytest.raises(ChargeMismatchError, match="charge mismatch"):
            block_svd(t, 1, TruncationPolicy(2, 0.0))

    def test_deterministic_under_thread_count(self, rng, monkeypatch):
        t = make_random_three_leg(rng)
        left1, values1, _, _, _ = block_svd(t, 2, TruncationPolicy(5, 0.0))
        monkeypatch.setenv("MPODYN_THREADS", "4")
        left2, values2, _, _, _ = block_svd(t, 2, TruncationPolicy(5, 0.0))
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
    left = SymmetricTensor(t.indices[:n_row] + (bond,), left_blocks)
    right = SymmetricTensor((bond,) + t.indices[n_row:], right_blocks)
    return left, values, right, kept_norm, discarded_norm


def _assert_same_split(got, want):
    for a, b in ((got[0], want[0]), (got[2], want[2])):
        assert a.indices == b.indices
        assert list(a.blocks) == list(b.blocks)
        for key in a.blocks:
            assert np.array_equal(a.blocks[key], b.blocks[key])
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
    last = SymmetricTensor((left, phys, ChargeIndex(((1, 2),))), rows)
    # cut at the first bond: columns (p, r) with r = p stacked side by side
    right = ChargeIndex(((0, 1), (1, 1), (2, 1)))
    cols = {
        (0, 0, 0): [[[1]], [[0]]],
        (0, 1, 1): [[[0]], [[2]]],
        (0, 2, 2): [[[0]], [[0]]],
    }
    first = SymmetricTensor((ChargeIndex(((0, 2),)), phys, right), cols)
    return [(last, 2), (first, 1)]


def test_block_svd_matches_zero_filled_assembly_bit_for_bit(rng):
    policies = [TruncationPolicy(None, 0.0), TruncationPolicy(3, 0.0), TruncationPolicy(None, 0.5)]
    cases = []
    for _ in range(20):
        three = make_random_three_leg(rng)
        cases += [(three, 1), (three, 2), (make_random_two_leg(rng, three.indices[2]), 1)]
    for t, n_row in cases:
        for policy in policies:
            _assert_same_split(
                block_svd(t, n_row, policy), _block_svd_by_zero_filled_assembly(t, n_row, policy)
            )


def test_block_svd_drops_an_exactly_zero_factor_block():
    exact = TruncationPolicy(None, 0.0)
    for t, n_row in _zero_block_links():
        left, values, right, kept, discarded = got = block_svd(t, n_row, exact)
        _assert_same_split(got, _block_svd_by_zero_filled_assembly(t, n_row, exact))
        assert np.array_equal(descending(values), [2.0, 1.0])
        # the stored zero block leaves no block in the stacked factor
        if n_row == 2:
            assert [key[:2] for key in left.blocks] == [(0, 2), (1, 1)]
        else:
            assert [key[1:] for key in right.blocks] == [(0, 0), (1, 1)]
        rebuilt = contract(scale_axis(left, n_row, values), right)
        assert np.array_equal(rebuilt.densify(), t.densify())
