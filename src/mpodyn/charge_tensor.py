"""Block-sparse chain tensors graded by a single additive U(1) charge.

Every block tensor is one link of a chain: its legs are bond-in, the
physical legs, bond-out, each carrying a :class:`ChargeIndex` (ordered
charge sectors).  A dense block may be nonzero only when

    charge(last leg) == sum(charges of the other legs)

so a bond charge counts the charge accumulated from the left end of the
chain.  All other entries are exactly zero and never stored.  Blocks are
complex double precision, row-major.

``contract`` is the chain product (last leg of one tensor against the
first leg of the next).  :class:`SectorMatrices` is the one sector-matrix
form of a (bond-in, physical, bond-out) link: one dense matrix per sector
of a bond leg.  ``block_svd`` cuts a link at either bond leg by splitting
those matrices; the new bond charge is the sum of the row charges
("particles to the left of the cut"), so both factors are chain tensors
again.  Its SVD-and-truncate step, ``truncated_split``, and its zero-block
cut, ``drop_zero_blocks``, are shared with the two-site gate kernel in
``mps_core``, which stores every site as ``SectorMatrices``.

A bond spectrum is a plain ``dict`` mapping bond charge to that sector's
descending singular values.  Which values survive a cut is decided only
by ``global_truncation``: descending value, ties kept lowest charge
first, then in sector order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

THREADS_ENV = "MPODYN_THREADS"


class ChargeMismatchError(ValueError):
    """Charge structures of the operands are incompatible."""


class ZeroNormError(ValueError):
    """The operation requires a tensor with nonzero norm."""


@dataclass(frozen=True)
class ChargeIndex:
    """Ordered list of (charge, dimension) sectors labelling one tensor leg."""

    sectors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        charges = [q for q, _ in self.sectors]
        if any(b <= a for a, b in zip(charges, charges[1:])):
            raise ChargeMismatchError("sector charges must be strictly increasing")
        if any(dim < 1 for _, dim in self.sectors):
            raise ValueError("sector dimensions must be >= 1")

    @classmethod
    def occupation(cls, d: int) -> "ChargeIndex":
        """Physical leg of a site with occupations 0..d-1, one state per charge."""
        return cls(tuple((j, 1) for j in range(d)))

    @classmethod
    def trivial(cls, charge: int = 0) -> "ChargeIndex":
        return cls(((charge, 1),))

    @cached_property
    def charges(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.sectors)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.sectors)

    @cached_property
    def dim(self) -> int:
        return sum(self.dims)

    @property
    def nsectors(self) -> int:
        return len(self.sectors)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Dense offset of each sector when the leg is laid out sector by sector."""
        return tuple(accumulate(self.dims, initial=0))[:-1]

    def position(self, charge: int) -> int:
        if charge not in self.charges:
            raise KeyError(f"no sector with charge {charge}")
        return self.charges.index(charge)


def group_by_charge(q: np.ndarray, size: np.ndarray):
    """Lay items of charges ``q`` and sizes ``size`` out one group per charge, ascending,
    in their given order inside a group: the layout of every fused leg, whose items are
    its sector pairs in sorted order, each spanning (i1, i2) in C order.  Returns the
    group charges, each group's total size, and each item's group and offset in it."""
    charges, group = np.unique(q, return_inverse=True)
    totals = np.bincount(group, size, len(charges)).astype(np.intp)
    # a stable sort by group keeps the given order inside each group
    order = np.argsort(group, kind="stable")
    offset = np.empty(len(group), dtype=np.intp)
    offset[order] = np.cumsum(size[order]) - size[order] - (np.cumsum(totals) - totals)[group[order]]
    return charges, totals, group, offset


@lru_cache(maxsize=None)
def pair_bands(index: ChargeIndex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bands of the two-site space of leg ``index``, one per pair charge q1 + q2.

    Returns the band charges, ascending; each band's dimension; and the
    (nsectors, nsectors) offset of every sector pair (s1, s2) in its band's
    basis (:func:`group_by_charge`).  Cached per leg, so the arrays are
    shared: never write them.
    """
    q, d = np.array(index.charges, dtype=np.int64), np.array(index.dims, dtype=np.intp)
    charges, dims, _, offsets = group_by_charge(np.add.outer(q, q).ravel(), np.outer(d, d).ravel())
    return charges, dims, offsets.reshape(len(q), len(q))


@dataclass
class SymmetricTensor:
    """Charge-conserving block-sparse chain tensor.

    ``blocks`` maps per-leg sector positions to dense complex arrays whose
    shape matches the selected sector dimensions; a stored block's last-leg
    charge is the sum of its other legs' charges.  Tensors are treated as
    immutable values after construction.
    """

    indices: tuple[ChargeIndex, ...]
    blocks: dict[tuple[int, ...], np.ndarray]

    def __post_init__(self):
        self.indices = tuple(self.indices)
        self.blocks = {
            key: np.ascontiguousarray(np.asarray(blk, dtype=np.complex128))
            for key, blk in self.blocks.items()
        }

    @property
    def ndim(self) -> int:
        return len(self.indices)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ix.dim for ix in self.indices)

    def validate(self) -> None:
        """Check shapes and the charge selection rule for every stored block."""
        checked_keys(self.indices, list(self.blocks), [blk.shape for blk in self.blocks.values()])

    def scale(self, factor: complex) -> "SymmetricTensor":
        return SymmetricTensor(self.indices, {k: blk * factor for k, blk in self.blocks.items()})

    def norm(self) -> float:
        return float(
            np.sqrt(sum(np.sum(np.abs(blk) ** 2) for blk in self.blocks.values()))
        )

    def densify(self) -> np.ndarray:
        """Dense array with every leg laid out sector by sector (charge ascending)."""
        out = np.zeros(self.shape, dtype=np.complex128)
        offs = [ix.offsets for ix in self.indices]
        for key, blk in self.blocks.items():
            sl = tuple(
                slice(offs[a][pos], offs[a][pos] + self.indices[a].dims[pos])
                for a, pos in enumerate(key)
            )
            out[sl] = blk
        return out


def checked_keys(indices, keys, shapes) -> np.ndarray:
    """Per-leg sector positions of blocks, as an (ndim, nblocks) array.

    Raises unless every block has one position per leg, the shape its
    sectors select, and a last-leg charge equal to the sum of the other
    legs' charges.
    """
    n = len(indices)
    if any(len(key) != n for key in keys):
        raise ChargeMismatchError("charge mismatch")
    pos = np.array(keys, dtype=np.intp).reshape(len(keys), n).T
    want = zip(*(np.array(ix.dims)[p].tolist() for ix, p in zip(indices, pos)))
    if list(shapes) != list(want):
        raise ChargeMismatchError("block shapes do not match the sector dimensions")
    *rest, last = (np.array(ix.charges)[p] for ix, p in zip(indices, pos))
    if np.any(sum(rest) != last):
        raise ChargeMismatchError("charge mismatch")
    return pos


def scale_axis(
    t: SymmetricTensor,
    axis: int,
    sector_values: dict[int, np.ndarray],
    inverse: bool = False,
) -> SymmetricTensor:
    """Multiply (or divide) block slices along ``axis`` by per-sector weights."""
    index = t.indices[axis]
    blocks = {}
    for key, blk in t.blocks.items():
        q = index.charges[key[axis]]
        vec = np.asarray(sector_values[q], dtype=np.float64)
        shape = [1] * t.ndim
        shape[axis] = len(vec)
        w = vec.reshape(shape)
        blocks[key] = blk / w if inverse else blk * w
    return SymmetricTensor(t.indices, blocks)


def contract(a: SymmetricTensor, b: SymmetricTensor) -> SymmetricTensor:
    """Chain product: the last leg of ``a`` summed against the first leg of ``b``.

    The two legs must carry identical sector lists.  The result has the
    other legs of ``a``, then the other legs of ``b``.
    """
    if a.indices[-1].sectors != b.indices[0].sectors:
        raise ChargeMismatchError("charge mismatch")

    by_first: dict[int, list[tuple[int, ...]]] = {}
    for kb in b.blocks:
        by_first.setdefault(kb[0], []).append(kb)

    axis = a.ndim - 1
    out_blocks: dict[tuple[int, ...], np.ndarray] = {}
    for ka in sorted(a.blocks):
        partners = by_first.get(ka[-1])
        if not partners:
            continue
        blk_a = a.blocks[ka]
        for kb in sorted(partners):
            res = np.tensordot(blk_a, b.blocks[kb], axes=([axis], [0]))
            key = ka[:-1] + kb[1:]
            if key in out_blocks:
                out_blocks[key] = out_blocks[key] + res
            else:
                out_blocks[key] = res

    return SymmetricTensor(a.indices[:-1] + b.indices[1:], out_blocks)


@dataclass(frozen=True)
class TruncationPolicy:
    """Bond truncation budget: hard cap on kept values plus an absolute floor.

    ``chi_max=None`` means no cap, else an integer >= 1; the floor is finite and >= 0.
    """

    chi_max: int | None = None
    singular_value_floor: float = 0.0

    def __post_init__(self):
        chi, floor = self.chi_max, self.singular_value_floor
        if chi is not None and (isinstance(chi, bool) or not isinstance(chi, (int, np.integer)) or chi < 1):
            raise ValueError(f"chi_max must be None or an integer >= 1, got {chi!r}")
        if not 0 <= floor < np.inf:  # also false for nan
            raise ValueError(f"singular_value_floor must be finite and >= 0, got {floor!r}")


def global_truncation(
    values_by_q: dict[int, np.ndarray], policy: TruncationPolicy
) -> tuple[dict[int, int], float, float]:
    """Pick the globally largest singular values across charge blocks.

    Values tied at the cutoff are kept lowest charge first, then by
    in-sector order, so the result is deterministic.  Returns kept counts
    per charge, the kept 2-norm, and the discarded 2-norm.
    """
    if not values_by_q:
        raise ZeroNormError("zero norm after truncation")
    qs = sorted(values_by_q)
    sizes = [len(values_by_q[q]) for q in qs]
    values = np.concatenate([values_by_q[q] for q in qs]).astype(np.float64, copy=False)
    sector = np.repeat(np.arange(len(qs)), sizes)
    # values are laid out by charge, then position, so the index ranks (charge, position)
    order = np.lexsort((np.arange(len(values)), -values))

    floor = policy.singular_value_floor
    n_above = int(np.count_nonzero((values >= floor) & (values > 0.0)))
    n_keep = n_above if policy.chi_max is None else min(policy.chi_max, n_above)
    squares = values[order] ** 2
    # sequential sums, as ``sum`` adds them, so the norms keep their bits
    kept_norm = float(np.sqrt(_running_sum(squares[:n_keep])))
    discarded_norm = float(np.sqrt(_running_sum(squares[n_keep:])))
    if n_keep == 0 or kept_norm == 0.0:
        raise ZeroNormError("zero norm after truncation")

    # values descend within a sector and ties are kept in sector order, so
    # each sector keeps a prefix: its kept count is that prefix's length
    counts = np.bincount(sector[order[:n_keep]], minlength=len(qs)).tolist()
    return {q: n for q, n in zip(qs, counts) if n}, kept_norm, discarded_norm


def _running_sum(x: np.ndarray) -> float:
    return float(np.cumsum(x)[-1]) if len(x) else 0.0


def _svd_dense(mat: np.ndarray):
    try:
        return np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd can fail to converge on rare inputs; gesvd is slower but robust
        from scipy.linalg import svd as scipy_svd

        return scipy_svd(mat, full_matrices=False, lapack_driver="gesvd")


def truncated_split(sectors: dict[int, np.ndarray], policy: TruncationPolicy):
    """Blockwise truncated SVD of sector matrices.

    ``sectors`` maps each new bond charge ``q`` to its matrix.  Each
    charge's matrix is decomposed independently (in parallel over
    ``MPODYN_THREADS`` threads: a positive integer, 1 when unset or
    empty), and :func:`global_truncation` picks the kept values.  Which
    row and column blocks a matrix stacks is the caller's business; the
    factors come back bare.

    Returns the new bond index, the kept (unnormalized) values per charge,
    the kept ``U[:, :k]`` and ``V^dagger[:k]`` of each kept charge in bond
    order, the kept 2-norm and the discarded 2-norm.
    """

    def _decompose(q: int):
        return q, _svd_dense(sectors[q])

    qs = sorted(sectors)
    raw = os.environ.get(THREADS_ENV) or "1"
    if not (raw.strip().isdecimal() and int(raw) > 0):
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    nthreads = int(raw)
    if nthreads > 1 and len(qs) > 1:
        from concurrent.futures import ThreadPoolExecutor  # the pool loads only when used

        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            svds = dict(pool.map(_decompose, qs))
    else:
        svds = dict(map(_decompose, qs))

    keep_count, kept_norm, discarded_norm = global_truncation(
        {q: svds[q][1] for q in qs}, policy
    )

    kept_charges = sorted(keep_count)
    bond = ChargeIndex(tuple((q, keep_count[q]) for q in kept_charges))
    values, us, vhs = {}, [], []
    for q in kept_charges:
        u, s, vh = svds[q]
        k = keep_count[q]
        values[q] = s[:k]
        us.append(u[:, :k])
        vhs.append(vh[:k])
    return bond, values, us, vhs, kept_norm, discarded_norm


def drop_zero_blocks(mats, leg: int, charges, keys, sizes, bond: ChargeIndex):
    """The stacked factor of a split, less its dropped and all-zero blocks.

    ``mats`` are the kept ``U[:, :k]`` (``leg == 2``, blocks as rows) or
    ``V^dagger[:k]`` (``leg == 0``, blocks as columns) of each charge of the
    new ``bond``, in bond order.  Block j of the split's sector matrices has
    charge ``charges[j]``, key ``keys[:, j]`` ((l, p) or (p, r)) and
    ``sizes[j]`` rows (columns); blocks are grouped by ascending charge.
    Returns the cut matrices and the (l, p, r) key of every block they
    stack, with bond positions on the bond leg.
    """
    axis = 0 if leg == 2 else 1
    kept_charges = np.array(bond.charges)
    pos = np.searchsorted(kept_charges, charges)
    kept = kept_charges.take(pos, mode="clip") == charges
    pos, keys, sizes = pos[kept], keys[:, kept], sizes[kept]
    nonzero = np.concatenate([mat.any(axis=1 - axis) for mat in mats])
    keep = np.logical_or.reduceat(nonzero, np.cumsum(sizes) - sizes)
    if not keep.all():
        lines = np.repeat(keep, sizes)
        ends = np.cumsum([mat.shape[axis] for mat in mats])
        mats = [
            np.compress(lines[end - mat.shape[axis] : end], mat, axis=axis)
            for mat, end in zip(mats, ends.tolist())
        ]
        keys, pos = keys[:, keep], pos[keep]
    return mats, np.vstack((keys, pos) if leg == 2 else (pos, keys))


def block_svd(
    t: SymmetricTensor,
    n_row: int,
    policy: TruncationPolicy,
) -> tuple[SymmetricTensor, dict[int, np.ndarray], SymmetricTensor, float, float]:
    """Truncated SVD of the chain link ``t`` (bond-in, physical, bond-out) cut at a bond.

    ``n_row`` is 1 (the cut falls on the bond-in leg) or 2 (the bond-out
    leg).  The link's :class:`SectorMatrices` on that leg are split by
    :func:`truncated_split` and the stacked factor is cut by
    :func:`drop_zero_blocks`; the bond-side factor has orthonormal columns
    (rows), so it is one block per kept charge.  Returns ``(left, values,
    right, kept_norm, discarded_norm)``: ``values`` maps each new bond
    charge to its kept (unnormalized) singular values, so ``left @
    diag(values) @ right`` is the truncated input.
    """
    if t.ndim != 3:
        raise ValueError("block_svd cuts (bond-in, physical, bond-out) links only")
    if n_row not in (1, 2):
        raise ValueError("the cut must leave legs on both sides")
    leg = 2 if n_row == 2 else 0
    site = SectorMatrices.from_tensor(t).on_leg(leg)
    if not site.flat.any():
        raise ZeroNormError("zero norm")
    cut_ix = t.indices[leg]
    sectors = {cut_ix.charges[c]: mat for c, _, mat in site.matrices()}
    bond, values, us, vhs, kept_norm, discarded_norm = truncated_split(sectors, policy)

    (dl, dp, dr), (l, p, r) = site._dims(), site.keys
    two, sizes = (site.keys[:2], dl[l] * dp[p]) if leg == 2 else (site.keys[1:], dp[p] * dr[r])
    charges = np.array(cut_ix.charges)[site.keys[leg]]
    mats, keys = drop_zero_blocks(us if leg == 2 else vhs, leg, charges, two, sizes, bond)
    indices = t.indices[:2] + (bond,) if leg == 2 else (bond,) + t.indices[1:]
    flat = np.concatenate([mat.reshape(-1) for mat in mats])
    stacked = SectorMatrices(indices, leg, keys, flat).tensor()
    sec = [cut_ix.position(q) for q in bond.charges]
    if leg == 2:
        right = SymmetricTensor((bond, cut_ix), {(b, s): vh for b, (s, vh) in enumerate(zip(sec, vhs))})
        return stacked, values, right, kept_norm, discarded_norm
    left = SymmetricTensor((cut_ix, bond), {(s, b): u for b, (s, u) in enumerate(zip(sec, us))})
    return left, values, stacked, kept_norm, discarded_norm


class SectorMatrices:
    """One chain link (l, p, r) stored as one dense matrix per sector of a bond leg.

    ``leg == 2`` is the left-factor layout, that of ``U``: one matrix per
    bond-out sector r, its rows the (l, p) blocks in sorted order, each
    block's rows (a, i) in C order.  ``leg == 0`` is the right-factor
    layout, that of ``V^dagger``: one matrix per bond-in sector l, its
    columns the (p, r) blocks in sorted order, each block's columns (i, b)
    in C order.  The matrices follow one another in ``flat`` by sector,
    each in C order, and ``keys`` is the (l, p, r) of every block in that
    order.  Nothing is written after construction, so copies of a state
    share these objects; the block view is built at most once.
    """

    __slots__ = ("indices", "leg", "keys", "flat", "_tensor")

    def __init__(self, indices, leg: int, keys: np.ndarray, flat: np.ndarray):
        self.indices, self.leg, self.keys, self.flat = tuple(indices), leg, keys, flat
        self._tensor: SymmetricTensor | None = None

    @classmethod
    def from_tensor(cls, t: SymmetricTensor) -> "SectorMatrices":
        """Left-factor layout of a block tensor's stored blocks.

        Every block's shape and charge rule are checked.  The block view
        is ``t`` itself.
        """
        if t.ndim != 3:
            raise ValueError("a chain link has legs (bond-in, physical, bond-out)")
        order = sorted(t.blocks, key=lambda k: (k[2], k[0], k[1]))
        keys = checked_keys(t.indices, order, [t.blocks[k].shape for k in order])
        flat = np.concatenate([t.blocks[k].reshape(-1) for k in order] or [np.zeros(0, complex)])
        site = cls(t.indices, 2, keys, flat)
        site._tensor = t
        return site

    def _dims(self) -> list[np.ndarray]:
        return [np.array(ix.dims, dtype=np.intp) for ix in self.indices]

    def matrices(self) -> list[tuple[int, int, np.ndarray]]:
        """(sector, first stacked row or column, matrix) of every sector matrix.

        Stacked rows (left-factor layout) or columns (right-factor layout)
        are counted across all matrices in order.
        """
        return [
            (c, first, self.flat[at : at + shape[0] * shape[1]].reshape(shape))
            for c, first, at, shape in sector_shapes(self.keys, self.leg, self._dims())
        ]

    def relayout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Block keys in the other layout and the runs that gather ``flat`` into it.

        Structure only: entry j of the other layout's ``flat`` is
        ``flat[j + shift[k]]``, j in run k (see :func:`run_positions`).
        Returns ``(keys, shift, length)``.
        """
        l, p, r = self.keys
        keys2 = self.keys if self.leg == 2 else self.keys[:, np.lexsort((p, l, r))]
        to0, start, length = _right_layout_runs(keys2, *self._dims())
        first = np.cumsum(length) - length  # each run's start in the left-factor flat
        if self.leg == 0:
            return keys2, start - first, length
        order = np.argsort(start)
        return keys2[:, to0], (first - start)[order], length[order]

    def on_leg(self, leg: int) -> "SectorMatrices":
        """The same link in the layout of ``leg``, made by one index-array permutation."""
        if leg == self.leg:
            return self
        keys, shift, length = self.relayout()
        return SectorMatrices(self.indices, leg, keys, self.flat[run_positions(shift, length)])

    def tensor(self) -> SymmetricTensor:
        """Block view: the tensor :meth:`from_tensor` converted, else the
        blocks in layout order, row slices of the matrices (views of
        ``flat``) in the left-factor layout and column slices in the other."""
        if self._tensor is None:
            dl, dp, dr = (ix.dims for ix in self.indices)
            mats = {c: mat for c, _, mat in self.matrices()}
            at, blocks = dict.fromkeys(mats, 0), {}
            for l, p, r in self.keys.T.tolist():
                c, n = (r, dl[l] * dp[p]) if self.leg == 2 else (l, dp[p] * dr[r])
                part = mats[c][at[c] : at[c] + n] if self.leg == 2 else mats[c][:, at[c] : at[c] + n]
                blocks[(l, p, r)] = part.reshape(dl[l], dp[p], dr[r])
                at[c] += n
            self._tensor = SymmetricTensor(self.indices, blocks)
        return self._tensor


def sector_shapes(keys: np.ndarray, leg: int, dims) -> list[tuple[int, int, int, tuple[int, int]]]:
    """(sector, first stacked row or column, first entry, shape) of every sector matrix.

    ``keys`` are the (l, p, r) blocks of a link in the layout of ``leg``
    (see :class:`SectorMatrices`) and ``dims`` its legs' sector dimensions.
    """
    dl, dp, dr = dims
    l, p, r = keys
    if leg == 2:
        sec, stacked, other = r, dl[l] * dp[p], dr
    else:
        sec, stacked, other = l, dp[p] * dr[r], dl
    count = np.bincount(sec, stacked, len(other)).astype(np.intp)
    out, at, first = [], 0, 0
    for c in np.flatnonzero(count).tolist():
        n, o = int(count[c]), int(other[c])
        out.append((c, first, at, (n, o) if leg == 2 else (o, n)))
        at += n * o
        first += n
    return out


def _right_layout_runs(keys2: np.ndarray, dl, dp, dr) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-factor block order and where the runs of a left-factor ``flat`` go in it.

    ``keys2`` is the (l, p, r) of every block in left-factor order.  The b
    entries of one row (a, i) of a block form a run, contiguous in both
    layouts.  Returns the permutation of blocks into right-factor order
    and, per run in left-factor order, its start in the right-factor
    ``flat`` and its length.
    """
    l, p, r = keys2
    to0 = np.lexsort((r, p, l))
    width = dp[p] * dr[r]
    ncols = np.bincount(l, width, len(dl)).astype(np.intp)
    col_at = np.empty_like(width)
    col_at[to0] = np.cumsum(width[to0]) - width[to0] - (np.cumsum(ncols) - ncols)[l[to0]]
    sec_at = np.cumsum(dl * ncols) - dl * ncols
    blk, row = ragged(dl[l] * dp[p])
    a, i = np.divmod(row, dp[p][blk])
    lb, run_len = l[blk], dr[r][blk]
    return to0, sec_at[lb] + a * ncols[lb] + col_at[blk] + i * run_len, run_len


def run_positions(shift: np.ndarray, length: np.ndarray) -> np.ndarray:
    """``shift[k] + j`` for every entry j of runs of ``length`` laid end to end."""
    pos = np.repeat(shift, length)
    pos += np.arange(len(pos))
    return pos


def ragged(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner and offset within it of every entry of blocks of ``sizes`` laid end to end."""
    owner = np.repeat(np.arange(len(sizes)), sizes)
    return owner, np.arange(len(owner)) - (np.cumsum(sizes) - sizes)[owner]
