"""Block-sparse chain tensors graded by a single additive U(1) charge.

Every block tensor is one link of a chain: its legs are bond-in, the
physical legs, bond-out, each carrying a :class:`ChargeIndex` (ordered
charge sectors).  A dense block may be nonzero only when

    charge(last leg) == sum(charges of the other legs)

so a bond charge counts the charge accumulated from the left end of the
chain.  All other entries are exactly zero and never stored.  Blocks are
complex double precision, kept as given when they already are: a block
view of stored sector matrices is a (possibly strided) view of them.

Block tensors are how chains are written down; the algorithms work on
:class:`SectorMatrices`, the one sector-matrix form of a (bond-in,
physical, bond-out) link: one dense matrix per sector of a bond leg.
``block_svd`` cuts a link at either bond leg by splitting those matrices;
the new bond charge is the sum of the row charges ("particles to the left
of the cut"), so the stacked factor is a link again and the other factor
is one bare matrix per kept charge.  ``contract`` multiplies such matrices
into a link at a bond leg (the chain product) and ``scale_axis`` weights
a bond leg's slices by a spectrum.  The SVD-and-truncate step,
``truncated_split``, and the zero-block cut, ``drop_zero_blocks``, are
shared with the two-site gate kernel in ``mps_core``, which stores every
site as ``SectorMatrices``.

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


def group_by_charge(q: np.ndarray, size: np.ndarray, charges: np.ndarray | None = None):
    """Lay items of charges ``q`` and sizes ``size`` out one group per charge, ascending,
    in their given order inside a group: the layout of every fused leg, whose items are
    its sector pairs in sorted order, each spanning (i1, i2) in C order.  The groups are
    the distinct ``q``, or the ascending ``charges`` when given (each ``q`` among them; a
    group may then be empty).  Returns the group charges, each group's total size, and
    each item's group and offset in it."""
    if charges is None:
        charges, group = np.unique(q, return_inverse=True)
    else:
        group = charges.searchsorted(q)
    totals = np.bincount(group, size, len(charges)).astype(np.intp)
    # a stable sort by group keeps the given order inside each group
    order = group.argsort(kind="stable")
    offset = np.empty(len(group), dtype=np.intp)
    offset[order] = starts(size[order]) - starts(totals)[group[order]]
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
            key: np.asarray(blk, dtype=np.complex128)
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
    site: SectorMatrices,
    axis: int,
    sector_values: dict[int, np.ndarray],
    inverse: bool = False,
) -> SectorMatrices:
    """Multiply (or divide) the slices of link ``site`` along bond leg ``axis`` (0 or 2)
    by per-sector weights, charge -> one weight per state of that sector.

    The result is in the left-factor layout, where every block is one run
    of (a, i, b) entries.
    """
    if axis not in (0, 2):
        raise ValueError("scale_axis weights a bond leg, 0 or 2")
    ix = site.indices[axis]
    w = np.concatenate([np.asarray(sector_values[q], dtype=np.float64) for q in ix.charges])
    offsets = np.array(ix.offsets, dtype=np.intp)
    site = site.on_leg(2)
    (dl, dp, dr), (l, p, r) = site._dims(), site.keys
    if axis == 0:  # row a of block j is dp * dr entries
        blk, a = ragged(dl[l])
        weight = w[offsets[l][blk] + a].repeat((dp[p] * dr[r])[blk])
    else:  # every (a, i) row of block j runs over its dr states b
        row = np.arange(len(l)).repeat(dl[l] * dp[p])
        length = dr[r][row]
        weight = w[run_positions(offsets[r][row] - starts(length), length)]
    flat = site.flat / weight if inverse else site.flat * weight
    return SectorMatrices(site.indices, site.leg, site.keys, flat)


def contract(site: SectorMatrices, leg: int, bond: ChargeIndex, mats) -> SectorMatrices:
    """Chain product of link ``site`` and one matrix per sector of ``bond`` at bond leg ``leg``.

    ``mats[b]`` joins the leg's sector of charge ``bond.charges[b]`` to
    sector b of ``bond``: it is (k_b, n) on the bond-in leg (``leg == 0``,
    the factor on the left) and (n, k_b) on the bond-out leg (``leg == 2``,
    on the right).  One matmul per sector of ``bond``; the blocks of a
    sector whose charge ``bond`` lacks are dropped.  The result has
    ``bond`` on ``leg`` and the layout of ``leg``.
    """
    ix = site.indices[leg]
    if len(mats) != bond.nsectors or not set(bond.charges) <= set(ix.charges):
        raise ChargeMismatchError("charge mismatch")
    site = site.on_leg(leg)
    own = {ix.charges[c]: mat for c, mat in site.matrices()}
    new = np.full(ix.nsectors, -1, dtype=np.intp)
    products = []
    for b, (q, mat) in enumerate(zip(bond.charges, mats)):
        if q in own:
            new[ix.position(q)] = b
            products.append(mat @ own[q] if leg == 0 else own[q] @ mat)
    keys = site.keys[:, new[site.keys[leg]] >= 0]
    keys[leg] = new[keys[leg]]
    flat = np.concatenate([x.reshape(-1) for x in products] or [np.zeros(0, complex)])
    indices = (bond,) + site.indices[1:] if leg == 0 else site.indices[:2] + (bond,)
    return SectorMatrices(indices, leg, keys, flat)


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
    sector = np.arange(len(qs)).repeat(sizes)
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
    return float(x.cumsum()[-1]) if len(x) else 0.0


def _svd_dense(mat: np.ndarray):
    try:
        return np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd can fail to converge on rare inputs; gesvd is slower but robust
        from scipy.linalg import svd as scipy_svd

        return scipy_svd(mat, full_matrices=False, lapack_driver="gesvd")


@lru_cache(maxsize=None)
def _thread_count(raw: str) -> int:
    """``MPODYN_THREADS`` as a positive integer, parsed once per distinct value."""
    if not (raw.strip().isdecimal() and int(raw) > 0):
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


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
    nthreads = _thread_count(os.environ.get(THREADS_ENV) or "1")
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
    """The stacked factor of a split, less its dropped and all-zero blocks, as one flat array.

    ``mats`` are one left factor (``leg == 2``, blocks as rows, such as the
    kept ``U[:, :k]``) or one right factor (``leg == 0``, blocks as
    columns, such as ``V^dagger[:k]``) per charge of the new ``bond``, in
    bond order.  Block j of the split's sector matrices has charge
    ``charges[j]``, key ``keys[:, j]`` ((l, p) or (p, r)) and ``sizes[j]``
    rows (columns); blocks are grouped by ascending charge.  The whole
    factor is tested at once: a ``reduceat`` over the rows of a left
    factor, a scatter of the nonzero entries of a right factor onto
    columns.  Returns the cut matrices as one :class:`SectorMatrices`
    ``flat`` and the (l, p, r) key of every block it stacks, with bond
    positions on the bond leg.
    """
    kept_charges = np.array(bond.charges)
    pos = kept_charges.searchsorted(charges)
    kept = kept_charges.take(pos, mode="clip") == charges
    given = kept.repeat(sizes)
    lines = given.nonzero()[0]  # the given line of each stacked one
    pos, keys, sizes = pos[kept], keys[:, kept], sizes[kept]
    shapes = np.array([mat.shape for mat in mats], dtype=np.intp)
    flat = np.concatenate(mats, axis=None)
    nonzero = flat != 0
    if leg == 2:  # a row of a left factor is one run of entries
        length = shapes[:, 1].repeat(shapes[:, 0])
        line = lines.repeat(length)
        hit = np.logical_or.reduceat(nonzero, starts(length))
    else:  # a column of a right factor is one entry in every row of its matrix
        line = run_positions(*row_runs(shapes, lines[starts(shapes[:, 1])]))
        hit = np.zeros(len(given), dtype=bool)
        hit[line[nonzero]] = True
        hit = hit[lines]
    keep = np.logical_or.reduceat(hit, starts(sizes))
    if not keep.all():
        given[lines] = keep.repeat(sizes)
        flat = flat[given[line]]
        keys, pos = keys[:, keep], pos[keep]
    return flat, np.vstack((keys, pos) if leg == 2 else (pos, keys))


def block_svd(
    site: SectorMatrices, leg: int, policy: TruncationPolicy
) -> tuple[SectorMatrices, dict[int, np.ndarray], list[np.ndarray], float, float]:
    """Truncated SVD of the chain link ``site`` cut at bond leg ``leg`` (0 or 2).

    The link's :class:`SectorMatrices` on that leg are split by
    :func:`truncated_split` and the stacked factor is cut by
    :func:`drop_zero_blocks`.  Returns ``(factor, values, other,
    kept_norm, discarded_norm)``: ``factor`` is the stacked ``U`` (leg 2,
    the link's legs (l, p) and the new bond) or ``V^dagger`` (leg 0, the
    new bond and (p, r)) as ``SectorMatrices`` in the layout of ``leg``;
    ``other`` is the bond-side factor, one bare ``V^dagger[:k]`` or
    ``U[:, :k]`` per charge of the new bond, which joins the cut sector of
    that charge to it.  ``values`` maps each new bond charge to its kept
    (unnormalized) singular values.
    """
    if leg not in (0, 2):
        raise ValueError("the cut must fall on a bond leg, 0 or 2")
    site = site.on_leg(leg)
    if not site.flat.any():
        raise ZeroNormError("zero norm")
    cut_ix = site.indices[leg]
    sectors = {cut_ix.charges[c]: mat for c, mat in site.matrices()}
    bond, values, us, vhs, kept_norm, discarded_norm = truncated_split(sectors, policy)

    (dl, dp, dr), (l, p, r) = site._dims(), site.keys
    two, sizes = (site.keys[:2], dl[l] * dp[p]) if leg == 2 else (site.keys[1:], dp[p] * dr[r])
    charges = np.array(cut_ix.charges)[site.keys[leg]]
    flat, keys = drop_zero_blocks(us if leg == 2 else vhs, leg, charges, two, sizes, bond)
    indices = site.indices[:2] + (bond,) if leg == 2 else (bond,) + site.indices[1:]
    factor = SectorMatrices(indices, leg, keys, flat)
    return factor, values, vhs if leg == 2 else us, kept_norm, discarded_norm


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

    def matrices(self) -> list[tuple[int, np.ndarray]]:
        """(sector, matrix) of every sector matrix, in order."""
        (dl, dp, dr), (l, p, r) = self._dims(), self.keys
        sec, stacked, other = (r, dl[l] * dp[p], dr) if self.leg == 2 else (l, dp[p] * dr[r], dl)
        count = np.bincount(sec, stacked, len(other)).astype(np.intp)
        out, at = [], 0
        for c in np.flatnonzero(count).tolist():
            n, o = int(count[c]), int(other[c])
            out.append((c, self.flat[at : at + n * o].reshape((n, o) if self.leg == 2 else (o, n))))
            at += n * o
        return out

    def relayout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Block keys in the other layout and the runs that gather ``flat`` into it.

        Structure only: entry j of the other layout's ``flat`` is
        ``flat[j + shift[k]]``, j in run k (see :func:`run_positions`).  The
        (i, b) entries of one bond-in row a of a block form a run, contiguous
        in both layouts.  Returns ``(keys, shift, length)``.
        """
        (dl, dp, dr), (l, p, r) = self._dims(), self.keys
        keys2 = self.keys if self.leg == 2 else self.keys[:, np.lexsort((p, l, r))]
        l, p, r = keys2  # left-factor order; ``to0`` puts blocks in right-factor order
        to0 = np.lexsort((r, p, l))
        width = dp[p] * dr[r]
        ncols = np.bincount(l, width, len(dl)).astype(np.intp)
        col_at = np.empty_like(width)
        col_at[to0] = starts(width[to0]) - starts(ncols)[l[to0]]
        blk, a = ragged(dl[l])
        lb, length = l[blk], width[blk]
        # each run's start in the right-factor and in the left-factor flat
        start, first = starts(dl * ncols)[lb] + a * ncols[lb] + col_at[blk], starts(length)
        if self.leg == 0:
            return keys2, start - first, length
        order = start.argsort()
        return keys2[:, to0], (first - start)[order], length[order]

    def on_leg(self, leg: int) -> "SectorMatrices":
        """The same link in the layout of ``leg``, made by one index-array permutation."""
        if leg == self.leg:
            return self
        keys, shift, length = self.relayout()
        return SectorMatrices(self.indices, leg, keys, self.flat[run_positions(shift, length)])

    def tensor(self) -> SymmetricTensor:
        """Block view: the tensor :meth:`from_tensor` converted, else the
        blocks in layout order, row slices of the matrices in the
        left-factor layout and column slices in the other, every one a
        view of ``flat``."""
        if self._tensor is None:
            dl, dp, dr = (ix.dims for ix in self.indices)
            mats = dict(self.matrices())
            at, blocks = dict.fromkeys(mats, 0), {}
            for l, p, r in self.keys.T.tolist():
                c, n = (r, dl[l] * dp[p]) if self.leg == 2 else (l, dp[p] * dr[r])
                part = mats[c][at[c] : at[c] + n] if self.leg == 2 else mats[c][:, at[c] : at[c] + n]
                blocks[(l, p, r)] = part.reshape(dl[l], dp[p], dr[r])
                at[c] += n
            self._tensor = SymmetricTensor(self.indices, blocks)
        return self._tensor


def row_runs(shapes: np.ndarray, base) -> tuple[np.ndarray, np.ndarray]:
    """Runs (shift, length) that give ``base[j]`` plus the column for every entry of
    matrices of ``shapes`` laid end to end, each in C order, one run per row of
    matrix j (see :func:`run_positions`)."""
    row_of = np.arange(len(shapes)).repeat(shapes[:, 0])
    length = shapes[row_of, 1]
    return base[row_of] - starts(length), length


def run_positions(shift: np.ndarray, length: np.ndarray) -> np.ndarray:
    """``shift[k] + j`` for every entry j of runs of ``length`` laid end to end."""
    pos = shift.repeat(length)
    pos += np.arange(len(pos))
    return pos


def ragged(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner and offset within it of every entry of blocks of ``sizes`` laid end to end."""
    owner = np.arange(len(sizes)).repeat(sizes)
    return owner, np.arange(len(owner)) - starts(sizes)[owner]


def starts(sizes: np.ndarray) -> np.ndarray:
    """Where each of blocks of ``sizes`` laid end to end starts."""
    return sizes.cumsum() - sizes
