"""Block-sparse chain tensors graded by a single additive U(1) charge.

Every block tensor is one link of a chain: its legs are bond-in, the
physical legs, bond-out, each carrying a :class:`ChargeIndex` (ordered
charge sectors).  A dense block may be nonzero only when

    charge(last leg) == sum(charges of the other legs)

so a bond charge counts the charge accumulated from the left end of the
chain.  All other entries are exactly zero and never stored.  Blocks are
complex double precision, row-major.

``contract`` is the chain product (last leg of one tensor against the
first leg of the next).  ``block_svd`` cuts a tensor after its first
``n_row`` legs and decomposes it charge block by charge block; the new
bond charge is the sum of the row charges ("particles to the left of the
cut"), so both factors are chain tensors again.  Its SVD-and-truncate
step, ``truncated_split``, is shared with the two-site gate kernel in
``mps_core``.

A bond spectrum is a plain ``dict`` mapping bond charge to that sector's
descending singular values.  Which values survive a cut is decided only
by ``global_truncation``: descending value, ties kept lowest charge
first, then in sector order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

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
        out, acc = [], 0
        for _, dim in self.sectors:
            out.append(acc)
            acc += dim
        return tuple(out)

    def position(self, charge: int) -> int:
        for pos, (q, _) in enumerate(self.sectors):
            if q == charge:
                return pos
        raise KeyError(f"no sector with charge {charge}")


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

    def _conserves(self, key: tuple[int, ...]) -> bool:
        *rest, last = (ix.charges[pos] for ix, pos in zip(self.indices, key))
        return sum(rest) == last

    def validate(self) -> None:
        """Check shapes and the charge selection rule for every stored block."""
        for key, blk in self.blocks.items():
            if len(key) != self.ndim:
                raise ChargeMismatchError("charge mismatch")
            want = tuple(ix.dims[pos] for ix, pos in zip(self.indices, key))
            if blk.shape != want:
                raise ChargeMismatchError(
                    f"block {key} has shape {blk.shape}, sectors require {want}"
                )
            if not self._conserves(key):
                raise ChargeMismatchError("charge mismatch")

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

    ``chi_max=None`` means no cap.
    """

    chi_max: int | None = None
    singular_value_floor: float = 0.0

    def __post_init__(self):
        if self.chi_max is not None and self.chi_max < 1:
            raise ValueError("chi_max must be >= 1")
        if self.singular_value_floor < 0:
            raise ValueError("singular_value_floor must be >= 0")


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


def _cut(mat: np.ndarray, blocks: list, axis: int):
    """Split ``mat`` along ``axis`` into ``blocks`` (``(key, dims)`` in order).

    Yields ``(key, piece)`` with the piece's ``axis`` unfolded to ``dims``;
    all-zero pieces are skipped.
    """
    sizes = [math.prod(dims) for _, dims in blocks]
    starts = np.cumsum([0] + sizes[:-1])
    nonzero = np.logical_or.reduceat(mat.any(axis=1 - axis), starts)
    for (key, dims), start, size, keep in zip(blocks, starts, sizes, nonzero):
        if keep:
            if axis == 0:
                yield key, mat[start : start + size].reshape(dims + mat.shape[1:])
            else:
                yield key, mat[:, start : start + size].reshape(mat.shape[:1] + dims)


def truncated_split(sectors: dict[int, np.ndarray], policy: TruncationPolicy):
    """Blockwise truncated SVD of sector matrices.

    ``sectors`` maps each new bond charge ``q`` to its matrix.  Each
    charge's matrix is decomposed independently (in parallel over
    ``MPODYN_THREADS`` threads), and :func:`global_truncation` picks the
    kept values.  Which row and column blocks a matrix stacks is the
    caller's business; the factors come back bare.

    Returns the new bond index, the kept (unnormalized) values per charge,
    the kept ``U[:, :k]`` and ``V^dagger[:k]`` of each kept charge in bond
    order, the kept 2-norm and the discarded 2-norm.
    """

    def _decompose(q: int):
        return q, _svd_dense(sectors[q])

    qs = sorted(sectors)
    nthreads = int(os.environ.get(THREADS_ENV, "1") or "1")
    if nthreads > 1 and len(qs) > 1:
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


def block_svd(
    t: SymmetricTensor,
    n_row: int,
    policy: TruncationPolicy,
) -> tuple[SymmetricTensor, dict[int, np.ndarray], SymmetricTensor, float, float]:
    """Truncated SVD of ``t`` cut after its first ``n_row`` legs.

    The first ``n_row`` legs are the matrix rows, the rest the columns.
    Each charge block of that matrix is decomposed independently by
    :func:`truncated_split`; the kept values are the globally largest
    ``min(chi_max, available)`` across all blocks, chosen by
    :func:`global_truncation`.  Returns ``(left, values, right, kept_norm,
    discarded_norm)``: ``values`` maps each new bond charge to its kept
    (unnormalized) singular values, so ``left @ diag(values) @ right`` is
    the truncated input.
    """
    if not 0 < n_row < t.ndim:
        raise ValueError("the cut must leave legs on both sides")

    if not t.blocks or all(not np.any(blk) for blk in t.blocks.values()):
        raise ZeroNormError("zero norm")

    # each block sits in the matrix of its row charge, rows and columns laid
    # out block by block in sorted key order
    groups: dict[int, tuple[dict, dict, list]] = {}
    for key in sorted(t.blocks):
        if not t._conserves(key):
            raise ChargeMismatchError("charge mismatch")
        rk, ck = key[:n_row], key[n_row:]
        q = sum(ix.charges[p] for ix, p in zip(t.indices, rk))
        block = t.blocks[key]
        rows, cols, parts = groups.setdefault(q, ({}, {}, []))
        rows[rk], cols[ck] = block.shape[:n_row], block.shape[n_row:]
        parts.append((rk, ck, block))

    def _layout(shapes: dict) -> tuple[list, dict, int]:
        order, start, acc = sorted(shapes.items()), {}, 0
        for key, dims in order:
            start[key] = acc
            acc += math.prod(dims)
        return order, start, acc

    sectors, orders = {}, {}
    for q, (rows, cols, parts) in groups.items():
        row_order, row_start, nrows = _layout(rows)
        col_order, col_start, ncols = _layout(cols)
        mat = np.zeros((nrows, ncols), dtype=np.complex128)
        for rk, ck, block in parts:
            r0, c0 = row_start[rk], col_start[ck]
            nr, nc = math.prod(block.shape[:n_row]), math.prod(block.shape[n_row:])
            mat[r0 : r0 + nr, c0 : c0 + nc] = block.reshape(nr, nc)
        sectors[q], orders[q] = mat, (row_order, col_order)

    bond, values, us, vhs, kept_norm, discarded_norm = truncated_split(sectors, policy)
    left_blocks: dict[tuple[int, ...], np.ndarray] = {}
    right_blocks: dict[tuple[int, ...], np.ndarray] = {}
    for pos, (q, u, vh) in enumerate(zip(bond.charges, us, vhs)):
        rows, cols = orders[q]
        for rk, part in _cut(u, rows, 0):
            left_blocks[rk + (pos,)] = part
        for ck, part in _cut(vh, cols, 1):
            right_blocks[(pos,) + ck] = part
    left = SymmetricTensor(t.indices[:n_row] + (bond,), left_blocks)
    right = SymmetricTensor((bond,) + t.indices[n_row:], right_blocks)
    return left, values, right, kept_norm, discarded_norm
