"""Right-canonical matrix product states over charge-graded sites.

A state of L sites is a chain of site tensors with legs (bond-in,
physical, bond-out) plus per-interior-bond singular value vectors grouped
by bond charge.  Each site is stored as B_m = Gamma_m lambda_m, the Vidal
Gamma with its right bond's values multiplied in (lambda_L = 1), so every
B is right-isometric, the chain product of the stored sites is the state,
and every reader uses a site as stored; only this module moves the gauge
(Hastings, arXiv:0903.3253).  Bond charges count accumulated physical
charge from the left, so the leftmost bond is a trivial charge-0 sector
and the rightmost carries the total charge of a charge-definite state;
``CanonicalMps.total_charge`` reads it from there and is not stored.

Every site is one immutable ``charge_tensor.SectorMatrices``, the one
chain-link type.  :func:`product_mps` and :func:`load_mps` build their
sites with ``SectorMatrices.from_blocks``, which checks and copies the
blocks; a gate stores the matrices its split produced, in the left-factor
(``U``) layout for site m and the right-factor (``V^dagger``) layout for
site m+1, and makes the other layout by one index-array permutation when
it needs it; :func:`canonicalize` takes and returns sector matrices.
``CanonicalMps.sites`` are the stored sites; composition, observers and
``save_mps`` read their block views (``SectorMatrices.blocks``), built
once per site from its matrices.

Nothing writes a stored block, matrix or spectrum array after
construction, so ``CanonicalMps.copy`` copies the site list and the
spectrum dicts and shares the arrays (and the gate plans, below).

Bond spectra are plain dicts, bond charge -> descending values (see
``charge_tensor``); which values a cut keeps is decided only by
``charge_tensor.global_truncation``.  Every bond-dimension-1 chain (Fock
states, product operators) is built by :func:`product_mps`.

Two-site gates are ``models.BondGate`` objects, applied by one kernel for
every conservation mode, :meth:`CanonicalMps.apply_two_site_gate`.  It
works on matrices only: one matmul per centre bond sector builds the
two-site amplitudes, one matmul per gate band (two-site charge) applies
the gate, and index arrays move the amplitudes between the layouts.
Those index arrays are one gate plan (``_GatePlan``), built from the two
sites' charge structure alone, band rows and columns both laid out by
``charge_tensor.group_by_charge``, and holding only integers, positions
stored per run of contiguous entries.  Its key is what it is built from,
both sites' indices, layout and block keys, not the gate; each bond keeps
its last two plans on the state, most recent first, so a gate whose bond
looks as it did one or two gates ago only moves values.  The kernel and
:func:`canonicalize` (through ``block_svd``, on sector matrices) share
``charge_tensor.truncated_split`` for the sector SVDs and the truncation
and ``charge_tensor.drop_zero_blocks`` for the zero-block cut, which tests
a whole stacked factor at once and returns it as one flat array.  In B
form the gated amplitudes theta~ = g B_m B_{m+1} need no spectrum; the
split takes theta = lambda_{m-1} theta~, its rows weighted once.  Site m+1
is ``V^dagger`` untouched and site m is theta~ V / nu, one matmul per kept
charge and a divide by the scalar kept norm: a gate divides by no bond value.

Open boundaries only: the outer bonds are one-dimensional.  Singular
values below ``LAMBDA_FLOOR`` are dropped outright, in the gate kernel
only as a noise floor; :func:`canonicalize` normalizes every carry of its
right-to-left sweep, so the floor applies to values of order one there
too.  The last division by singular values is the restore in
:func:`canonicalize`; it stays while the benchmark requires its
``restore`` layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .charge_tensor import (
    ChargeIndex,
    ChargeMismatchError,
    SectorMatrices,
    TruncationPolicy,
    ZeroNormError,
    block_svd,
    contract,
    drop_zero_blocks,
    group_by_charge,
    pair_bands,
    ragged,
    run_positions,
    scale_axis,
    starts,
    truncated_split,
)

LAMBDA_FLOOR = 1e-14


@dataclass
class TruncationRecord:
    """Bookkeeping for a single two-site update: post-truncation norm and loss."""

    bond: int
    nu: float
    discarded_weight: float
    chi_used: int


class CanonicalMps:
    """Right-canonical MPS: sites B = Gamma lambda plus charge-labelled bond spectra.

    ``lambdas[m-1]`` holds the singular values of interior bond ``m``
    (1-based, between sites m and m+1) as a mapping charge -> descending
    values; the grouping matches the sector order of the adjacent bond
    legs.  ``sites[m-1]`` is site m as stored, one immutable
    ``SectorMatrices`` (see the module docstring); a gate replaces site
    objects and never writes one.
    """

    def __init__(self, sites: list[SectorMatrices], lambdas: list[dict[int, np.ndarray]]):
        if len(lambdas) != len(sites) - 1:
            raise ValueError("need exactly one singular vector per interior bond")
        self.sites = list(sites)
        self.lambdas = [
            {int(q): np.asarray(v, dtype=np.float64) for q, v in lam.items()}
            for lam in lambdas
        ]
        self._plans: list[list[tuple[tuple, _GatePlan]]] = [[] for _ in self.lambdas]

    @property
    def L(self) -> int:
        return len(self.sites)

    @property
    def phys_indices(self) -> list[ChargeIndex]:
        return [site.indices[1] for site in self.sites]

    @property
    def site_dims(self) -> list[int]:
        return [ix.dim for ix in self.phys_indices]

    @property
    def total_charge(self) -> int | None:
        """Charge of the right outer bond when it has one sector, else ``None``."""
        right = self.bond_index(self.L)
        return right.charges[0] if right.nsectors == 1 else None

    def bond_index(self, m: int) -> ChargeIndex:
        """ChargeIndex of bond m (0..L); outer bonds are one-dimensional."""
        if m == 0:
            return self.sites[0].indices[0]
        return self.sites[m - 1].indices[2]

    def _bond_values(self, m: int) -> np.ndarray:
        """Bond m's values, all sectors in bond order; ones on the outer bonds."""
        if m == 0 or m == self.L:
            return np.ones(self.bond_dimension(m))
        return np.concatenate([self.lambdas[m - 1][q] for q in self.bond_index(m).charges])

    def bond_dimension(self, m: int) -> int:
        return self.bond_index(m).dim

    def max_bond_dimension(self) -> int:
        return max(self.bond_dimension(m) for m in range(self.L + 1))

    def copy(self) -> "CanonicalMps":
        """Independent state sharing the immutable sites, spectrum arrays and gate plans.

        A bond's plan list is replaced, never changed, so the copy and
        the original keep their plans apart from here on.
        """
        out = CanonicalMps.__new__(CanonicalMps)
        out.sites = list(self.sites)
        out.lambdas = [dict(lam) for lam in self.lambdas]
        out._plans = list(self._plans)
        return out

    # -- spectra and entropies ------------------------------------------------

    def schmidt_spectrum(self, m: int) -> dict[int, np.ndarray]:
        """Copy of the Schmidt values across interior bond m (1..L-1), by charge."""
        if not 1 <= m <= self.L - 1:
            raise ValueError("bond out of range")
        return {q: v.copy() for q, v in self.lambdas[m - 1].items()}

    def entanglement_entropy(self, m: int) -> float:
        return von_neumann_entropy(self.schmidt_spectrum(m))

    def entropy_profile(self) -> list[float]:
        return [self.entanglement_entropy(m) for m in range(1, self.L)]

    # -- gate application -----------------------------------------------------

    def apply_two_site_gate(self, m, gate, policy: TruncationPolicy) -> TruncationRecord:
        """Apply a charge-conserving ``BondGate`` at bond m (1..L-1), in place.

        Works on sector matrices only, and moves them with the index arrays
        of the bond's gate plan (:meth:`_gate_plan`).  Site m is taken in
        the left-factor layout and site m+1 in the right-factor layout; for
        each centre sector c their matrices give every amplitude through c
        in one matmul.  The products are scattered into one matrix per gate
        band q (``BondGate.band_table``): rows are the band's fused pair
        basis, columns every (l, r) pair of bond charge difference q.  The
        band block acts on it with one matmul.  The gated amplitudes theta~
        are then gathered into one matrix per new bond charge, all-zero
        (l, p1) rows and (p2, r) columns left out, and their rows weighted
        by the left bond's values give the theta that ``truncated_split``
        splits.  Site m+1 is the kept ``V^dagger`` as it is, and site m is
        theta~ V / nu, so no bond value is divided out; both lose their
        all-zero blocks.  The state is renormalized; the returned record
        carries the pre-normalization kept norm ``nu`` and the discarded
        weight.
        """
        if not 1 <= m <= self.L - 1:
            raise ValueError("bond out of range")
        s1, s2 = self.sites[m - 1], self.sites[m]
        (lix, phys1, _), (_, phys2, rix) = s1.indices, s2.indices
        if gate.index.sectors != phys1.sectors or gate.index.sectors != phys2.sectors:
            raise ChargeMismatchError("charge mismatch")
        plan = self._gate_plan(m, s1, s2)

        f1, f2 = (
            s.flat if move is None else s.flat[run_positions(*move)] for s, move in zip((s1, s2), plan.moves)
        )
        flat = np.zeros(plan.size, dtype=np.complex128)
        pos = run_positions(*plan.scatter)
        at = 0
        for a0, nr, k, b0, nc in plan.centres:
            a, b = f1[a0 : a0 + nr * k].reshape(nr, k), f2[b0 : b0 + k * nc].reshape(k, nc)
            flat[pos[at : at + nr * nc]] = (a @ b).reshape(-1)
            at += nr * nc
        # each stage's buffers go before the next one allocates
        del pos, f1, f2
        gated = plan.apply_bands(flat, gate.band_table())
        del flat
        sectors, tildes, row_blocks, col_blocks = plan.gather(gated, self._bond_values(m - 1))
        del gated

        floor = max(policy.singular_value_floor, LAMBDA_FLOOR)
        try:
            bond, values, _, vhs, kept_norm, discarded_norm = truncated_split(
                sectors, TruncationPolicy(policy.chi_max, floor)
            )
        except ZeroNormError as exc:
            raise ZeroNormError("state annihilated") from exc

        self.sites[m - 1] = _factor_site((lix, phys1, bond), tildes, vhs, row_blocks, kept_norm)
        # B_{m+1} = V^dagger, as cut
        charge, keys, dims = col_blocks
        flat, keys = drop_zero_blocks(vhs, 0, charge, keys, dims.prod(axis=0), bond)
        self.sites[m] = SectorMatrices((bond, phys2, rix), 0, keys, flat)
        self.lambdas[m - 1] = {q: v / kept_norm for q, v in values.items()}
        return TruncationRecord(
            bond=m,
            nu=kept_norm,
            discarded_weight=discarded_norm,
            chi_used=bond.dim,
        )

    def _gate_plan(self, m: int, s1: SectorMatrices, s2: SectorMatrices) -> "_GatePlan":
        """Bond m's plan for the structure of sites ``s1`` and ``s2``.

        The key is both sites' indices, layout and block keys, all that
        :class:`_GatePlan` reads.  A bond keeps its last two plans, most
        recent first; on a miss the plan is built and the older one goes.
        """
        key = tuple(x for s in (s1, s2) for x in (s.indices, s.leg, s.keys.tobytes()))
        plans = self._plans[m - 1]
        plan = next((p for k, p in plans if k == key), None)
        if plan is None:
            plan = _GatePlan(s1, s2)
        self._plans[m - 1] = [(key, plan)] + [e for e in plans if e[0] != key][:1]
        return plan

    # -- dense views -----------------------------------------------------------

    def to_statevector(self) -> np.ndarray:
        """Dense state with site 1 as the fastest-varying index."""
        if int(np.prod(self.site_dims)) > 2**22:
            raise ValueError("state too large to densify")
        return dense_chain(site.densify() for site in self.sites)

    def assert_canonical(self, atol: float = 1e-8) -> None:
        """Verify bond normalization, B B^dagger = 1 at every site, and the left
        condition sum lambda_{m-1}^2 B^dagger B = diag(lambda_m^2); nothing is divided."""
        for m in range(1, self.L):
            total = sum(np.sum(v**2) for v in self.lambdas[m - 1].values())
            if abs(total - 1.0) > 1e-10:
                raise AssertionError(f"bond {m}: sum lambda^2 = {total}")
        for m, site in enumerate(self.sites, start=1):
            b = site.densify()
            if not np.allclose(np.einsum("akc,bkc->ab", b, b.conj()), np.eye(b.shape[0]), atol=atol):
                raise AssertionError(f"site {m}: right orthogonality violated")
            left_env = np.einsum("a,akb,akc->bc", self._bond_values(m - 1) ** 2, b.conj(), b)
            if not np.allclose(left_env, np.diag(self._bond_values(m) ** 2), atol=atol):
                raise AssertionError(f"site {m}: left orthogonality violated")


def _factor_site(indices, tildes: dict, vhs, rows, nu: float) -> SectorMatrices:
    """Site m of a gate, B_m = theta~ V / nu = lambda_{m-1}^-1 U S / nu, no value divided:
    ``tildes`` and ``rows`` (the row blocks) are what ``_GatePlan.gather`` returns,
    ``vhs`` the kept ``V^dagger[:k]`` in the order of the new bond ``indices[2]`` and
    ``nu`` the kept norm.  Each product is cut by ``drop_zero_blocks`` as ``block_svd`` cuts.
    """
    charge, keys, dims = rows
    mats = [tildes[q] @ vh.conj().T for q, vh in zip(indices[2].charges, vhs)]
    flat, keys = drop_zero_blocks(mats, 2, charge, keys, dims.prod(axis=0), indices[2])
    flat /= nu
    return SectorMatrices(indices, 2, keys, flat)


class _GatePlan:
    """Index arrays of a gate update at one bond structure; the kernel moves values only.

    Built from the two sites' charge structure alone, never from
    amplitudes, spectra or gates, and holds only integers, so every gate at
    a bond with this structure shares it.

    Band q's matrix has the rows (p1, p2, i1, i2) of its
    ``charge_tensor.pair_bands`` basis and the columns (l, r, a, b) of every
    joined (l, r) pair with ``charge(r) - charge(l) == q``, pairs laid out by
    ``charge_tensor.group_by_charge``.  The band matrices follow one another
    in one flat buffer of ``size`` entries, then ``pad`` zeros that stand in
    for amplitudes of (l, r) pairs no band holds.

    - ``moves``: for a site not stored in the layout the kernel reads
      (left-factor for site m, right-factor for site m+1), the runs of
      :meth:`SectorMatrices.relayout`, else ``None``;
    - ``centres``: per centre bond sector, the first entry and the rows and
      columns of site m's matrix, then the first entry and columns of site
      m+1's (its rows are site m's columns);
    - ``scatter``: the runs (shift, length) that put the centre products
      into the band buffer;
    - ``bands``: each band's charge, start, dimension and column count; the
      gate's matrices are read per call;
    - ``lines``: for every row of the gathered matrices its block and the
      position of its left bond value, which :meth:`gather` multiplies in;
    - the rest: what :meth:`positions` and :meth:`gather` read.
    """

    __slots__ = ("moves", "centres", "scatter", "bands", "size", "pad", "dl", "dp", "dr",
                 "colstart", "base", "ncols", "charges", "rows", "cols", "row_dims", "col_dims", "runs",
                 "lines")

    def __init__(self, s1: SectorMatrices, s2: SectorMatrices):
        (lix, phys, cix), (_, _, rix) = s1.indices, s2.indices
        moved = [None if s.leg == leg else s.relayout() for s, leg in ((s1, 2), (s2, 0))]
        k1, k2 = (s.keys if r is None else r[0] for s, r in zip((s1, s2), moved))
        self.moves = [None if r is None else r[1:] for r in moved]
        dl, dp, dc, dr = (ix.dim_array for ix in (lix, phys, cix, rix))
        self.dl, self.dp, self.dr = dl, dp, dr
        ql, qp, qr = (ix.charge_array for ix in (lix, phys, rix))
        # centre sector c: site m's matrix is n1[c] x dc[c], site m+1's dc[c] x n2[c]
        n1 = np.bincount(k1[2], dl[k1[0]] * dp[k1[1]], len(dc)).astype(np.intp)
        n2 = np.bincount(k2[0], dp[k2[1]] * dr[k2[2]], len(dc)).astype(np.intp)
        at1, at2 = starts(n1 * dc), starts(n2 * dc)
        centres = (n1 * n2).nonzero()[0]
        self.centres = list(zip(*(x[centres].tolist() for x in (at1, n1, dc, at2, n2))))
        # (sector, l, p1) of every row block and (sector, p2, r) of every column block
        sector_of = np.full(len(dc), -1, dtype=np.intp)
        sector_of[centres] = np.arange(len(centres))
        lk = k1[:, sector_of[k1[2]] >= 0]
        rk = k2[:, sector_of[k2[0]] >= 0]
        rows = np.array((sector_of[lk[2]], lk[0], lk[1]))
        cols = np.array((sector_of[rk[0]], rk[1], rk[2]))

        # the (l, r) pairs joined through some centre sector are the band columns
        left_of = np.zeros((len(dl), len(centres)), dtype=np.intp)
        left_of[rows[1], rows[0]] = 1
        right_of = np.zeros((len(centres), len(dr)), dtype=np.intp)
        right_of[cols[0], cols[2]] = 1
        joined = left_of @ right_of > 0
        pl, pr = joined.nonzero()
        charges, dims, pair_at = pair_bands(phys)
        band = charges.searchsorted(np.add.outer(qp, qp))
        # a band no joined pair reaches gets no columns
        _, ncols, _, colstart = group_by_charge(qr[pr] - ql[pl], dl[pl] * dr[pr], charges)
        self.colstart = np.full(joined.shape, -1, dtype=np.intp)
        self.colstart[pl, pr] = colstart
        room = dims * ncols
        start = starts(room)
        self.base, self.ncols = start[band] + pair_at * ncols[band], ncols[band]
        used = ncols.nonzero()[0]
        self.bands = list(zip(*(x[used].tolist() for x in (charges, start, dims, ncols))))
        self.size, self.pad = int(room.sum()), int(dr.max())

        # gather: every (l, p1) row and (p2, r) column of a joined l or r, by new bond charge
        lsel = joined.any(axis=1).nonzero()[0]
        rsel = joined.any(axis=0).nonzero()[0]
        row_q = (ql[lsel, None] + qp).ravel()  # (l, p1) in sorted order
        col_q = (qr[rsel] - qp[:, None]).ravel()  # (p2, r) in sorted order
        self.charges, (order, at), (corder, cat) = _by_common_charge(row_q, col_q)
        row_l, row_p = np.divmod(order, len(qp))
        self.rows = np.array((at, lsel[row_l], row_p))
        col_p, col_r = np.divmod(corder, len(rsel))
        self.cols = np.array((cat, col_p, rsel[col_r]))
        self.row_dims = np.array((dl[self.rows[1]], dp[self.rows[2]]))
        self.col_dims = np.array((dp[self.cols[1]], dr[self.cols[2]]))
        # one positions call for the centre products (scatter) and the gathered
        # matrices, which follow them as sectors len(centres) onwards
        nc, nrb, ncb, later = len(centres), rows.shape[1], cols.shape[1], [[len(centres)], [0], [0]]
        (shift, rb, cb, run_len), (rblk, a) = self.positions(
            np.hstack((rows, self.rows + later)), np.hstack((cols, self.cols + later)), nc + len(self.charges)
        )
        n = rb.searchsorted(nrb)  # the scatter's runs come first
        self.scatter, run_len = (shift[:n], run_len[:n]), run_len[n:]
        # a gathered entry's position counts from the first gathered entry
        self.runs = (shift[n:] + self.scatter[1].sum(), run_len, rb[n:] - nrb, cb[n:] - ncb, starts(run_len))
        # the block of every gathered row and the position of its left bond value
        r0 = rblk.searchsorted(nrb)
        rblk, a = rblk[r0:] - nrb, a[r0:]
        self.lines = rblk, lix.offset_array[self.rows[1]][rblk] + a

    def positions(self, rows, cols, nsectors: int):
        """Buffer positions of every entry of a list of sector matrices, by run.

        ``rows`` is (sector, l, p1) per row block and ``cols`` is
        (sector, p2, r) per column block, each in layout order; a row block
        spans (a, i1) in C order and a column block (i2, b).  Sector
        matrices follow one another, each in C order.  The b columns of one
        (row, column block, i2) form a run that is contiguous in both
        layouts.  Returns, per run, its shift (see
        ``charge_tensor.run_positions``), row block, column block and length;
        and per row, its block and a.
        """
        rsec, rl, rp = rows
        csec, cp, cr = cols
        rsize = self.dl[rl] * self.dp[rp]
        rblk, rin = ragged(rsize)
        a, i1 = np.divmod(rin, self.dp[rp][rblk])
        sblk, i2 = ragged(self.dp[cp])  # one column segment per (column block, i2)
        slen = self.dr[cr][sblk]
        nrows = np.bincount(rsec, rsize, nsectors).astype(np.intp)
        ncols = np.bincount(csec, self.dp[cp] * self.dr[cr], nsectors).astype(np.intp)
        nsegs = np.bincount(csec, self.dp[cp], nsectors).astype(np.intp)
        row_first, col_first, seg_first = starts(nrows), starts(ncols), starts(nsegs)
        entry_first = starts(nrows * ncols)
        # where each row and each segment starts inside its sector matrix
        row_sec = rsec[rblk]
        row_at = entry_first[row_sec] + (np.arange(len(rblk)) - row_first[row_sec]) * ncols[row_sec]
        seg_at = starts(slen) - col_first[csec[sblk]]

        run_sec, run_at = ragged(nrows * nsegs)
        run_row, run_seg = np.divmod(run_at, nsegs[run_sec])
        run_row += row_first[run_sec]
        run_seg += seg_first[run_sec]
        rb, cb = rblk[run_row], sblk[run_seg]
        p1, p2 = rp[rb], cp[cb]
        start = self.colstart[rl[rb], cr[cb]]
        band_at = self.base[p1, p2] + self.ncols[p1, p2] * (i1[run_row] * self.dp[p2] + i2[run_seg])
        band_at += start + a[run_row] * slen[run_seg]
        band_at[start < 0] = self.size
        run_len = slen[run_seg]
        return (band_at - row_at[run_row] - seg_at[run_seg], rb, cb, run_len), (rblk, a)

    def apply_bands(self, flat: np.ndarray, bands) -> np.ndarray:
        """Each band block of ``flat`` times its matrix in ``bands``
        (``BondGate.band_table``), followed by ``pad`` zeros."""
        out = np.empty(self.size + self.pad, dtype=np.complex128)
        out[self.size :] = 0.0
        for q, start, dim, nc in self.bands:
            stop = start + dim * nc
            block = flat[start:stop].reshape(dim, nc)
            np.matmul(bands[q], block, out=out[start:stop].reshape(dim, nc))
        return out

    def gather(self, gated: np.ndarray, left: np.ndarray):
        """``truncated_split`` sectors of the gated amplitudes, by new bond charge.

        ``left`` holds the left bond's values, all sectors in bond order.
        Returns two dicts charge -> matrix, theta (the rows weighted by
        their left values, what the split takes) and theta~ (the gated
        amplitudes as they are), then the row blocks and the column blocks
        of all matrices as ``(charge, keys, dims)``: block j of a matrix
        stacks the (l, p1) rows or (p2, r) columns ``keys[:, j]`` of
        dimensions ``dims[:, j]``.  Blocks are grouped by ascending charge
        and sorted within a matrix; a row or column block whose amplitudes
        are all zero is left out.
        """
        shift, run_len, rb, cb, run_first = self.runs
        values = gated[run_positions(shift, run_len)]
        hit = np.logical_or.reduceat(values != 0, run_first)
        row_hit = np.bincount(rb[hit], minlength=self.rows.shape[1]) > 0
        col_hit = np.bincount(cb[hit], minlength=self.cols.shape[1]) > 0
        if not (row_hit.all() and col_hit.all()):
            values = values[(row_hit[rb] & col_hit[cb]).repeat(run_len)]

        rows, row_dims = self.rows[:, row_hit], self.row_dims[:, row_hit]
        cols, col_dims = self.cols[:, col_hit], self.col_dims[:, col_hit]
        n = len(self.charges)
        nrows = np.bincount(rows[0], row_dims.prod(axis=0), n).astype(np.intp)
        ncols = np.bincount(cols[0], col_dims.prod(axis=0), n).astype(np.intp)
        # theta = lambda_{m-1} theta~: every kept row times its left value
        row_blk, row_outer = self.lines
        kept = row_hit[row_blk]
        weighted = values * left[row_outer[kept]].repeat(ncols[self.rows[0, row_blk[kept]]])
        sectors, tildes, at = {}, {}, 0
        for q, nr, nc in zip(self.charges.tolist(), nrows.tolist(), ncols.tolist()):
            if nr:
                sectors[q] = weighted[at : at + nr * nc].reshape(nr, nc)
                tildes[q] = values[at : at + nr * nc].reshape(nr, nc)
                at += nr * nc
        row_blocks = (self.charges[rows[0]], rows[1:], row_dims)
        return sectors, tildes, row_blocks, (self.charges[cols[0]], cols[1:], col_dims)


def _by_common_charge(row_q: np.ndarray, col_q: np.ndarray):
    """The charges both ``row_q`` and ``col_q`` hold, ascending, and for each array its
    entries of those charges, grouped by charge with their order kept inside a group,
    with the position of each one's charge."""
    lo = min(row_q.min(), col_q.min())
    row_q, col_q = row_q - lo, col_q - lo
    n = max(row_q.max(), col_q.max()) + 1
    common = (np.bincount(row_q, minlength=n) > 0) & (np.bincount(col_q, minlength=n) > 0)
    at = common.cumsum() - 1
    out = [common.nonzero()[0] + lo]
    for q in (row_q, col_q):
        order = q.argsort(kind="stable")
        order = order[common[q[order]]]
        out.append((order, at[q[order]]))
    return out


def dense_chain(site_tensors) -> np.ndarray:
    """Vector of a chain of dense (chi_l, D, chi_r) site tensors; site 1 fastest."""
    vec = np.ones((1, 1), dtype=np.complex128)
    for t in site_tensors:
        # vec: (prefix, chi); the new index varies slower than the prefix
        vec = np.einsum("pa,akb->kpb", vec, t).reshape(-1, t.shape[2])
    return vec[:, 0]


def von_neumann_entropy(values: dict[int, np.ndarray]) -> float:
    """Entropy in bits of the squared values of a bond spectrum."""
    p = np.concatenate([values[q] ** 2 for q in sorted(values)])
    p = p[p > 0]
    return max(0.0, float(-np.sum(p * np.log2(p))))


def product_mps(phys: ChargeIndex, sites: list[tuple[int, np.ndarray]]) -> CanonicalMps:
    """Bond-dimension-1 chain; each site is (physical charge, amplitude vector).

    A site's amplitudes fill the physical sector of that charge, and the
    charge is added to the bond on its right.  Bonds are trivial and carry
    unit Schmidt values.
    """
    gammas, lambdas, acc = [], [], 0
    for q, amps in sites:
        left, right = ChargeIndex.trivial(acc), ChargeIndex.trivial(acc + q)
        acc += q
        blk = np.reshape(amps, (1, -1, 1))
        gammas.append(SectorMatrices.from_blocks((left, phys, right), {(0, phys.position(q), 0): blk}))
        lambdas.append({acc: np.array([1.0])})
    return CanonicalMps(gammas, lambdas[:-1])


def from_fock(occupations: list[int], d: int) -> CanonicalMps:
    """Product (Fock) state; bond dimension one everywhere."""
    occupations = [int(j) for j in occupations]
    if any(j < 0 or j >= d for j in occupations):
        raise ValueError("local dimension exceeded")
    return product_mps(ChargeIndex.occupation(d), [(j, np.ones(1)) for j in occupations])


def canonicalize(links: list[SectorMatrices]) -> tuple[CanonicalMps, float]:
    """Bring an arbitrary (bond-in, phys, bond-out) chain to right-canonical form.

    The sweeps work on the links' sector matrices as they are:
    ``block_svd`` cuts a link, ``contract`` multiplies the bond-side factor
    into its neighbour and ``scale_axis`` weights a site, and the sites go
    to ``CanonicalMps`` as they are.  No cap on the bond dimension; values
    below ``LAMBDA_FLOOR`` are dropped.  Returns the canonical state and
    the norm of the input chain.  Raises ``ZeroNormError`` if the chain
    represents the zero vector.
    """
    exact = TruncationPolicy(None, LAMBDA_FLOOR)
    sites = list(links)
    L = len(sites)

    # right-to-left sweep: make sites 2..L right-isometric; each carry is divided
    # by its kept norm, so the floor never meets the scale of the chain's tail
    scale = 1.0
    for m in range(L - 1, 0, -1):
        sites[m], values, us, kept_norm, _ = block_svd(sites[m], 0, exact)
        scale *= kept_norm
        bond = sites[m].indices[0]
        carry = [u * (values[q] / kept_norm) for q, u in zip(bond.charges, us)]
        sites[m - 1] = contract(sites[m - 1], 2, bond, carry)

    # left-to-right sweep: extract Schmidt spectra and the sites B = Gamma lambda
    lambdas: list[dict[int, np.ndarray]] = []
    norm_val = float(np.linalg.norm(sites[0].flat)) if L == 1 else None
    for m in range(L - 1):
        factor, values, vhs, kept_norm, discarded_norm = block_svd(sites[m], 2, exact)
        if norm_val is None:  # kept_norm >= LAMBDA_FLOOR, so this is never zero
            norm_val = float(np.sqrt(kept_norm**2 + discarded_norm**2))
        lam = {q: v / norm_val for q, v in values.items()}
        gamma = scale_axis(factor, 0, lambdas[-1], inverse=True) if lambdas else factor
        sites[m] = scale_axis(gamma, 2, lam)
        lambdas.append(lam)
        bond = factor.indices[2]
        carry = [vh * values[q][:, None] for q, vh in zip(bond.charges, vhs)]
        sites[m + 1] = contract(sites[m + 1], 0, bond, carry)

    if norm_val * scale < 1e-300:
        raise ZeroNormError("zero norm")
    last = sites[L - 1]
    last = SectorMatrices(last.indices, last.leg, last.keys, last.flat * (1.0 / norm_val))
    sites[L - 1] = scale_axis(last, 0, lambdas[-1], inverse=True) if lambdas else last
    return CanonicalMps(sites, lambdas), norm_val * scale


# -- serialization ---------------------------------------------------------------


def save_mps(path: str, mps: CanonicalMps) -> None:
    """Write a self-describing .npz checkpoint of the state.

    The container holds one array per stored block of the sites B = Gamma
    lambda (named ``g{site}/{key}``), one per bond spectrum sector
    (``lam{bond}/{charge}``), and a JSON header with the charge layout and
    ``"form": "B"``.  See README for the format notes.
    """
    meta = {
        "L": mps.L,
        "form": "B",
        "indices": [{"sectors": [list(s) for s in ix.sectors]} for site in mps.sites for ix in site.indices],
        "block_keys": [[list(k) for k in sorted(site.blocks)] for site in mps.sites],
        "lambda_charges": [sorted(lam) for lam in mps.lambdas],
    }
    arrays = {"__meta__": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for m, site in enumerate(mps.sites):
        for k in sorted(site.blocks):
            arrays[f"g{m}/{','.join(map(str, k))}"] = site.blocks[k]
    for m, lam in enumerate(mps.lambdas):
        for q in sorted(lam):
            arrays[f"lam{m}/{q}"] = lam[q]
    np.savez_compressed(path, **arrays)


def load_mps(path: str) -> CanonicalMps:
    """Read a :func:`save_mps` checkpoint.

    Neighbouring sites must agree on their bond and each spectrum must
    have its bond's charges and sector lengths; a file that breaks either
    raises ``ValueError`` naming the bond.  A file without the ``form``
    key holds Gammas, as files were written before the B form; each site
    but the last then gets its right spectrum multiplied in.  Older files
    also carry per-leg ``direction`` and a ``total_charge`` key; both are
    ignored (the total charge follows from the right bond).
    """
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        L = meta["L"]
        sites = []
        for m in range(L):
            idx = tuple(
                ChargeIndex(tuple(tuple(s) for s in meta["indices"][3 * m + i]["sectors"]))
                for i in range(3)
            )
            blocks = {
                tuple(k): data[f"g{m}/{','.join(map(str, k))}"]
                for k in meta["block_keys"][m]
            }
            sites.append(SectorMatrices.from_blocks(idx, blocks))
        lambdas = [
            {q: data[f"lam{m}/{q}"] for q in meta["lambda_charges"][m]}
            for m in range(L - 1)
        ]
    mps = CanonicalMps(sites, lambdas)
    for m, lam in enumerate(mps.lambdas, start=1):
        bond = mps.bond_index(m)
        if mps.sites[m].indices[0] != bond:
            raise ValueError(f"{path}: sites {m} and {m + 1} disagree on bond {m}")
        if [(q, len(v)) for q, v in sorted(lam.items())] != list(bond.sectors):
            raise ValueError(f"{path}: the spectrum of bond {m} does not match its sectors")
    if meta.get("form", "B") != "B":
        raise ValueError(f"{path}: unknown site form {meta['form']!r}")
    if "form" not in meta:
        return CanonicalMps([scale_axis(t, 2, lam) for t, lam in zip(sites, lambdas)] + sites[-1:], lambdas)
    return mps
