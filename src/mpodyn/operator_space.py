"""Operators as states over doubled sites (the superstate mapping).

An operator O = sum o_{x,y} |x><y| is stored as an MPS over super-sites of
dimension d*d; the basis state of one super-site is the pair
(in occupation j, out occupation i) with dense position k = j*d + i (the
in/upper label varies slower).  The three conservation modes differ only
in their labels, and this module alone sets them: a mode is a pair of
integer weights (:func:`mode_weights`), the state (j, i) has charge
w_in*j + w_out*i, and a bond's charge sums the sites to its left.

* ``brute``            - (0, 0): one charge-0 sector, no symmetry used;
* ``grand_canonical``  - (1, -1): conserves the particle-number difference
                         between the chains;
* ``canonical``        - (2L(d-1) + 3, 1): both chain numbers stay definite.

Superstates are stored normalized; a scalar ``prefactor`` carries the
Hilbert-Schmidt norm so truncation logic can assume unit norm throughout.
The Hermitian conjugate of a charge-definite operator flips the sign of
its particle-number change (delta_n), pinned by densify tests.

Every site of a superstate is one ``charge_tensor.SectorMatrices``, and
this module reads a stored site one way, per state: ``_by_state`` maps
each bond-in sector and (in, out) state to its bond-out sector and its
(chi_l, chi_r) slice of the block view, ``SectorMatrices.blocks``.
Composing an operator onto the out-chain of a superstate has one
implementation, ``out_chain_compose``, which reads both chains per state
and builds each composed link with ``SectorMatrices.from_blocks``;
``apply_out_chain`` lifts a whole product operator, given as its
per-site factor list, and calls it once.

The observers, ``hs_trace_pair`` and ``expectation_in_state``, are
transfer sweeps over the same per-state view of the stored sites: a
stored site is B = Gamma lambda (``mps_core``), so the chain product of
the blocks is the state and no spectrum enters a sweep.  They pair any
two modes, build no dense site, and their memory grows with chi, not
chi^2 d^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .charge_tensor import (
    ChargeIndex,
    ChargeMismatchError,
    SectorMatrices,
    ZeroNormError,
    group_by_charge,
)
from . import mps_core
from .mps_core import CanonicalMps

BRUTE = "brute"
GRAND_CANONICAL = "grand_canonical"
CANONICAL = "canonical"

MODES = (BRUTE, GRAND_CANONICAL, CANONICAL)


def mode_weights(mode: str, L: int, d: int) -> tuple[int, int]:
    """Charge weights (w_in, w_out) of a mode: state (j, i) has charge w_in*j + w_out*i."""
    if mode == BRUTE:
        return (0, 0)
    if mode == GRAND_CANONICAL:
        return (1, -1)
    if mode == CANONICAL:
        return (2 * L * (d - 1) + 3, 1)
    raise ValueError(f"unknown mode {mode!r}")


@lru_cache(maxsize=None)
def super_site_layout(d: int, weights: tuple[int, int]) -> tuple[ChargeIndex, tuple, np.ndarray]:
    """A doubled site under ``weights``: its charge index (ascending charges),
    per sector the (in j, out i) states in layout order (j, then i,
    ascending), and the map from layout position to k = j*d + i."""
    w_in, w_out = weights
    by_charge: dict[int, list[tuple[int, int]]] = {}
    for j in range(d):
        for i in range(d):
            by_charge.setdefault(w_in * j + w_out * i, []).append((j, i))
    charges = sorted(by_charge)
    states = tuple(tuple(by_charge[q]) for q in charges)
    index = ChargeIndex(tuple((q, len(sec)) for q, sec in zip(charges, states)))
    perm = np.array([j * d + i for sec in states for j, i in sec], dtype=np.intp)
    return index, states, perm


@dataclass(frozen=True)
class LocalOperator:
    """Single-site operator with a definite (or mixed) particle-number change.

    ``entries[x][y]`` is <x|op|y>; when ``delta_n`` is an integer k the only
    nonzero entries satisfy y - x = k (the operator removes k particles).
    """

    d: int
    entries: np.ndarray
    delta_n: int | None

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=np.complex128)
        if ent.shape != (self.d, self.d):
            raise ValueError("entries must be d x d")
        object.__setattr__(self, "entries", ent)
        if self.delta_n is not None and not self._shifts(ent) <= {self.delta_n}:
            raise ChargeMismatchError("charge mismatch")

    @staticmethod
    def _shifts(entries: np.ndarray) -> set[int]:
        """The shifts y - x of the nonzero entries <x|op|y>; none for a zero matrix."""
        x, y = np.nonzero(entries)
        return set((y - x).tolist())

    @classmethod
    def from_matrix(cls, entries) -> "LocalOperator":
        """The operator with these entries; its ``delta_n`` is the one shift of its
        nonzero entries, 0 for a zero matrix and None for a mixed one."""
        ent = np.asarray(entries, dtype=np.complex128)
        if ent.ndim != 2 or ent.shape[0] != ent.shape[1]:
            raise ValueError("entries must be d x d")
        shifts = cls._shifts(ent) or {0}
        return cls(len(ent), ent, shifts.pop() if len(shifts) == 1 else None)

    def hs_norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def dagger(self) -> "LocalOperator":
        delta = None if self.delta_n is None else -self.delta_n
        return LocalOperator(self.d, self.entries.conj().T, delta)


class SuperState:
    """An operator represented as a canonical MPS over doubled sites."""

    def __init__(
        self,
        mps: CanonicalMps | None,
        L: int,
        d: int,
        mode: str,
        delta_n: int | None,
        prefactor: complex,
    ):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.mps = mps
        self.L = L
        self.d = d
        self.mode = mode
        self.delta_n = delta_n
        self.prefactor = complex(prefactor)

    @classmethod
    def zero(cls, L, d, mode, delta_n=0) -> "SuperState":
        return cls(None, L, d, mode, delta_n, 0.0)

    @property
    def weights(self) -> tuple[int, int]:
        """Charge weights (w_in, w_out) of the mode at this chain's L and d."""
        return mode_weights(self.mode, self.L, self.d)

    @property
    def is_zero(self) -> bool:
        return self.mps is None or self.prefactor == 0.0

    def hs_norm(self) -> float:
        return abs(self.prefactor)

    def copy(self) -> "SuperState":
        return SuperState(
            None if self.mps is None else self.mps.copy(),
            self.L,
            self.d,
            self.mode,
            self.delta_n,
            self.prefactor,
        )

    def osee_profile(self) -> list[float]:
        """Entanglement entropy of the superstate at each interior bond."""
        if self.is_zero:
            return [0.0] * (self.L - 1)
        return self.mps.entropy_profile()

    def densify(self) -> np.ndarray:
        """Dense operator matrix, occupation basis, site 1 fastest-varying."""
        d, L = self.d, self.L
        if d ** (2 * L) > 2**22:
            raise ValueError("operator too large to densify")
        if self.is_zero:
            return np.zeros((d**L, d**L), dtype=np.complex128)
        at = np.argsort(super_site_layout(d, self.weights)[2])  # k = j*d + i -> layout position
        vec = mps_core.dense_chain(site.densify()[:, at, :] for site in self.mps.sites)
        arr = vec.reshape((d, d) * L)  # axes (j_L, i_L, ..., j_1, i_1)
        perm = list(range(1, 2 * L, 2)) + list(range(0, 2 * L, 2))
        return arr.transpose(perm).reshape(d**L, d**L) * self.prefactor


def identity_superstate(L: int, d: int, mode: str = GRAND_CANONICAL) -> SuperState:
    """Superstate of the identity operator: a product of local Bell-like pairs.

    Bond dimension 1, zero entanglement between sites; the unnormalized
    trace convention gives Hilbert-Schmidt norm sqrt(d)**L, carried by the
    prefactor.
    """
    if L < 1 or d < 2:
        raise ValueError("need L >= 1 and d >= 2")
    return lift_product_operator([LocalOperator(d, np.eye(d), 0)] * L, mode)


def lift_product_operator(
    factors: list[LocalOperator], mode: str = GRAND_CANONICAL
) -> SuperState:
    """Superstate of a product operator; always bond dimension 1.

    The state (j, i) of a site holds ``entries[i, j]``; every factor's
    nonzero states must share one charge under the mode's weights, so
    mixed factors are only representable without charge labels.
    """
    if not factors:
        raise ValueError("need at least one factor")
    d = factors[0].d
    if any(f.d != d for f in factors):
        raise ValueError("shape mismatch")
    if mode == CANONICAL:
        raise ValueError("use project_operator to build input-number definite operators")

    L = len(factors)
    w_in, w_out = weights = mode_weights(mode, L, d)
    charges = [{w_in * j + w_out * i for i, j in np.argwhere(f.entries).tolist()} for f in factors]
    if any(len(qs) > 1 for qs in charges):
        raise ChargeMismatchError("indefinite charge")
    deltas = [f.delta_n for f in factors]
    delta = None if None in deltas else sum(deltas)
    phys, states, _ = super_site_layout(d, weights)
    prefactor = 1.0
    sites = []
    for f, qs in zip(factors, charges):
        nf = f.hs_norm()
        if nf == 0.0:
            return SuperState.zero(L, d, mode, delta)
        prefactor *= nf
        (q,) = qs
        sites.append((q, [f.entries[i, j] / nf for j, i in states[phys.position(q)]]))
    return SuperState(mps_core.product_mps(phys, sites), L, d, mode, delta, prefactor)


def embed_factor(op: LocalOperator, site: int, L: int) -> list[LocalOperator]:
    """Per-site factor list with ``op`` at ``site`` (1-based), identity elsewhere."""
    if not 1 <= site <= L:
        raise ValueError("site out of range")
    ident = LocalOperator(op.d, np.eye(op.d), 0)
    factors = [ident] * L
    factors[site - 1] = op
    return factors


def apply_out_chain(factors: list[LocalOperator], s: SuperState) -> SuperState:
    """Compose a product operator onto the out-chain of ``s`` in one pass.

    ``factors`` holds one factor per site (site 1 first; pass
    :func:`embed_factor` for a single-site operator).  The densified result
    is ``O @ densify(s)`` with O the product; the particle-number change
    grows by the sum of the factors'.  Every factor must share ``s``'s d
    and carry a definite charge, in every mode.
    """
    return out_chain_compose(lift_product_operator(factors), s)


def _by_state(site: SectorMatrices, states) -> dict[int, dict]:
    """A site's stored blocks as bond-in sector -> state -> (bond-out sector, its (chi_l,
    chi_r) slice); ``states[p][x]`` names the state at position x of physical sector p."""
    out: dict[int, dict] = {}
    for (l, p, r), blk in site.blocks.items():
        out.setdefault(l, {}).update((state, (r, blk[:, x, :])) for x, state in enumerate(states[p]))
    return out


def hs_trace_pair(a: SuperState, b: SuperState) -> complex:
    """Tr[A^dagger B] as the superstate inner product; works across modes.

    A transfer sweep over the stored sites: the environment holds E^dagger, E
    the partial overlap <a|b>, per (b, a) bond sector pair; the slices of a
    state (j, i) in both add B^dagger (E^dagger A), so no ``a`` block is
    conjugated.  The chain ends are one-dimensional, so the last environment
    holds one number, or none.
    """
    if a.L != b.L or a.d != b.d:
        raise ValueError("shape mismatch")
    if a.is_zero or b.is_zero:
        return 0.0 + 0.0j
    states_a, states_b = (super_site_layout(a.d, x.weights)[1] for x in (a, b))
    env = {(0, 0): np.ones((1, 1), dtype=np.complex128)}
    for site_a, site_b in zip(a.mps.sites, b.mps.sites):
        left_a, left_b, old, env = _by_state(site_a, states_a), _by_state(site_b, states_b), env, {}
        for (lb, la), f in old.items():
            at_b = left_b.get(lb, {})
            for ji, (ra, blk_a) in left_a.get(la, {}).items():
                if ji in at_b:
                    rb, blk_b = at_b[ji]
                    part = blk_b.conj().T @ (f @ blk_a)
                    env[rb, ra] = env[rb, ra] + part if (rb, ra) in env else part
    overlap = np.conj(sum(f.sum() for f in env.values()))
    return complex(np.conj(a.prefactor) * b.prefactor * overlap)


def expectation_in_state(s: SuperState, psi: CanonicalMps) -> complex:
    """<psi|O|psi>: in-chain contracts with |psi>, out-chain with <psi|.

    The sweep's environment is keyed by (s, <psi|, |psi>) bond sectors; the
    slice of a state (j, i) of ``s`` joins those of |psi> at j and <psi| at i.
    The last environment holds one number, or none (see :func:`hs_trace_pair`).
    """
    if s.L != psi.L or psi.site_dims != [s.d] * s.L:
        raise ValueError("shape mismatch")
    if s.is_zero:
        return 0.0 + 0.0j
    states = super_site_layout(s.d, s.weights)[1]
    env = {(0, 0, 0): np.ones((1, 1, 1), dtype=np.complex128)}
    for site_s, site_psi, ix in zip(s.mps.sites, psi.sites, psi.phys_indices):
        # occupation x sits at position x of the physical leg
        left_psi = _by_state(site_psi, [range(o, o + n) for o, n in zip(ix.offsets, ix.dims)])
        left_s, old, env = _by_state(site_s, states), env, {}
        for (ls, lc, lk), e in old.items():
            bra, ket = left_psi.get(lc, {}), left_psi.get(lk, {})
            for (j, i), (rs, blk) in left_s.get(ls, {}).items():
                if i in bra and j in ket:
                    (rc, pc), (rk, pk) = bra[i], ket[j]
                    x = (blk.T @ e.reshape(len(e), -1)).reshape(-1, e.shape[2]) @ pk  # (rs c, rk)
                    x = pc.conj().T @ x.reshape(blk.shape[1], e.shape[1], -1)  # (rs, rc, rk)
                    env[rs, rc, rk] = env[rs, rc, rk] + x if (rs, rc, rk) in env else x
    return complex(s.prefactor * sum(e.sum() for e in env.values()))


def _merged_pair_index(ix_t: ChargeIndex, ix_o: ChargeIndex, w_out: int):
    """Bond index of a composed chain, its (t-sector, o-sector) pairs laid out by
    ``group_by_charge`` on the combined charge qt - w_out*qo (a target charge qt, a
    grand-canonical operator's qo), and two (nt, no) tables, nested lists: each
    pair's merged sector position and its offset inside that sector."""
    q = np.subtract.outer(ix_t.charge_array, w_out * ix_o.charge_array)
    charges, dims, sec, off = group_by_charge(q.ravel(), np.outer(ix_t.dim_array, ix_o.dim_array).ravel())
    merged = ChargeIndex(tuple(zip(charges.tolist(), dims.tolist())))
    return merged, sec.reshape(q.shape).tolist(), off.reshape(q.shape).tolist()


def out_chain_compose(op_s: SuperState, target: SuperState) -> SuperState:
    """Compose an operator MPO onto the out-chain of ``target``: result = op . target.

    ``op_s`` must carry a definite particle-number change (grand-canonical
    labels); the result keeps the target's mode and input charge.  Both
    chains are read per state (:func:`_by_state`): for each pair of left
    bond sectors, a target state (j, i) and every operator state (i, x)
    add the outer product of their bond slices to state (j, x) of the
    merged-bond block.  Every composed site tensor must obey the charge rule.
    """
    if op_s.L != target.L or op_s.d != target.d:
        raise ValueError("shape mismatch")
    if op_s.mode != GRAND_CANONICAL:
        raise ChargeMismatchError("indefinite charge")
    new_delta = None
    if target.delta_n is not None and op_s.delta_n is not None:
        new_delta = target.delta_n + op_s.delta_n
    if op_s.is_zero or target.is_zero:
        return SuperState.zero(target.L, target.d, target.mode, new_delta)

    d, L, mode = target.d, target.L, target.mode
    w_out = target.weights[1]
    phys, t_states, _ = super_site_layout(d, target.weights)
    o_states = super_site_layout(d, op_s.weights)[1]
    state_pos = {ji: (sec, p) for sec, lst in enumerate(t_states) for p, ji in enumerate(lst)}

    links = []
    left_ix, left_sec, left_off = _merged_pair_index(
        target.mps.bond_index(0), op_s.mps.bond_index(0), w_out
    )
    for m in range(1, L + 1):
        right_ix, right_sec, right_off = _merged_pair_index(
            target.mps.bond_index(m), op_s.mps.bond_index(m), w_out
        )
        by_t = _by_state(target.mps.sites[m - 1], t_states)
        by_o = _by_state(op_s.mps.sites[m - 1], o_states)
        blocks: dict[tuple[int, int, int], np.ndarray] = {}
        for lt, at_t in by_t.items():
            for lo, at_o in by_o.items():
                lsec, loff = left_sec[lt][lo], left_off[lt][lo]
                for (j, i), (rt, bt) in at_t.items():
                    for x in (x for x in range(d) if (i, x) in at_o):
                        ro, bo = at_o[i, x]
                        psec, ppos = state_pos[j, x]
                        rsec, roff = right_sec[rt][ro], right_off[rt][ro]
                        key = (lsec, psec, rsec)
                        if key not in blocks:
                            blocks[key] = np.zeros(
                                (left_ix.dims[lsec], phys.dims[psec], right_ix.dims[rsec]),
                                dtype=np.complex128,
                            )
                        rows, cols = bt.shape[0] * bo.shape[0], bt.shape[1] * bo.shape[1]
                        outer = np.multiply.outer(bt, bo).transpose(0, 2, 1, 3)  # (a, b, c, e)
                        blocks[key][loff : loff + rows, ppos, roff : roff + cols] += (
                            outer.reshape(rows, cols)
                        )
        # from_blocks checks every block's shape and charges
        links.append(SectorMatrices.from_blocks(
            (left_ix, phys, right_ix),
            {key: blk for key, blk in blocks.items() if blk.any()},
        ))
        left_ix, left_sec, left_off = right_ix, right_sec, right_off

    try:
        new_mps, factor = mps_core.canonicalize(links)
    except ZeroNormError:
        return SuperState.zero(L, d, mode, new_delta)
    return SuperState(
        new_mps,
        L,
        d,
        mode,
        new_delta,
        target.prefactor * op_s.prefactor * factor,
    )
