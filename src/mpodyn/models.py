"""Lattice models, their two-site bond gates, and the doubled-space gates.

Spin-1/2 sites use the occupation dictionary |0> = spin down, |1> = spin up,
so sigma^z = diag(-1, +1) and magnetization conservation becomes particle
number conservation.  Two-site dense matrices are indexed with the left
site as the slow (most significant) index, matching ``numpy.kron`` order.

Gate exponentials are computed per charge block by Hermitian
eigendecomposition, which keeps every block exactly unitary.  A
``BondGate`` slices its band blocks (one per two-site charge) once, when
it is built, on the band bases of ``charge_tensor.pair_bands``; the gate
kernel's plans in ``mps_core`` place amplitudes on the same bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charge_tensor import ChargeIndex, ChargeMismatchError, pair_bands
from .operator_space import LocalOperator, super_site_layout

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=np.complex128)

CHARGE_ATOL = 1e-12  # largest entry a gate may have between different two-site charges


def boson_annihilator(d: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, d)), k=1).astype(np.complex128)


def number_matrix(d: int) -> np.ndarray:
    return np.diag(np.arange(d, dtype=np.float64)).astype(np.complex128)


def sigma_z_local() -> LocalOperator:
    return LocalOperator(2, SIGMA_Z, 0)


def number_local(d: int) -> LocalOperator:
    return LocalOperator(d, number_matrix(d), 0)


def annihilator_local(d: int) -> LocalOperator:
    return LocalOperator(d, boson_annihilator(d), 1)


def creator_local(d: int) -> LocalOperator:
    return LocalOperator(d, boson_annihilator(d).conj().T, -1)


def identity_local(d: int) -> LocalOperator:
    return LocalOperator(d, np.eye(d), 0)


@dataclass(frozen=True)
class ModelSpec:
    """Model family plus finite couplings; ``d`` is the local dimension."""

    kind: str
    L: int
    d: int
    delta: float = 0.0
    hopping: float = 1.0
    interaction: float = 0.0

    def __post_init__(self):
        if self.kind not in ("xxz", "bose_hubbard"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.d < 2 or self.L < 2:
            raise ValueError("need d >= 2 and L >= 2")
        for name in ("delta", "hopping", "interaction"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")

    @classmethod
    def xxz(cls, L: int, delta: float) -> "ModelSpec":
        return cls("xxz", L, 2, delta=delta)

    @classmethod
    def bose_hubbard(cls, L: int, d: int, interaction: float, hopping: float = 1.0) -> "ModelSpec":
        return cls("bose_hubbard", L, d, hopping=hopping, interaction=interaction)


def bond_hamiltonian(spec: ModelSpec, m: int) -> np.ndarray:
    """Dense two-site term for bond m (1..L-1), Hermitian and number conserving.

    On-site pieces of the boson model are split half-and-half onto the
    adjoining bonds; boundary bonds absorb the orphaned halves of the edge
    sites.
    """
    if not 1 <= m <= spec.L - 1:
        raise ValueError("bond out of range")
    d = spec.d
    if spec.kind == "xxz":
        h = -0.5 * (
            np.kron(SIGMA_X, SIGMA_X)
            + np.kron(SIGMA_Y, SIGMA_Y)
            + spec.delta * np.kron(SIGMA_Z, SIGMA_Z)
        )
        return h
    a = boson_annihilator(d)
    hop = -spec.hopping * (np.kron(a.conj().T, a) + np.kron(a, a.conj().T))
    n = np.arange(d, dtype=np.float64)
    onsite = np.diag(0.5 * spec.interaction * n * (n - 1)).astype(np.complex128)
    w_left = 1.0 if m == 1 else 0.5
    w_right = 1.0 if m == spec.L - 1 else 0.5
    return hop + w_left * np.kron(onsite, np.eye(d)) + w_right * np.kron(np.eye(d), onsite)


class BondGate:
    """Two-site gate with charge-conserving block structure.

    ``dense`` is the full matrix with the left site as the slow index;
    ``index`` grades each site and ``perm`` maps its sector-layout
    positions to dense basis positions.  The constructor raises
    ``ChargeMismatchError`` when an entry between two-site basis states of
    different total charge exceeds 1e-12 in absolute value, so every
    ``band_table`` block holds the whole gate.  It slices the band blocks
    once, on the bases of ``charge_tensor.pair_bands``.
    """

    def __init__(self, dense: np.ndarray, index: ChargeIndex, perm: np.ndarray | None = None):
        self.dense = np.asarray(dense, dtype=np.complex128)
        self.index = index
        self.perm = np.arange(index.dim, dtype=np.intp) if perm is None else perm
        D = index.dim
        if self.dense.shape != (D * D, D * D):
            raise ValueError("gate matrix has wrong shape")
        layout_q = np.repeat(index.charge_array, index.dim_array)
        pair_q = np.add.outer(layout_q, layout_q).ravel()
        # the gate with rows and columns in two-site layout order (j1, j2)
        dense_at = np.add.outer(self.perm * D, self.perm).ravel()
        laid = self.dense[np.ix_(dense_at, dense_at)]
        if np.any(np.abs(laid[pair_q[:, None] != pair_q[None, :]]) > CHARGE_ATOL):
            raise ChargeMismatchError("charge mismatch")
        charges, dims, offsets = pair_bands(index)
        start = np.cumsum(dims) - dims
        sector = np.repeat(np.arange(index.nsectors), index.dim_array)
        inner = np.arange(D) - index.offset_array[sector]
        in_band = offsets[np.ix_(sector, sector)] + np.outer(inner, index.dim_array[sector]) + inner
        # the layout pair at every position of the band bases laid end to end
        basis = np.argsort(start[np.searchsorted(charges, pair_q)] + in_band.ravel())
        self._bands = {q: laid[np.ix_(b, b)] for q, b in zip(charges.tolist(), np.split(basis, start[1:]))}

    @property
    def d(self) -> int:
        return self.index.dim

    def band_table(self) -> dict[int, np.ndarray]:
        """Per two-site charge, the gate block on that band's basis (``pair_bands``)."""
        return self._bands


def _blockwise_expm(h: np.ndarray, charges: np.ndarray, dt_fraction: float) -> np.ndarray:
    """exp(-i h t) for a Hermitian charge-conserving matrix, per charge block."""
    D = h.shape[0]
    out = np.zeros_like(h)
    for q in np.unique(charges):
        idx = np.where(charges == q)[0]
        sub = h[np.ix_(idx, idx)]
        w, v = np.linalg.eigh(sub)
        out[np.ix_(idx, idx)] = (v * np.exp(-1j * w * dt_fraction)) @ v.conj().T
    return out


def bond_gate(spec: ModelSpec, m: int, dt_fraction: float) -> BondGate:
    """Unitary exp(-i H_bond dt) for bond m."""
    if not np.isfinite(dt_fraction):
        raise ValueError("dt_fraction must be finite")
    d = spec.d
    h = bond_hamiltonian(spec, m)
    occ = np.arange(d)
    charges = (occ[:, None] + occ[None, :]).ravel()  # two-site total occupation
    dense = _blockwise_expm(h, charges, dt_fraction)
    return BondGate(dense, ChargeIndex.occupation(d))


def super_gate(gate: BondGate, weights: tuple[int, int]) -> BondGate:
    """Lift a bond gate to the doubled space: conjugation on the out-chain.

    Acting on a lifted operator reproduces Heisenberg conjugation
    g^dagger O g; the in- and out-chain factors act independently, so both
    chain numbers, and with them every charge w_in*n_in + w_out*n_out, are
    preserved.  ``weights`` (``operator_space.mode_weights``) grade the
    doubled sites.
    """
    d = gate.d
    u4 = gate.dense.reshape(d, d, d, d)
    sg = np.einsum("jkyz,ilxw->yxzwjikl", u4, u4.conj())
    # axes now (y1, x1, y2, x2, j1, i1, j2, i2): new pairs then old pairs
    D2 = d * d
    sg = sg.reshape(D2, D2, D2, D2).reshape(D2 * D2, D2 * D2)
    index, _, perm = super_site_layout(d, weights)
    return BondGate(sg, index, perm)

