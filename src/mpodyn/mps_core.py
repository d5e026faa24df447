"""Canonical (Vidal) matrix product states over charge-graded sites.

A state of L sites is stored as per-site Gamma tensors with legs
(bond-in, physical, bond-out) and per-interior-bond singular value vectors
grouped by bond charge.  Bond charges count accumulated physical charge
from the left, so the leftmost bond is a trivial charge-0 sector and the
rightmost carries the total charge of a charge-definite state.

Bond spectra are plain dicts, bond charge -> descending values (see
``charge_tensor``); which values a cut keeps is decided only by
``charge_tensor.global_truncation``.  Every bond-dimension-1 chain (Fock
states, product operators) is built by :func:`product_mps`.

Two-site gates are ``models.BondGate`` objects, applied by one path: the
band kernel of :meth:`CanonicalMps.apply_two_site_gate`.  It and
:func:`canonicalize` (through ``block_svd``) share
``charge_tensor.truncated_split`` for the sector SVDs and the truncation.

Open boundaries only: the outer bonds are one-dimensional.  Singular
values below ``LAMBDA_FLOOR`` are dropped outright; restoring Vidal form
after a two-site update divides by the outer singular values and this
floor keeps that division stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .charge_tensor import (
    IN,
    OUT,
    ChargeIndex,
    ChargeMismatchError,
    SymmetricTensor,
    TruncationPolicy,
    ZeroNormError,
    block_svd,
    contract,
    scale_axis,
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
    """Vidal-form MPS: Gamma tensors plus charge-labelled bond spectra.

    ``lambdas[m-1]`` holds the singular values of interior bond ``m``
    (1-based, between sites m and m+1) as a mapping charge -> descending
    values; the grouping matches the sector order of the adjacent bond
    legs.
    """

    def __init__(
        self,
        gammas: list[SymmetricTensor],
        lambdas: list[dict[int, np.ndarray]],
        total_charge: int | None = None,
    ):
        if len(lambdas) != len(gammas) - 1:
            raise ValueError("need exactly one singular vector per interior bond")
        self.gammas = gammas
        self.lambdas = [
            {int(q): np.asarray(v, dtype=np.float64) for q, v in lam.items()}
            for lam in lambdas
        ]
        self.total_charge = total_charge

    @property
    def L(self) -> int:
        return len(self.gammas)

    @property
    def phys_indices(self) -> list[ChargeIndex]:
        return [g.indices[1] for g in self.gammas]

    @property
    def site_dims(self) -> list[int]:
        return [ix.dim for ix in self.phys_indices]

    def bond_index(self, m: int) -> ChargeIndex:
        """ChargeIndex of bond m (0..L); outer bonds are one-dimensional."""
        if m == 0:
            return self.gammas[0].indices[0]
        return self.gammas[m - 1].indices[2]

    def lambda_at(self, m: int) -> dict[int, np.ndarray]:
        """Singular values at bond m (0..L); outer bonds return a unit weight."""
        if m == 0 or m == self.L:
            ix = self.bond_index(m)
            return {ix.charges[0]: np.array([1.0])}
        return self.lambdas[m - 1]

    def bond_dimension(self, m: int) -> int:
        return self.bond_index(m).dim

    def max_bond_dimension(self) -> int:
        return max(self.bond_dimension(m) for m in range(self.L + 1))

    def copy(self) -> "CanonicalMps":
        return CanonicalMps(
            [g.copy() for g in self.gammas],
            [{q: v.copy() for q, v in lam.items()} for lam in self.lambdas],
            self.total_charge,
        )

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

        The outer-weighted two-site tensor is assembled per (left sector,
        right sector) slab over the fused pair basis of the matching charge
        band, and the gate acts as one dense block per band
        (``BondGate.band_table``).  The gated pieces are re-split with
        ``truncated_split`` and Vidal form is restored by dividing out the
        outer singular values.  The state is renormalized; the returned
        record carries the pre-normalization kept norm ``nu`` and the
        discarded weight.
        """
        if not 1 <= m <= self.L - 1:
            raise ValueError("bond out of range")
        g1, g2 = self.gammas[m - 1], self.gammas[m]
        phys1, phys2 = g1.indices[1], g2.indices[1]
        if gate.index.sectors != phys1.sectors or gate.index.sectors != phys2.sectors:
            raise ChargeMismatchError("charge mismatch")
        lam_l = self.lambda_at(m - 1)
        lam_c = self.lambda_at(m)
        lam_r = self.lambda_at(m + 1)
        left = scale_axis(scale_axis(g1, 0, lam_l), 2, lam_c)
        right = self.site_tensor(m + 1)

        lix, rix = g1.indices[0], g2.indices[2]
        bands = gate.band_table()

        right_by_c: dict[int, list] = {}
        for key, blk in right.blocks.items():
            right_by_c.setdefault(key[0], []).append((key, blk))

        # two-site tensor as per-(left sector, right sector) slabs over the
        # fused pair basis of the matching charge band
        slabs: dict[tuple[int, int], np.ndarray] = {}
        for key1 in sorted(left.blocks):
            l_sec, p1, _c = key1
            blk1 = left.blocks[key1]
            for key2, blk2 in sorted(right_by_c.get(key1[2], ()), key=lambda e: e[0]):
                _, p2, r_sec = key2
                band = bands[rix.charges[r_sec] - lix.charges[l_sec]]
                off = band.offset_of[(p1, p2)]
                d1, d2 = phys1.dims[p1], phys2.dims[p2]
                contrib = np.tensordot(blk1, blk2, axes=(2, 0))
                skey = (l_sec, r_sec)
                slab = slabs.get(skey)
                if slab is None:
                    slab = np.zeros(
                        (blk1.shape[0], band.dim, blk2.shape[2]), dtype=np.complex128
                    )
                    slabs[skey] = slab
                slab[:, off : off + d1 * d2, :] += contrib.reshape(
                    blk1.shape[0], d1 * d2, blk2.shape[2]
                )

        # cut the gated slabs into pieces of the matrix of each new bond charge
        pieces = []
        for skey in sorted(slabs):
            l_sec, r_sec = skey
            band = bands[rix.charges[r_sec] - lix.charges[l_sec]]
            gated = np.tensordot(band.matrix, slabs[skey], axes=(1, 1)).transpose(1, 0, 2)
            l_dim, r_dim = gated.shape[0], gated.shape[2]
            for s1, s2, off in band.pairs:
                d1, d2 = phys1.dims[s1], phys2.dims[s2]
                piece = gated[:, off : off + d1 * d2, :]
                if not piece.any():
                    continue
                qn = lix.charges[l_sec] + phys1.charges[s1]
                pieces.append((qn, (l_sec, s1), (s2, r_sec), piece.reshape(l_dim, d1, d2, r_dim)))

        floor = max(policy.singular_value_floor, LAMBDA_FLOOR)
        try:
            bond, values, g1_blocks, g2_blocks, kept_norm, discarded_norm = truncated_split(
                pieces, 2, TruncationPolicy(policy.chi_max, floor)
            )
        except ZeroNormError as exc:
            raise ZeroNormError("state annihilated") from exc

        new_g1 = SymmetricTensor((lix, phys1, bond), (IN, IN, OUT), g1_blocks, 0)
        new_g2 = SymmetricTensor((bond, phys2, rix), (IN, IN, OUT), g2_blocks, 0)
        self.gammas[m - 1] = scale_axis(new_g1, 0, lam_l, inverse=True)
        self.gammas[m] = scale_axis(new_g2, 2, lam_r, inverse=True) if m + 1 < self.L else new_g2
        self.lambdas[m - 1] = {q: v / kept_norm for q, v in values.items()}
        return TruncationRecord(
            bond=m,
            nu=kept_norm,
            discarded_weight=discarded_norm,
            chi_used=bond.dim,
        )

    # -- site views ------------------------------------------------------------

    def site_tensor(self, m: int) -> SymmetricTensor:
        """Gamma of site m (1..L) with the bond values to its right multiplied in.

        The chain product of these tensors is the state.
        """
        g = self.gammas[m - 1]
        return scale_axis(g, 2, self.lambda_at(m)) if m < self.L else g

    def site_tensor_dense(self, m: int) -> np.ndarray:
        """Dense (chi_l, D, chi_r) :meth:`site_tensor` of site m, sector-layout ordering."""
        return self.site_tensor(m).densify()

    def to_statevector(self) -> np.ndarray:
        """Dense state with site 1 as the fastest-varying index."""
        if int(np.prod(self.site_dims)) > 2**22:
            raise ValueError("state too large to densify")
        return dense_chain(self.site_tensor_dense(m) for m in range(1, self.L + 1))

    def assert_canonical(self, atol: float = 1e-8) -> None:
        """Verify bond normalization and the left/right orthogonality conditions."""
        for m in range(1, self.L):
            total = sum(np.sum(v**2) for v in self.lambdas[m - 1].values())
            if abs(total - 1.0) > 1e-10:
                raise AssertionError(f"bond {m}: sum lambda^2 = {total}")
        for m in range(1, self.L + 1):
            a = scale_axis(self.gammas[m - 1], 0, self.lambda_at(m - 1)).densify()
            right_env = np.einsum("akb,akc->bc", a.conj(), a)
            if not np.allclose(right_env, np.eye(a.shape[2]), atol=atol):
                raise AssertionError(f"site {m}: right orthogonality violated")
            b = self.site_tensor_dense(m)
            left_env = np.einsum("akc,bkc->ab", b, b.conj())
            if not np.allclose(left_env, np.eye(b.shape[0]), atol=atol):
                raise AssertionError(f"site {m}: left orthogonality violated")


def dense_chain(site_tensors) -> np.ndarray:
    """Vector of a chain of dense (chi_l, D, chi_r) site tensors; site 1 fastest."""
    vec = np.ones((1, 1), dtype=np.complex128)
    for t in site_tensors:
        # vec: (prefix, chi); the new index varies slower than the prefix
        vec = np.einsum("pa,akb->kpb", vec, t).reshape(-1, t.shape[2])
    return vec[:, 0]


def overlap_step(env: np.ndarray, ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """Extend the overlap environment <a|b> by one site: sum env[a,b] ta*[a,k,c] tb[b,k,d].

    ``ta`` and ``tb`` are dense (chi_l, D, chi_r) site tensors in the same
    physical order; the contraction is done pairwise.
    """
    half = np.tensordot(env, ta.conj(), axes=(0, 0))  # (b, k, c)
    return np.tensordot(half, tb, axes=([0, 1], [0, 1]))


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
        blk = np.asarray(amps, dtype=np.complex128).reshape(1, -1, 1)
        key = (0, phys.position(q), 0)
        gammas.append(SymmetricTensor((left, phys, right), (IN, IN, OUT), {key: blk}, 0))
        lambdas.append({acc: np.array([1.0])})
    return CanonicalMps(gammas, lambdas[:-1], total_charge=acc)


def from_fock(occupations: list[int], d: int) -> CanonicalMps:
    """Product (Fock) state; bond dimension one everywhere."""
    occupations = [int(j) for j in occupations]
    if any(j < 0 or j >= d for j in occupations):
        raise ValueError("local dimension exceeded")
    return product_mps(ChargeIndex.occupation(d), [(j, np.ones(1)) for j in occupations])


def canonicalize(site_tensors: list[SymmetricTensor]) -> tuple[CanonicalMps, float]:
    """Bring an arbitrary (bond-in, phys, bond-out) chain to Vidal form.

    No cap on the bond dimension; values below ``LAMBDA_FLOOR`` are
    dropped.  Returns the canonical state and the norm of the input chain.
    Raises ``ZeroNormError`` if the chain represents the zero vector.
    """
    exact = TruncationPolicy(None, LAMBDA_FLOOR)
    L = len(site_tensors)
    tensors = [t.copy() for t in site_tensors]

    total_charge = None
    right_ix = tensors[-1].indices[2]
    if right_ix.nsectors == 1:
        total_charge = right_ix.charges[0]

    if L == 1:
        nrm = tensors[0].norm()
        if nrm < 1e-300:
            raise ZeroNormError("zero norm")
        return CanonicalMps([tensors[0].scale(1.0 / nrm)], [], total_charge), nrm

    # right-to-left sweep: make sites 2..L right-isometric
    for m in range(L - 1, 0, -1):
        left, values, tensors[m], _, _ = block_svd(tensors[m], (0,), exact)
        carry = scale_axis(left, 1, values)
        tensors[m - 1] = contract(tensors[m - 1], carry, [(2, 0)])

    # left-to-right sweep: extract Schmidt spectra and Gamma tensors
    gammas: list[SymmetricTensor] = []
    lambdas: list[dict[int, np.ndarray]] = []
    norm_val = None
    prev_lam: dict[int, np.ndarray] | None = None
    for m in range(L - 1):
        left, values, right, kept_norm, discarded_norm = block_svd(tensors[m], (0, 1), exact)
        if norm_val is None:
            norm_val = float(np.sqrt(kept_norm**2 + discarded_norm**2))
            if norm_val < 1e-300:
                raise ZeroNormError("zero norm")
        lam = {q: v / norm_val for q, v in values.items()}
        gamma = left if prev_lam is None else scale_axis(left, 0, prev_lam, inverse=True)
        gammas.append(gamma)
        lambdas.append(lam)
        carry = scale_axis(right, 0, values)
        tensors[m + 1] = contract(carry, tensors[m + 1], [(1, 0)])
        prev_lam = lam

    last = tensors[L - 1].scale(1.0 / norm_val)
    last = scale_axis(last, 0, prev_lam, inverse=True)
    gammas.append(last)
    return CanonicalMps(gammas, lambdas, total_charge), norm_val


# -- serialization ---------------------------------------------------------------


def save_mps(path: str, mps: CanonicalMps) -> None:
    """Write a self-describing .npz checkpoint of the state.

    The container holds one array per stored block (named ``g{site}/{key}``),
    one per bond spectrum sector (``lam{bond}/{charge}``), and a JSON header
    with the charge layout.  See README for the format notes.
    """
    meta = {
        "L": mps.L,
        "total_charge": mps.total_charge,
        "indices": [
            {
                "sectors": [list(s) for s in g.indices[i].sectors],
                "direction": g.directions[i],
            }
            for g in mps.gammas
            for i in range(3)
        ],
        "block_keys": [[list(k) for k in sorted(g.blocks)] for g in mps.gammas],
        "lambda_charges": [sorted(lam) for lam in mps.lambdas],
    }
    arrays = {"__meta__": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for m, g in enumerate(mps.gammas):
        for k in sorted(g.blocks):
            arrays[f"g{m}/{','.join(map(str, k))}"] = g.blocks[k]
    for m, lam in enumerate(mps.lambdas):
        for q in sorted(lam):
            arrays[f"lam{m}/{q}"] = lam[q]
    np.savez_compressed(path, **arrays)


def load_mps(path: str) -> CanonicalMps:
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        L = meta["L"]
        gammas = []
        for m in range(L):
            idx = []
            for i in range(3):
                entry = meta["indices"][3 * m + i]
                idx.append(ChargeIndex(tuple(tuple(s) for s in entry["sectors"])))
            dirs = tuple(meta["indices"][3 * m + i]["direction"] for i in range(3))
            blocks = {
                tuple(k): data[f"g{m}/{','.join(map(str, k))}"]
                for k in meta["block_keys"][m]
            }
            gammas.append(SymmetricTensor(tuple(idx), dirs, blocks, 0))
        lambdas = [
            {q: data[f"lam{m}/{q}"] for q in meta["lambda_charges"][m]}
            for m in range(L - 1)
        ]
    return CanonicalMps(gammas, lambdas, meta["total_charge"])
