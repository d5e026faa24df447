"""Dense exact references for every quantity the tensor engine computes.

Everything here is built by independent basis enumeration and dense linear
algebra; nothing is shared with the block-sparse engine.  The basis is
occupation-number little-endian: site 1 varies fastest, so a basis index
decomposes as sum_m n_m * d**(m-1).

Practical up to d**L of a few thousand (L <= 10 at d = 2, L <= 6 at d = 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from .models import ModelSpec

DEFAULT_DIM_CAP = 4096


@dataclass
class DenseOperator:
    entries: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _check_cap(spec_dim: int, cap: int) -> None:
    if spec_dim > cap:
        raise ValueError(f"dense dimension {spec_dim} exceeds cap {cap}")


def site_operator(op: np.ndarray, m: int, L: int) -> np.ndarray:
    """Embed a single-site matrix at site m (1-based), little-endian basis."""
    d = op.shape[0]
    return np.kron(np.eye(d ** (L - m)), np.kron(op, np.eye(d ** (m - 1))))


def _sparse_site(op: np.ndarray, m: int, L: int) -> sparse.csr_matrix:
    """:func:`site_operator` as a sparse matrix, for building H term by term."""
    d = op.shape[0]
    return sparse.kron(
        sparse.identity(d ** (L - m)), sparse.kron(op, sparse.identity(d ** (m - 1))), format="csr"
    )


def two_site_operator(op2: np.ndarray, m: int, L: int, d: int) -> np.ndarray:
    """Embed a two-site matrix (left site slow) at bond m, little-endian basis."""
    # little-endian means site m+1 is more significant than site m
    op_sw = op2.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
    return np.kron(np.eye(d ** (L - m - 1)), np.kron(op_sw, np.eye(d ** (m - 1))))


def occupations_iter(L: int, d: int):
    """All occupation tuples in basis order (site 1 fastest)."""
    for idx in range(d**L):
        occ = []
        rem = idx
        for _ in range(L):
            occ.append(rem % d)
            rem //= d
        yield tuple(occ)


def fock_statevector(occupations, d: int) -> np.ndarray:
    L = len(occupations)
    idx = sum(int(n) * d**m for m, n in enumerate(occupations))
    v = np.zeros(d**L, dtype=np.complex128)
    v[idx] = 1.0
    return v


def sector_indicator(L: int, d: int, N: int) -> np.ndarray:
    """Boolean mask of basis states with exactly N particles."""
    return np.array([sum(occ) == N for occ in occupations_iter(L, d)])


def dense_total_number(L: int, d: int) -> np.ndarray:
    diag = np.array([sum(occ) for occ in occupations_iter(L, d)], dtype=np.float64)
    return np.diag(diag).astype(np.complex128)


def dense_hamiltonian(spec: ModelSpec, cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
    """Full Hamiltonian from the global model formula (not from bond terms).

    Each term is a product of sparse site operators, densified before it
    is summed; every entry of a product holds a single nonzero term, so H
    is bitwise the one the dense products would give.
    """
    L, d = spec.L, spec.d
    _check_cap(d**L, cap)
    dim = d**L
    H = np.zeros((dim, dim), dtype=np.complex128)
    if spec.kind == "xxz":
        sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
        sy = np.array([[0, 1j], [-1j, 0]], dtype=np.complex128)
        sz = np.array([[-1, 0], [0, 1]], dtype=np.complex128)
        for m in range(1, L):
            for op, w in ((sx, 1.0), (sy, 1.0), (sz, spec.delta)):
                H += (-0.5 * w * _sparse_site(op, m, L) @ _sparse_site(op, m + 1, L)).toarray()
    else:
        a = np.diag(np.sqrt(np.arange(1.0, d)), k=1).astype(np.complex128)
        for m in range(1, L):
            hop = (_sparse_site(a.conj().T, m, L) @ _sparse_site(a, m + 1, L)).toarray()
            H += -spec.hopping * (hop + hop.conj().T)
        n = np.diag(np.arange(d, dtype=np.float64)).astype(np.complex128)
        for m in range(1, L + 1):
            nm = _sparse_site(n, m, L)
            H += 0.5 * spec.interaction * (nm @ nm - nm).toarray()
    return DenseOperator(H)


def dense_heisenberg_evolve(H: np.ndarray, O: np.ndarray, t: float) -> np.ndarray:
    """exp(iHt) O exp(-iHt) via eigendecomposition."""
    w, v = np.linalg.eigh(H)
    phases = np.exp(1j * w * t)
    in_eigenbasis = v.conj().T @ O @ v
    return (v * phases[None, :]) @ in_eigenbasis @ (phases.conj()[:, None] * v.conj().T)


def dense_itac(H: np.ndarray, O: np.ndarray, t: float) -> complex:
    """Infinite-temperature autocorrelation Tr[O_t^dagger O] / dim."""
    Ot = dense_heisenberg_evolve(H, O, t)
    return complex(np.trace(Ot.conj().T @ O) / H.shape[0])


def dense_sector_itac(H: np.ndarray, O: np.ndarray, t: float, L: int, d: int, N: int) -> complex:
    """Sector-restricted autocorrelation Tr[P O_t P O] / Tr[P]."""
    mask = sector_indicator(L, d, N)
    count = int(np.sum(mask))
    if count == 0:
        raise ValueError("empty sector")
    P = np.diag(mask.astype(np.complex128))
    Ot = dense_heisenberg_evolve(H, O, t)
    return complex(np.trace(P @ Ot @ P @ O) / count)


def dense_statevector_evolve(H, psi: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt) |psi> with a sparse Krylov propagator; ``H`` may be dense or sparse."""
    sp = sparse.csr_matrix(H)
    return expm_multiply(-1j * t * sp, psi.astype(np.complex128))
