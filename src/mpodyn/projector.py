"""Fixed particle-number projectors and their exact entanglement profile.

The uniform superposition of all N-particle Fock states has a closed-form
canonical MPS: the squared Schmidt value of finding l particles left of a
bond is a ratio of occupancy counts, and so is the square of every entry
of a stored site B = Gamma lambda: the share of the completions right of
the site that it starts.  Mapping every site through |j> -> |j><j| turns
that state into the projector onto the N-particle sector, whose bond
dimension is at most N + 1 and whose entanglement entropy is bounded by
log2(N + 1).

One builder writes both chains, given the physical leg and a charge
weight w: occupation j sits on the physical sector of charge j * w, and l
particles left of a bond give it the charge l * w.  All counts are exact
big integers, counted over sites without recursion, and each ratio is
one correctly rounded integer division, so large systems do not lose
precision to cancellation.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .charge_tensor import ChargeIndex, SectorMatrices, SymmetricTensor
from .mps_core import CanonicalMps
from .operator_space import (
    CANONICAL,
    SuperState,
    apply_out_chain,
    mode_weights,
    out_chain_compose,
    super_site_layout,
)


@lru_cache(maxsize=None)
def omega(d: int, n: int, L: int) -> int:
    """Exact occupancy count Omega_d(n, L): ways to place n indistinguishable
    particles on L sites with at most d-1 per site; 0 for infeasible n."""
    if n < 0:
        return 0
    if d < 2 or L < 0:
        raise ValueError("need d >= 2 and L >= 0")
    if n > L * (d - 1):
        return 0
    for counts in _count_rows(d, n, L):
        pass
    return counts[n]


def _count_rows(d: int, n: int, L: int):
    """Omega_d(0..n, k) for k = 0..L, one list per k: a new site adds 0..d-1
    particles, so its counts are running sums over d of the previous ones."""
    counts = [1] + [0] * n
    yield counts
    for _ in range(L):
        counts = list(accumulate(c - gone for c, gone in zip(counts, [0] * d + counts)))
        yield counts


def _split_count(table, N: int, L: int, m: int, l: int) -> int:
    """N-particle Fock states with l particles left of bond m; ``table[k]`` is
    the :func:`_count_rows` row of k sites."""
    return table[m][l] * table[L - m][N - l]


def _uniform_chain(N: int, L: int, d: int, phys: ChargeIndex, w: int) -> CanonicalMps:
    """Right-canonical MPS of the uniform N-particle superposition.

    Occupation j sits on the sector of ``phys`` with charge j * w; a bond
    with l particles to its left carries the charge l * w.
    """
    if N < 0 or N > L * (d - 1):
        raise ValueError("infeasible particle number")
    table = list(_count_rows(d, N, L))
    total = table[L][N]
    sites = []
    lambdas = []
    prev = [0]
    for m in range(1, L + 1):
        cur = [l for l in range(N + 1) if _split_count(table, N, L, m, l) > 0]
        left = ChargeIndex(tuple((l * w, 1) for l in prev))
        right = ChargeIndex(tuple((r * w, 1) for r in cur))
        blocks = {}
        for lpos, l in enumerate(prev):
            for rpos, r in enumerate(cur):
                j = r - l
                if j < 0 or j > d - 1:
                    continue
                # squared entry of B = Gamma lambda: the share of the completions
                # right of bond m-1 that start with j particles on site m
                val = float(np.sqrt(table[L - m][N - r] / table[L - m + 1][N - l]))
                key = (lpos, phys.position(j * w), rpos)
                blocks[key] = np.array([[[val]]], dtype=np.complex128)
        sites.append(SectorMatrices.from_tensor(SymmetricTensor((left, phys, right), blocks)))
        if m < L:
            lambdas.append(
                {l * w: np.array([float(np.sqrt(_split_count(table, N, L, m, l) / total))]) for l in cur}
            )
        prev = cur
    return CanonicalMps(sites, lambdas)


def uniform_fock_superposition(N: int, L: int, d: int | None = None) -> CanonicalMps:
    """Normalized equal superposition of all N-particle Fock states.

    With no local cap desired pass d = N + 1 (the default).  Bond charges
    count particles to the left, so the bond dimension is the number of
    feasible counts, at most N + 1.
    """
    if d is None:
        d = N + 1
    return _uniform_chain(N, L, d, ChargeIndex.occupation(d), 1)


def projector_superstate(N: int, L: int, d: int) -> SuperState:
    """Superstate of the projector onto the N-particle sector, canonical labels.

    The diagonal map |j> -> |j><j| applied to the uniform superposition;
    the stored prefactor sqrt(Omega_d(N, L)) is its Hilbert-Schmidt norm.
    Every bond keeps one sector per particle count: l particles on both
    chains carry the label l * (w_in + w_out).
    """
    weights = mode_weights(CANONICAL, L, d)
    mps = _uniform_chain(N, L, d, super_site_layout(d, weights)[0], sum(weights))
    return SuperState(
        mps,
        L,
        d,
        CANONICAL,
        delta_n=0,
        prefactor=math.sqrt(omega(d, N, L)),
    )


def project_operator(op, N: int) -> SuperState:
    """Sandwich an operator between fixed-number projectors: P_{N-dn} op P_N.

    ``op`` is either a per-site factor list or a grand-canonical SuperState;
    either is composed onto the projector superstate exactly once.  An
    infeasible output sector yields the flagged zero superstate rather
    than an error.
    """
    if isinstance(op, SuperState):
        L, d, delta = op.L, op.d, op.delta_n
        compose = out_chain_compose
    else:
        op = list(op)
        if not op:
            raise ValueError("need at least one factor")
        L, d = len(op), op[0].d
        deltas = [f.delta_n for f in op]
        delta = None if None in deltas else sum(deltas)
        compose = apply_out_chain
    if delta is None:
        raise ValueError("indefinite charge")
    if N < 0 or N > L * (d - 1) or N - delta < 0 or N - delta > L * (d - 1):
        return SuperState.zero(L, d, CANONICAL, delta)
    return compose(op, projector_superstate(N, L, d))


def projector_osee(N: int, L: int, d: int, m: int) -> float:
    """Entanglement entropy of the projector superstate across bond m,
    evaluated directly from the exact Schmidt weights."""
    if not 1 <= m <= L - 1:
        raise ValueError("bond out of range")
    if N < 0 or N > L * (d - 1):
        raise ValueError("infeasible particle number")
    table = {k: row for k, row in enumerate(_count_rows(d, N, max(m, L - m))) if k in (m, L - m)}
    counts = [_split_count(table, N, L, m, l) for l in range(N + 1)]
    total = sum(counts)
    entropy = 0.0
    for count in counts:
        if count > 0:
            p = count / total
            entropy -= p * np.log2(p)
    return float(entropy)
