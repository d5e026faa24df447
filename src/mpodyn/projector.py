"""Fixed particle-number projectors and their exact entanglement profile.

The uniform superposition of all N-particle Fock states has a closed-form
canonical MPS: the squared Schmidt value of finding l particles left of a
bond is a ratio of occupancy counts, and the site tensors follow from the
conditional probabilities.  Mapping every site through |j> -> |j><j| turns
that state into the projector onto the N-particle sector, whose bond
dimension is at most N + 1 and whose entanglement entropy is bounded by
log2(N + 1).

All counts are exact big integers; ratios are formed with ``fractions``
and converted to floats only at the end, so large systems do not lose
precision to cancellation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .charge_tensor import ChargeIndex, SymmetricTensor
from .mps_core import CanonicalMps
from .operator_space import (
    CANONICAL,
    LocalOperator,
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
    if L == 0:
        return int(n == 0)
    return sum(omega(d, n - j, L - 1) for j in range(min(n, d - 1) + 1))


def _lambda_sq(d: int, N: int, L: int, m: int, l: int) -> Fraction:
    """Probability of l particles left of bond m in the uniform N-particle state."""
    return Fraction(omega(d, l, m) * omega(d, N - l, L - m), omega(d, N, L))


def _feasible(d: int, N: int, L: int, m: int) -> list[int]:
    return [
        l
        for l in range(N + 1)
        if omega(d, l, m) > 0 and omega(d, N - l, L - m) > 0
    ]


def uniform_fock_superposition(N: int, L: int, d: int | None = None) -> CanonicalMps:
    """Normalized equal superposition of all N-particle Fock states.

    With no local cap desired pass d = N + 1 (the default).  Bond charges
    count particles to the left, so the bond dimension is the number of
    feasible counts, at most N + 1.
    """
    if d is None:
        d = N + 1
    if N < 0 or N > L * (d - 1):
        raise ValueError("infeasible particle number")
    phys = ChargeIndex.occupation(d)
    gammas = []
    lambdas = []
    prev = [0]
    for m in range(1, L + 1):
        cur = _feasible(d, N, L, m)
        left = ChargeIndex(tuple((l, 1) for l in prev))
        right = ChargeIndex(tuple((r, 1) for r in cur))
        blocks = {}
        for lpos, l in enumerate(prev):
            for rpos, r in enumerate(cur):
                j = r - l
                if j < 0 or j > d - 1:
                    continue
                # squared site amplitude: conditional probability ratio
                num = omega(d, N, L)
                den = omega(d, N - l, L - m + 1) * omega(d, r, m)
                if den == 0:
                    continue
                g2 = Fraction(num, den)
                val = float(np.sqrt(float(g2)))
                blocks[(lpos, j, rpos)] = np.array([[[val]]], dtype=np.complex128)
        gammas.append(SymmetricTensor((left, phys, right), blocks))
        if m < L:
            lambdas.append(
                {l: np.array([float(np.sqrt(float(_lambda_sq(d, N, L, m, l))))]) for l in cur}
            )
        prev = cur
    return CanonicalMps(gammas, lambdas)


def projector_superstate(N: int, L: int, d: int) -> SuperState:
    """Superstate of the projector onto the N-particle sector, canonical labels.

    The diagonal map |j> -> |j><j| applied to the uniform superposition;
    the stored prefactor sqrt(Omega_d(N, L)) is its Hilbert-Schmidt norm.
    Every bond keeps one sector per particle count: l particles on both
    chains carry the label l * (w_in + w_out).
    """
    state = uniform_fock_superposition(N, L, d)
    weights = mode_weights(CANONICAL, L, d)
    phys = super_site_layout(d, weights)[0]
    w = sum(weights)

    def relabel(ix: ChargeIndex) -> ChargeIndex:
        return ChargeIndex(tuple((l * w, dim) for l, dim in ix.sectors))

    gammas = [
        SymmetricTensor(
            (relabel(g.indices[0]), phys, relabel(g.indices[2])),
            {
                (lpos, phys.position(j * w), rpos): blk
                for (lpos, j, rpos), blk in g.blocks.items()
            },
        )
        for g in state.gammas
    ]
    lambdas = [{l * w: v for l, v in lam.items()} for lam in state.lambdas]
    mps = CanonicalMps(gammas, lambdas)
    return SuperState(
        mps,
        L,
        d,
        CANONICAL,
        delta_n=0,
        prefactor=float(np.sqrt(omega(d, N, L))),
    )


def project_operator(op, N: int) -> SuperState:
    """Sandwich an operator between fixed-number projectors: P_{N-dn} op P_N.

    ``op`` is either a per-site factor list or a grand-canonical SuperState.
    An infeasible output sector yields the flagged zero superstate rather
    than an error.
    """
    if isinstance(op, SuperState):
        L, d, delta = op.L, op.d, op.delta_n
    else:
        factors: list[LocalOperator] = list(op)
        L, d = len(factors), factors[0].d
        deltas = [f.delta_n for f in factors]
        delta = None if None in deltas else sum(deltas)
    if delta is None:
        raise ValueError("indefinite charge")
    if N < 0 or N > L * (d - 1) or N - delta < 0 or N - delta > L * (d - 1):
        return SuperState.zero(L, d, CANONICAL, delta)
    result = projector_superstate(N, L, d)
    if isinstance(op, SuperState):
        return out_chain_compose(op, result)
    for m, f in enumerate(factors, start=1):
        if f.is_identity():
            continue
        result = apply_out_chain(f, m, result)
        if result.is_zero:
            break
    return result


def projector_osee(N: int, L: int, d: int, m: int) -> float:
    """Entanglement entropy of the projector superstate across bond m,
    evaluated directly from the exact Schmidt weights."""
    if not 1 <= m <= L - 1:
        raise ValueError("bond out of range")
    if N < 0 or N > L * (d - 1):
        raise ValueError("infeasible particle number")
    total = 0.0
    for l in range(N + 1):
        p = _lambda_sq(d, N, L, m, l)
        if p > 0:
            pf = float(p)
            total -= pf * np.log2(pf)
    return float(total)
