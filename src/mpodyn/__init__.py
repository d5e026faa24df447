"""One-dimensional lattice dynamics with U(1)-symmetric matrix product operators.

Heisenberg-picture TEBD for spin and boson chains with three ways of
handling particle-number conservation: none (brute force), a conserved
particle-number difference between the operator's in- and out-chains
(grand-canonical), and full projection onto a fixed input particle number
(canonical).  Dense exact-diagonalization oracles cover small systems for
verification.
"""

from .charge_tensor import (
    ChargeIndex,
    ChargeMismatchError,
    TruncationPolicy,
    ZeroNormError,
)
from .mps_core import CanonicalMps, TruncationRecord, from_fock
from .operator_space import (
    BRUTE,
    CANONICAL,
    GRAND_CANONICAL,
    LocalOperator,
    SuperState,
    apply_out_chain,
    embed_factor,
    expectation_in_state,
    hs_trace_pair,
    identity_superstate,
    lift_product_operator,
)
from .projector import (
    omega,
    project_operator,
    projector_osee,
    projector_superstate,
    uniform_fock_superposition,
)
from .models import BondGate, ModelSpec, bond_gate, bond_hamiltonian, super_gate
from .evolution import EvolutionLog, TrotterSchedule, evolve, make_schedule
from .observables import (
    FitParams,
    TimeSeries,
    ensemble_relation_check,
    fit_itac,
    itac_canonical,
    itac_grand_canonical,
    itac_series,
    local_density_series,
)

__version__ = "0.1.0"
