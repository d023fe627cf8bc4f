"""The paper's primary contribution: the permission semantics and its
decision algorithm.

Entry points::

    from repro.core import permits, find_witness

    permits(contract_ba, query_ba, vocabulary)   # Algorithm 2
    find_witness(contract_ba, query_ba, vocabulary)
"""

from .budget import Deadline, ExecutionBudget, StepBudget
from .faults import FaultInjector, SimulatedCrash
from .permission import (
    PermissionStats,
    PermissionWitness,
    WitnessStep,
    find_witness,
    permits,
    permits_encoded,
)
from .rwlock import RWLock
from .seeds import compute_seeds, compute_seeds_mask

__all__ = [
    "Deadline",
    "ExecutionBudget",
    "StepBudget",
    "FaultInjector",
    "SimulatedCrash",
    "RWLock",
    "PermissionStats",
    "PermissionWitness",
    "WitnessStep",
    "find_witness",
    "permits",
    "permits_encoded",
    "compute_seeds",
    "compute_seeds_mask",
]
