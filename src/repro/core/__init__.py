"""Core: states, stacks, thresholds, potentials, protocols, simulation.

The engine is layered: :class:`SystemState` holds who-is-where,
:func:`partition_stacks` derives the below/cutting/above decomposition,
the protocols implement one synchronous round, :func:`simulate` drives a
single trial, and the *backends* (:mod:`repro.core.backends`) execute
multi-trial sweeps — serially, vectorised across trials in one process
(:class:`~repro.core.batch.BatchedBackend`), or either of those over a
process pool (:class:`~repro.core.backends.PoolBackend`).  All backends
reproduce the same per-trial results from a shared root seed; pick one
via ``run_trials(..., backend=...)`` using any name in
:data:`~repro.core.backends.BACKEND_NAMES` (``process`` pools the dense
engine, ``sharded`` the batched one).
"""

from .backends import (
    BACKEND_NAMES,
    DenseBackend,
    PoolBackend,
    PoolDegradationWarning,
    SimulationBackend,
    get_backend,
    validate_workers,
)
from .batch import (
    BatchedBackend,
    BatchFallbackWarning,
    BatchState,
    BatchStepStats,
)
from .metrics import (
    DynamicSummary,
    TrialSummary,
    normalized_balancing_time,
    summarize_dynamics,
    summarize_runs,
)
from .potential import (
    active_count,
    active_weight,
    per_resource_potential,
    resource_potential,
    total_potential,
    user_potential,
)
from .protocols import (
    HybridProtocol,
    Protocol,
    ResourceControlledProtocol,
    StepStats,
    UserControlledProtocol,
    theorem11_alpha,
    theorem12_alpha,
)
from .reference import (
    build_stacks,
    reference_resource_step,
    reference_user_step,
)
from .runner import run_single_trial, run_trial_summary, run_trials
from .simulator import RunResult, simulate
from .stack import ResourceStack, StackPartition, partition_stacks
from .state import SystemState
from .thresholds import (
    AboveAverageThreshold,
    FixedThreshold,
    ProportionalThresholds,
    ThresholdPolicy,
    TightResourceThreshold,
    TightUserThreshold,
    effective_capacity,
    feasible_threshold,
    validate_speeds,
)

__all__ = [
    "AboveAverageThreshold",
    "BACKEND_NAMES",
    "BatchFallbackWarning",
    "BatchState",
    "BatchStepStats",
    "BatchedBackend",
    "DenseBackend",
    "DynamicSummary",
    "FixedThreshold",
    "HybridProtocol",
    "PoolBackend",
    "PoolDegradationWarning",
    "ProportionalThresholds",
    "Protocol",
    "ResourceControlledProtocol",
    "ResourceStack",
    "RunResult",
    "SimulationBackend",
    "StackPartition",
    "StepStats",
    "SystemState",
    "ThresholdPolicy",
    "TightResourceThreshold",
    "TightUserThreshold",
    "TrialSummary",
    "UserControlledProtocol",
    "active_count",
    "active_weight",
    "build_stacks",
    "effective_capacity",
    "feasible_threshold",
    "get_backend",
    "normalized_balancing_time",
    "partition_stacks",
    "per_resource_potential",
    "reference_resource_step",
    "reference_user_step",
    "resource_potential",
    "run_single_trial",
    "run_trial_summary",
    "run_trials",
    "simulate",
    "summarize_dynamics",
    "summarize_runs",
    "theorem11_alpha",
    "theorem12_alpha",
    "total_potential",
    "user_potential",
    "validate_speeds",
    "validate_workers",
]
