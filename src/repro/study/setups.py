"""Picklable trial setups — the compile target of :class:`Scenario`.

:mod:`repro.core.runner` can fan trials out over a process pool, which
requires the setup callable to be picklable — hence these frozen
dataclasses implementing ``__call__`` instead of closures.  They are
the executable form of a :class:`repro.study.Scenario` (and are
re-exported by :mod:`repro.experiments`).

Each setup builds a fresh ``(protocol, state)`` pair per trial from its
configuration; workload sampling uses the trial's own RNG stream so
random weight distributions vary across trials while staying
reproducible from the root seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.protocols import (
    HybridProtocol,
    Protocol,
    ResourceControlledProtocol,
    UserControlledProtocol,
)
from ..core.state import SystemState
from ..core.thresholds import (
    AboveAverageThreshold,
    ThresholdPolicy,
    TightResourceThreshold,
    TightUserThreshold,
)
from ..graphs.implicit import NeighborSampler
from ..graphs.topology import Graph
from ..workloads.placement import (
    adversarial_clique_placement,
    single_source_placement,
    uniform_random_placement,
)
from ..workloads.dynamics import DynamicsSpec
from ..workloads.speeds import SpeedDistribution
from ..workloads.weights import WeightDistribution

__all__ = [
    "PLACEMENT_KINDS",
    "THRESHOLD_KINDS",
    "UserControlledSetup",
    "ResourceControlledSetup",
    "HybridSetup",
]

#: Threshold-policy kinds understood by the setups and :class:`Scenario`.
THRESHOLD_KINDS = ("above_average", "tight_user", "tight_resource")

#: Initial-placement kinds understood by the setups and :class:`Scenario`.
PLACEMENT_KINDS = ("single_source", "uniform", "adversarial_clique")


def _threshold_policy(kind: str, eps: float) -> ThresholdPolicy:
    if kind == "above_average":
        return AboveAverageThreshold(eps=eps)
    if kind == "tight_user":
        return TightUserThreshold()
    if kind == "tight_resource":
        return TightResourceThreshold()
    raise ValueError(
        f"unknown threshold kind {kind!r}; expected one of {THRESHOLD_KINDS}"
    )


def _speeds(
    distribution: SpeedDistribution | None,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray | None:
    """Sample resource speeds, or ``None`` for the homogeneous model.

    Drawn *after* weights and placement so ``speeds=None`` setups
    consume exactly the pre-speeds randomness (bit-for-bit trial
    equivalence with older revisions on shared seeds).
    """
    return None if distribution is None else distribution.sample(n, rng)


def _attach_dynamics(
    state: SystemState,
    spec: DynamicsSpec | None,
    default_weights: WeightDistribution,
    policy: ThresholdPolicy,
    rng: np.random.Generator,
) -> SystemState:
    """Compile an arrival/departure schedule onto a freshly built state.

    Compiled *after* weights, placement and speeds so ``dynamics=None``
    setups consume exactly the pre-dynamics randomness (bit-for-bit
    trial equivalence with older revisions on shared seeds).
    """
    if spec is not None:
        state.dynamics = spec.compile(
            n=state.n,
            m0=state.m,
            rng=rng,
            default_weights=default_weights,
            policy=policy,
        )
    return state


def _placement(
    kind: str, m: int, n: int, weights: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    if kind == "single_source":
        return single_source_placement(m, n)
    if kind == "uniform":
        return uniform_random_placement(m, n, rng)
    if kind == "adversarial_clique":
        return adversarial_clique_placement(weights, n)
    raise ValueError(
        f"unknown placement kind {kind!r}; expected one of {PLACEMENT_KINDS}"
    )


@dataclass(frozen=True)
class UserControlledSetup:
    """Build Algorithm 6.1 trials on the complete graph.

    This is the configuration of every Section 7 simulation: ``n``
    resources, a weight distribution, all tasks on one source resource,
    threshold ``(1+eps) W/n + wmax`` (or tight), migration factor
    ``alpha``.
    """

    n: int
    m: int
    distribution: WeightDistribution
    alpha: float = 1.0
    eps: float = 0.2
    threshold_kind: str = "above_average"
    placement_kind: str = "single_source"
    arrival_order: str = "random"
    atol: float = 1e-9
    speeds: SpeedDistribution | None = None
    dynamics: DynamicsSpec | None = None

    def __call__(
        self, rng: np.random.Generator
    ) -> tuple[Protocol, SystemState]:
        weights = self.distribution.sample(self.m, rng)
        placement = _placement(
            self.placement_kind, self.m, self.n, weights, rng
        )
        policy = _threshold_policy(self.threshold_kind, self.eps)
        state = SystemState.from_workload(
            weights,
            placement,
            self.n,
            policy,
            atol=self.atol,
            speeds=_speeds(self.speeds, self.n, rng),
        )
        _attach_dynamics(state, self.dynamics, self.distribution, policy, rng)
        protocol = UserControlledProtocol(
            alpha=self.alpha, arrival_order=self.arrival_order
        )
        return protocol, state


@dataclass(frozen=True)
class ResourceControlledSetup:
    """Build Algorithm 5.1 trials on an arbitrary graph.

    ``graph`` may be an explicit CSR :class:`Graph` or an implicit
    :class:`~repro.graphs.implicit.NeighborSampler` (same trials bit
    for bit; the sampler stores no adjacency, so it is the right form
    at large ``n``).
    """

    graph: Graph | NeighborSampler
    m: int
    distribution: WeightDistribution
    eps: float = 0.2
    threshold_kind: str = "above_average"
    placement_kind: str = "single_source"
    arrival_order: str = "random"
    atol: float = 1e-9
    speeds: SpeedDistribution | None = None
    dynamics: DynamicsSpec | None = None

    def __call__(
        self, rng: np.random.Generator
    ) -> tuple[Protocol, SystemState]:
        weights = self.distribution.sample(self.m, rng)
        placement = _placement(
            self.placement_kind, self.m, self.graph.n, weights, rng
        )
        policy = _threshold_policy(self.threshold_kind, self.eps)
        state = SystemState.from_workload(
            weights,
            placement,
            self.graph.n,
            policy,
            atol=self.atol,
            speeds=_speeds(self.speeds, self.graph.n, rng),
        )
        _attach_dynamics(state, self.dynamics, self.distribution, policy, rng)
        protocol = ResourceControlledProtocol(
            self.graph, arrival_order=self.arrival_order
        )
        return protocol, state


@dataclass(frozen=True)
class HybridSetup:
    """Build mixed resource/user trials (paper's future-work protocol).

    Like :class:`ResourceControlledSetup`, ``graph`` accepts either an
    explicit :class:`Graph` or an implicit
    :class:`~repro.graphs.implicit.NeighborSampler`.
    """

    graph: Graph | NeighborSampler
    m: int
    distribution: WeightDistribution
    alpha: float = 1.0
    eps: float = 0.2
    resource_fraction: float = 0.5
    mode: str = "probabilistic"
    threshold_kind: str = "above_average"
    placement_kind: str = "single_source"
    speeds: SpeedDistribution | None = None
    dynamics: DynamicsSpec | None = None

    def __call__(
        self, rng: np.random.Generator
    ) -> tuple[Protocol, SystemState]:
        weights = self.distribution.sample(self.m, rng)
        placement = _placement(
            self.placement_kind, self.m, self.graph.n, weights, rng
        )
        policy = _threshold_policy(self.threshold_kind, self.eps)
        state = SystemState.from_workload(
            weights,
            placement,
            self.graph.n,
            policy,
            speeds=_speeds(self.speeds, self.graph.n, rng),
        )
        _attach_dynamics(state, self.dynamics, self.distribution, policy, rng)
        protocol = HybridProtocol(
            ResourceControlledProtocol(self.graph),
            UserControlledProtocol(alpha=self.alpha),
            resource_fraction=self.resource_fraction,
            mode=self.mode,
        )
        return protocol, state
