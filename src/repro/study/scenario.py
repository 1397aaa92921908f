"""Declarative scenario specs: one point in the paper's design space.

The paper's artefacts are all points in a single scenario space — a
threshold protocol (user- or resource-controlled), a topology, a
weighted-task workload, a threshold policy and an initial placement.
:class:`Scenario` names each of those axes as a field of one frozen
dataclass and compiles to the picklable trial setups the simulation
backends already consume, so composing a new experiment is field
substitution instead of writing a new driver module.

Compilation is intentionally thin: a scenario with the same field
values as a hand-built :class:`~repro.study.setups.UserControlledSetup`
(or resource/hybrid setup) produces *that exact setup*, so a study
point and a direct :func:`~repro.core.runner.run_trials` call on that
setup agree bit-for-bit from the same seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from ..core.backends import TrialSetup
from ..graphs.implicit import NeighborSampler
from ..graphs.topology import Graph
from ..workloads.dynamics import DynamicsSpec
from ..workloads.speeds import SpeedDistribution
from ..workloads.weights import UniformWeights, WeightDistribution
from .setups import (
    PLACEMENT_KINDS,
    THRESHOLD_KINDS,
    HybridSetup,
    ResourceControlledSetup,
    UserControlledSetup,
)

__all__ = ["PROTOCOL_KINDS", "Scenario", "scenario_axes"]

#: Protocol kinds a scenario can compile to.
PROTOCOL_KINDS = ("user", "resource", "hybrid")

#: Arrival orders threaded through to the protocols.
ARRIVAL_ORDERS = ("random", "fifo")

#: Mixing modes of the hybrid protocol.
HYBRID_MODES = ("probabilistic", "alternate")


@dataclass(frozen=True)
class Scenario:
    """A fully specified simulation scenario (one sweep point).

    Fields are the axes of the paper's design space; every axis has the
    paper's Section 7 default so a scenario is usually two or three
    overrides away from ``Scenario()``.  Use :meth:`with_` (or a
    :class:`~repro.study.Sweep` binding values onto axes) to derive
    variants, and :meth:`compile` to obtain the picklable trial setup.

    ``n`` names the resource count for the complete-graph user protocol;
    the resource and hybrid protocols take their vertex count from
    ``graph`` instead.
    """

    protocol: str = "user"
    m: int = 0
    n: int | None = None
    graph: Graph | NeighborSampler | None = None
    weights: WeightDistribution = UniformWeights(1.0)
    speeds: SpeedDistribution | None = None
    threshold: str = "above_average"
    placement: str = "single_source"
    arrival_order: str = "random"
    alpha: float = 1.0
    eps: float = 0.2
    resource_fraction: float = 0.5
    hybrid_mode: str = "probabilistic"
    atol: float = 1e-9
    dynamics: DynamicsSpec | None = None

    def with_(self, **overrides: Any) -> "Scenario":
        """Return a copy with the given axes replaced.

        Unknown axis names raise ``ValueError`` (this is the error a
        mistyped ``--axis`` flag or sweep binding surfaces).
        """
        unknown = sorted(set(overrides) - set(scenario_axes()))
        if unknown:
            raise ValueError(
                f"unknown scenario axis {', '.join(map(repr, unknown))}; "
                f"valid axes: {', '.join(scenario_axes())}"
            )
        return dataclasses.replace(self, **overrides)

    @property
    def resources(self) -> int:
        """The resource count, whichever axis provides it."""
        if self.graph is not None:
            return self.graph.n
        if self.n is not None:
            return self.n
        raise ValueError("scenario specifies neither n nor graph")

    def validate(self) -> None:
        """Raise ``ValueError`` on axis values that cannot compile."""
        if self.protocol not in PROTOCOL_KINDS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; "
                f"expected one of {PROTOCOL_KINDS}"
            )
        if self.threshold not in THRESHOLD_KINDS:
            raise ValueError(
                f"unknown threshold kind {self.threshold!r}; "
                f"expected one of {THRESHOLD_KINDS}"
            )
        if self.placement not in PLACEMENT_KINDS:
            raise ValueError(
                f"unknown placement kind {self.placement!r}; "
                f"expected one of {PLACEMENT_KINDS}"
            )
        if self.arrival_order not in ARRIVAL_ORDERS:
            raise ValueError(
                f"unknown arrival order {self.arrival_order!r}; "
                f"expected one of {ARRIVAL_ORDERS}"
            )
        if self.m < 1:
            raise ValueError(f"scenario needs m >= 1 task, got m={self.m}")
        if self.speeds is not None and not isinstance(
            self.speeds, SpeedDistribution
        ):
            raise ValueError(
                "scenario speeds must be a SpeedDistribution (per-trial "
                "vectors are sampled from it); wrap a fixed vector in "
                "ExplicitSpeeds"
            )
        if self.dynamics is not None and not isinstance(
            self.dynamics, DynamicsSpec
        ):
            raise ValueError(
                "scenario dynamics must be a DynamicsSpec (the schedule "
                "itself is compiled per trial); wrap explicit arrivals in "
                "TraceDynamics"
            )
        if self.hybrid_mode not in HYBRID_MODES:
            raise ValueError(
                f"unknown hybrid mode {self.hybrid_mode!r}; "
                f"expected one of {HYBRID_MODES}"
            )
        if self.protocol == "user":
            if self.n is None:
                raise ValueError(
                    "the user-controlled protocol runs on the complete "
                    "graph: set n (leave graph unset)"
                )
            if self.graph is not None:
                raise ValueError(
                    "the user-controlled protocol runs on the complete "
                    "graph of n resources; a graph axis would be ignored "
                    "— unset it (or pick protocol='resource')"
                )
        else:
            if self.graph is None:
                raise ValueError(
                    f"the {self.protocol} protocol needs an explicit graph"
                )
            if self.n is not None:
                raise ValueError(
                    f"the {self.protocol} protocol takes its resource "
                    "count from the graph; an n axis would be ignored — "
                    "unset it"
                )
        if self.speeds is not None:
            # an explicit vector must fit the resource count; catch it
            # here (compile time) instead of mid-sweep at sample time
            from ..workloads.speeds import ExplicitSpeeds

            if isinstance(self.speeds, ExplicitSpeeds) and len(
                self.speeds.speeds
            ) != self.resources:
                raise ValueError(
                    f"speeds vector has {len(self.speeds.speeds)} entries "
                    f"but the scenario has {self.resources} resources"
                )
        if self.protocol == "hybrid":
            if self.arrival_order != "random":
                raise ValueError(
                    "the hybrid protocol only supports "
                    "arrival_order='random'"
                )
            if self.atol != 1e-9:
                raise ValueError(
                    "the hybrid protocol does not support a custom atol "
                    "(its setup fixes the default 1e-9)"
                )

    def compile(self) -> TrialSetup:
        """Compile to the picklable per-trial setup the backends run.

        The compiled object equals the setup built by hand from the
        same fields, so results are bit-identical to running that
        setup directly with the same seed.
        """
        self.validate()
        if self.protocol == "user":
            return UserControlledSetup(
                n=self.n,
                m=self.m,
                distribution=self.weights,
                alpha=self.alpha,
                eps=self.eps,
                threshold_kind=self.threshold,
                placement_kind=self.placement,
                arrival_order=self.arrival_order,
                atol=self.atol,
                speeds=self.speeds,
                dynamics=self.dynamics,
            )
        if self.protocol == "resource":
            return ResourceControlledSetup(
                graph=self.graph,
                m=self.m,
                distribution=self.weights,
                eps=self.eps,
                threshold_kind=self.threshold,
                placement_kind=self.placement,
                arrival_order=self.arrival_order,
                atol=self.atol,
                speeds=self.speeds,
                dynamics=self.dynamics,
            )
        return HybridSetup(
            graph=self.graph,
            m=self.m,
            distribution=self.weights,
            alpha=self.alpha,
            eps=self.eps,
            resource_fraction=self.resource_fraction,
            mode=self.hybrid_mode,
            threshold_kind=self.threshold,
            placement_kind=self.placement,
            speeds=self.speeds,
            dynamics=self.dynamics,
        )

    def describe(self) -> str:
        """One-line human-readable summary (CLI ``describe``/``sweep``)."""
        if self.graph is not None:
            where = self.graph.name
        elif self.n is not None:
            where = f"complete(n={self.n})"
        else:
            where = "(bound per sweep point)"
        parts = [
            f"protocol={self.protocol}",
            f"graph={where}",
            f"m={self.m}",
            f"weights={self.weights.describe()}",
            f"threshold={self.threshold}",
        ]
        if self.speeds is not None:
            parts.append(f"speeds={self.speeds.describe()}")
        if self.dynamics is not None:
            parts.append(f"dynamics={self.dynamics.describe()}")
        parts += [
            f"placement={self.placement}",
            f"arrival_order={self.arrival_order}",
            f"alpha={self.alpha:g}",
            f"eps={self.eps:g}",
        ]
        if self.protocol == "hybrid":
            parts.append(f"resource_fraction={self.resource_fraction:g}")
            parts.append(f"hybrid_mode={self.hybrid_mode}")
        return " ".join(parts)


def scenario_axes() -> tuple[str, ...]:
    """Names of every scenario axis, in declaration order."""
    return tuple(f.name for f in dataclasses.fields(Scenario))
