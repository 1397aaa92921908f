"""Experiment E4 — Theorem 3's ``O(tau(G) log m)`` shape check, as a Study.

Resource-controlled protocol, above-average threshold
``(1+eps) W/n + wmax``, single-source start, across four graph families
of equal size (complete, random 3-regular expander, hypercube, torus).
The study measures the mean balancing time per ``m`` in a sweep and
reports the ratio ``rounds / (tau(G) ln m)``, which Theorem 3 predicts
is bounded by a constant — per graph *and* across graphs.

A second workload column re-runs the same sweep with heterogeneous
weights (uniform on [1, 10]): Theorem 3's bound does not depend on the
weights, so the two columns should be close — the paper's headline
"note that this bound does not depend on the weights of the tasks".

Declaratively: ``sweep("graph", ...) * sweep("workload", ...) *
sweep("m", ...)`` over a resource-protocol scenario; ``tau(G)`` is
precomputed once per graph into the axis values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.bounds import theorem3_rounds
from ..graphs.builders import (
    complete_graph,
    hypercube_graph,
    random_regular_graph,
    torus_graph,
)
from ..graphs.random_walk import max_degree_walk
from ..graphs.spectral import mixing_time_bound
from ..graphs.topology import Graph
from ..study import PointOutcome, Scenario, Study, StudyResult, sweep
from ..workloads.weights import UniformRangeWeights, UniformWeights
from .io import format_table

__all__ = [
    "QUICK",
    "ResourceAboveConfig",
    "ResourceAboveResult",
    "build_study",
    "resource_above_result",
]

#: The ``--quick`` preset.
QUICK = {"m_values": (512, 2048), "trials": 10}


@dataclass(frozen=True)
class ResourceAboveConfig:
    """Graphs of ~256 vertices, task counts swept over a factor of 8."""

    n_target: int = 256
    eps: float = 0.2
    m_values: tuple[int, ...] = (512, 1024, 2048, 4096)
    trials: int = 25
    seed: int = 2018
    max_rounds: int = 200_000
    heavy_high: float = 10.0
    workers: int | None = None
    backend: str | None = None


def _graphs(config: ResourceAboveConfig) -> list[Graph]:
    rng = np.random.default_rng(config.seed)
    n = config.n_target
    dim = int(round(np.log2(n)))
    side = int(round(np.sqrt(n)))
    return [
        complete_graph(n),
        random_regular_graph(n, 3, rng),
        hypercube_graph(dim),
        torus_graph(side, side),
    ]


def _resource_above_bind(scenario: Scenario, point) -> Scenario:
    graph, _tau = point["graph"]
    _label, dist = point["workload"]
    return scenario.with_(graph=graph, m=point["m"], weights=dist)


@dataclass(frozen=True)
class _ResourceAboveRow:
    eps: float

    def __call__(self, outcome: PointOutcome) -> dict:
        graph, tau = outcome.point["graph"]
        label, _dist = outcome.point["workload"]
        m = outcome.point["m"]
        summary = outcome.summary
        return {
            "graph": graph.name,
            "weights": label,
            "m": m,
            "tau": tau,
            "mean_rounds": summary.mean_rounds,
            "ci95": summary.ci95_halfwidth,
            "per_tau_log_m": summary.mean_rounds / (tau * np.log(m)),
            "thm3_bound": theorem3_rounds(tau, m, self.eps),
            "balanced_trials": summary.balanced_trials,
        }


def build_study(
    config: ResourceAboveConfig = ResourceAboveConfig(),
) -> Study:
    """The Theorem 3 shape check as a declarative Study."""
    graph_axis = tuple(
        (graph, mixing_time_bound(max_degree_walk(graph)))
        for graph in _graphs(config)
    )
    workload_axis = (
        ("unit", UniformWeights(1.0)),
        ("uniform[1,10]", UniformRangeWeights(1.0, config.heavy_high)),
    )
    return Study(
        scenario=Scenario(
            protocol="resource", eps=config.eps, threshold="above_average"
        ),
        sweep=(
            sweep("graph", graph_axis)
            * sweep("workload", workload_axis)
            * sweep("m", config.m_values)
        ),
        trials=config.trials,
        seed=config.seed,
        max_rounds=config.max_rounds,
        workers=config.workers,
        backend=config.backend,
        bind=_resource_above_bind,
        row=_ResourceAboveRow(config.eps),
    )


@dataclass
class ResourceAboveResult:
    config: ResourceAboveConfig
    rows: list[dict]

    def format_table(self) -> str:
        return format_table(
            self.rows,
            columns=[
                "graph",
                "weights",
                "m",
                "tau",
                "mean_rounds",
                "ci95",
                "per_tau_log_m",
                "thm3_bound",
            ],
            float_fmt=".3g",
            title=(
                "Theorem 3 — resource-controlled, above-average threshold: "
                "rounds vs tau(G) * ln m "
                f"(eps={self.config.eps}, trials={self.config.trials})"
            ),
        )

    def max_normalized(self) -> float:
        """Max of rounds / (tau ln m) over all points — Theorem 3 says
        this is O(1); benchmark E4 asserts it stays modest."""
        return float(max(r["per_tau_log_m"] for r in self.rows))


def resource_above_result(
    config: ResourceAboveConfig, study_result: StudyResult
) -> ResourceAboveResult:
    """Adapt the study rows into the Theorem 3 result."""
    return ResourceAboveResult(config=config, rows=list(study_result.rows))
