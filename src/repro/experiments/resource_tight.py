"""Experiment E5 — Theorem 7's ``O(H(G) ln W)`` shape check, as a Study.

Resource-controlled protocol under the tight threshold
``T = W/n + 2 wmax``.  Two graphs with sharply different maximum hitting
times are contrasted at equal size: the complete graph
(``H = n - 1``) and the cycle (``H = n^2/4``).  The study sweeps the
task count and reports ``rounds / (H(G) ln W)``, which Theorem 7 bounds
by a constant — so the cycle should take ~``n/4``x longer in absolute
rounds yet normalise to a similar constant.

Weighted workloads are included because Theorem 7's bound is again
independent of the individual weights (only ``W`` enters).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.bounds import theorem7_rounds
from ..graphs.builders import complete_graph, cycle_graph
from ..graphs.hitting import max_hitting_time
from ..graphs.random_walk import max_degree_walk
from ..study import PointOutcome, Scenario, Study, StudyResult, sweep
from ..workloads.weights import TwoPointWeights, UniformWeights
from .io import format_table

__all__ = [
    "QUICK",
    "ResourceTightConfig",
    "ResourceTightResult",
    "build_study",
    "resource_tight_result",
]

#: The ``--quick`` preset.
QUICK = {"m_values": (128, 512), "trials": 8}


@dataclass(frozen=True)
class ResourceTightConfig:
    n: int = 64
    m_values: tuple[int, ...] = (128, 256, 512, 1024)
    trials: int = 15
    seed: int = 2019
    max_rounds: int = 500_000
    heavy_weight: float = 8.0
    heavy_count: int = 4
    workers: int | None = None
    backend: str | None = None


def _resource_tight_bind(scenario: Scenario, point) -> Scenario:
    graph, _h = point["graph"]
    _label, dist = point["workload"]
    return scenario.with_(graph=graph, m=point["m"], weights=dist)


def _resource_tight_row(outcome: PointOutcome) -> dict:
    graph, h = outcome.point["graph"]
    label, dist = outcome.point["workload"]
    m = outcome.point["m"]
    summary = outcome.summary
    # total weight for the normaliser (deterministic dists)
    w_sample = dist.sample(m, np.random.default_rng(0))
    total_w = float(w_sample.sum())
    return {
        "graph": graph.name,
        "weights": label,
        "m": m,
        "H": h,
        "mean_rounds": summary.mean_rounds,
        "ci95": summary.ci95_halfwidth,
        "per_H_log_W": summary.mean_rounds / (h * np.log(total_w)),
        "thm7_bound": theorem7_rounds(h, total_w),
        "balanced_trials": summary.balanced_trials,
    }


def build_study(
    config: ResourceTightConfig = ResourceTightConfig(),
) -> Study:
    """The Theorem 7 shape check as a declarative Study."""
    graph_axis = tuple(
        (graph, max_hitting_time(max_degree_walk(graph)))
        for graph in (complete_graph(config.n), cycle_graph(config.n))
    )
    workload_axis = (
        ("unit", UniformWeights(1.0)),
        (
            f"{config.heavy_count}x{config.heavy_weight:g}+units",
            TwoPointWeights(
                light=1.0,
                heavy=config.heavy_weight,
                heavy_count=config.heavy_count,
            ),
        ),
    )
    return Study(
        scenario=Scenario(protocol="resource", threshold="tight_resource"),
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
        bind=_resource_tight_bind,
        row=_resource_tight_row,
    )


@dataclass
class ResourceTightResult:
    config: ResourceTightConfig
    rows: list[dict]

    def format_table(self) -> str:
        return format_table(
            self.rows,
            columns=[
                "graph",
                "weights",
                "m",
                "H",
                "mean_rounds",
                "ci95",
                "per_H_log_W",
                "thm7_bound",
            ],
            float_fmt=".3g",
            title=(
                "Theorem 7 — resource-controlled, tight threshold "
                "W/n + 2 wmax: rounds vs H(G) * ln W "
                f"(n={self.config.n}, trials={self.config.trials})"
            ),
        )

    def normalized_by_graph(self) -> dict[str, float]:
        """Mean of rounds/(H ln W) per graph — should be same order for
        complete graph and cycle despite a ~n/4 gap in H."""
        out: dict[str, list[float]] = {}
        for r in self.rows:
            out.setdefault(r["graph"], []).append(r["per_H_log_W"])
        return {g: float(np.mean(v)) for g, v in out.items()}


def resource_tight_result(
    config: ResourceTightConfig, study_result: StudyResult
) -> ResourceTightResult:
    """Adapt the study rows into the Theorem 7 result."""
    return ResourceTightResult(config=config, rows=list(study_result.rows))
