"""Experiment E9 — the "arbitrary order" modelling assumption, as a Study.

Section 5 of the paper states: "If several balls arrive at the same
resource in one time step the new balls are added in an arbitrary
order."  The analysis never uses the order, so the measured balancing
time must be insensitive to it.  This ablation runs both protocols with
randomised vs FIFO (task-index) arrival stacking on identical workloads
and reports the ratio of mean balancing times — it should hover around
1 well within the confidence intervals.

This is a *model-robustness* check rather than a paper artefact: if a
refactor ever made the simulator's results depend on an arbitrary
choice the paper's model leaves open, this bench catches it.

The sweep showcases seed sharing: the ``order`` axis is *unseeded*
(``sweep("order", ..., seeded=False)``), so both stacking orders draw
from one per-protocol seed child instead of receiving independent
children: the two orders of a protocol continue one seed stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.builders import complete_graph, torus_graph
from ..study import PointOutcome, Scenario, Study, StudyResult, sweep
from ..workloads.weights import TwoPointWeights
from .io import format_table

__all__ = [
    "QUICK",
    "ArrivalOrderConfig",
    "ArrivalOrderResult",
    "build_study",
    "arrival_order_result",
]

#: The ``--quick`` preset.
QUICK = {"trials": 15}


@dataclass(frozen=True)
class ArrivalOrderConfig:
    n: int = 256
    m: int = 2048
    eps: float = 0.2
    heavy_weight: float = 16.0
    heavy_count: int = 16
    trials: int = 30
    seed: int = 2023
    max_rounds: int = 200_000
    workers: int | None = None
    backend: str | None = None


def _arrival_order_bind(scenario: Scenario, point) -> Scenario:
    kind, graph = point["protocol"]
    order = point["order"]
    if kind == "user":
        return scenario.with_(
            protocol="user", n=graph.n, graph=None, arrival_order=order
        )
    return scenario.with_(
        protocol="resource", n=None, graph=graph, arrival_order=order
    )


def _arrival_order_row(outcome: PointOutcome) -> dict:
    kind, _graph = outcome.point["protocol"]
    summary = outcome.summary
    return {
        "protocol": kind,
        "order": outcome.point["order"],
        "mean_rounds": summary.mean_rounds,
        "ci95": summary.ci95_halfwidth,
        "balanced_trials": summary.balanced_trials,
    }


def build_study(
    config: ArrivalOrderConfig = ArrivalOrderConfig(),
) -> Study:
    """Both protocols × both arrival orders, orders sharing seeds."""
    side = int(round(np.sqrt(config.n)))
    protocol_axis = (
        ("user", complete_graph(config.n)),
        ("resource", torus_graph(side, side)),
    )
    return Study(
        scenario=Scenario(
            protocol="user",
            m=config.m,
            weights=TwoPointWeights(
                light=1.0,
                heavy=config.heavy_weight,
                heavy_count=config.heavy_count,
            ),
            alpha=1.0,
            eps=config.eps,
        ),
        # one seed child per protocol, continued across both orders
        sweep=(
            sweep("protocol", protocol_axis)
            * sweep("order", ("random", "fifo"), seeded=False)
        ),
        trials=config.trials,
        seed=config.seed,
        max_rounds=config.max_rounds,
        workers=config.workers,
        backend=config.backend,
        bind=_arrival_order_bind,
        row=_arrival_order_row,
    )


@dataclass
class ArrivalOrderResult:
    config: ArrivalOrderConfig
    rows: list[dict]

    def format_table(self) -> str:
        return format_table(
            self.rows,
            columns=[
                "protocol",
                "order",
                "mean_rounds",
                "ci95",
            ],
            float_fmt=".4g",
            title=(
                "arrival-order ablation — random vs FIFO stacking "
                f"(n={self.config.n}, m={self.config.m}, "
                f"trials={self.config.trials})"
            ),
        )

    def order_ratio(self, protocol: str) -> float:
        """max/min of mean rounds across orders for one protocol."""
        vals = [
            r["mean_rounds"] for r in self.rows if r["protocol"] == protocol
        ]
        return float(max(vals) / min(vals)) if vals else 1.0


def arrival_order_result(
    config: ArrivalOrderConfig, study_result: StudyResult
) -> ArrivalOrderResult:
    """Adapt the study rows into the arrival-order result."""
    return ArrivalOrderResult(config=config, rows=list(study_result.rows))
