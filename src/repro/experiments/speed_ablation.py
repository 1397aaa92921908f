"""Speed ablation — makespan vs. speed skew on heterogeneous fleets.

The paper's model assumes identical resources; Adolphs & Berenbrink
(*Distributed Selfish Load Balancing with Weights and Speeds*) extend
it with machine speeds and the normalised load ``x_r / s_r``, which the
engine now supports first-class (see :mod:`repro.core.thresholds`).
This study quantifies what heterogeneity buys: a two-class fleet
(``fast_fraction`` of the machines run at ``skew`` times the speed of
the rest) balances the same workload at increasing speed skew, on the
complete graph and on a torus, via the resource-controlled protocol.

Two effects to look for:

* the **makespan** (mean final maximum normalised load) *drops* as the
  skew grows — the fast machines legitimately absorb proportionally
  more raw load, so the per-unit-speed completion time of the busiest
  machine falls even though its raw load rises;
* balancing time stays in the same regime: the threshold comparison is
  per-resource and local, so heterogeneity costs the protocol nothing
  structurally (on the torus the skew shifts where the spare capacity
  sits, which moves rounds by topology-dependent constants).

``skew = 1`` is the homogeneous model — bit-for-bit identical to a run
without any speed vector at all (the uniform-speed equivalence the
property suite gates on), so the first column of the sweep doubles as
the paper-model baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.builders import complete_graph, torus_graph
from ..study import PointOutcome, Scenario, Study, StudyResult, sweep
from ..workloads.speeds import TwoClassSpeeds
from ..workloads.weights import UniformRangeWeights
from .charts import ascii_chart, series_from_rows
from .io import format_table

__all__ = [
    "QUICK",
    "SpeedAblationConfig",
    "SpeedAblationResult",
    "build_study",
    "speed_ablation_result",
]

#: The ``--quick`` preset.
QUICK = {
    "skews": (1.0, 2.0, 4.0),
    "trials": 6,
    "n": 36,
    "torus_shape": (6, 6),
    "m": 360,
}


@dataclass(frozen=True)
class SpeedAblationConfig:
    n: int = 64
    torus_shape: tuple[int, int] = (8, 8)
    m: int = 768
    eps: float = 0.2
    fast_fraction: float = 0.25
    skews: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    weight_high: float = 4.0
    trials: int = 25
    seed: int = 2026
    max_rounds: int = 500_000
    workers: int | None = None
    backend: str | None = None


@dataclass(frozen=True)
class _SpeedBind:
    """Bind a (topology label, skew) grid point onto the scenario."""

    graphs: dict
    fast_fraction: float

    def __call__(self, scenario: Scenario, point) -> Scenario:
        graph = self.graphs[point["topology"]]
        fast_count = max(1, int(round(graph.n * self.fast_fraction)))
        return scenario.with_(
            graph=graph,
            speeds=TwoClassSpeeds(
                slow=1.0, fast=point["skew"], fast_count=fast_count
            ),
        )


def _speed_row(outcome: PointOutcome) -> dict:
    """One tidy row per grid point, makespan from normalised loads."""
    summary = outcome.summary
    results = outcome.results
    return {
        "topology": outcome.point["topology"],
        "skew": outcome.point["skew"],
        "mean_rounds": summary.mean_rounds,
        "ci95": summary.ci95_halfwidth,
        "mean_makespan": float(
            np.mean([r.final_makespan for r in results])
        ),
        "mean_max_load": float(
            np.mean([r.final_max_load for r in results])
        ),
        "balanced_trials": summary.balanced_trials,
    }


def build_study(
    config: SpeedAblationConfig = SpeedAblationConfig(),
) -> Study:
    """The speed ablation as a declarative Study."""
    rows, cols = config.torus_shape
    graphs = {
        "complete": complete_graph(config.n),
        "torus": torus_graph(rows, cols),
    }
    return Study(
        scenario=Scenario(
            protocol="resource",
            m=config.m,
            weights=UniformRangeWeights(1.0, config.weight_high),
            eps=config.eps,
        ),
        sweep=sweep("topology", tuple(graphs)) * sweep("skew", config.skews),
        trials=config.trials,
        seed=config.seed,
        max_rounds=config.max_rounds,
        workers=config.workers,
        backend=config.backend,
        bind=_SpeedBind(graphs, config.fast_fraction),
        row=_speed_row,
    )


@dataclass
class SpeedAblationResult:
    config: SpeedAblationConfig
    rows: list[dict]

    def format_table(self) -> str:
        return format_table(
            self.rows,
            columns=[
                "topology",
                "skew",
                "mean_rounds",
                "ci95",
                "mean_makespan",
                "mean_max_load",
                "balanced_trials",
            ],
            float_fmt=".4g",
            title=(
                "speed ablation — resource-controlled protocol, two-class "
                f"fleet ({self.config.fast_fraction:.0%} fast machines, "
                f"m={self.config.m}, eps={self.config.eps}, "
                f"trials={self.config.trials})"
            ),
        )

    def chart(self) -> str:
        return ascii_chart(
            series_from_rows(
                self.rows, x="skew", y="mean_makespan", by="topology"
            ),
            x_label="speed skew (fast/slow)",
            y_label="makespan",
        )

    def makespan_monotone(self, topology: str) -> bool:
        """Does the mean makespan fall (weakly) as the skew grows?"""
        series = sorted(
            (r["skew"], r["mean_makespan"])
            for r in self.rows
            if r["topology"] == topology
        )
        values = [v for _, v in series]
        return all(b <= a * 1.05 for a, b in zip(values, values[1:]))


def speed_ablation_result(
    config: SpeedAblationConfig, study_result: StudyResult
) -> SpeedAblationResult:
    """Adapt the study rows into the speed-ablation result."""
    return SpeedAblationResult(config=config, rows=list(study_result.rows))
