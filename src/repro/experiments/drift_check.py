"""Experiment E8 — measured potential drift vs the analysis constants.

Two claims are checked against recorded potential trajectories:

* **Lemma 10 / Theorem 11** (user-controlled, above-average): the
  per-round multiplicative potential drop is at least
  ``alpha * eps/(2(1+eps)) * wmin/wmax``.  The measured drift is far
  larger — the same conservatism Section 7 observes for ``alpha``.
* **Lemma 5 / Theorem 7** (resource-controlled, tight threshold): the
  potential drops by at least a factor ``1/4`` per phase of ``2 H(G)``
  rounds.  Measured per-phase drops on the cycle and complete graph
  sit well above ``1/4``.

Additionally, the resource-controlled rows verify Observation 4
(``Phi`` never increases) on every recorded trace.

As a Study this sweeps one ``probe`` axis (user / cycle / complete)
with ``record_traces=True``; the row builder consumes the raw traces
from each point's :class:`~repro.study.PointOutcome`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.drift import estimate_drift, lemma10_delta
from ..graphs.builders import complete_graph, cycle_graph
from ..graphs.hitting import max_hitting_time
from ..graphs.random_walk import max_degree_walk
from ..study import PointOutcome, Scenario, Study, StudyResult, sweep
from ..workloads.weights import TwoPointWeights, UniformWeights
from .io import format_table

__all__ = [
    "QUICK",
    "DriftCheckConfig",
    "DriftCheckResult",
    "build_study",
    "drift_check_result",
]

#: The ``--quick`` preset.
QUICK = {"trials": 5}


@dataclass(frozen=True)
class DriftCheckConfig:
    n: int = 128
    m: int = 1024
    eps: float = 0.2
    alpha: float = 1.0
    heavy_weight: float = 16.0
    heavy_count: int = 8
    trials: int = 10
    seed: int = 2022
    max_rounds: int = 500_000
    workers: int | None = None
    backend: str | None = None


def _phase_drops(trace: np.ndarray, phase: int) -> list[float]:
    """Relative potential drop over consecutive phases of given length."""
    drops = []
    t = 0
    while t + phase < trace.shape[0] and trace[t] > 0:
        drops.append(1.0 - trace[t + phase] / trace[t])
        t += phase
    return drops


def _drift_bind(scenario: Scenario, point) -> Scenario:
    kind, graph, _phase = point["probe"]
    if kind == "user":
        return scenario
    return scenario.with_(
        protocol="resource",
        n=None,
        graph=graph,
        weights=UniformWeights(1.0),
        threshold="tight_resource",
    )


@dataclass(frozen=True)
class _DriftRow:
    """Measure drift/phase-drop statistics from the recorded traces."""

    eps: float
    alpha: float
    heavy_weight: float

    def __call__(self, outcome: PointOutcome) -> dict:
        kind, graph, phase = outcome.point["probe"]
        results = outcome.results
        if kind == "user":
            deltas, preds, rounds = [], [], []
            for r in results:
                est = estimate_drift(r.potential_trace)
                deltas.append(est.delta_regression)
                preds.append(est.predicted_rounds)
                rounds.append(r.rounds)
            return {
                "scenario": "user/above-average (Lemma 10)",
                "delta_measured": float(np.mean(deltas)),
                "delta_theory": lemma10_delta(
                    self.eps, self.alpha, self.heavy_weight, 1.0
                ),
                "phase_drop_measured": float("nan"),
                "phase_drop_theory": float("nan"),
                # user potential may increase transiently
                "monotone_phi": False,
                "mean_rounds": float(np.mean(rounds)),
                "drift_pred_rounds": float(np.mean(preds)),
            }
        drops, monotone, rounds, preds = [], [], [], []
        for r in results:
            trace = r.potential_trace
            monotone.append(bool(np.all(np.diff(trace) <= 1e-9)))
            drops.extend(_phase_drops(trace, phase))
            rounds.append(r.rounds)
            est = estimate_drift(trace)
            # drift prediction expressed in rounds of length 1
            preds.append(est.predicted_rounds)
        return {
            "scenario": f"resource/tight on {graph.name} (Lemma 5)",
            "delta_measured": float("nan"),
            "delta_theory": float("nan"),
            "phase_drop_measured": float(np.mean(drops)) if drops else 1.0,
            "phase_drop_theory": 0.25,
            "monotone_phi": all(monotone),
            "mean_rounds": float(np.mean(rounds)),
            "drift_pred_rounds": float(np.mean(preds)),
        }


def build_study(config: DriftCheckConfig = DriftCheckConfig()) -> Study:
    """The three drift probes as one trace-recording Study."""
    probes = [("user", None, 0)]
    for graph in (cycle_graph(config.n), complete_graph(config.n)):
        h = max_hitting_time(max_degree_walk(graph))
        probes.append(("resource", graph, max(1, int(round(2 * h)))))
    return Study(
        scenario=Scenario(
            protocol="user",
            n=config.n,
            m=config.m,
            weights=TwoPointWeights(
                light=1.0,
                heavy=config.heavy_weight,
                heavy_count=config.heavy_count,
            ),
            alpha=config.alpha,
            eps=config.eps,
        ),
        sweep=sweep("probe", tuple(probes)),
        trials=config.trials,
        seed=config.seed,
        max_rounds=config.max_rounds,
        workers=config.workers,
        backend=config.backend,
        record_traces=True,
        bind=_drift_bind,
        row=_DriftRow(config.eps, config.alpha, config.heavy_weight),
    )


@dataclass
class DriftCheckResult:
    config: DriftCheckConfig
    rows: list[dict]

    def format_table(self) -> str:
        return format_table(
            self.rows,
            columns=[
                "scenario",
                "delta_measured",
                "delta_theory",
                "phase_drop_measured",
                "phase_drop_theory",
                "monotone_phi",
                "mean_rounds",
                "drift_pred_rounds",
            ],
            float_fmt=".4g",
            title=(
                "drift check — measured potential decay vs Lemma 10 / "
                f"Lemma 5 constants (trials={self.config.trials})"
            ),
        )


def drift_check_result(
    config: DriftCheckConfig, study_result: StudyResult
) -> DriftCheckResult:
    """Adapt the study rows into the drift-check result."""
    return DriftCheckResult(config=config, rows=list(study_result.rows))
