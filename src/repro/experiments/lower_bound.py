"""Experiment E6 — Observation 8's lower-bound construction, as a Study.

The graph is a clique on ``n - 1`` vertices plus one pendant vertex
attached by ``k`` edges; its maximum hitting time is ``Theta(n^2/k)``.
Tasks are placed adversarially: every clique vertex is filled to the
average load ``W/n`` and all surplus sits on a single clique vertex, so
under the tight threshold the only place the surplus can go is the
pendant vertex — which random-walking tasks take ``~H(G)`` rounds to
hit.

The study sweeps ``k``; the measured balancing time should scale like
``1/k`` (i.e. like ``H``), matching ``Omega(H(G) log m)``.  The ratio
``rounds / H`` is reported and should be roughly flat across ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graphs.builders import clique_with_pendant
from ..graphs.hitting import hitting_times_to_target
from ..graphs.random_walk import max_degree_walk
from ..study import PointOutcome, Scenario, Study, StudyResult, sweep
from ..workloads.weights import UniformWeights
from .io import format_table

__all__ = [
    "QUICK",
    "LowerBoundConfig",
    "LowerBoundResult",
    "build_study",
    "lower_bound_result",
]

#: The ``--quick`` preset.
QUICK = {"k_values": (1, 4, 16), "trials": 5}


@dataclass(frozen=True)
class LowerBoundConfig:
    n: int = 32
    k_values: tuple[int, ...] = (1, 2, 4, 8, 16)
    m_factor: int = 4  # m = m_factor * n^2 so the surplus exceeds clique slack
    trials: int = 8
    seed: int = 2020
    max_rounds: int = 500_000
    workers: int | None = None
    backend: str | None = None

    @property
    def m(self) -> int:
        return self.m_factor * self.n**2


def _lower_bound_bind(scenario: Scenario, point) -> Scenario:
    _k, graph, _h = point["bridge"]
    return scenario.with_(graph=graph)


def _lower_bound_row(outcome: PointOutcome) -> dict:
    k, _graph, h_pendant = outcome.point["bridge"]
    summary = outcome.summary
    return {
        "k": k,
        "H_to_pendant": h_pendant,
        "mean_rounds": summary.mean_rounds,
        "ci95": summary.ci95_halfwidth,
        "per_H": summary.mean_rounds / h_pendant,
        "balanced_trials": summary.balanced_trials,
    }


def build_study(config: LowerBoundConfig = LowerBoundConfig()) -> Study:
    """The Observation 8 bridge-width sweep as a declarative Study."""
    bridges = []
    for k in config.k_values:
        graph = clique_with_pendant(config.n, k)
        walk = max_degree_walk(graph)
        # the relevant hitting time: worst clique vertex -> pendant
        h_pendant = float(hitting_times_to_target(walk, graph.n - 1).max())
        bridges.append((k, graph, h_pendant))
    return Study(
        scenario=Scenario(
            protocol="resource",
            m=config.m,
            weights=UniformWeights(1.0),
            threshold="tight_resource",
            placement="adversarial_clique",
        ),
        sweep=sweep("bridge", tuple(bridges)),
        trials=config.trials,
        seed=config.seed,
        max_rounds=config.max_rounds,
        workers=config.workers,
        backend=config.backend,
        bind=_lower_bound_bind,
        row=_lower_bound_row,
    )


@dataclass
class LowerBoundResult:
    config: LowerBoundConfig
    rows: list[dict]

    def format_table(self) -> str:
        return format_table(
            self.rows,
            columns=[
                "k",
                "H_to_pendant",
                "mean_rounds",
                "ci95",
                "per_H",
            ],
            float_fmt=".3g",
            title=(
                "Observation 8 — clique-plus-pendant lower bound: rounds vs "
                f"H = Theta(n^2/k) (n={self.config.n}, m={self.config.m}, "
                f"trials={self.config.trials})"
            ),
        )

    def scaling_vs_k(self) -> float:
        """Ratio of rounds at the smallest k to rounds at the largest k.

        ``H ~ n^2/k`` predicts about ``k_max / k_min``; the benchmark
        asserts the measured ratio is at least a healthy fraction of it.
        """
        rows = sorted(self.rows, key=lambda r: r["k"])
        return float(rows[0]["mean_rounds"] / rows[-1]["mean_rounds"])


def lower_bound_result(
    config: LowerBoundConfig, study_result: StudyResult
) -> LowerBoundResult:
    """Adapt the study rows into the Observation 8 result."""
    return LowerBoundResult(config=config, rows=list(study_result.rows))
