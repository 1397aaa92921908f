"""Experiment E7 — how conservative is the analysis constant ``alpha``?

Section 7 closes with: "Our simulations show that a small value of
``alpha`` is not necessary.  We are leaving it as an open question
whether the theoretical bound can also be shown for ``alpha = 1``."

This ablation quantifies the observation: the user-controlled protocol
is run with ``alpha`` ranging from Theorem 11's analysis value
``eps/(120(1+eps))`` up to 1.  Theorem 11 predicts
``E[T] ~ 1/alpha``; the study reports ``mean_rounds * alpha``, which
staying roughly constant confirms the ``1/alpha`` law, and the absolute
numbers show ``alpha = 1`` is ~3 orders of magnitude faster than the
analysis constant while still balancing every trial.

A hybrid-protocol variant (E7b) compares the future-work mixed protocol
on the same workload — the sweep's single ``variant`` axis enumerates
the user-protocol alphas followed by the hybrid point.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.bounds import theorem11_rounds
from ..core.protocols.user_controlled import theorem11_alpha
from ..graphs.builders import complete_graph
from ..graphs.topology import Graph
from ..study import PointOutcome, Scenario, Study, StudyResult, sweep
from ..workloads.weights import TwoPointWeights
from .io import format_table

__all__ = [
    "QUICK",
    "AlphaAblationConfig",
    "AlphaAblationResult",
    "build_study",
    "alpha_ablation_result",
]

#: The ``--quick`` preset.
QUICK = {
    "alphas": (0.05, 0.5, 1.0),
    "include_theory_alpha": False,
    "trials": 8,
}


@dataclass(frozen=True)
class AlphaAblationConfig:
    n: int = 500
    m: int = 2000
    eps: float = 0.2
    heavy_weight: float = 50.0
    heavy_count: int = 10
    alphas: tuple[float, ...] = (0.01, 0.05, 0.2, 0.5, 1.0)
    include_theory_alpha: bool = True
    include_hybrid: bool = True
    trials: int = 15
    seed: int = 2021
    max_rounds: int = 2_000_000
    workers: int | None = None
    backend: str | None = None


@dataclass(frozen=True)
class _AlphaBind:
    """Bind one ``variant`` axis value (protocol kind, alpha)."""

    graph: Graph | None  # complete graph, built iff hybrid is included

    def __call__(self, scenario: Scenario, point) -> Scenario:
        kind, alpha = point["variant"]
        if kind == "user":
            return scenario.with_(alpha=alpha)
        return scenario.with_(
            protocol="hybrid",
            n=None,
            graph=self.graph,
            alpha=alpha,
            resource_fraction=0.5,
        )


@dataclass(frozen=True)
class _AlphaRow:
    m: int
    eps: float
    heavy_weight: float

    def __call__(self, outcome: PointOutcome) -> dict:
        kind, alpha = outcome.point["variant"]
        summary = outcome.summary
        if kind == "user":
            return {
                "protocol": "user",
                "alpha": alpha,
                "mean_rounds": summary.mean_rounds,
                "ci95": summary.ci95_halfwidth,
                "rounds_x_alpha": summary.mean_rounds * alpha,
                "thm11_bound": theorem11_rounds(
                    self.m, self.eps, alpha, self.heavy_weight
                ),
                "balanced_trials": summary.balanced_trials,
            }
        return {
            "protocol": "hybrid(q=0.5)",
            "alpha": alpha,
            "mean_rounds": summary.mean_rounds,
            "ci95": summary.ci95_halfwidth,
            "rounds_x_alpha": summary.mean_rounds,
            "thm11_bound": float("nan"),
            "balanced_trials": summary.balanced_trials,
        }


def build_study(
    config: AlphaAblationConfig = AlphaAblationConfig(),
) -> Study:
    """The alpha ablation (plus hybrid comparison) as a Study."""
    alphas = list(config.alphas)
    if config.include_theory_alpha:
        alphas = [theorem11_alpha(config.eps), *alphas]
    variants = [("user", alpha) for alpha in alphas]
    hybrid_graph = None
    if config.include_hybrid:
        variants.append(("hybrid", 1.0))
        hybrid_graph = complete_graph(config.n)
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
            eps=config.eps,
        ),
        sweep=sweep("variant", tuple(variants)),
        trials=config.trials,
        seed=config.seed,
        max_rounds=config.max_rounds,
        workers=config.workers,
        backend=config.backend,
        bind=_AlphaBind(hybrid_graph),
        row=_AlphaRow(config.m, config.eps, config.heavy_weight),
    )


@dataclass
class AlphaAblationResult:
    config: AlphaAblationConfig
    rows: list[dict]

    def format_table(self) -> str:
        return format_table(
            self.rows,
            columns=[
                "protocol",
                "alpha",
                "mean_rounds",
                "ci95",
                "rounds_x_alpha",
                "thm11_bound",
            ],
            float_fmt=".4g",
            title=(
                "alpha ablation — user-controlled protocol, above-average "
                f"threshold (n={self.config.n}, m={self.config.m}, "
                f"eps={self.config.eps}, trials={self.config.trials})"
            ),
        )

    def inverse_alpha_spread(self) -> float:
        """Spread of ``rounds * alpha`` across the swept alphas
        (user-controlled rows only), as max/min.  Theorem 11's
        ``1/alpha`` law predicts a modest constant."""
        vals = [
            r["rounds_x_alpha"]
            for r in self.rows
            if r["protocol"] == "user" and r["alpha"] in self.config.alphas
        ]
        return float(max(vals) / min(vals)) if vals else 1.0


def alpha_ablation_result(
    config: AlphaAblationConfig, study_result: StudyResult
) -> AlphaAblationResult:
    """Adapt the study rows into the alpha-ablation result."""
    return AlphaAblationResult(config=config, rows=list(study_result.rows))
