"""Experiment E10 — probing the conclusion's open question, as a Study.

"In the case of user-based allocation we provided only upper-bounds for
the complete graphs.  It would be interesting to consider lower bounds
in this setting."  (Section 8.)

Theorem 12's *upper* bound for the tight threshold is
``2 n / alpha * wmax/wmin * log m`` — linear in ``n``.  Whether the
protocol actually needs ``Omega(n)`` rounds is open.  This experiment
measures the balancing time of the tight-threshold user-controlled
protocol as ``n`` grows (with ``m = c * n`` so the per-resource load is
fixed) and fits a power law ``rounds ~ n^q``.

The measured exponent comes out well below 1 at these scales (the
protocol is far faster than the upper bound), which is *evidence
against* a matching ``Omega(n)`` lower bound on benign (single-source,
uniform-weight) instances — consistent with the paper leaving the
question open rather than conjecturing tightness.  The adversarial
question remains open; this bench reports the benign-instance exponent
so future work has a number to beat.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.bounds import theorem12_rounds
from ..analysis.fitting import FitResult, fit_power_law
from ..study import PointOutcome, Scenario, Study, StudyResult, sweep
from ..workloads.weights import UniformWeights
from .io import format_table, series

__all__ = [
    "QUICK",
    "TightScalingConfig",
    "TightScalingResult",
    "build_study",
    "tight_scaling_result",
]

#: The ``--quick`` preset.
QUICK = {"n_values": (32, 64, 128, 256), "trials": 12}


@dataclass(frozen=True)
class TightScalingConfig:
    n_values: tuple[int, ...] = (32, 64, 128, 256, 512)
    m_per_n: int = 8
    alpha: float = 1.0
    trials: int = 25
    seed: int = 2024
    max_rounds: int = 1_000_000
    workers: int | None = None
    backend: str | None = None


@dataclass(frozen=True)
class _TightScalingBind:
    m_per_n: int

    def __call__(self, scenario: Scenario, point) -> Scenario:
        n = point["n"]
        return scenario.with_(n=n, m=self.m_per_n * n)


@dataclass(frozen=True)
class _TightScalingRow:
    alpha: float

    def __call__(self, outcome: PointOutcome) -> dict:
        n = outcome.point["n"]
        m = outcome.scenario.m
        summary = outcome.summary
        bound = theorem12_rounds(m, n, self.alpha, 1.0)
        return {
            "n": n,
            "m": m,
            "mean_rounds": summary.mean_rounds,
            "ci95": summary.ci95_halfwidth,
            "thm12_bound": bound,
            "measured/bound": summary.mean_rounds / bound,
            "balanced_trials": summary.balanced_trials,
        }


def build_study(
    config: TightScalingConfig = TightScalingConfig(),
) -> Study:
    """The tight-threshold scaling sweep as a declarative Study."""
    return Study(
        scenario=Scenario(
            protocol="user",
            weights=UniformWeights(1.0),
            alpha=config.alpha,
            threshold="tight_user",
        ),
        sweep=sweep("n", config.n_values),
        trials=config.trials,
        seed=config.seed,
        max_rounds=config.max_rounds,
        workers=config.workers,
        backend=config.backend,
        bind=_TightScalingBind(config.m_per_n),
        row=_TightScalingRow(config.alpha),
    )


@dataclass
class TightScalingResult:
    config: TightScalingConfig
    rows: list[dict]
    fit: FitResult | None = None

    def format_table(self) -> str:
        table = format_table(
            self.rows,
            columns=[
                "n",
                "m",
                "mean_rounds",
                "ci95",
                "thm12_bound",
                "measured/bound",
            ],
            float_fmt=".4g",
            title=(
                "open question (Sec. 8) — user-controlled, tight threshold "
                f"W/n + wmax: rounds vs n (m = {self.config.m_per_n} n, "
                f"alpha={self.config.alpha}, trials={self.config.trials})"
            ),
        )
        if self.fit is not None:
            table += (
                f"\n\npower-law fit: rounds ~ n^{self.fit.slope:.2f} "
                f"(R^2={self.fit.r_squared:.3f}); Theorem 12's upper bound "
                "scales as n^1 — a measured exponent well below 1 means the "
                "bound is loose on benign instances"
            )
        return table


def tight_scaling_result(
    config: TightScalingConfig, study_result: StudyResult
) -> TightScalingResult:
    """Adapt the study rows into the scaling result (adds the fit)."""
    result = TightScalingResult(config=config, rows=list(study_result.rows))
    ns, times = series(result.rows, "n", "mean_rounds")
    if ns.shape[0] >= 2 and (times > 0).all():
        result.fit = fit_power_law(ns, times)
    return result
