"""Experiment E2 — Figure 2 of the paper, as a declarative Study.

User-controlled protocol, complete graph, ``n = 1000``, ``eps = 0.2``,
``alpha = 1``, single-source start.  The workload has exactly one heavy
task of weight ``wmax`` and ``m - 1`` unit tasks; the x-axis sweeps the
number of tasks ``m`` up to 5000, one curve per
``wmax in {1, 2, 4, ..., 256}``, and the y-axis is the balancing time
normalised by ``log m``.

Paper's finding: "the upper bound of Theorem 11 is tight up to a
constant factor; the balancing time of the simulation is logarithmic in
``m`` and almost linear in ``wmax/wmin``."  The result fits the
normalised time against ``wmax`` (linear) and each curve against
``ln m`` (flat after normalisation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.fitting import FitResult, fit_linear, fit_logarithmic
from ..core.metrics import normalized_balancing_time
from ..study import PointOutcome, Scenario, Study, StudyResult, sweep
from ..workloads.weights import TwoPointWeights
from .io import format_table, series

__all__ = [
    "QUICK",
    "Figure2Config",
    "Figure2Result",
    "build_study",
    "figure2_result",
]

#: The ``--quick`` preset (minutes-scale, preserves the sweep's shape).
QUICK = {
    "m_values": (500, 1000, 2000, 4000),
    "wmax_values": (1, 4, 16, 64, 256),
    "trials": 10,
}


@dataclass(frozen=True)
class Figure2Config:
    """Parameters of the Figure 2 sweep (defaults = the paper's)."""

    n: int = 1000
    eps: float = 0.2
    alpha: float = 1.0
    m_values: tuple[int, ...] = (250, 500, 1000, 2000, 3000, 4000, 5000)
    wmax_values: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)
    trials: int = 1000
    seed: int = 2016
    max_rounds: int = 200_000
    workers: int | None = None
    backend: str | None = None


def _figure2_bind(scenario: Scenario, point) -> Scenario:
    return scenario.with_(
        m=point["m"],
        weights=TwoPointWeights(
            light=1.0, heavy=float(point["wmax"]), heavy_count=1
        ),
    )


def _figure2_row(outcome: PointOutcome) -> dict:
    m = outcome.point["m"]
    summary = outcome.summary
    return {
        "m": m,
        "wmax": outcome.point["wmax"],
        "mean_rounds": summary.mean_rounds,
        "ci95": summary.ci95_halfwidth,
        "normalized": normalized_balancing_time(summary.mean_rounds, m),
        "balanced_trials": summary.balanced_trials,
        "trials": summary.trials,
    }


def build_study(config: Figure2Config = Figure2Config()) -> Study:
    """The Figure 2 sweep as a declarative Study."""
    return Study(
        scenario=Scenario(
            protocol="user", n=config.n, alpha=config.alpha, eps=config.eps
        ),
        sweep=sweep("wmax", config.wmax_values) * sweep("m", config.m_values),
        trials=config.trials,
        seed=config.seed,
        max_rounds=config.max_rounds,
        workers=config.workers,
        backend=config.backend,
        bind=_figure2_bind,
        row=_figure2_row,
    )


@dataclass
class Figure2Result:
    """Rows (one per ``(m, wmax)`` point) plus the two shape fits."""

    config: Figure2Config
    rows: list[dict]
    wmax_fit: FitResult | None = None
    per_wmax_fits: dict[int, FitResult] = field(default_factory=dict)

    def format_table(self) -> str:
        table = format_table(
            self.rows,
            columns=["m", "wmax", "mean_rounds", "ci95", "normalized"],
            title=(
                "Figure 2 — normalised balancing time (rounds / ln m) vs m, "
                f"one heavy task (n={self.config.n}, eps={self.config.eps}, "
                f"alpha={self.config.alpha}, trials={self.config.trials})"
            ),
        )
        lines = [table, ""]
        if self.wmax_fit is not None:
            f = self.wmax_fit
            lines.append(
                "normalised time vs wmax (averaged over m): "
                f"~ {f.slope:.3f} * wmax + {f.intercept:.2f} "
                f"(R^2={f.r_squared:.3f}) — the 'almost linear in "
                "wmax/wmin' claim"
            )
        return "\n".join(lines)

    def curve(self, wmax: int) -> tuple[np.ndarray, np.ndarray]:
        """(m values, normalised rounds) for one ``wmax`` curve."""
        return series(
            self.rows, "m", "normalized", where=lambda r: r["wmax"] == wmax
        )

    def chart(self, width: int = 64, height: int = 16) -> str:
        """ASCII rendering of the figure's series (one glyph per wmax)."""
        from .charts import ascii_chart

        out = {}
        for wmax in self.config.wmax_values:
            ms, norm = self.curve(wmax)
            if ms.size:
                out[f"wmax={wmax}"] = (ms, norm)
        return ascii_chart(
            out,
            width=width,
            height=height,
            x_label="m",
            y_label="rounds/ln m",
        )

    def mean_normalized_by_wmax(self) -> tuple[np.ndarray, np.ndarray]:
        """Normalised time averaged over the ``m`` sweep, per ``wmax``."""
        wmaxes = np.array(sorted(self.config.wmax_values), dtype=np.float64)
        means = np.array(
            [
                np.mean(
                    [r["normalized"] for r in self.rows if r["wmax"] == w]
                )
                for w in wmaxes
            ]
        )
        return wmaxes, means


def figure2_result(
    config: Figure2Config, study_result: StudyResult
) -> Figure2Result:
    """Adapt the study rows into the rich Figure 2 result (adds fits)."""
    result = Figure2Result(config=config, rows=list(study_result.rows))
    wmaxes, means = result.mean_normalized_by_wmax()
    if wmaxes.shape[0] >= 2:
        result.wmax_fit = fit_linear(wmaxes, means)
    for wmax in config.wmax_values:
        ms, norm = result.curve(wmax)
        if ms.shape[0] >= 2:
            # raw rounds vs ln m — slope is the curve's log coefficient
            raw = norm * np.log(ms)
            result.per_wmax_fits[wmax] = fit_logarithmic(ms, raw)
    return result
