"""Experiment E1 — Figure 1 of the paper, as a declarative Study.

User-controlled protocol, complete graph, ``n = 1000``, ``eps = 0.2``,
``alpha = 1``, all tasks initially on one resource.  The workload mixes
``k`` heavy tasks of weight ``wmax = 50`` with ``W - 50 k`` unit tasks;
the x-axis sweeps the total weight ``W`` from 2000 to 10000 and one
curve is drawn per ``k`` in {1, 5, 10, 20, 50}.

Paper's finding: "the balancing time is proportional to the logarithm
of ``m(W, k) + k`` — the results seem to be more or less independent of
the number of big tasks."  The result reports, per curve, the
logarithmic fit quality (R²) and the cross-``k`` spread, which should be
small relative to the mean.

The experiment is the grid ``sweep("k", ...) * sweep("W", ...)`` over a
user-protocol scenario; a binder turns each ``(k, W)`` into the task
count and two-point weight distribution (skipping infeasible corners
where ``W < 50 k``), and the row builder emits the figure's columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.fitting import FitResult, fit_logarithmic
from ..study import PointOutcome, Scenario, Study, StudyResult, sweep
from ..workloads.weights import TwoPointWeights
from .io import format_table, series

__all__ = [
    "QUICK",
    "Figure1Config",
    "Figure1Result",
    "build_study",
    "figure1_result",
]

#: The ``--quick`` preset (minutes-scale, preserves the sweep's shape).
QUICK = {
    "total_weights": (2000, 4000, 6000, 8000, 10000),
    "k_values": (1, 10, 50),
    "trials": 20,
}


@dataclass(frozen=True)
class Figure1Config:
    """Parameters of the Figure 1 sweep (defaults = the paper's)."""

    n: int = 1000
    eps: float = 0.2
    alpha: float = 1.0
    heavy_weight: float = 50.0
    total_weights: tuple[int, ...] = (
        2000,
        3000,
        4000,
        5000,
        6000,
        7000,
        8000,
        9000,
        10000,
    )
    k_values: tuple[int, ...] = (1, 5, 10, 20, 50)
    trials: int = 1000
    seed: int = 2015
    max_rounds: int = 100_000
    workers: int | None = None
    backend: str | None = None


@dataclass(frozen=True)
class _Figure1Bind:
    """Map a ``(k, W)`` grid point onto the scenario workload."""

    heavy_weight: float

    def __call__(self, scenario: Scenario, point) -> Scenario | None:
        k = point["k"]
        light = int(round(point["W"] - self.heavy_weight * k))
        if light < 0:
            # the k-heavy curve only exists for W >= k * heavy_weight
            # (the paper's k=50 curve starts above W=2500)
            return None
        return scenario.with_(
            m=light + k,
            weights=TwoPointWeights(
                light=1.0, heavy=self.heavy_weight, heavy_count=k
            ),
        )


def _figure1_row(outcome: PointOutcome) -> dict:
    m = outcome.scenario.m
    k = outcome.point["k"]
    summary = outcome.summary
    return {
        "W": outcome.point["W"],
        "k": k,
        "m": m,
        "mean_rounds": summary.mean_rounds,
        "ci95": summary.ci95_halfwidth,
        "log_m_plus_k": float(np.log(m + k)),
        "balanced_trials": summary.balanced_trials,
        "trials": summary.trials,
    }


def build_study(config: Figure1Config = Figure1Config()) -> Study:
    """The Figure 1 sweep as a declarative Study."""
    return Study(
        scenario=Scenario(
            protocol="user", n=config.n, alpha=config.alpha, eps=config.eps
        ),
        sweep=sweep("k", config.k_values) * sweep("W", config.total_weights),
        trials=config.trials,
        seed=config.seed,
        max_rounds=config.max_rounds,
        workers=config.workers,
        backend=config.backend,
        bind=_Figure1Bind(config.heavy_weight),
        row=_figure1_row,
    )


@dataclass
class Figure1Result:
    """Rows (one per ``(W, k)`` point) plus per-curve fits."""

    config: Figure1Config
    rows: list[dict]
    fits: dict[int, FitResult] = field(default_factory=dict)

    def format_table(self) -> str:
        table = format_table(
            self.rows,
            columns=[
                "W",
                "k",
                "m",
                "mean_rounds",
                "ci95",
                "log_m_plus_k",
            ],
            title=(
                "Figure 1 — user-controlled balancing time vs total weight W "
                f"(n={self.config.n}, eps={self.config.eps}, "
                f"alpha={self.config.alpha}, trials={self.config.trials})"
            ),
        )
        fit_lines = [
            f"  k={k}: rounds ~ {f.slope:.2f} * ln(m+k) + {f.intercept:.2f} "
            f"(R^2={f.r_squared:.3f})"
            for k, f in sorted(self.fits.items())
        ]
        return (
            table + "\n\nlogarithmic fits per curve:\n" + "\n".join(fit_lines)
        )

    def curve(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(W values, mean rounds) for one ``k`` — a figure series."""
        return series(
            self.rows, "W", "mean_rounds", where=lambda r: r["k"] == k
        )

    def chart(self, width: int = 64, height: int = 16) -> str:
        """ASCII rendering of the figure's series (one glyph per k)."""
        from .charts import ascii_chart

        out = {}
        for k in self.config.k_values:
            ws, times = self.curve(k)
            if ws.size:
                out[f"k={k}"] = (ws, times)
        return ascii_chart(
            out,
            width=width,
            height=height,
            x_label="W",
            y_label="rounds",
        )

    def cross_k_spread(self) -> float:
        """Max over W of (spread across k) / (mean across k).

        The paper's independence-of-``k`` claim predicts this is small
        (well under 1); benchmark E1 asserts it.
        """
        spreads = []
        for w_tot in self.config.total_weights:
            vals = [r["mean_rounds"] for r in self.rows if r["W"] == w_tot]
            if len(vals) > 1:
                spreads.append((max(vals) - min(vals)) / np.mean(vals))
        return float(max(spreads)) if spreads else 0.0


def figure1_result(
    config: Figure1Config, study_result: StudyResult
) -> Figure1Result:
    """Adapt the study rows into the rich Figure 1 result (adds fits)."""
    result = Figure1Result(config=config, rows=list(study_result.rows))
    for k in config.k_values:
        xs, ys = series(
            result.rows,
            "m",
            "mean_rounds",
            where=lambda r, k=k: r["k"] == k,
        )
        if xs.shape[0] >= 2:
            result.fits[k] = fit_logarithmic(xs + k, ys)
    return result
