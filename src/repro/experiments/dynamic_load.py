"""Dynamic load — continuous rebalancing under an arrival stream.

The paper analyses a one-shot regime: all ``m`` tasks exist at round
zero and the protocols run until no resource exceeds its threshold.
This study opens the online regime the engine now supports
(:mod:`repro.workloads.dynamics`): tasks arrive as a Poisson stream
with exponential lifetimes while the resource-controlled protocol
keeps rebalancing, on the complete graph and on a torus.

The quantities of interest are steady-state, not a balancing time:

* **time in violation** — the fraction of rounds with at least one
  overloaded resource.  It grows with the arrival rate (each arrival
  can push its resource back over threshold) and is higher on the
  torus, where a task needs several hops to reach spare capacity;
* **churn** — migrations per round.  The one-shot protocol stops; the
  online protocol keeps paying a migration cost proportional to the
  arrival rate;
* **steady-state makespan** — the trailing-window mean of the maximum
  (normalised) load, the online analogue of the paper's final
  makespan.

Rates are tasks per round; at rate ``lambda`` with mean lifetime
``L`` the live population settles around ``lambda * L`` (Little's
law), so the sweep holds ``lambda * L`` near the one-shot ``m`` to
keep the points comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.metrics import summarize_dynamics
from ..graphs.builders import complete_graph, torus_graph
from ..study import PointOutcome, Scenario, Study, StudyResult, sweep
from ..workloads.dynamics import ExponentialLifetimes, PoissonDynamics
from ..workloads.weights import UniformRangeWeights
from .charts import ascii_chart, series_from_rows
from .io import format_table

__all__ = [
    "QUICK",
    "DynamicLoadConfig",
    "DynamicLoadResult",
    "build_study",
    "dynamic_load_result",
]

#: The ``--quick`` preset.
QUICK = {
    "rates": (0.5, 2.0),
    "trials": 4,
    "n": 16,
    "torus_shape": (4, 4),
    "m0": 32,
    "horizon": 60,
    "mean_lifetime": 30.0,
    "max_rounds": 400,
}


@dataclass(frozen=True)
class DynamicLoadConfig:
    n: int = 36
    torus_shape: tuple[int, int] = (6, 6)
    m0: int = 108
    eps: float = 0.2
    rates: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    horizon: int = 300
    mean_lifetime: float = 100.0
    weight_high: float = 4.0
    trials: int = 10
    seed: int = 2027
    max_rounds: int = 5_000
    workers: int | None = None
    backend: str | None = None


@dataclass(frozen=True)
class _DynamicBind:
    """Bind a (topology label, arrival rate) grid point onto the scenario."""

    graphs: dict
    horizon: int
    mean_lifetime: float

    def __call__(self, scenario: Scenario, point) -> Scenario:
        return scenario.with_(
            graph=self.graphs[point["topology"]],
            dynamics=PoissonDynamics(
                rate=point["rate"],
                horizon=self.horizon,
                lifetimes=ExponentialLifetimes(self.mean_lifetime),
            ),
        )


def _dynamic_row(outcome: PointOutcome) -> dict:
    """One tidy row per grid point, from the online time series."""
    dyn = summarize_dynamics(outcome.results)
    return {
        "topology": outcome.point["topology"],
        "rate": outcome.point["rate"],
        "mean_rounds": dyn.mean_rounds,
        "time_in_violation": dyn.mean_time_in_violation,
        "churn": dyn.mean_churn,
        "steady_makespan": dyn.mean_steady_makespan,
        "final_live": dyn.mean_final_live,
        "peak_live": dyn.mean_peak_live,
    }


def build_study(config: DynamicLoadConfig = DynamicLoadConfig()) -> Study:
    """The dynamic-load sweep as a declarative Study."""
    rows, cols = config.torus_shape
    graphs = {
        "complete": complete_graph(config.n),
        "torus": torus_graph(rows, cols),
    }
    return Study(
        scenario=Scenario(
            protocol="resource",
            m=config.m0,
            weights=UniformRangeWeights(1.0, config.weight_high),
            eps=config.eps,
        ),
        sweep=sweep("topology", tuple(graphs)) * sweep("rate", config.rates),
        trials=config.trials,
        seed=config.seed,
        max_rounds=config.max_rounds,
        workers=config.workers,
        backend=config.backend,
        bind=_DynamicBind(graphs, config.horizon, config.mean_lifetime),
        row=_dynamic_row,
    )


@dataclass
class DynamicLoadResult:
    config: DynamicLoadConfig
    rows: list[dict]

    def format_table(self) -> str:
        return format_table(
            self.rows,
            columns=[
                "topology",
                "rate",
                "mean_rounds",
                "time_in_violation",
                "churn",
                "steady_makespan",
                "final_live",
                "peak_live",
            ],
            float_fmt=".4g",
            title=(
                "dynamic load — resource-controlled protocol under a "
                f"Poisson stream (m0={self.config.m0}, "
                f"horizon={self.config.horizon}, mean lifetime="
                f"{self.config.mean_lifetime:g}, eps={self.config.eps}, "
                f"trials={self.config.trials})"
            ),
        )

    def chart(self) -> str:
        return ascii_chart(
            series_from_rows(
                self.rows, x="rate", y="time_in_violation", by="topology"
            ),
            x_label="arrival rate (tasks/round)",
            y_label="time in violation",
        )

    def violation_monotone(self, topology: str) -> bool:
        """Does time-in-violation (weakly) grow with the arrival rate?"""
        series = sorted(
            (r["rate"], r["time_in_violation"])
            for r in self.rows
            if r["topology"] == topology
        )
        values = [v for _, v in series]
        return all(b >= a - 0.05 for a, b in zip(values, values[1:]))


def dynamic_load_result(
    config: DynamicLoadConfig, study_result: StudyResult
) -> DynamicLoadResult:
    """Adapt the study rows into the dynamic-load result."""
    return DynamicLoadResult(config=config, rows=list(study_result.rows))
