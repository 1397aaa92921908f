"""Experiment E3 — Table 1 of the paper, as a declarative Study.

Mixing and hitting times for the five graph families the paper tabulates
(complete, regular expander, Erdős–Rényi, hypercube, grid), computed on
concrete instances across a size sweep:

* ``tau(G)``: the paper's spectral bound ``4 ln n / mu`` plus the
  empirical total-variation mixing time;
* ``H(G)``: exact maximum hitting time via the fundamental matrix.

For each family the result fits a power law against ``n`` and reports
the exponent next to Table 1's asymptotic order — complete/expander/ER/
hypercube hitting times should scale ~linearly (exponent near 1), the
grid's mixing time ~linearly, etc.

No trials are involved: this is an *analytical* study — the sweep
enumerates graph instances and an ``evaluate`` hook computes the
spectral quantities per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.bounds import TABLE1_ASYMPTOTICS
from ..analysis.fitting import FitResult, fit_power_law
from ..graphs.builders import (
    complete_graph,
    erdos_renyi_graph,
    grid_graph,
    hypercube_graph,
    random_regular_graph,
)
from ..graphs.hitting import max_hitting_time
from ..graphs.random_walk import lazy_walk, max_degree_walk
from ..graphs.spectral import spectral_gap, spectral_summary
from ..study import Study, StudyResult, sweep
from .io import format_table

__all__ = [
    "QUICK",
    "Table1Config",
    "Table1Result",
    "build_study",
    "table1_result",
]

#: The ``--quick`` preset (smaller instances per family).
QUICK = {
    "complete_sizes": (64, 128, 256),
    "expander_sizes": (64, 128, 256),
    "er_sizes": (64, 128, 256),
    "hypercube_dims": (6, 7, 8),
    "grid_sides": (8, 12, 16),
}


@dataclass(frozen=True)
class Table1Config:
    """Instance sizes per family (vertex counts; hypercube rounds to
    powers of two, grids to squares)."""

    complete_sizes: tuple[int, ...] = (64, 128, 256, 512)
    expander_sizes: tuple[int, ...] = (64, 128, 256, 512)
    expander_degree: int = 3
    er_sizes: tuple[int, ...] = (64, 128, 256, 512)
    er_density_factor: float = 2.0  # p = factor * ln(n) / n, above threshold
    hypercube_dims: tuple[int, ...] = (6, 7, 8, 9)
    grid_sides: tuple[int, ...] = (8, 12, 16, 23)
    empirical_mixing: bool = True
    seed: int = 2017


def _instances(config: Table1Config):
    rng = np.random.default_rng(config.seed)
    for n in config.complete_sizes:
        yield "complete", complete_graph(n)
    for n in config.expander_sizes:
        yield "regular_expander", random_regular_graph(
            n, config.expander_degree, rng
        )
    for n in config.er_sizes:
        p = config.er_density_factor * np.log(n) / n
        yield "erdos_renyi", erdos_renyi_graph(n, min(p, 1.0), rng)
    for dim in config.hypercube_dims:
        yield "hypercube", hypercube_graph(dim)
    for side in config.grid_sides:
        yield "grid", grid_graph(side, side)


@dataclass(frozen=True)
class _Table1Eval:
    """Compute one instance's Table 1 row (no simulation involved)."""

    empirical_mixing: bool

    def __call__(self, point) -> dict:
        family, graph = point["instance"]
        summary = spectral_summary(graph, empirical=self.empirical_mixing)
        walk = max_degree_walk(graph)
        if spectral_gap(walk) <= 1e-12:
            walk = lazy_walk(graph)
        h_exact = max_hitting_time(walk)
        return {
            "family": family,
            "n": graph.n,
            "gap": summary.spectral_gap,
            "tau_bound": summary.mixing_bound,
            "t_mix_emp": (
                float(summary.empirical_mixing)
                if summary.empirical_mixing is not None
                else float("nan")
            ),
            "H_exact": h_exact,
            "lazy": summary.used_lazy,
        }


def build_study(config: Table1Config = Table1Config()) -> Study:
    """The Table 1 instance sweep as an analytical Study."""
    return Study(
        sweep=sweep("instance", tuple(_instances(config))),
        evaluate=_Table1Eval(config.empirical_mixing),
    )


@dataclass
class Table1Result:
    config: Table1Config
    rows: list[dict]
    fits: dict[str, dict[str, FitResult]] = field(default_factory=dict)

    def format_table(self) -> str:
        table = format_table(
            self.rows,
            columns=[
                "family",
                "n",
                "gap",
                "tau_bound",
                "t_mix_emp",
                "H_exact",
                "lazy",
            ],
            float_fmt=".3g",
            title="Table 1 — mixing and hitting times of common graphs",
        )
        lines = [table, "", "power-law fits vs n (exponent; paper's order):"]
        for family, fits in self.fits.items():
            asym = TABLE1_ASYMPTOTICS[family]
            mix = fits.get("mixing")
            hit = fits.get("hitting")
            lines.append(
                f"  {family:<16} mixing exp={mix.slope:+.2f} "
                f"(paper {asym['mixing']}),  hitting exp={hit.slope:+.2f} "
                f"(paper {asym['hitting']})"
            )
        return "\n".join(lines)

    def family_series(
        self, family: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n, empirical mixing, exact hitting) arrays for one family."""
        rows = sorted(
            (r for r in self.rows if r["family"] == family),
            key=lambda r: r["n"],
        )
        return (
            np.array([r["n"] for r in rows], dtype=np.float64),
            np.array([r["t_mix_emp"] for r in rows], dtype=np.float64),
            np.array([r["H_exact"] for r in rows], dtype=np.float64),
        )


def table1_result(
    config: Table1Config, study_result: StudyResult
) -> Table1Result:
    """Adapt the study rows into the rich Table 1 result (adds fits)."""
    result = Table1Result(config=config, rows=list(study_result.rows))
    for family in dict.fromkeys(r["family"] for r in result.rows):
        ns, mix, hit = result.family_series(family)
        if ns.shape[0] >= 2 and np.all(mix > 0):
            result.fits[family] = {
                "mixing": fit_power_law(ns, mix),
                "hitting": fit_power_law(ns, hit),
            }
    return result
