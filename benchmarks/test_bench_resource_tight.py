"""Benchmark E5 — **Theorem 7**: resource-controlled, tight threshold
``W/n + 2 wmax`` balances in expected ``O(H(G) ln W)`` rounds.

The complete graph (``H = n - 1``) is contrasted with the cycle
(``H = n^2/4``) at the same size: absolute balancing times differ by
roughly the ratio of hitting times, and both normalise below the
explicit Theorem 7 constant.
"""

from __future__ import annotations

import numpy as np
from conftest import scaled

from repro.experiments import EXPERIMENTS


def test_resource_tight(benchmark, show):
    config = scaled("resource_tight")
    run = EXPERIMENTS["resource_tight"].run
    result = benchmark.pedantic(lambda: run(config), rounds=1, iterations=1)
    show(result.format_table())

    assert all(r["balanced_trials"] == config.trials for r in result.rows)

    # Theorem 7's bound holds for every point
    for row in result.rows:
        assert row["mean_rounds"] < row["thm7_bound"], row

    # hitting time drives the cost: the cycle is much slower than the
    # complete graph on the same (unit) workload
    unit = [r for r in result.rows if r["weights"] == "unit"]
    cyc = np.mean([r["mean_rounds"] for r in unit if "cycle" in r["graph"]])
    comp = np.mean(
        [r["mean_rounds"] for r in unit if "complete" in r["graph"]]
    )
    assert cyc > 5 * comp

    # rounds grow with m on the cycle (more tasks must find room)
    cyc_rows = sorted(
        (r for r in unit if "cycle" in r["graph"]), key=lambda r: r["m"]
    )
    assert cyc_rows[-1]["mean_rounds"] > cyc_rows[0]["mean_rounds"]
