"""Benchmark E4 — **Theorem 3**: resource-controlled, above-average
threshold balances in ``O(tau(G) log m)`` rounds on arbitrary graphs.

Checks across four topologies and two workloads (unit and uniform[1,10]
weights):

* measured rounds stay below the explicit Theorem 3 bound;
* the ratio ``rounds / (tau ln m)`` is a modest constant across graphs
  and task counts;
* the weighted and unit workloads behave alike — the bound is
  weight-independent.
"""

from __future__ import annotations

from conftest import scaled

from repro.experiments import EXPERIMENTS


def test_resource_above(benchmark, show):
    config = scaled("resource_above")
    run = EXPERIMENTS["resource_above"].run
    result = benchmark.pedantic(lambda: run(config), rounds=1, iterations=1)
    show(result.format_table())

    assert all(r["balanced_trials"] == config.trials for r in result.rows)

    # Theorem 3's bound holds with room to spare
    for row in result.rows:
        assert row["mean_rounds"] < row["thm3_bound"], row

    # the hidden constant is modest and does not blow up anywhere
    assert result.max_normalized() < 1.0

    # weight-independence: unit vs uniform[1,10] within a small factor
    # at every (graph, m) point
    by_point: dict[tuple, dict[str, float]] = {}
    for row in result.rows:
        by_point.setdefault((row["graph"], row["m"]), {})[row["weights"]] = (
            row["mean_rounds"]
        )
    for (graph, m), times in by_point.items():
        lo, hi = min(times.values()), max(times.values())
        assert hi / max(lo, 1.0) < 4.0, (graph, m, times)
