"""Benchmark E9 — the "arbitrary order" assumption is harmless.

Section 5: "If several balls arrive at the same resource in one time
step the new balls are added in an arbitrary order."  Nothing in the
analysis depends on which order; this ablation verifies the simulator
agrees — random vs FIFO stacking produce statistically indistinguishable
balancing times for both protocols on identical workloads.
"""

from __future__ import annotations

from conftest import scaled

from repro.experiments import EXPERIMENTS


def test_arrival_order(benchmark, show):
    config = scaled("arrival_order")
    run = EXPERIMENTS["arrival_order"].run
    result = benchmark.pedantic(lambda: run(config), rounds=1, iterations=1)
    show(result.format_table())

    assert all(r["balanced_trials"] == config.trials for r in result.rows)

    # arrival order is immaterial for both protocols
    assert result.order_ratio("user") < 1.3
    assert result.order_ratio("resource") < 1.3

    # and the means sit within each other's 95% confidence bands
    by_proto: dict[str, list[dict]] = {}
    for row in result.rows:
        by_proto.setdefault(row["protocol"], []).append(row)
    for proto, rows in by_proto.items():
        a, b = rows
        gap = abs(a["mean_rounds"] - b["mean_rounds"])
        assert gap <= 2.0 * (a["ci95"] + b["ci95"]) + 1.0, (proto, rows)
