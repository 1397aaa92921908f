"""Benchmark E6 — **Observation 8**: the ``Omega(H(G) log m)`` lower
bound is real.

On the clique-plus-pendant graph with the adversarial placement, the
measured balancing time scales like the hitting time to the pendant,
``H = Theta(n^2/k)`` — shrinking the bridge width ``k`` slows balancing
proportionally, no matter what the protocol's local decisions are.
"""

from __future__ import annotations

from conftest import scaled

from repro.experiments import EXPERIMENTS


def test_lower_bound(benchmark, show):
    config = scaled("lower_bound")
    run = EXPERIMENTS["lower_bound"].run
    result = benchmark.pedantic(lambda: run(config), rounds=1, iterations=1)
    show(result.format_table())

    assert all(r["balanced_trials"] == config.trials for r in result.rows)

    rows = sorted(result.rows, key=lambda r: r["k"])

    # monotone: fewer bridge edges -> slower balancing
    times = [r["mean_rounds"] for r in rows]
    assert all(a > b for a, b in zip(times, times[1:])), times

    # ~1/k scaling: the ratio between extreme k values is at least a
    # healthy fraction of the hitting-time ratio
    k_ratio = rows[-1]["k"] / rows[0]["k"]
    h_ratio = rows[0]["H_to_pendant"] / rows[-1]["H_to_pendant"]
    measured = result.scaling_vs_k()
    assert measured > 0.4 * h_ratio, (measured, h_ratio, k_ratio)

    # rounds/H is a bounded constant across k (the Omega(H) signature)
    per_h = [r["per_H"] for r in rows]
    assert max(per_h) / min(per_h) < 4.0, per_h
    assert min(per_h) > 0.5  # genuinely pays the hitting time
