"""Benchmark E7 — Section 7's open question: how conservative is
``alpha``?

Theorem 11 needs ``alpha = eps/(120(1+eps))`` for its proof but the
paper's simulations use ``alpha = 1`` and still balance — "our
simulations show that a small value of alpha is not necessary".  This
ablation sweeps ``alpha`` and verifies:

* balancing succeeds at every ``alpha``, including 1;
* ``rounds * alpha`` is roughly constant (Theorem 11's ``1/alpha`` law);
* every measured time stays below the Theorem 11 bound for its alpha;
* the hybrid protocol (conclusion's future work) is competitive.
"""

from __future__ import annotations

from conftest import scaled

from repro.experiments import EXPERIMENTS


def test_alpha_ablation(benchmark, show):
    config = scaled("alpha_ablation")
    run = EXPERIMENTS["alpha_ablation"].run
    result = benchmark.pedantic(lambda: run(config), rounds=1, iterations=1)
    show(result.format_table())

    assert all(r["balanced_trials"] == config.trials for r in result.rows)

    user_rows = [r for r in result.rows if r["protocol"] == "user"]

    # the 1/alpha law: rounds * alpha stays within a small band
    assert result.inverse_alpha_spread() < 3.0

    # measured times respect the Theorem 11 bound at every alpha
    for row in user_rows:
        assert row["mean_rounds"] < row["thm11_bound"], row

    # larger alpha is never slower (monotone speed-up)
    by_alpha = sorted(user_rows, key=lambda r: r["alpha"])
    times = [r["mean_rounds"] for r in by_alpha]
    assert all(a >= b * 0.8 for a, b in zip(times, times[1:])), times

    # the hybrid protocol balances and is at least as fast as the
    # slowest user-controlled configuration
    hybrid = [r for r in result.rows if r["protocol"].startswith("hybrid")]
    if hybrid:
        assert hybrid[0]["mean_rounds"] <= max(times)
