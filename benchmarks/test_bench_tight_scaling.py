"""Benchmark E10 — the conclusion's open question, measured.

Theorem 12 bounds the user-controlled tight-threshold balancing time by
``2 n/alpha * wmax/wmin * log m`` — linear in ``n`` — and the paper
leaves lower bounds in this setting open.  This bench measures the
scaling exponent of the balancing time in ``n`` on benign single-source
instances: it comes out far below 1, i.e. a matching ``Omega(n)`` lower
bound (if one exists) must come from adversarial instances, not from
the paper's own simulation setup.
"""

from __future__ import annotations

from conftest import scaled

from repro.experiments import EXPERIMENTS


def test_tight_scaling(benchmark, show):
    config = scaled("tight_scaling")
    run = EXPERIMENTS["tight_scaling"].run
    result = benchmark.pedantic(lambda: run(config), rounds=1, iterations=1)
    show(result.format_table())

    assert all(r["balanced_trials"] == config.trials for r in result.rows)

    # Theorem 12's upper bound holds everywhere with a huge margin
    for row in result.rows:
        assert row["mean_rounds"] < row["thm12_bound"], row
        assert row["measured/bound"] < 0.25

    # the measured exponent is far below the bound's linear scaling
    assert result.fit is not None
    assert result.fit.slope < 0.6, (
        f"benign-instance exponent {result.fit.slope:.2f} unexpectedly "
        "close to Theorem 12's n^1"
    )
