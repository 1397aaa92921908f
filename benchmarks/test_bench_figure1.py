"""Benchmark E1 — regenerate **Figure 1** of the paper.

User-controlled protocol, ``n = 1000``, ``eps = 0.2``, ``alpha = 1``:
balancing time vs total weight ``W`` for ``k`` heavy tasks of weight 50.

Paper's claims checked here:

* balancing time grows logarithmically in ``m + k`` (fit R² high);
* the curves for different ``k`` nearly coincide ("more or less
  independent of the number of big tasks").
"""

from __future__ import annotations

from conftest import scaled

from repro.experiments import EXPERIMENTS


def test_figure1(benchmark, show):
    config = scaled("figure1")
    run = EXPERIMENTS["figure1"].run
    result = benchmark.pedantic(lambda: run(config), rounds=1, iterations=1)
    show(result.format_table(), "", result.chart())

    # every point balanced within budget
    assert all(r["balanced_trials"] == r["trials"] for r in result.rows)

    # logarithmic growth: every per-k curve fits ln(m + k) well
    for k, fit in result.fits.items():
        assert fit.slope > 0, f"k={k}: balancing time must grow with W"
        assert fit.r_squared > 0.7, (
            f"k={k}: expected logarithmic growth, got R^2={fit.r_squared:.3f}"
        )

    # near-independence of k: spread across curves is a modest fraction
    # of the mean, far from the ~wmax-factor spread Figure 2 exhibits
    assert result.cross_k_spread() < 1.0
