"""Benchmark E2 — regenerate **Figure 2** of the paper.

User-controlled protocol, ``n = 1000``, one heavy task of weight
``wmax``: normalised balancing time (rounds / ln m) vs ``m``, one curve
per ``wmax``.

Paper's claims checked here:

* the normalised time is roughly flat in ``m`` (time logarithmic in m);
* the normalised time is "almost linear" in ``wmax/wmin`` — i.e.
  Theorem 11 is tight up to constants.
"""

from __future__ import annotations

import numpy as np
from conftest import scaled

from repro.experiments import EXPERIMENTS


def test_figure2(benchmark, show):
    config = scaled("figure2")
    run = EXPERIMENTS["figure2"].run
    result = benchmark.pedantic(lambda: run(config), rounds=1, iterations=1)
    show(result.format_table(), "", result.chart())

    assert all(r["balanced_trials"] == r["trials"] for r in result.rows)

    # linear-in-wmax: positive slope, good fit
    assert result.wmax_fit is not None
    assert result.wmax_fit.slope > 0
    assert result.wmax_fit.r_squared > 0.85

    # the heaviest curve is far above the unit curve (by ~wmax, not ~1)
    wmaxes, means = result.mean_normalized_by_wmax()
    lo, hi = means[np.argmin(wmaxes)], means[np.argmax(wmaxes)]
    assert hi / lo > 0.1 * (wmaxes.max() / wmaxes.min())

    # within each wmax curve the normalised time varies by a bounded
    # factor over a 8-16x range of m (the paper's heavy-wmax curves also
    # rise with m before flattening — see Figure 2), while across wmax
    # values the level changes by ~wmax
    for wmax in config.wmax_values:
        ms, norm = result.curve(wmax)
        assert norm.max() / norm.min() < 3.0, (wmax, norm)
    # the unit-weight curve is genuinely flat and small
    _, unit_norm = result.curve(1)
    assert unit_norm.max() < 6.0
