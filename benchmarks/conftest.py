"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table/figure of the paper:

* ``REPRO_BENCH_SCALE=quick`` (default) runs the reduced presets —
  the whole suite finishes in minutes and every qualitative shape of
  the paper is visible;
* ``REPRO_BENCH_SCALE=paper`` runs the full sweeps with the paper's
  1000 trials per point (hours).

Tables are printed outside pytest's capture so that
``pytest benchmarks/ --benchmark-only | tee bench_output.txt``
records the same rows/series the paper reports.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import EXPERIMENTS


def bench_scale() -> str:
    scale = os.environ.get("REPRO_BENCH_SCALE", "quick")
    if scale not in ("quick", "paper"):
        raise ValueError(f"REPRO_BENCH_SCALE must be quick|paper, got {scale}")
    return scale


def scaled(key: str):
    """The config of registry experiment ``key``: its quick preset
    unless paper scale was requested."""
    preset = None if bench_scale() == "paper" else "quick"
    return EXPERIMENTS[key].configure(preset=preset)


@pytest.fixture
def show(capsys):
    """Print a result table bypassing pytest's output capture."""

    def _show(*chunks: str) -> None:
        with capsys.disabled():
            print()
            for chunk in chunks:
                print(chunk)

    return _show
