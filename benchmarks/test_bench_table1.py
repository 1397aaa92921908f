"""Benchmark E3 — regenerate **Table 1** of the paper.

Mixing times (spectral bound + empirical TV) and exact maximum hitting
times for the five graph families, with power-law fits over the size
sweep checked against the paper's asymptotic orders:

    family            mixing               hitting
    complete          O(1)                 O(n)
    regular expander  O(log n)             O(n)
    Erdős–Rényi       O(log n)             O(n)
    hypercube         O(log n loglog n)    O(n)
    grid              O(n)                 O(n log n)
"""

from __future__ import annotations

from conftest import scaled

from repro.experiments import EXPERIMENTS


def test_table1(benchmark, show):
    config = scaled("table1")
    run = EXPERIMENTS["table1"].run
    result = benchmark.pedantic(lambda: run(config), rounds=1, iterations=1)
    show(result.format_table())

    # --- hitting-time orders (exponent of the power-law fit vs n) -----
    # linear families: complete, expander, hypercube (exponent ~ 1)
    for family in ("complete", "regular_expander", "hypercube"):
        exp = result.fits[family]["hitting"].slope
        assert 0.7 < exp < 1.3, f"{family}: hitting exponent {exp:.2f}"
    # Erdős–Rényi: O(n) with noisier constants (degree fluctuations)
    er_exp = result.fits["erdos_renyi"]["hitting"].slope
    assert 0.3 < er_exp < 1.4, f"erdos_renyi hitting exponent {er_exp:.2f}"
    # grid: O(n log n) — super-linear
    grid_exp = result.fits["grid"]["hitting"].slope
    assert grid_exp > 1.0, f"grid hitting exponent {grid_exp:.2f}"

    # --- mixing-time orders -------------------------------------------
    # complete graph mixes in O(1): empirically one step at every size
    for row in result.rows:
        if row["family"] == "complete":
            assert row["t_mix_emp"] == 1
    # grid mixing grows ~linearly in n
    assert result.fits["grid"]["mixing"].slope > 0.6
    # expander / ER / hypercube mixing grows far slower than the grid's
    for family in ("regular_expander", "erdos_renyi", "hypercube"):
        assert result.fits[family]["mixing"].slope < 0.6, family

    # O(n) vs O(n log n): H/n stays ~flat for the complete graph but
    # grows with n for the grid (the log n factor)
    def per_vertex_series(family):
        rows = sorted(
            (r for r in result.rows if r["family"] == family),
            key=lambda r: r["n"],
        )
        return [r["H_exact"] / r["n"] for r in rows]

    comp = per_vertex_series("complete")
    grid = per_vertex_series("grid")
    assert comp[-1] / comp[0] < 1.2   # complete: H/n constant
    assert grid[-1] / grid[0] > 1.15  # grid: H/n grows (log factor)
    # and the grid's per-vertex cost dominates the linear families
    for family in ("complete", "regular_expander", "hypercube"):
        assert grid[-1] > per_vertex_series(family)[-1], family
