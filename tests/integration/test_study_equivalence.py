"""Golden-outcome regression: every registry Study replays its pinned
numbers.

For every key in the experiment registry, the Study run at a tiny
config must reproduce ``golden_studies.json``: same column names in the
same order, same rows, and the same fits.  The ten artefacts that
predate the Study API were captured from their pre-Study imperative
drivers, after checking that the Studies returned the same rows;
``speed_ablation`` and ``dynamic_load`` were captured from their
Studies.  Regenerate the fixture (one JSON line per row, from
:func:`outcome`) ONLY if the engine's randomness contract legitimately
changes — it pins "no drift from the drivers' numbers", not just
internal self-consistency.

Every simulated cell is compared with ``==`` (NaN equal to NaN).  Cells
computed through NumPy's BLAS/LAPACK (``np.polyfit``, ``eigvalsh``,
``inv``, ``solve``) are compared to ``rel=1e-9`` instead: OpenBLAS
picks its kernel per CPU, and re-running the Studies under four
``OPENBLAS_CORETYPE`` kernels moved exactly those cells, by at most
3.8e-13 relative, while no simulated cell moved.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest

from repro.experiments.registry import EXPERIMENTS

pytestmark = pytest.mark.equivalence

GOLDEN = json.loads(
    Path(__file__).with_name("golden_studies.json").read_text()
)

#: Per-key shrink overrides applied on top of the quick preset.  Chosen
#: so every Study still exercises its full row structure (multiple
#: axes, workloads, hybrid variant, ...).
TINY_OVERRIDES = {
    # figure1's W=30 corner is infeasible for k=2 and yields no row
    "figure1": dict(
        n=50,
        total_weights=(30, 200, 400),
        k_values=(1, 2),
        heavy_weight=20.0,
        trials=3,
    ),
    "figure2": dict(n=50, m_values=(100, 200), wmax_values=(1, 8), trials=3),
    "table1": dict(
        complete_sizes=(16, 32),
        expander_sizes=(16, 32),
        er_sizes=(16, 32),
        hypercube_dims=(4, 5),
        grid_sides=(4, 5),
    ),
    "resource_above": dict(n_target=16, m_values=(32, 64), trials=2),
    "resource_tight": dict(n=16, m_values=(32, 64), trials=2),
    "lower_bound": dict(n=10, k_values=(1, 4), trials=2),
    "alpha_ablation": dict(
        n=32, m=128, alphas=(0.5, 1.0), include_theory_alpha=False, trials=2
    ),
    "tight_scaling": dict(n_values=(16, 32), m_per_n=4, trials=3),
    "arrival_order": dict(
        n=16, m=64, heavy_weight=4.0, heavy_count=4, trials=3
    ),
    "drift_check": dict(n=16, m=64, trials=2),
    "speed_ablation": dict(
        n=16, torus_shape=(4, 4), m=96, skews=(1.0, 4.0), trials=2
    ),
    "dynamic_load": dict(
        n=16,
        torus_shape=(4, 4),
        m0=32,
        rates=(0.5, 2.0),
        horizon=40,
        mean_lifetime=20.0,
        trials=2,
        max_rounds=400,
    ),
}

#: Columns computed through BLAS/LAPACK, compared to ``rel=1e-9``
#: (every fit is, too).
BLAS_COLUMNS = {
    "table1": {"gap", "tau_bound", "H_exact"},
    "resource_above": {"tau", "per_tau_log_m", "thm3_bound"},
    "resource_tight": {"H", "per_H_log_W", "thm7_bound"},
    "lower_bound": {"H_to_pendant", "per_H"},
    "drift_check": {"drift_pred_rounds"},
}

FIT_ATTRS = ("fits", "wmax_fit", "per_wmax_fits", "fit")


def equivalence_config(key: str):
    """The pinned config: the quick preset, shrunk."""
    config = EXPERIMENTS[key].configure(preset="quick")
    return dataclasses.replace(config, **TINY_OVERRIDES[key])


def outcome(result) -> dict:
    """A result as the fixture stores it: columns, fits, rows.

    The JSON round trip turns fits into dicts, int keys into strings
    and NumPy scalars into Python ones; floats survive it exactly.
    """
    columns = list(result.rows[0])
    assert all(list(row) == columns for row in result.rows), "ragged rows"
    out = {"columns": columns}
    for attr in FIT_ATTRS:
        if hasattr(result, attr):
            out[attr] = getattr(result, attr)
    out["rows"] = [list(row.values()) for row in result.rows]
    return json.loads(json.dumps(out, default=dataclasses.asdict))


def assert_same(where: str, got, want, blas: bool) -> None:
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for k in want:
            assert_same(f"{where}.{k}", got[k], want[k], blas)
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(f"{where}[{i}]", g, w, blas)
    elif blas and isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-9, nan_ok=True), where
    elif isinstance(want, float) and math.isnan(want):
        assert isinstance(got, float) and math.isnan(got), where
    else:
        assert (type(got), got) == (type(want), want), where


@pytest.mark.parametrize("key", sorted(EXPERIMENTS))
def test_study_matches_golden_outcome(key):
    got = outcome(EXPERIMENTS[key].run(equivalence_config(key)))
    want = GOLDEN[key]
    assert list(got) == list(want), f"{key}: fits drifted"
    assert got["columns"] == want["columns"], f"{key}: columns drifted"
    assert len(got["rows"]) == len(want["rows"]), f"{key}: row count"
    blas = BLAS_COLUMNS.get(key, set())
    for i, (g_row, w_row) in enumerate(zip(got["rows"], want["rows"])):
        for column, g, w in zip(want["columns"], g_row, w_row):
            assert_same(f"{key}[{i}].{column}", g, w, column in blas)
    for attr in FIT_ATTRS:
        if attr in want:
            assert_same(f"{key}.{attr}", got[attr], want[attr], True)


@pytest.mark.parametrize("key", sorted(EXPERIMENTS))
def test_registry_study_builder_is_declarative(key):
    """Every registry entry exposes a Study (not a bespoke driver)."""
    from repro.study import Study

    study = EXPERIMENTS[key].build_study(equivalence_config(key))
    assert isinstance(study, Study)
    assert study.sweep.n_points == len(list(study.sweep.points()))
