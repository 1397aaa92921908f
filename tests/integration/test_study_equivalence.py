"""Seed-equivalence regression: Studies replay the legacy drivers.

For every key in the experiment registry, the declarative Study
definition must reproduce the **exact** numbers of the pre-Study
imperative driver from the same root seed — same rows, same key order,
bit-identical floats, same fits.  The frozen reference implementations
live in :mod:`repro.experiments._legacy` and must never be modified.

Scale: equivalence is bit-exact at any size, so the default (tier-1)
run shrinks every config until the whole suite takes seconds.  Set
``REPRO_EQUIV_SCALE=quick`` to run the full ``--quick`` presets
instead (minutes; useful before releases or after seed-handling
changes).
"""

from __future__ import annotations

import dataclasses
import math
import os

import pytest

from repro.experiments._legacy import LEGACY_RUNNERS
from repro.experiments.registry import EXPERIMENTS

pytestmark = pytest.mark.equivalence

#: Per-key shrink overrides applied on top of the quick preset for the
#: fast (default) scale.  Chosen so every driver still exercises its
#: full row structure (multiple axes, workloads, hybrid variant, ...).
TINY_OVERRIDES = {
    # figure1's W=30 corner is infeasible for k=2 — exercises the
    # skipped-point-consumes-seed contract through a real driver
    "figure1": dict(
        n=50, total_weights=(30, 200, 400), k_values=(1, 2), heavy_weight=20.0,
        trials=3,
    ),
    "figure2": dict(n=50, m_values=(100, 200), wmax_values=(1, 8), trials=3),
    "table1": dict(
        complete_sizes=(16, 32), expander_sizes=(16, 32), er_sizes=(16, 32),
        hypercube_dims=(4, 5), grid_sides=(4, 5),
    ),
    "resource_above": dict(n_target=16, m_values=(32, 64), trials=2),
    "resource_tight": dict(n=16, m_values=(32, 64), trials=2),
    "lower_bound": dict(n=10, k_values=(1, 4), trials=2),
    "alpha_ablation": dict(
        n=32, m=128, alphas=(0.5, 1.0), include_theory_alpha=False, trials=2,
    ),
    "tight_scaling": dict(n_values=(16, 32), m_per_n=4, trials=3),
    "arrival_order": dict(
        n=16, m=64, heavy_weight=4.0, heavy_count=4, trials=3
    ),
    "drift_check": dict(n=16, m=64, trials=2),
    # post-Study artefacts (no legacy driver to replay): shrink only
    "speed_ablation": dict(
        n=16, torus_shape=(4, 4), m=96, skews=(1.0, 4.0), trials=2,
    ),
    "dynamic_load": dict(
        n=16, torus_shape=(4, 4), m0=32, rates=(0.5, 2.0), horizon=40,
        mean_lifetime=20.0, trials=2, max_rounds=400,
    ),
}


def equivalence_config(key: str):
    """The config both pipelines run: quick preset, possibly shrunk."""
    config = EXPERIMENTS[key].configure(preset="quick")
    if os.environ.get("REPRO_EQUIV_SCALE", "tiny") == "quick":
        return config
    return dataclasses.replace(config, **TINY_OVERRIDES[key])


def assert_cell_equal(key: str, column: str, new, old) -> None:
    if isinstance(new, float) and isinstance(old, float):
        if math.isnan(new) and math.isnan(old):
            return
        assert new == old, f"{key}.{column}: {new!r} != {old!r}"
    else:
        assert new == old, f"{key}.{column}: {new!r} != {old!r}"


@pytest.mark.parametrize("key", sorted(LEGACY_RUNNERS))
def test_study_matches_legacy_driver_bit_for_bit(key):
    """Artefacts that predate the Study API replay their frozen legacy
    driver exactly (newer artefacts like speed_ablation never had one)."""
    config = equivalence_config(key)
    new = EXPERIMENTS[key].run(config)
    old = LEGACY_RUNNERS[key](config)

    assert len(new.rows) == len(old.rows)
    for new_row, old_row in zip(new.rows, old.rows):
        assert list(new_row) == list(old_row), f"{key}: row keys/order drifted"
        for column in new_row:
            assert_cell_equal(key, column, new_row[column], old_row[column])

    # rich-result extras (fits) must match exactly as well
    for attr in ("fits", "wmax_fit", "per_wmax_fits", "fit"):
        if hasattr(new, attr):
            assert getattr(new, attr) == getattr(old, attr), f"{key}.{attr}"


@pytest.mark.parametrize("key", sorted(EXPERIMENTS))
def test_registry_study_builder_is_declarative(key):
    """Every registry entry exposes a Study (not a bespoke driver)."""
    from repro.study import Study

    study = EXPERIMENTS[key].build_study(equivalence_config(key))
    assert isinstance(study, Study)
    assert study.sweep.n_points == len(list(study.sweep.points()))


def test_legacy_entry_points_still_importable():
    """The pre-Study API remains importable (as deprecation shims)."""
    from repro.experiments import (
        run_alpha_ablation,  # noqa: F401
        run_arrival_order,  # noqa: F401
        run_drift_check,  # noqa: F401
        run_figure1,
        run_figure2,  # noqa: F401
        run_lower_bound,  # noqa: F401
        run_resource_above,  # noqa: F401
        run_resource_tight,  # noqa: F401
        run_table1,  # noqa: F401
        run_tight_scaling,  # noqa: F401
    )
    with pytest.warns(DeprecationWarning, match="repro.study.setups"):
        import importlib

        import repro.experiments.setups as setups_shim

        # reload: a plain import would be a cached no-op (and warn-free)
        # if any earlier test already pulled the shim in
        setups_shim = importlib.reload(setups_shim)
    from repro.study.setups import HybridSetup

    assert setups_shim.HybridSetup is HybridSetup
    assert setups_shim.UserControlledSetup is not None
    assert setups_shim.ResourceControlledSetup is not None

    config = equivalence_config("figure1")
    with pytest.deprecated_call():
        shim_result = run_figure1(config)
    assert shim_result.rows == EXPERIMENTS["figure1"].run(config).rows
