"""Integration tests for the experiment drivers and IO (tiny configs)."""

from __future__ import annotations

import dataclasses
import json
import pickle

import numpy as np
import pytest

from repro.experiments import (
    EXPERIMENTS,
    Figure1Config,
    Figure2Config,
    LowerBoundConfig,
    ResourceControlledSetup,
    Table1Config,
    UserControlledSetup,
    format_table,
    write_csv,
    write_json,
)
from repro.graphs import complete_graph
from repro.workloads import UniformWeights


class TestIO:
    ROWS = [
        {"name": "a", "x": 1, "y": 2.5},
        {"name": "bb", "x": 10, "y": 0.125},
    ]

    def test_format_table_alignment(self):
        out = format_table(self.ROWS)
        lines = out.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "name" in lines[0] and "x" in lines[0]
        assert all(len(l) == len(lines[0]) for l in lines[1:])

    def test_format_table_column_selection(self):
        out = format_table(self.ROWS, columns=["y", "name"])
        header = out.splitlines()[0]
        assert header.index("y") < header.index("name")
        assert "x" not in header

    def test_format_table_title_and_empty(self):
        assert format_table([], title="T").startswith("T")
        assert "(no rows)" in format_table([])

    def test_format_table_special_floats(self):
        rows = [{"v": float("nan")}, {"v": float("inf")}, {"v": True}]
        out = format_table(rows)
        assert "nan" in out and "inf" in out

    def test_write_csv_roundtrip(self, tmp_path):
        path = write_csv(self.ROWS, tmp_path / "rows.csv")
        text = path.read_text().splitlines()
        assert text[0] == "name,x,y"
        assert text[1] == "a,1,2.5"

    def test_write_csv_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], tmp_path / "rows.csv")

    def test_write_json(self, tmp_path):
        path = write_json({"rows": self.ROWS}, tmp_path / "out.json")
        data = json.loads(path.read_text())
        assert data["rows"][0]["name"] == "a"


class TestSetups:
    def test_user_setup_builds_valid_state(self, rng):
        setup = UserControlledSetup(
            n=4, m=12, distribution=UniformWeights(1.0), eps=0.2
        )
        proto, state = setup(rng)
        assert state.n == 4 and state.m == 12
        assert "user_controlled" in proto.name

    def test_resource_setup_builds_valid_state(self, rng):
        setup = ResourceControlledSetup(
            graph=complete_graph(4),
            m=12,
            distribution=UniformWeights(1.0),
            threshold_kind="tight_resource",
        )
        proto, state = setup(rng)
        assert state.threshold == pytest.approx(12 / 4 + 2)

    def test_setups_picklable(self):
        setup = ResourceControlledSetup(
            graph=complete_graph(4), m=12, distribution=UniformWeights(1.0)
        )
        clone = pickle.loads(pickle.dumps(setup))
        a = clone(np.random.default_rng(0))[1]
        b = setup(np.random.default_rng(0))[1]
        assert np.array_equal(a.resource, b.resource)

    def test_unknown_threshold_kind(self, rng):
        setup = UserControlledSetup(
            n=4, m=8, distribution=UniformWeights(1.0),
            threshold_kind="nonsense",
        )
        with pytest.raises(ValueError, match="threshold"):
            setup(rng)

    def test_unknown_placement_kind(self, rng):
        setup = UserControlledSetup(
            n=4, m=8, distribution=UniformWeights(1.0),
            placement_kind="nonsense",
        )
        with pytest.raises(ValueError, match="placement"):
            setup(rng)


class TestRegistry:
    def test_all_artifacts_registered(self):
        assert set(EXPERIMENTS) == {
            "figure1", "figure2", "table1", "resource_above",
            "resource_tight", "lower_bound", "alpha_ablation", "drift_check",
            "arrival_order", "tight_scaling", "speed_ablation",
            "dynamic_load",
        }

    def test_every_config_has_quick(self):
        for exp in EXPERIMENTS.values():
            quick = exp.configure(preset="quick")
            assert type(quick) is type(exp.config_factory())

    def test_misspelt_override_raises(self):
        exp = EXPERIMENTS["tight_scaling"]
        with pytest.raises(ValueError, match="'n_value'") as err:
            exp.configure(preset="quick", n_value=(32,), trials=3)
        assert "n_values" in str(err.value)  # the valid fields are listed
        config = exp.configure(preset="quick", n_values=(32,), trials=3)
        assert config.n_values == (32,) and config.trials == 3


class TestDriversSmoke:
    """Each driver runs end to end on a tiny instance and produces the
    table the paper reports."""

    def test_figure1_tiny(self):
        cfg = dataclasses.replace(
            Figure1Config(),
            n=50,
            total_weights=(200, 400),
            k_values=(1, 2),
            heavy_weight=20.0,
            trials=3,
        )
        res = EXPERIMENTS["figure1"].run(cfg)
        assert len(res.rows) == 4
        assert set(res.fits) == {1, 2}
        table = res.format_table()
        assert "Figure 1" in table and "R^2" in table
        assert res.cross_k_spread() >= 0.0

    def test_figure1_skips_infeasible_points(self):
        cfg = dataclasses.replace(
            Figure1Config(),
            n=50,
            total_weights=(100, 400),
            k_values=(10,),   # 10 * 50 = 500 > 100: first point infeasible
            trials=2,
        )
        res = EXPERIMENTS["figure1"].run(cfg)
        assert [r["W"] for r in res.rows] == []  # 400 < 500 too
        cfg2 = dataclasses.replace(cfg, total_weights=(600,))
        assert len(EXPERIMENTS["figure1"].run(cfg2).rows) == 1

    def test_figure2_tiny(self):
        cfg = dataclasses.replace(
            Figure2Config(),
            n=50,
            m_values=(100, 200),
            wmax_values=(1, 8),
            trials=3,
        )
        res = EXPERIMENTS["figure2"].run(cfg)
        assert len(res.rows) == 4
        assert res.wmax_fit is not None
        ms, norm = res.curve(8)
        assert ms.shape == (2,)
        assert "Figure 2" in res.format_table()

    def test_table1_tiny(self):
        cfg = dataclasses.replace(
            Table1Config(),
            complete_sizes=(16, 32),
            expander_sizes=(16, 32),
            er_sizes=(16, 32),
            hypercube_dims=(4, 5),
            grid_sides=(4, 5),
        )
        res = EXPERIMENTS["table1"].run(cfg)
        assert len(res.rows) == 10
        assert "complete" in res.fits
        assert "Table 1" in res.format_table()
        ns, mix, hit = res.family_series("complete")
        assert list(ns) == [16, 32]

    def test_lower_bound_tiny(self):
        cfg = dataclasses.replace(
            LowerBoundConfig(), n=10, m_factor=4, k_values=(1, 4), trials=2
        )
        res = EXPERIMENTS["lower_bound"].run(cfg)
        assert len(res.rows) == 2
        # k=1 must be slower than k=4
        assert res.scaling_vs_k() > 1.0
        assert "Observation 8" in res.format_table()

    def test_experiment_run_helper(self):
        exp = EXPERIMENTS["table1"]
        cfg = dataclasses.replace(
            Table1Config(),
            complete_sizes=(16,),
            expander_sizes=(16,),
            er_sizes=(16,),
            hypercube_dims=(4,),
            grid_sides=(4,),
        )
        res = exp.run(cfg)
        assert len(res.rows) == 5
