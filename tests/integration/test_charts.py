"""Unit tests for the ASCII chart renderer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import ascii_chart


class TestAsciiChart:
    def test_basic_structure(self):
        out = ascii_chart({"s": ([1, 2, 3], [1, 2, 3])}, width=20, height=6)
        lines = out.splitlines()
        assert len(lines) == 6 + 3  # plot + axis + footer + legend
        assert lines[-1].strip().startswith("legend:")
        assert "o=s" in lines[-1]

    def test_points_placed_on_diagonal(self):
        out = ascii_chart({"s": ([0, 1], [0, 1])}, width=10, height=4)
        lines = out.splitlines()
        plot = [l.split("|", 1)[1] for l in lines[:4]]
        assert plot[0][9] == "o"   # top right = (1, 1)
        assert plot[3][0] == "o"   # bottom left = (0, 0)

    def test_multiple_series_glyphs(self):
        out = ascii_chart(
            {"a": ([1], [1]), "b": ([2], [2]), "c": ([3], [3])},
            width=12,
            height=4,
        )
        assert "o=a" in out and "x=b" in out and "+=c" in out

    def test_axis_labels_present(self):
        out = ascii_chart(
            {"s": ([10, 20], [5, 6])},
            width=16, height=5, x_label="W", y_label="rounds",
        )
        assert "(W)" in out
        assert "rounds" in out
        assert "10" in out and "20" in out  # x range footer

    def test_constant_series_ok(self):
        out = ascii_chart({"s": ([1, 2, 3], [5, 5, 5])}, width=12, height=4)
        assert "o" in out

    def test_numpy_input_ok(self):
        out = ascii_chart(
            {"s": (np.arange(5), np.arange(5) ** 2)}, width=12, height=4
        )
        assert "o" in out

    def test_errors(self):
        with pytest.raises(ValueError, match="no series"):
            ascii_chart({})
        with pytest.raises(ValueError, match="too small"):
            ascii_chart({"s": ([1], [1])}, width=4, height=2)
        with pytest.raises(ValueError, match="empty"):
            ascii_chart({"s": ([], [])})
        with pytest.raises(ValueError, match="match"):
            ascii_chart({"s": ([1, 2], [1])})
        too_many = {f"s{i}": ([1], [1]) for i in range(9)}
        with pytest.raises(ValueError, match="at most"):
            ascii_chart(too_many)


class TestFigureCharts:
    def test_figure_results_render(self):
        import dataclasses

        from repro.experiments import EXPERIMENTS, Figure2Config

        cfg = dataclasses.replace(
            Figure2Config(), n=50, m_values=(100, 200),
            wmax_values=(1, 8), trials=2,
        )
        res = EXPERIMENTS["figure2"].run(cfg)
        chart = res.chart(width=32, height=8)
        assert "wmax=1" in chart and "wmax=8" in chart
        assert "(m)" in chart
