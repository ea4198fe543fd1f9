"""SVG plots of degenerate data: every plot still writes a complete SVG."""

import math

import numpy as np
import pytest

from cqedkit import svgplot


def _svg(path):
    text = path.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    return text


@pytest.mark.parametrize("x, y", [
    ([], []),                           # nothing finite to range over, nothing to draw
    ([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]),  # one x value
    ([0.0, 1.0, 2.0], [-1e308, 0.0, 1e308]),  # the y padding overflows to inf
    ([1e6, 2e6, 3e6], [1e-4, 2e-4, 4e-4]),    # tick labels in exponent form
], ids=["empty", "one-x", "overflowing-y", "exponent-labels"])
def test_line_plot_of_degenerate_data(tmp_path, x, y):
    with np.errstate(over="ignore", invalid="ignore"):
        _svg(svgplot.line_plot(tmp_path / "p.svg", x, [("y", y)], "x", "y", "title"))


def test_line_plot_labels_large_ticks_in_exponent_form(tmp_path):
    text = _svg(svgplot.line_plot(tmp_path / "p.svg", [1e6, 3e6], [("y", [1.0, 2.0])]))
    assert "1.00e+06" in text


@pytest.mark.parametrize("slow, grid", [
    ([0.0], [[1.0, math.nan, 2.0]]),       # one slow value; a NaN cell is white
    ([1.5], [[-1e308, 0.0, 1e308]]),       # the color scale overflows
], ids=["one-row-nan", "overflowing-scale"])
def test_heatmap_of_degenerate_data(tmp_path, slow, grid):
    with np.errstate(over="ignore", invalid="ignore"):
        text = _svg(svgplot.heatmap(tmp_path / "m.svg", slow, [5.0, 5.1, 5.2], np.array(grid)))
    assert text.count("<rect") == 1 + len(grid[0])


def test_colors_at_the_edges_of_the_scale():
    assert svgplot.color_for(math.nan, 0.0, 1.0) == "#ffffff"
    top = "#{:02x}{:02x}{:02x}".format(*svgplot._VIRIDIS[-1][1])
    # (1e308 - -1e308) / (1e308 - -1e308) is inf / inf, which falls past
    # every anchor
    assert svgplot.color_for(1e308, -1e308, 1e308) == top
    assert svgplot.nice_ticks(-math.inf, math.inf) == [0.0, 1.0]


def test_ticks_of_an_empty_range_widen_it():
    # to 1e-3 of |lo|, or to 1e-3 at zero
    assert svgplot.nice_ticks(2.0, 2.0) == pytest.approx([2.0, 2.0005, 2.001, 2.0015, 2.002])
    assert svgplot.nice_ticks(0.0, 0.0) == pytest.approx([0.0, 2e-4, 4e-4, 6e-4, 8e-4, 1e-3])
