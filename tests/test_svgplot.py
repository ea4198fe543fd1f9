"""SVG plots: degenerate data still writes a complete SVG, and the
heatmap's numpy colour rule matches a per-cell loop. The bytes of the
shipped maps' SVGs are held by the CLI fingerprint,
tests/cli_fingerprint.txt."""

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
    ([1e17, 1e17], [1.0, 2.0]),         # x + 1 == x: the range widens relative to |x|
], ids=["empty", "one-x", "overflowing-y", "exponent-labels", "one-x-at-1e17"])
def test_line_plot_of_degenerate_data(tmp_path, x, y):
    with np.errstate(over="ignore", invalid="ignore"):
        _svg(svgplot.line_plot(tmp_path / "p.svg", x, [("y", y)], "x", "y", "title"))


def test_line_plot_labels_large_ticks_in_exponent_form(tmp_path):
    text = _svg(svgplot.line_plot(tmp_path / "p.svg", [1e6, 3e6], [("y", [1.0, 2.0])]))
    assert "1.00e+06" in text


@pytest.mark.parametrize("slow, fast, grid", [
    ([0.0], [5.0, 5.1, 5.2], [[1.0, math.nan, 2.0]]),  # one slow value; a NaN cell is white
    ([1.5], [5.0, 5.1, 5.2], [[-1e308, 0.0, 1e308]]),  # the color scale overflows
    ([0.0, 1.0], [1e17], [[1.0], [2.0]]),             # one fast value where x + 1 == x
], ids=["one-row-nan", "overflowing-scale", "one-column-at-1e17"])
def test_heatmap_of_degenerate_data(tmp_path, slow, fast, grid):
    text = _svg(svgplot.heatmap(tmp_path / "m.svg", slow, fast, np.array(grid)))
    assert text.count("<rect") == 1 + np.size(grid)


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


def _loop_color(value, lo, hi):
    """The per-cell colour rule as one loop of Python floats (the oracle)."""
    if not math.isfinite(value):
        return "#ffffff"
    u = 0.0 if hi <= lo else (value - lo) / (hi - lo)
    u = min(max(u, 0.0), 1.0)
    for (p0, c0), (p1, c1) in zip(svgplot._VIRIDIS, svgplot._VIRIDIS[1:]):
        if u <= p1:
            w = (u - p0) / (p1 - p0)
            return "#{:02x}{:02x}{:02x}".format(*[round(a + w * (b - a)) for a, b in zip(c0, c1)])
    return "#{:02x}{:02x}{:02x}".format(*svgplot._VIRIDIS[-1][1])


def _loop_cells(slow, fast, grid):
    """The <rect> lines of the heatmap's cells, formatted one cell at a time."""
    lo, hi = svgplot._finite_range([grid])
    ax = svgplot._Axes(float(fast[0]), float(fast[-1]), float(slow[0]), float(slow[-1]))
    cw = (ax.x1 - ax.x0) / len(fast)
    ch = (ax.y0 - ax.y1) / len(slow)
    f = svgplot._fmt
    return [f'<rect x="{f(ax.x0 + j * cw)}" y="{f(ax.y0 - (i + 1) * ch)}" '
            f'width="{f(cw + 0.5)}" height="{f(ch + 0.5)}" fill="{_loop_color(v, lo, hi)}"/>'
            for i in range(len(slow)) for j, v in enumerate(grid[i].tolist())]


def _seeded_values(n=400):
    rng = np.random.default_rng(22)
    values = rng.uniform(-0.2, 1.2, n)
    values[::37] = math.nan
    values[5::41] = math.inf
    values[9::43] = -math.inf
    # anchors, and u = 0.125, where 68 + 0.5 * (59 - 68) = 63.5 rounds half to even
    values[:7] = [0.0, 0.25, 0.5, 0.75, 1.0, 0.125, 0.625]
    return values


@pytest.mark.parametrize("values, lo, hi", [
    (_seeded_values(), 0.0, 1.0),
    (_seeded_values(), 3.0, 3.0),                   # hi == lo: every finite value is u = 0
    (_seeded_values(), 1.0, 0.0),                   # hi < lo, likewise
    (np.full(9, 2.5), 2.5, 2.5),                    # a constant grid's own range
    ([-1e308, 0.0, 1e308, math.nan], -1e308, 1e308),  # hi - lo overflows: inf / inf is NaN
    (_seeded_values() * 1e300, -2e299, 1.1e300),
], ids=["unit", "hi-equals-lo", "hi-below-lo", "constant", "overflow", "large"])
def test_color_rule_matches_the_per_cell_loop(values, lo, hi):
    values = np.asarray(values, dtype=float)
    expected = [_loop_color(v, lo, hi) for v in values.tolist()]
    assert [f"#{c:06x}" for c in svgplot._color_codes(values, lo, hi).tolist()] == expected
    assert [svgplot.color_for(v, lo, hi) for v in values.tolist()] == expected


@pytest.mark.parametrize("grid", [
    _seeded_values(7 * 13).reshape(7, 13),
    np.full((3, 4), 2.5),
    np.array([[-1e308, 0.0], [1e308, math.nan]]),
], ids=["seeded", "constant", "overflow"])
def test_heatmap_cells_match_the_per_cell_loop(tmp_path, grid):
    slow = np.linspace(-2.0, 10.0, grid.shape[0])
    fast = np.linspace(2.0, 5.6, grid.shape[1])
    text = _svg(svgplot.heatmap(tmp_path / "m.svg", slow, fast, grid))
    cells = [line for line in text.splitlines() if line.startswith("<rect x=")]
    assert cells == _loop_cells(slow, fast, grid)
