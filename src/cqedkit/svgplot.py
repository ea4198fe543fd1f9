"""Minimal deterministic SVG plotting: line plots and heatmaps.

Output depends only on the data passed in (fixed canvas, fixed palette,
fixed decimal formatting), so plots regenerate byte-identically.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .io import write_lines

WIDTH, HEIGHT = 640, 480
MARGIN = {"left": 70, "right": 20, "top": 40, "bottom": 50}

LINE_COLORS = ("#1f6fb2", "#d1495b", "#3a8f5d", "#8a5ab8", "#c07b2a", "#4a4a4a")

# viridis anchor points, linearly interpolated in between
_VIRIDIS = (
    (0.00, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.50, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.00, (253, 231, 37)),
)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def nice_ticks(lo: float, hi: float):
    """Round tick positions covering [lo, hi] at a 1/2/5 step, about five of them."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + (abs(lo) if lo else 1.0) * 1e-3
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks or [lo, hi]


def _tick_label(t: float) -> str:
    if t == 0:
        return "0"
    if abs(t) >= 1e5 or abs(t) < 1e-3:
        return f"{t:.2e}"
    text = f"{t:.6g}"
    return text


_POS = np.array([p for p, _ in _VIRIDIS])
_RGB = np.array([c for _, c in _VIRIDIS], dtype=float)


def _color_codes(values, lo: float, hi: float) -> np.ndarray:
    """0xRRGGBB of each value on the viridis scale from lo to hi.

    A non-finite value is white. u = (value - lo) / (hi - lo), or 0 when
    hi <= lo, is clipped to [0, 1]; each channel is interpolated between
    the two anchors around u and rounded half to even. A u that is NaN
    (inf / inf when hi - lo overflows) takes the top anchor.
    """
    v = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.zeros(v.shape) if hi <= lo else (v - lo) / (hi - lo)
    u = np.clip(u, 0.0, 1.0)
    # the first anchor at or above u ends the segment; NaN sorts past the last
    seg = np.searchsorted(_POS[1:], u)
    top = seg == _POS.size - 1
    seg[top] = _POS.size - 2
    p0, p1 = _POS[seg], _POS[seg + 1]
    w = ((u - p0) / (p1 - p0))[..., None]
    c0, c1 = _RGB[seg], _RGB[seg + 1]
    rgb = np.rint(c0 + w * (c1 - c0))
    rgb[top] = _RGB[-1]
    code = (rgb.astype(np.int64) << [16, 8, 0]).sum(axis=-1)
    code[~np.isfinite(v)] = 0xFFFFFF
    return code


class _Hex(dict):
    """0xRRGGBB -> '#rrggbb', each string formatted once."""

    def __missing__(self, code):
        text = self[code] = f"#{code:06x}"
        return text


def color_for(value: float, lo: float, hi: float) -> str:
    """Map value in [lo, hi] to the viridis-anchored hex color."""
    return f"#{_color_codes([value], lo, hi)[0]:06x}"


class _Canvas:
    def __init__(self, title: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        ]
        if title:
            self.text(WIDTH / 2, MARGIN["top"] - 16, title, anchor="middle", size=14)

    def text(self, x, y, s, anchor="start", size=11, rotate=None):
        esc = (
            str(s)
            .replace("&", "&amp;")
            .replace("<", "&lt;")
            .replace(">", "&gt;")
        )
        attr = f' transform="rotate(-90 {_fmt(x)} {_fmt(y)})"' if rotate else ""
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}" fill="#222222"{attr}>{esc}</text>'
        )

    def line(self, x1, y1, x2, y2, color="#cccccc", width=1.0):
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )

    def path(self, points, color, width=1.5):
        if not points:
            return
        cmds = []
        pen_up = True
        for pt in points:
            if pt is None:
                pen_up = True
                continue
            cmd = "M" if pen_up else "L"
            cmds.append(f"{cmd}{_fmt(pt[0])} {_fmt(pt[1])}")
            pen_up = False
        self.parts.append(
            f'<path d="{" ".join(cmds)}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>'
        )

    def finish(self) -> list[str]:
        """The SVG's lines, closing tag included."""
        return self.parts + ["</svg>"]


def _widen(lo, hi):
    """An empty range [lo, hi] widened to 1e-3 of |lo| each way, or 1e-3 at zero."""
    if hi > lo:
        return lo, hi
    pad = abs(lo) if lo else 1.0
    return lo - 1e-3 * pad, lo + 1e-3 * pad + 1e-12


class _Axes:
    def __init__(self, xlo, xhi, ylo, yhi):
        self.xlo, self.xhi = _widen(xlo, xhi)
        self.ylo, self.yhi = _widen(ylo, yhi)
        self.x0 = MARGIN["left"]
        self.x1 = WIDTH - MARGIN["right"]
        self.y0 = HEIGHT - MARGIN["bottom"]
        self.y1 = MARGIN["top"]

    def px(self, x):
        return self.x0 + (x - self.xlo) / (self.xhi - self.xlo) * (self.x1 - self.x0)

    def py(self, y):
        return self.y0 + (y - self.ylo) / (self.yhi - self.ylo) * (self.y1 - self.y0)

    def draw(self, canvas: _Canvas, xlabel: str, ylabel: str):
        for t in nice_ticks(self.xlo, self.xhi):
            x = self.px(t)
            canvas.line(x, self.y0, x, self.y1, "#e6e6e6")
            canvas.line(x, self.y0, x, self.y0 + 4, "#222222")
            canvas.text(x, self.y0 + 16, _tick_label(t), anchor="middle")
        for t in nice_ticks(self.ylo, self.yhi):
            y = self.py(t)
            canvas.line(self.x0, y, self.x1, y, "#e6e6e6")
            canvas.line(self.x0 - 4, y, self.x0, y, "#222222")
            canvas.text(self.x0 - 7, y + 4, _tick_label(t), anchor="end")
        canvas.line(self.x0, self.y0, self.x1, self.y0, "#222222")
        canvas.line(self.x0, self.y0, self.x0, self.y1, "#222222")
        if xlabel:
            canvas.text((self.x0 + self.x1) / 2, HEIGHT - 12, xlabel, anchor="middle", size=12)
        if ylabel:
            canvas.text(16, (self.y0 + self.y1) / 2, ylabel, anchor="middle", size=12, rotate=True)


def _finite_range(arrays):
    lo, hi = math.inf, -math.inf
    for arr in arrays:
        a = np.asarray(arr, dtype=float)
        finite = a[np.isfinite(a)]
        if finite.size:
            lo = min(lo, float(finite.min()))
            hi = max(hi, float(finite.max()))
    if lo > hi:
        return 0.0, 1.0
    return lo, hi


def line_plot(path, x, series, xlabel="", ylabel="", title=""):
    """Write a line plot SVG and return the path written.

    ``series`` is a list of (label, y-array) pairs; NaN samples break the
    polyline instead of drawing through it.
    """
    x = np.asarray(x, dtype=float)
    series = [(label, np.asarray(y, dtype=float)) for label, y in series]
    xlo, xhi = _finite_range([x])
    ylo, yhi = _finite_range([y for _, y in series])
    pad = 0.05 * (yhi - ylo) or max(abs(yhi), 1.0) * 0.05
    ax = _Axes(xlo, xhi, ylo - pad, yhi + pad)
    canvas = _Canvas(title)
    ax.draw(canvas, xlabel, ylabel)
    for i, (label, y) in enumerate(series):
        color = LINE_COLORS[i % len(LINE_COLORS)]
        pts = [
            (ax.px(xv), ax.py(yv)) if math.isfinite(yv) else None
            for xv, yv in zip(x, y)
        ]
        canvas.path(pts, color)
        if label:
            ly = MARGIN["top"] + 14 * i + 4
            canvas.line(ax.x1 - 90, ly - 4, ax.x1 - 74, ly - 4, color, 2)
            canvas.text(ax.x1 - 70, ly, label, size=11)
    return write_lines(path, canvas.finish())


def heatmap(path, slow_values, fast_values, grid, xlabel="", ylabel="", title=""):
    """Write a heatmap SVG, fast axis horizontal, and return the path written."""
    slow = np.asarray(slow_values, dtype=float)
    fast = np.asarray(fast_values, dtype=float)
    grid = np.asarray(grid, dtype=float)
    lo, hi = _finite_range([grid])
    ax = _Axes(float(fast[0]), float(fast[-1]), float(slow[0]), float(slow[-1]))
    canvas = _Canvas(title)
    n_head = len(canvas.parts)
    ax.draw(canvas, xlabel, ylabel)
    parts = canvas.finish()
    cw = (ax.x1 - ax.x0) / fast.size
    ch = (ax.y0 - ax.y1) / slow.size
    # cell (i, j) spans x0 + j * cw and y0 - (i + 1) * ch, widened by half a
    # pixel against seams; x is formatted once per column, y once per row and
    # each fill once
    heads = [f'<rect x="{_fmt(ax.x0 + j * cw)}" y="' for j in range(grid.shape[-1])]
    size = f'" width="{_fmt(cw + 0.5)}" height="{_fmt(ch + 0.5)}" fill="'
    hexes = _Hex()

    def cell_row(i):
        tail = f"{_fmt(ax.y0 - (i + 1) * ch)}{size}"
        fills = map(hexes.__getitem__, _color_codes(grid[i], lo, hi).tolist())
        return "\n".join([f'{head}{tail}{fill}"/>' for head, fill in zip(heads, fills)])

    # the cells go under the axes, formatted one row at a time as they are
    # written: a 61 x 721 map is 44k rects, and holding them all as strings
    # took ~11 MB at the peak
    rows = (cell_row(i) for i in range(slow.size))
    return write_lines(path, itertools.chain(parts[:n_head], rows, parts[n_head:]))
