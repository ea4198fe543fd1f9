"""The per-cell CSV formatter that ``cqedkit.io`` writers must match byte
for byte: ``repr(float(x))`` of each numpy scalar, one cell at a time,
as the writers formatted before they turned whole rows into Python
floats. ``text`` gives a file's full contents, LF line endings included.
"""

import numpy as np


def _fmt(x) -> str:
    return repr(float(x))


def text(header, rows) -> str:
    """The header cells, then one line per row of cells."""
    lines = [",".join(header)] + [",".join(_fmt(c) for c in row) for row in rows]
    return "".join(line + "\n" for line in lines)


def map_text(m) -> str:
    """A Map2D: the corner cell and the fast axis, then slow value and grid row."""
    header = [f"{m.slow_name}\\{m.fast_name}"] + [_fmt(v) for v in m.fast_values]
    return text(header, np.column_stack([m.slow_values, m.grid]))
