"""The CSV codec that ``cqedkit.io`` must match, kept as the readers and
writers were before they went through orjson.

Writer: ``repr(float(x))`` of each numpy scalar, one cell at a time, as
the writers formatted before they turned whole rows into Python floats.
``text`` gives a file's full contents, LF line endings included.

Reader: ``numeric_rows`` parses each split row with numpy's string cast,
which calls ``float`` on every cell; its values, error messages and line
numbers are the ones ``io`` must give.
"""

import numpy as np

from cqedkit.errors import InputDataError


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


def numeric_rows(path, lines, width: int) -> np.ndarray:
    """The remaining lines as an (n, width) float table."""
    rows = []
    for no, text in lines:
        cells = text.split(",")
        if len(cells) != width:
            raise InputDataError(f"expected {width} columns, got {len(cells)}", line=no)
        try:
            rows.append(np.array(cells, dtype=float))
        except ValueError:
            raise InputDataError(f"non-numeric cell in {text!r}", line=no) from None
    if not rows:
        raise InputDataError(f"{path} has a header but no data rows")
    return np.stack(rows)
