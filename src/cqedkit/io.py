"""File formats: CSV readers and writers, JSON reports, schema access.

Every CSV writer hands ``_write_rows`` one 2-D float table, which it
writes row by row. Each cell's bytes are the float's repr, the shortest
decimal that reads back to the same bits, and lines end in LF, so a given
dataset always serializes to identical bytes. orjson formats each row: its
shortest digits are repr's for finite 1e-4 <= |x| < 1e16 and for ±0, and
a row holding any other cell is formatted by repr, cell by cell. Each
cell's value on input is what ``float`` reads from its text. orjson parses
a row when JSON must read every cell as ``float`` does; any other row, or
one orjson rejects, goes through numpy's string cast,
``np.array(cells, dtype=float)``, which calls ``float`` on every cell and
so accepts and rejects exactly what ``float`` does. Readers reject wrong
headers and report malformed cells with their 1-based line number. Only
these CSV paths import orjson.
Lines starting with '#' and blank lines are ignored on input. Gate sweep
CSVs are written only: each row is one SweepPoint, whose regime its NaN
pattern gives.

Every output file, SVG plots included, is written by ``write_lines`` at
the path it is given. ``json_text`` formats JSON for files and stdout alike.
"""

from __future__ import annotations

import itertools
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import InputDataError

# parameter names of each fit model: the keys of the params of its fit
# JSON and, for reflection and Rabi, of the truth of a synth sidecar
REFLECTION_PARAM_NAMES = ("a_re", "a_im", "ql", "qc", "theta", "f_r_ghz")
LORENTZIAN_PARAM_NAMES = ("f0", "fwhm", "depth", "offset")
RABI_PARAM_NAMES = ("A", "T_R", "omega", "B", "a", "b")

TRACE_HEADER = ("freq_ghz", "re", "im")
MAG_HEADER = ("freq_ghz", "mag_db")
RABI_HEADER = ("t_ns", "y")
GATE_HEADER = ("V_G", "value")


def write_lines(path, lines) -> Path:
    """Write text lines, each ended by LF, making the parent directories.
    A path that cannot be written, such as a directory or a path under a
    file, raises InputDataError."""
    p = Path(path)
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
        with open(p, "w", newline="\n") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
    except OSError as exc:
        raise InputDataError(f"cannot write {p}: {exc}") from exc
    return p


def _cells(row) -> str:
    """A C-contiguous 1-D float64 row as its cells' reprs, comma-separated.
    orjson writes repr's digits for finite 1e-4 <= |x| < 1e16 and ±0, and
    every other cell shows in its text as an 'e', a 'null' or a '0.0000'."""
    import orjson

    text = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)
    if b"e" in text or b"n" in text or b"0.0000" in text:
        return ",".join(map(repr, row.tolist()))
    return text[1:-1].decode()


def _write_rows(path, header, table) -> Path:
    """The header line, then one line per row of the 2-D float ``table``."""
    body = map(_cells, np.ascontiguousarray(table, dtype=float))
    return write_lines(path, itertools.chain([",".join(header)], body))


def _data_lines(path):
    """Yield (1-based line number, stripped text) skipping blanks and comments."""
    try:
        with open(path) as fh:
            for no, raw in enumerate(fh, start=1):
                text = raw.strip()
                if not text or text.startswith("#"):
                    continue
                yield no, text
    except OSError as exc:
        raise InputDataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputDataError(f"cannot decode {path} as {exc.encoding}: {exc.reason}") from None


def _header(path, lines):
    """(line number, text) of the first data line, the header."""
    try:
        return next(lines)
    except StopIteration:
        raise InputDataError(f"{path} is empty") from None


# JSON reads a row free of these as numbers, lists and empty objects, with
# no whitespace between tokens: no true, false, null or string
_NOT_JSON_NUMBERS = ("t", "f", "n", '"', " ", "\t")


def _json_row(text: str, width: int):
    """The row as orjson reads it, if that must be what ``float`` reads
    from each cell; else None. JSON reads a bare '-0' as the integer 0,
    so a row with a zero whose text holds one is left to ``float``."""
    import orjson

    if any(c in text for c in _NOT_JSON_NUMBERS):
        return None
    try:
        row = np.array(orjson.loads(f"[{text}]"), dtype=float)
    except (TypeError, ValueError):  # orjson's JSONDecodeError is a ValueError
        return None
    if row.shape != (width,) or (not row.all() and ("-0," in text or text.endswith("-0"))):
        return None
    return row


def _numeric_rows(path, lines, width: int) -> np.ndarray:
    """The remaining lines as an (n, width) float table."""
    rows = []
    for no, text in lines:
        row = _json_row(text, width)
        if row is None:
            cells = text.split(",")
            if len(cells) != width:
                raise InputDataError(f"expected {width} columns, got {len(cells)}", line=no)
            try:
                row = np.array(cells, dtype=float)
            except ValueError:
                raise InputDataError(f"non-numeric cell in {text!r}", line=no) from None
        rows.append(row)
    if not rows:
        raise InputDataError(f"{path} has a header but no data rows")
    return np.stack(rows)


def _read_table(path, header) -> np.ndarray:
    """Read a numeric CSV with an exact expected header; returns (n, k)."""
    want = ",".join(header)
    lines = _data_lines(path)
    no, first = _header(path, lines)
    if first != want:
        raise InputDataError(f"expected header {want!r}, got {first!r}", line=no)
    return _numeric_rows(path, lines, len(header))


def read_complex_trace(path):
    """The trace as a fitters.ComplexTrace."""
    from .fitters import ComplexTrace

    table = _read_table(path, TRACE_HEADER)
    return ComplexTrace(table[:, 0], table[:, 1] + 1j * table[:, 2])


def write_complex_trace(path, trace) -> Path:
    table = np.column_stack([trace.freqs_ghz, trace.values.real, trace.values.imag])
    return _write_rows(path, TRACE_HEADER, table)


def read_magnitude_trace(path):
    table = _read_table(path, MAG_HEADER)
    return table[:, 0], table[:, 1]


def write_magnitude_trace(path, freqs_ghz, mags_db) -> Path:
    return _write_rows(path, MAG_HEADER, np.column_stack([freqs_ghz, mags_db]))


def read_rabi_trace(path):
    table = _read_table(path, RABI_HEADER)
    return table[:, 0], table[:, 1]


def write_rabi_trace(path, t_ns, y) -> Path:
    return _write_rows(path, RABI_HEADER, np.column_stack([t_ns, y]))


def read_gate_table(path):
    """Gate response table: V_G,value rows for a GateSweepModel."""
    table = _read_table(path, GATE_HEADER)
    return table[:, 0], table[:, 1]


def write_gate_table(path, voltages, values) -> Path:
    return _write_rows(path, GATE_HEADER, np.column_stack([voltages, values]))


def write_sweep_csv(path, sweep) -> Path:
    """One row per point of a SweepResult, as the point is; the regimes are not written,
    as each is read off its row's NaN pattern (SweepPoint.regime)."""
    return _write_rows(path, sweep.CSV_COLUMNS, sweep.points)


def write_map_csv(path, m) -> Path:
    """A Map2D: corner cell 'slow\\fast' and the fast axis, then one row
    per slow value."""
    header = [f"{m.slow_name}\\{m.fast_name}", _cells(np.ascontiguousarray(m.fast_values))]
    return _write_rows(path, header, np.column_stack([m.slow_values, m.grid]))


def read_map_csv(path):
    """The map as a synth.Map2D."""
    from .synth import Map2D

    lines = _data_lines(path)
    no, first = _header(path, lines)
    cells = first.split(",")
    if "\\" not in cells[0]:
        raise InputDataError(
            f"map corner cell must be 'slow\\fast', got {cells[0]!r}", line=no
        )
    slow_name, fast_name = cells[0].split("\\", 1)
    try:
        fast = np.array(cells[1:], dtype=float)
    except ValueError:
        raise InputDataError("non-numeric fast-axis value in header", line=no) from None
    if fast.size < 1:
        raise InputDataError("map header has no fast-axis values", line=no)
    table = _numeric_rows(path, lines, fast.size + 1)
    slow, grid = np.ascontiguousarray(table[:, 0]), np.ascontiguousarray(table[:, 1:])
    return Map2D(slow_name, slow, fast_name, fast, grid)


def sanitize_json(obj):
    """Convert numpy scalars/arrays and replace non-finite floats by None."""
    if isinstance(obj, dict):
        return {str(k): sanitize_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize_json(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize_json(v) for v in obj.tolist()]
    # bool before int: Python bools are ints and must stay JSON booleans
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": sanitize_json(obj.real), "im": sanitize_json(obj.imag)}
    return obj


def json_text(payload) -> str:
    """Sorted, two-space indented JSON of a sanitized payload."""
    return json.dumps(sanitize_json(payload), indent=2, sort_keys=True, allow_nan=False)


def write_json(path, payload: dict) -> Path:
    return write_lines(path, [json_text(payload)])


def read_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputDataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputDataError(f"invalid JSON in {path}: {exc}", line=exc.lineno) from exc


def load_schema(name: str) -> dict:
    """Load one of the bundled JSON schemas by stem name."""
    ref = resources.files("cqedkit").joinpath("schemas", f"{name}.json")
    try:
        return json.loads(ref.read_text())
    except FileNotFoundError:
        raise KeyError(f"no schema named {name!r}") from None
