"""File formats and config parsing: byte-stable CSV round trips, line-
numbered input errors, JSON sanitization, bundled schemas, and the strict
section/key checking of the YAML loader.
"""

import inspect
import json
import math
import re
from decimal import Decimal
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cqedkit import (
    ComplexTrace,
    DispersiveSystem,
    QubitParams,
    SweepPoint,
    SweepResult,
    SynthSpec,
    fit_reflection,
    gate_sweep,
    io,
    nanowire_profile,
    synth_reflection,
    transmon_levels,
)
from cqedkit import config
from cqedkit.coupling import nanowire_profile
from cqedkit.errors import ConfigError, InputDataError

import csv_oracle

TRANSMON = QubitParams(ec=190.0, ej=9500.0)
GATEMON = QubitParams(ec=190.0, gap=45600.0, transmissions=(0.9,))


def _trace(n=101):
    f = np.linspace(5.0, 5.1, n)
    rng = np.random.default_rng(0)
    z = rng.normal(1.0, 0.1, n) + 1j * rng.normal(0.0, 0.1, n)
    return ComplexTrace(f, z)


class TestCsvRoundTrips:
    def test_complex_trace(self, tmp_path):
        t = _trace()
        p = io.write_complex_trace(tmp_path / "t.csv", t)
        back = io.read_complex_trace(p)
        assert np.array_equal(back.freqs_ghz, t.freqs_ghz)
        assert np.array_equal(back.values, t.values)

    def test_magnitude_trace(self, tmp_path):
        f = np.linspace(4.0, 4.5, 57)
        y = np.sin(f) * 3.0
        p = io.write_magnitude_trace(tmp_path / "m.csv", f, y)
        f2, y2 = io.read_magnitude_trace(p)
        assert np.array_equal(f2, f) and np.array_equal(y2, y)

    def test_rabi_trace(self, tmp_path):
        t = np.linspace(0.0, 800.0, 161)
        y = np.cos(0.2 * t) * np.exp(-t / 300.0)
        p = io.write_rabi_trace(tmp_path / "r.csv", t, y)
        t2, y2 = io.read_rabi_trace(p)
        assert np.array_equal(t2, t) and np.array_equal(y2, y)

    def test_gate_table(self, tmp_path):
        v = np.linspace(-2.0, 10.0, 25)
        val = np.abs(v) * 1000.0
        p = io.write_gate_table(tmp_path / "g.csv", v, val)
        v2, val2 = io.read_gate_table(p)
        assert np.array_equal(v2, v) and np.array_equal(val2, val)

    def test_sweep_regimes_rederived(self, tmp_path):
        # a sweep CSV row is a SweepPoint, whose regime its NaN pattern gives
        def reread(sweep, name):
            header, *rows = io.write_sweep_csv(tmp_path / name, sweep).read_text().splitlines()
            assert header == ",".join(SweepResult.CSV_COLUMNS)
            return [SweepPoint(*map(float, row.split(","))) for row in rows]

        nan = float("nan")
        points = [
            SweepPoint(0.0, nan, nan, 5.443, nan, nan),
            SweepPoint(1.0, 5440.0, nan, nan, 5.54, 5.34),
            SweepPoint(2.0, 4500.0, 10.0, 5.453, nan, nan),
        ]
        system = DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0)
        back = reread(SweepResult(points, system), "s.csv")
        assert [pt.regime for pt in back] == ["pinch_off", "hybridized", "dispersive"]
        assert back[2].chi_mhz == 10.0

        # a solved gatemon sweep crossing the cavity: all three regimes
        model = nanowire_profile(seed=3, n=9, max_value=1.0, maps_to="transmission")
        sweep = gate_sweep(model, QubitParams(ec=250.0, gap=60000.0, transmissions=(1.0,)),
                           system)
        assert {pt.regime for pt in sweep.points} == {"pinch_off", "dispersive", "hybridized"}
        back = reread(sweep, "g.csv")
        assert len(back) == len(sweep.points)
        for got, want in zip(back, sweep.points):
            assert got.regime == want.regime
            assert np.array_equal(got, want, equal_nan=True), want

    def test_write_is_byte_stable(self, tmp_path):
        t = _trace()
        a = io.write_complex_trace(tmp_path / "a.csv", t)
        b = io.write_complex_trace(tmp_path / "b.csv", t)
        assert a.read_bytes() == b.read_bytes()
        # shortest-repr cells survive a read/write cycle byte for byte
        c = io.write_complex_trace(tmp_path / "c.csv", io.read_complex_trace(a))
        assert c.read_bytes() == a.read_bytes()


class TestCsvErrors:
    def test_wrong_header(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("freq,re,im\n5.0,1.0,0.0\n")
        with pytest.raises(InputDataError, match="expected header") as err:
            io.read_complex_trace(p)
        assert err.value.line == 1

    def test_bad_cell_reports_line(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("freq_ghz,re,im\n5.0,1.0,0.0\n5.1,oops,0.0\n")
        with pytest.raises(InputDataError, match="non-numeric") as err:
            io.read_complex_trace(p)
        assert err.value.line == 3

    def test_column_count_reports_line(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("freq_ghz,re,im\n5.0,1.0\n")
        with pytest.raises(InputDataError, match="columns") as err:
            io.read_complex_trace(p)
        assert err.value.line == 2

    def test_empty_file(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("")
        with pytest.raises(InputDataError, match="empty"):
            io.read_complex_trace(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("freq_ghz,re,im\n")
        with pytest.raises(InputDataError, match="no data rows"):
            io.read_complex_trace(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputDataError, match="cannot read"):
            io.read_complex_trace(tmp_path / "nope.csv")

    @pytest.mark.parametrize("cell", [
        " 1.5 ", "\t2", "1_0", "1__0", "_1", "nan", "-nan", "Infinity", "-inF", "1e500",
        "4.9e-324", "-0.0", "+.5", "0x1p3", "", "1e", "NaN(1)", "\u0661\u0662", "\uff15",
        "\u22121", "1\x00", "1 2",
    ])
    def test_cells_parse_as_float_does(self, tmp_path, cell):
        # the reader's numpy cast accepts and rejects what float() does
        p = tmp_path / "x.csv"
        p.write_text(f"V\\f,5.4,5.5\n0.0,1.0,0.0\n1.0,{cell},0.0\n")
        try:
            want = float(cell)
        except ValueError:
            with pytest.raises(InputDataError, match="non-numeric") as err:
                io.read_map_csv(p)
            assert err.value.line == 3
            return
        got = io.read_map_csv(p).grid[1, 0]
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("read, text, message", [
        (io.read_magnitude_trace, b"freq_ghz,mag_db\n5.0,-1.0\n5.1,-2.0\xff\n",
         "invalid start byte"),
        (io.read_map_csv, b"V\\f,5.4,5.5\n0.0,1.0,0.0\n1.0,\xc3,0.0\n",
         "invalid continuation byte"),
    ], ids=["trace", "map"])
    def test_undecodable_byte_names_the_file(self, tmp_path, read, text, message):
        # it once escaped as a bare UnicodeDecodeError naming no file
        p = tmp_path / "x.csv"
        p.write_bytes(text)
        with pytest.raises(InputDataError) as err:
            read(p)
        assert str(err.value) == f"cannot decode {p} as utf-8: {message}"

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("# provenance note\n\nfreq_ghz,re,im\n5.0,1.0,0.0\n\n"
                     "# mid-file comment\n5.1,0.9,0.1\n")
        t = io.read_complex_trace(p)
        assert len(t) == 2


class TestMapCsv:
    def _map(self):
        from cqedkit import Map2D
        return Map2D("V_G", [0.0, 0.5, 1.0], "f_GHz",
                     np.linspace(5.4, 5.5, 11), np.arange(33.0).reshape(3, 11))

    def test_round_trip(self, tmp_path):
        m = self._map()
        p = io.write_map_csv(tmp_path / "m.csv", m)
        back = io.read_map_csv(p)
        assert back.slow_name == "V_G" and back.fast_name == "f_GHz"
        assert np.array_equal(back.slow_values, m.slow_values)
        assert np.array_equal(back.fast_values, m.fast_values)
        assert np.array_equal(back.grid, m.grid)

    def test_corner_cell_required(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("corner,5.4,5.5\n0.0,1.0,1.0\n")
        with pytest.raises(InputDataError, match="corner"):
            io.read_map_csv(p)

    @pytest.mark.parametrize("header, match", [
        ("V\\f,5.4,high", "non-numeric fast-axis value"),
        ("V\\f", "no fast-axis values"),
    ], ids=["text", "none"])
    def test_fast_axis_header_reports_line(self, tmp_path, header, match):
        p = tmp_path / "m.csv"
        p.write_text(header + "\n0.0,1.0,1.0\n")
        with pytest.raises(InputDataError, match=match) as err:
            io.read_map_csv(p)
        assert err.value.line == 1

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("V\\f,5.4,5.5\n0.0,1.0\n")
        with pytest.raises(InputDataError, match="columns") as err:
            io.read_map_csv(p)
        assert err.value.line == 2

    def test_edge_values_on_every_axis(self, tmp_path):
        # each edge value sits in the grid, the fast-axis header and the
        # slow-axis first column; the bytes are the per-cell oracle's and
        # the values read back bit for bit, the sign of -0.0 included
        from cqedkit import Map2D
        edge = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5])
        grid = np.vstack([np.roll(edge, k) for k in range(edge.size)])
        m = Map2D("P_dBm", edge[::-1], "f_GHz", edge, grid)
        p = io.write_map_csv(tmp_path / "m.csv", m)
        assert p.read_text() == csv_oracle.map_text(m)
        assert p.read_text().splitlines()[0] == "P_dBm\\f_GHz,nan,inf,-inf,-0.0,5e-324,1e+16,1e-05"
        back = io.read_map_csv(p)
        for got, want in ((back.slow_values, m.slow_values),
                          (back.fast_values, m.fast_values), (back.grid, m.grid)):
            assert got.tobytes() == want.tobytes()
        assert np.signbit(back.grid[0, 3]) and np.signbit(back.fast_values[3])


def test_every_writer_matches_the_per_cell_oracle(tmp_path):
    edge = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1, 5.443])
    other = np.roll(edge, 3)
    # a trace holds finite samples only
    finite = edge[np.isfinite(edge)]
    trace = ComplexTrace(np.linspace(5.0, 5.1, finite.size), finite + 1j * finite[::-1])
    cases = [
        (io.write_complex_trace(tmp_path / "t.csv", trace), io.TRACE_HEADER,
         zip(trace.freqs_ghz, trace.values.real, trace.values.imag)),
        (io.write_magnitude_trace(tmp_path / "m.csv", edge, other), io.MAG_HEADER,
         zip(edge, other)),
        (io.write_rabi_trace(tmp_path / "r.csv", edge, other), io.RABI_HEADER, zip(edge, other)),
        (io.write_gate_table(tmp_path / "g.csv", edge, other), io.GATE_HEADER, zip(edge, other)),
    ]
    points = [SweepPoint(*np.roll(edge, k)[:6]) for k in range(edge.size)]
    sweep = SweepResult(points, DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0))
    cases.append((io.write_sweep_csv(tmp_path / "s.csv", sweep), SweepResult.CSV_COLUMNS,
                  points))
    for path, header, rows in cases:
        assert path.read_text() == csv_oracle.text(header, rows), path.name


def _ulps_around(x):
    """x and the floats one ulp either side of it."""
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# the ends of the range where orjson's digits are repr's, and values on
# either side of them, with the cells orjson cannot write as repr does
WRITER_EDGES = [
    *(v for x in (1e-9, 1e-5, 1e-4, 1e16) for s in (1.0, -1.0) for v in _ulps_around(s * x)),
    5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.5e-310,
    0.0, -0.0, np.nan, np.inf, -np.inf, 0.1, 5.443, -3.0, 1e15, 9999999999999998.0,
]


@pytest.mark.parametrize("cell", WRITER_EDGES, ids=repr)
def test_writer_edge_cells_match_the_oracle(tmp_path, cell):
    # the cell alone, and in a row whose other cells orjson writes as repr does
    rows = np.array([[cell], [0.5]]), np.array([[0.25, cell, 7.5], [1.0, 2.0, 3.0]])
    for table in rows:
        header = [f"c{k}" for k in range(table.shape[1])]
        path = io._write_rows(tmp_path / "x.csv", header, table)
        assert path.read_text() == csv_oracle.text(header, table)


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 12)),
                  elements=st.floats(width=64) | st.sampled_from(WRITER_EDGES)))
@settings(max_examples=300, deadline=None)
def test_writer_matches_the_oracle_on_any_table(tmp_path_factory, table):
    header = [f"c{k}" for k in range(table.shape[1])]
    path = io._write_rows(tmp_path_factory.mktemp("w") / "x.csv", header, table)
    assert path.read_text() == csv_oracle.text(header, table)


def test_map_writer_formats_a_strided_fast_axis(tmp_path):
    # the fast axis goes through the row formatter, which needs contiguous rows
    from cqedkit import Map2D
    m = Map2D("P", np.array([1.0, 2.0]), "f", np.linspace(5.0, 6.0, 11)[::2], np.ones((2, 6)))
    assert io.write_map_csv(tmp_path / "m.csv", m).read_text() == csv_oracle.map_text(m)


HALF_ULP_ABOVE_1 = format(Decimal(1) + Decimal(2) ** -53, "f")  # 1 + 2**-53, exactly

# cell texts where JSON and float() may part: each must read as the oracle
# reads it, to the bit, or fail with its message on its line
READER_CELLS = [
    "-0", "-0 ", " -0", "0", "+1", ".5", "5.", "1_0", "00.5", "1e400", "-1e400", "1e-400",
    "-1e-400", "-0e0", "-0.0", "1e-0", "1E5", "true", "false", "null", '"1"', "[1]", "[]",
    "{}", "[[1.5]]", "NaN", "nan", "-Infinity", "inf", "\u0661", "\u00a01.5", "1\t",
    "1" + "0" * 399, "0." + "3" * 398, "1" + "0" * 399 + "e-390", "-" + "9" * 399 + ".5e-399",
    HALF_ULP_ABOVE_1, HALF_ULP_ABOVE_1 + "0" * 340 + "1",
    str(2**53 + 1), str(-(2**53 + 1)), str(2**64 + 1), str(-(2**63) - 1), str(2**63 + 2**10 + 1),
]


def _read_both(path, width):
    """(io's outcome, the oracle's outcome) on the data rows of ``path``: the
    table's shape and bytes, or the error's message and line."""
    outcomes = []
    for read in (io._numeric_rows, csv_oracle.numeric_rows):
        lines = io._data_lines(path)
        next(lines)
        try:
            table = read(path, lines, width)
            outcomes.append((table.shape, table.tobytes()))
        except InputDataError as exc:
            outcomes.append((str(exc), exc.line))
    return outcomes


@pytest.mark.parametrize("cell", READER_CELLS, ids=lambda c: repr(c[:24]))
def test_reader_matches_the_oracle(tmp_path, cell):
    layouts = [[cell], [cell, "1.5"], ["1.5", cell], ["1.5", cell, "-2.5"], [cell] * 3,
               ["-0", cell], [cell, "-0"]]
    for cells in layouts:
        path = tmp_path / "x.csv"
        path.write_text("h\n" + ",".join(["4.0"] * len(cells)) + "\n" + ",".join(cells) + "\n")
        got, want = _read_both(path, len(cells))
        assert got == want, cells


@given(st.lists(st.tuples(st.floats(width=64), st.sampled_from(
    ["{!r}", "{:.17g}", "{:.3e}", "{:.0f}", "{:f}", "{:.20f}"])), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_reader_matches_the_oracle_on_any_row(tmp_path_factory, cells):
    # "{:.0f}" writes integers, -0 among them
    texts = [form.format(x) for x, form in cells]
    path = tmp_path_factory.mktemp("r") / "x.csv"
    path.write_text("h\n" + ",".join(texts) + "\n")
    got, want = _read_both(path, len(texts))
    assert got == want


class TestJson:
    def test_sanitize_nonfinite_and_numpy(self):
        out = io.sanitize_json({
            "nan": float("nan"),
            "inf": np.float64("inf"),
            "arr": np.array([1.5, 2.5]),
            "i": np.int64(3),
            "flag": np.bool_(True),
            "nested": [{"x": np.float32(0.5)}],
        })
        assert out["nan"] is None and out["inf"] is None
        assert out["arr"] == [1.5, 2.5]
        assert out["i"] == 3 and isinstance(out["i"], int)
        assert out["nested"] == [{"x": 0.5}]

    def test_bools_stay_bools(self):
        # Python bools are ints; the sanitizer must keep them boolean
        out = io.sanitize_json({"converged": True, "n": 1})
        assert out["converged"] is True and out["n"] == 1
        assert json.dumps(out, sort_keys=True) == '{"converged": true, "n": 1}'

    def test_complex_becomes_re_im(self):
        assert io.sanitize_json(1.5 - 0.5j) == {"re": 1.5, "im": -0.5}

    def test_write_read_round_trip(self, tmp_path):
        payload = {"b": 2, "a": {"nan": float("nan")}, "ok": True}
        p = io.write_json(tmp_path / "x.json", payload)
        text = p.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')  # sorted keys
        assert io.read_json(p) == {"a": {"nan": None}, "b": 2, "ok": True}

    def test_read_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{\n  "a": 1,\n  oops\n}\n')
        with pytest.raises(InputDataError, match="invalid JSON") as err:
            io.read_json(p)
        assert err.value.line == 3

    def test_read_json_missing_file(self, tmp_path):
        with pytest.raises(InputDataError, match="cannot read"):
            io.read_json(tmp_path / "nope.json")


def test_outdir_env_resolves_relative_paths(tmp_path, monkeypatch, old_outdir_set):
    # a relative path is written under the working directory and returned as given
    monkeypatch.chdir(tmp_path)
    p = io.write_json("sub/report.json", {"x": 1})
    assert p == Path("sub/report.json")
    assert (tmp_path / "sub" / "report.json").is_file()
    assert not (tmp_path / "rel").exists()
    # absolute paths are left alone
    q = io.write_json(tmp_path / "abs.json", {"x": 1})
    assert q == tmp_path / "abs.json"


class TestSchemas:
    def test_fit_result_payload_validates(self):
        spec = SynthSpec(
            kind="reflection_trace", seed=11, snr_db=35.0,
            truth={"a_re": 1.0, "a_im": 0.0, "ql": 6000.0, "qc": 12000.0,
                   "theta": 0.1, "f_r_ghz": 5.2816},
            grid={"f_min_ghz": 5.2728, "f_max_ghz": 5.2904, "n_f": 401},
        )
        fit = fit_reflection(synth_reflection(spec))
        payload = io.sanitize_json(fit.to_dict())
        jsonschema.validate(payload, io.load_schema("fit_result"))

    def test_spectrum_payload_validates(self):
        spectrum = transmon_levels(QubitParams(ec=190.0, ej=9500.0))
        payload = io.sanitize_json(spectrum.to_dict())
        jsonschema.validate(payload, io.load_schema("spectrum"))

    def test_synth_truth_payload_validates(self):
        spec = SynthSpec(kind="rabi_trace", seed=1, snr_db=None,
                         truth={"A": 1, "T_R": 260, "omega": 0.2, "B": 0,
                                "a": 0, "b": 0},
                         grid={"t_max_ns": 1000, "n_t": 251})
        jsonschema.validate(io.sanitize_json(spec.to_dict()),
                            io.load_schema("synth_truth"))

    def test_unknown_schema(self):
        with pytest.raises(KeyError):
            io.load_schema("nonexistent")


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_every_key_and_no_other():
    # the (section, key) of each row of README's reference table
    text = README.read_text().split("## Configuration\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|", text, flags=re.M)
    assert len(rows) == len(set(rows))
    assert set(rows) == {(name, key) for name, keys in config.KEYS.items() for key in keys}


def test_profile_defaults_are_nanowire_profile_defaults():
    params = inspect.signature(nanowire_profile).parameters
    for key, (_, default) in config.KEYS["sweep.profile"].items():
        assert default is config.REQUIRED if key == "seed" else default == params[key].default


class TestConfig:
    def test_load_config_unknown_section(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("qubit:\n  ec_mhz: 190\nextra:\n  x: 1\n")
        with pytest.raises(ConfigError, match="unknown config sections"):
            config.load_config(p)

    def test_load_config_root_must_be_mapping(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            config.load_config(p)

    def test_load_config_empty_is_empty_mapping(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("")
        assert config.load_config(p) == {}

    def test_load_config_invalid_yaml(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("qubit: [unclosed\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            config.load_config(p)

    @pytest.mark.parametrize("text, key, line", [
        ("qubit:\n  ec_mhz: 190\nqubit:\n  ec_mhz: 250\n", "qubit", 3),
        ("qubit:\n  ec_mhz: 190\n  ej_mhz: 9500\n  ec_mhz: 250\n", "ec_mhz", 4),
        ("sweep:\n  profile:\n    seed: 3\n    n: 9\n    seed: 4\n", "seed", 5),
        ("sweep:\n  profile: {seed: 3, n: 9, seed: 4}\n", "seed", 2),
        ("synth:\n  truth: {ql: 6000, ql: 6000}\n", "ql", 2),
    ], ids=["section", "key", "nested-key", "flow-mapping", "same-value"])
    def test_load_config_duplicate_key(self, tmp_path, text, key, line):
        p = tmp_path / "c.yaml"
        p.write_text(text)
        with pytest.raises(ConfigError) as err:
            config.load_config(p)
        assert str(err.value) == f"duplicate key {key!r} in {p} (line {line})"

    def test_load_config_undecodable_byte(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_bytes(b"qubit:\n  ec_mhz: 190\xff\xfe\n")
        with pytest.raises(ConfigError) as err:
            config.load_config(p)
        assert str(err.value) == f"invalid YAML in {p}: #xff at position 20: invalid start byte"

    @pytest.mark.parametrize("char", [0, 7], ids=["nul", "bel"])
    def test_load_config_control_character_on_one_line(self, tmp_path, char):
        # the reader's error once printed its position on a second line
        p = tmp_path / "c.yaml"
        p.write_text(f"qubit:\n  ec_mhz: 190{chr(char)}\n")
        with pytest.raises(ConfigError) as err:
            config.load_config(p)
        assert str(err.value) == (f"invalid YAML in {p}: #x{char:02x} at position 20: "
                                  "special characters are not allowed")

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            config.load_config(tmp_path / "missing.yaml")

    @pytest.mark.parametrize("build, cfg, match", [
        (config.qubit_params, {}, "no 'qubit' section"),
        (config.qubit_params, {"qubit": [190]}, "section 'qubit' must be a mapping"),
        (config.cavity_geometry,
         {"cavity": {"length_a_mm": -70, "width_b_mm": 5, "height_d_mm": 30}},
         "cavity length_a_mm must be finite and positive, got -70"),
        (config.cavity_geometry,
         {"cavity": {"length_a_mm": 70, "width_b_mm": 5, "height_d_mm": 30, "p": 0}},
         r"cavity section: invalid TE triple \(m, n, p\) = \(1, 0, 0\)"),
        (config.dispersive_system, {"system": {"f_bare_ghz": 5.4, "g_mhz": -1}},
         "system g_mhz must be finite and positive, got -1"),
        (lambda cfg: config.gate_model(cfg, TRANSMON), {"sweep": {"table_csv": 0}},
         "sweep table_csv must be a path"),
        (lambda cfg: config.gate_model(cfg, TRANSMON), {"sweep": {"profile": [3]}},
         "sweep profile must be a mapping"),
        (config.pipeline_options, {"pipeline": [7]}, "section 'pipeline' must be a mapping"),
        (config.pipeline_options, {"pipeline": {"tolerances": [0.1]}},
         "pipeline tolerances must be a mapping"),
    ], ids=["no-section", "list-section", "negative-length", "two-zero-indices", "negative-g",
            "integer-table", "list-profile", "list-pipeline", "list-tolerances"])
    def test_section_errors_name_the_section(self, build, cfg, match):
        with pytest.raises(ConfigError, match=match):
            build(cfg)

    def test_qubit_params_happy_path(self):
        params = config.qubit_params({"qubit": {"ec_mhz": 190, "ej_mhz": 9500}})
        assert params.ec == 190.0 and params.ej == 9500.0

    def test_qubit_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config.qubit_params({"qubit": {"ec_mhz": 190, "ej": 9500}})

    def test_qubit_missing_ec(self):
        with pytest.raises(ConfigError, match="missing"):
            config.qubit_params({"qubit": {"ej_mhz": 9500}})

    def test_qubit_variant_conflict(self):
        with pytest.raises(ConfigError, match="qubit section"):
            config.qubit_params(
                {"qubit": {"ec_mhz": 190, "ej_mhz": 9500, "gap_mhz": 45600}})

    def test_qubit_transmissions_must_be_list(self):
        with pytest.raises(ConfigError, match="transmissions"):
            config.qubit_params({"qubit": {"ec_mhz": 190, "transmissions": 0.9}})

    def test_solver_options_passthrough(self):
        cfg = {"qubit": {"ec_mhz": 190, "ej_mhz": 9500, "n_cut": 40}}
        assert config.solver_options(cfg, TRANSMON) == {"n_cut": 40}
        assert config.solver_options({"qubit": {"ec_mhz": 190, "ej_mhz": 9500}}, TRANSMON) == {}
        gatemon = {"ec_mhz": 190, "gap_mhz": 45600, "transmissions": [0.9], "grid_n": 401}
        assert config.solver_options({"qubit": gatemon}, GATEMON) == {"grid_n": 401}

    @pytest.mark.parametrize("qubit, key", [
        ({"ec_mhz": 190, "ej_mhz": 9500, "grid_n": 301}, "grid_n"),
        ({"ec_mhz": 190, "gap_mhz": 45600, "transmissions": [0.9], "n_cut": 40}, "n_cut"),
    ], ids=["transmon-grid_n", "gatemon-n_cut"])
    def test_solver_options_rejects_other_variant_key(self, qubit, key):
        # a key the solver never reads would be silently ignored
        cfg = {"qubit": qubit}
        with pytest.raises(ConfigError, match=f"qubit {key} does not apply"):
            config.solver_options(cfg, config.qubit_params(cfg))

    # each used to name the dataclass field (ec, length_a, transmission -1.0)
    @pytest.mark.parametrize("cfg, named", [
        ({"qubit": {"ec_mhz": 0, "ej_mhz": 9500}},
         "qubit ec_mhz must be finite and positive, got 0"),
        ({"qubit": {"ec_mhz": 190, "ej_mhz": -1}}, r"qubit ej_mhz must lie in \[0, inf\], got -1"),
        ({"qubit": {"ec_mhz": 190, "gap_mhz": -1, "transmissions": [0.85]}},
         r"qubit gap_mhz must lie in \[0, inf\], got -1"),
        ({"qubit": {"ec_mhz": 190, "gap_mhz": 45600, "transmissions": [0.85, -1, 0.1]}},
         r"qubit transmissions\[1\] must lie in \[0, 1\], got -1"),
        ({"cavity": {"length_a_mm": -1, "width_b_mm": 5, "height_d_mm": 30}},
         "cavity length_a_mm must be finite and positive, got -1"),
        ({"cavity": {"length_a_mm": 70, "width_b_mm": 0, "height_d_mm": 30}},
         "cavity width_b_mm must be finite and positive, got 0"),
        ({"cavity": {"length_a_mm": 70, "width_b_mm": 5, "height_d_mm": -30}},
         "cavity height_d_mm must be finite and positive, got -30"),
    ], ids=["ec_mhz", "ej_mhz", "gap_mhz", "transmissions", "length_a_mm", "width_b_mm",
            "height_d_mm"])
    def test_value_errors_name_the_key(self, cfg, named):
        build = config.qubit_params if "qubit" in cfg else config.cavity_geometry
        with pytest.raises(ConfigError, match=f"^{named}$"):
            build(cfg)

    @pytest.mark.parametrize("qubit, maps_to", [(TRANSMON, "ej"), (GATEMON, "transmission")],
                             ids=["transmon", "gatemon"])
    def test_the_qubit_picks_what_the_sweep_drives(self, qubit, maps_to):
        model = config.gate_model({"sweep": {"profile": {"seed": 1, "max_value": 1.0}}}, qubit)
        assert model.maps_to == maps_to

    @pytest.mark.parametrize("value, want", [(7, 7), (400.0, 400), ("4e2", 400), ("12", 12)])
    def test_integer_key_accepts_integral_values(self, value, want):
        got = config._check("integer", value, "key")
        assert got == want and type(got) is int

    @pytest.mark.parametrize("value", [None, "x", "nan", float("inf"), 1.5, True, [1]])
    def test_integer_key_rejects(self, value):
        with pytest.raises(ConfigError, match="key must be an integer"):
            config._check("integer", value, "key")

    def test_cavity_mm_conversion(self):
        geom = config.cavity_geometry(
            {"cavity": {"length_a_mm": 70, "width_b_mm": 5, "height_d_mm": 30}})
        assert geom.length_a == pytest.approx(0.070)
        assert geom.m == 1 and geom.n == 0 and geom.p == 1

    def test_system_f_bare_falls_back_to_cavity(self):
        cfg = {
            "cavity": {"length_a_mm": 70, "width_b_mm": 5, "height_d_mm": 30},
            "system": {"g_mhz": 100},
        }
        system = config.dispersive_system(cfg)
        assert system.f_bare_ghz == pytest.approx(5.436074616612465, rel=1e-12)

    def test_system_needs_frequency_source(self):
        with pytest.raises(ConfigError, match="f_bare_ghz or a cavity"):
            config.dispersive_system({"system": {"g_mhz": 100}})

    def test_sweep_table_xor_profile(self, tmp_path):
        with pytest.raises(ConfigError, match="exactly one"):
            config.gate_model({"sweep": {}}, TRANSMON)
        table = tmp_path / "t.csv"
        io.write_gate_table(table, [0.0, 1.0], [0.0, 1000.0])
        with pytest.raises(ConfigError, match="exactly one"):
            config.gate_model(
                {"sweep": {"table_csv": str(table), "profile": {"seed": 1}}}, TRANSMON)

    def test_sweep_from_table(self, tmp_path):
        table = tmp_path / "t.csv"
        io.write_gate_table(table, [0.0, 1.0, 2.0], [0.0, 500.0, 1000.0])
        model = config.gate_model({"sweep": {"table_csv": str(table)}}, TRANSMON)
        # pchip through collinear samples is the line through them
        assert model(1.5) == pytest.approx(750.0)

    def test_sweep_profile_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config.gate_model({"sweep": {"profile": {"seed": 1, "vmax": 5}}}, TRANSMON)

    def test_synth_spec_strict_keys(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config.synth_spec({"synth": {"kind": "rabi_trace", "seed": 1,
                                         "snr": 20}})

    def test_synth_spec_builds(self):
        spec = config.synth_spec({"synth": {
            "kind": "rabi_trace", "seed": 5,
            "truth": {"A": 1, "T_R": 260, "omega": 0.2, "B": 0, "a": 0, "b": 0},
            "grid": {"t_max_ns": 1000, "n_t": 251},
        }})
        assert spec.snr_db is None and spec.seed == 5

    def _spec(self, **truth_over):
        truth = {"a_re": 0.9, "a_im": 0.1, "ql": 6000.0, "qc": 12000,
                 "theta": 0.15, "f_r_ghz": 5.2816}
        truth.update(truth_over)
        return config.synth_spec({"synth": {
            "kind": "reflection_trace", "seed": 11, "truth": truth,
            "grid": {"f_min_ghz": 5.2712, "f_max_ghz": 5.2920, "n_f": 401},
        }})

    def test_synth_numeric_strings_become_floats(self):
        # PyYAML reads 6e3 (no decimal point) as the string "6e3"
        spec = self._spec(ql="6e3")
        assert spec.truth["ql"] == 6000.0 and type(spec.truth["ql"]) is float

    @pytest.mark.parametrize("value", ["fast", "nan", "inf", "", None, [1, 2], {"x": 1},
                                       pytest.param(math.nan, id="float-nan"),
                                       pytest.param(-math.inf, id="float-minus-inf")])
    def test_synth_non_number_names_key(self, value):
        with pytest.raises(ConfigError, match="ql"):
            self._spec(ql=value)
        with pytest.raises(ConfigError, match="n_f"):
            config.synth_spec({"synth": {"kind": "reflection_trace", "seed": 1,
                                         "grid": {"n_f": value}}})

    def test_synth_numbers_and_bools_kept(self):
        spec = self._spec()
        assert spec.truth["qc"] == 12000 and type(spec.truth["qc"]) is int
        assert type(spec.grid["n_f"]) is int and type(spec.truth["ql"]) is float
        # a bool is kept for a switch, which two_photon of a two-tone map is
        two_tone = config.synth_spec({"synth": {
            "kind": "two_tone_map", "seed": 1, "truth": {"two_photon": True, "alpha_mhz": -200},
            "grid": {"f_min_ghz": 2.0, "f_max_ghz": 5.6, "n_f": 11,
                     "v_min": 0.0, "v_max": 1.0, "n_v": 2},
        }})
        assert two_tone.truth["two_photon"] is True

    def test_pipeline_defaults(self):
        opts = config.pipeline_options({})
        assert opts == {"seed": 7, "tolerances": {"ql_rel": 0.02, "qc_rel": 0.05, "f_r_mhz": 0.5}}
        with pytest.raises(ConfigError, match="unknown keys"):
            config.pipeline_options({"pipeline": {"seeds": 3}})

    def test_pipeline_tolerances_pass_through(self):
        opts = config.pipeline_options(
            {"pipeline": {"tolerances": {"ql_rel": 0.01, "f_r_mhz": "1e-3"}}})
        assert opts["tolerances"] == {"ql_rel": 0.01, "qc_rel": 0.05, "f_r_mhz": 1e-3}

    def test_pipeline_tolerance_unknown_key(self):
        # a misspelt key must fail, not leave the default tolerance in force
        with pytest.raises(ConfigError, match="qc_rell") as err:
            config.pipeline_options({"pipeline": {"tolerances": {"qc_rell": 1e-12}}})
        for allowed in ("ql_rel", "qc_rel", "f_r_mhz"):
            assert allowed in str(err.value)

    @pytest.mark.parametrize("value", [0.0, -0.1, math.nan, math.inf, "tight", None])
    def test_pipeline_tolerance_bad_value(self, value):
        with pytest.raises(ConfigError, match="qc_rel"):
            config.pipeline_options({"pipeline": {"tolerances": {"qc_rel": value}}})
