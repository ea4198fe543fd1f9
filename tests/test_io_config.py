"""File formats and config parsing: byte-stable CSV round trips, line-
numbered input errors, JSON sanitization, bundled schemas, and the strict
section/key checking of the YAML loader.
"""

import json
import math

import jsonschema
import numpy as np
import pytest

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
from cqedkit.errors import ConfigError, InputDataError

import csv_oracle


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


def test_outdir_env_resolves_relative_paths(tmp_path, monkeypatch):
    monkeypatch.setenv(io.OUTDIR_ENV, str(tmp_path / "outputs"))
    p = io.write_json("sub/report.json", {"x": 1})
    assert p == tmp_path / "outputs" / "sub" / "report.json"
    assert p.is_file()
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

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            config.load_config(tmp_path / "missing.yaml")

    @pytest.mark.parametrize("build, cfg, match", [
        (config.qubit_params, {}, "no 'qubit' section"),
        (config.qubit_params, {"qubit": [190]}, "section 'qubit' must be a mapping"),
        (config.cavity_geometry,
         {"cavity": {"length_a_mm": -70, "width_b_mm": 5, "height_d_mm": 30}},
         "cavity section: length_a must be positive"),
        (config.dispersive_system, {"system": {"f_bare_ghz": 5.4, "g_mhz": -1}},
         "system section: g_mhz must be positive"),
        (config.gate_model, {"sweep": {"table_csv": 0}}, "sweep table_csv must be a path"),
        (config.gate_model, {"sweep": {"profile": [3]}}, "sweep profile must be a mapping"),
        (config.pipeline_options, {"pipeline": [7]}, "pipeline section must be a mapping"),
        (config.pipeline_options, {"pipeline": {"tolerances": [0.1]}},
         "pipeline tolerances must be a mapping"),
    ], ids=["no-section", "list-section", "negative-length", "negative-g", "integer-table",
            "list-profile", "list-pipeline", "list-tolerances"])
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
        assert config.solver_options(cfg) == {"n_cut": 40}
        assert config.solver_options({}) == {}
        gatemon = {"ec_mhz": 190, "gap_mhz": 45600, "transmissions": [0.9], "grid_n": 401}
        assert config.solver_options({"qubit": gatemon}) == {"grid_n": 401}

    @pytest.mark.parametrize("qubit, key", [
        ({"ec_mhz": 190, "ej_mhz": 9500, "grid_n": 301}, "grid_n"),
        ({"ec_mhz": 190, "gap_mhz": 45600, "transmissions": [0.9], "n_cut": 40}, "n_cut"),
    ], ids=["transmon-grid_n", "gatemon-n_cut"])
    def test_solver_options_rejects_other_variant_key(self, qubit, key):
        # a key the solver never reads would be silently ignored
        with pytest.raises(ConfigError, match=f"qubit {key} does not apply"):
            config.solver_options({"qubit": qubit})

    @pytest.mark.parametrize("value, want", [(7, 7), (400.0, 400), ("4e2", 400), ("12", 12)])
    def test_integer_key_accepts_integral_values(self, value, want):
        got = config._integer(value, "key")
        assert got == want and type(got) is int

    @pytest.mark.parametrize("value", [None, "x", "nan", float("inf"), 1.5, True, [1]])
    def test_integer_key_rejects(self, value):
        with pytest.raises(ConfigError, match="key must be an integer"):
            config._integer(value, "key")

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
            config.gate_model({"sweep": {}})
        table = tmp_path / "t.csv"
        io.write_gate_table(table, [0.0, 1.0], [0.0, 1000.0])
        with pytest.raises(ConfigError, match="exactly one"):
            config.gate_model(
                {"sweep": {"table_csv": str(table), "profile": {"seed": 1}}})

    def test_sweep_from_table(self, tmp_path):
        table = tmp_path / "t.csv"
        io.write_gate_table(table, [0.0, 1.0, 2.0], [0.0, 500.0, 1000.0])
        model = config.gate_model({"sweep": {"table_csv": str(table)}})
        # pchip through collinear samples is the line through them
        assert model(1.5) == pytest.approx(750.0)

    def test_sweep_profile_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config.gate_model({"sweep": {"profile": {"seed": 1, "vmax": 5}}})

    def test_sweep_voltages_all_or_none(self):
        assert config.sweep_voltages({"sweep": {"profile": {"seed": 1}}}) is None
        with pytest.raises(ConfigError, match="all of"):
            config.sweep_voltages({"sweep": {"v_min": 0.0, "n_v": 5}})
        v = config.sweep_voltages(
            {"sweep": {"v_min": 0.0, "v_max": 2.0, "n_v": 5}})
        assert np.array_equal(v, np.linspace(0.0, 2.0, 5))

    def test_sweep_voltages_bad_grid(self):
        with pytest.raises(ConfigError, match="v_max > v_min"):
            config.sweep_voltages({"sweep": {"v_min": 2.0, "v_max": 0.0, "n_v": 5}})

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
        assert opts == {"seed": 7, "tolerances": {}}
        with pytest.raises(ConfigError, match="unknown keys"):
            config.pipeline_options({"pipeline": {"seeds": 3}})

    def test_pipeline_tolerances_pass_through(self):
        opts = config.pipeline_options(
            {"pipeline": {"tolerances": {"ql_rel": 0.01, "f_r_mhz": "1e-3"}}})
        assert opts["tolerances"] == {"ql_rel": 0.01, "f_r_mhz": 1e-3}

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
