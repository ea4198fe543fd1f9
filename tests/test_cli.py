"""End-to-end command-line tests: exit codes, stdout payloads, artifact
files, determinism, and the pipeline's three outcomes. Everything runs
in-process through main(argv), except what needs a piped standard input.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import cqedkit
from cqedkit import ComplexTrace, SynthSpec, io, spectra, synth_rabi, synth_reflection
from cqedkit.cli import build_parser, main
from cqedkit.fitters import lorentzian_model

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PIPELINE_YAML = str(CONFIGS / "pipeline.yaml")

REFL_TRUTH = {"a_re": 1.0, "a_im": 0.0, "ql": 6000.0, "qc": 12000.0,
              "theta": 0.1, "f_r_ghz": 5.2816}


def _trace_csv(tmp_path, snr_db=35.0, seed=11, **truth_over):
    truth = dict(REFL_TRUTH)
    truth.update(truth_over)
    spec = SynthSpec(kind="reflection_trace", seed=seed, snr_db=snr_db,
                     truth=truth,
                     grid={"f_min_ghz": 5.2728, "f_max_ghz": 5.2904, "n_f": 801})
    return io.write_complex_trace(tmp_path / "trace.csv", synth_reflection(spec))


QUBIT_YAML = "qubit:\n  ec_mhz: 190\n  ej_mhz: 9500\n"
CAVITY_YAML = "cavity:\n  length_a_mm: 70\n  width_b_mm: 5\n  height_d_mm: 30\n"
SWEEP_YAML = (
    QUBIT_YAML + CAVITY_YAML +
    "system:\n  g_mhz: 100\n  kappa_mhz: 1.2\n  gamma_q_mhz: 0.3\n"
    "sweep:\n  profile:\n    seed: 3\n    n: 9\n"
)


def _config(tmp_path, text, name="run.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestFitResonator:
    def test_stdout_json_and_exit_zero(self, tmp_path, capsys):
        assert main(["fit-resonator", str(_trace_csv(tmp_path))]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, io.load_schema("fit_result"))
        assert payload["converged"] is True
        assert payload["params"]["ql"] == pytest.approx(6000.0, rel=0.05)

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "fit.json"
        rc = main(["fit-resonator", str(_trace_csv(tmp_path)), "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "Ql = " in text and f"wrote {out}" in text
        jsonschema.validate(io.read_json(out), io.load_schema("fit_result"))

    def test_delay_round_trip(self, tmp_path, capsys):
        data = _trace_csv(tmp_path, snr_db=40.0, tau_ns=35.0)
        out = tmp_path / "fit.json"
        assert main(["fit-resonator", str(data), "--delay", "--out", str(out)]) == 0
        payload = io.read_json(out)
        assert payload["params"]["tau_ns"] == pytest.approx(35.0, rel=0.05)

    def test_residuals_contain_no_resonance(self, tmp_path, capsys):
        data = _trace_csv(tmp_path)
        resid = tmp_path / "resid.csv"
        assert main(["fit-resonator", str(data), "--residuals", str(resid)]) == 0
        capsys.readouterr()
        # a good fit leaves pure noise; refitting it must report exactly that
        assert main(["fit-resonator", str(resid)]) == 2
        assert "solver failure" in capsys.readouterr().err

    def test_plot_is_svg(self, tmp_path, capsys):
        svg = tmp_path / "fit.svg"
        assert main(["fit-resonator", str(_trace_csv(tmp_path)),
                     "--plot", str(svg)]) == 0
        assert svg.read_text().lstrip().startswith("<svg")

    def test_malformed_csv_exit_one(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("freq_ghz,re,im\n5.0,1.0,0.0\n5.1,oops,0.0\n")
        assert main(["fit-resonator", str(p)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "line 3" in err

    @pytest.mark.parametrize("delay", [False, True], ids=["plain", "delay"])
    @pytest.mark.parametrize("column", [1, 2], ids=["re", "im"])
    def test_near_overflow_samples_return(self, tmp_path, column, delay):
        # 1e308 squares to inf; in the Kasa circle's lstsq that once spun for
        # good, so this runs in a subprocess with a timeout
        data = _trace_csv(tmp_path)
        lines = data.read_text().splitlines()
        cells = lines[400].split(",")
        cells[column] = "1e308"
        lines[400] = ",".join(cells)
        data.write_text("\n".join(lines) + "\n")
        env = dict(os.environ)
        src = str(Path(cqedkit.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        argv = [sys.executable, "-m", "cqedkit", "fit-resonator", str(data)] + ["--delay"] * delay
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=30)
        assert done.returncode in (0, 1, 2)
        assert "Traceback" not in done.stderr

    def test_missing_file_exit_one(self, tmp_path, capsys):
        assert main(["fit-resonator", str(tmp_path / "nope.csv")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_nonphysical_qi_written_as_null(self, tmp_path, capsys):
        # to_dict() keeps the NaN; only the JSON writer turns it into null
        data = _trace_csv(tmp_path, qc=4000.0)
        out = tmp_path / "fit.json"
        with pytest.warns(UserWarning, match="nonphysical Qi"):
            assert main(["fit-resonator", str(data), "--out", str(out)]) == 0
        capsys.readouterr()
        payload = io.read_json(out)
        jsonschema.validate(payload, io.load_schema("fit_result"))
        assert payload["derived"]["qi"] is None
        assert payload["errors"]["qi"] is None
        assert payload["params"]["qc"] < payload["params"]["ql"]

    def test_flat_trace_exit_two(self, tmp_path, capsys):
        f = np.linspace(5.0, 5.2, 401)
        rng = np.random.default_rng(0)
        z = 1.0 + rng.normal(0, 0.01, 401) + 1j * rng.normal(0, 0.01, 401)
        p = io.write_complex_trace(tmp_path / "flat.csv", ComplexTrace(f, z))
        assert main(["fit-resonator", str(p)]) == 2
        assert "solver failure" in capsys.readouterr().err


class TestOtherFitters:
    def test_fit_lorentzian(self, tmp_path, capsys):
        f = np.linspace(4790.0, 5210.0, 841)
        rng = np.random.default_rng(5)
        y = lorentzian_model(f, 5000.0, 21.0, 0.8, 1.0) + rng.normal(0, 0.02, f.size)
        data = io.write_magnitude_trace(tmp_path / "dip.csv", f, y)
        assert main(["fit-lorentzian", str(data)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["fwhm"] == pytest.approx(21.0, rel=0.1)

    def test_fit_rabi(self, tmp_path, capsys):
        spec = SynthSpec(kind="rabi_trace", seed=5, snr_db=20.0,
                         truth={"A": 1.0, "T_R": 260.0, "omega": 0.19634954084936207,
                                "B": 0.0, "a": -0.0004, "b": 0.5},
                         grid={"t_max_ns": 1000.0, "n_t": 501})
        data = io.write_rabi_trace(tmp_path / "rabi.csv", *synth_rabi(spec))
        assert main(["fit-rabi", str(data)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["T_R"] == pytest.approx(260.0, abs=60.0)

    def test_fit_rabi_noise_exit_two(self, tmp_path, capsys):
        t = np.linspace(0.0, 500.0, 200)
        rng = np.random.default_rng(1)
        data = io.write_rabi_trace(tmp_path / "noise.csv", t,
                                   rng.normal(0.0, 1.0, t.size))
        assert main(["fit-rabi", str(data)]) == 2
        assert "solver failure" in capsys.readouterr().err


class TestSimulate:
    def test_qubit_transmon(self, tmp_path, capsys):
        cfg = _config(tmp_path, QUBIT_YAML)
        out = tmp_path / "spectrum.json"
        assert main(["simulate-qubit", "--config", cfg, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "variant = transmon" in text and "f01 = " in text
        payload = io.read_json(out)
        jsonschema.validate(payload, io.load_schema("spectrum"))
        assert payload["f01"] == pytest.approx(3598.9645956202194, rel=1e-9)

    def test_qubit_gatemon(self, tmp_path, capsys):
        cfg = _config(tmp_path,
                      "qubit:\n  ec_mhz: 190\n  gap_mhz: 45600\n"
                      "  transmissions: [0.85, 0.3, 0.1]\n")
        assert main(["simulate-qubit", "--config", cfg]) == 0
        assert "variant = gatemon" in capsys.readouterr().out

    def test_cavity(self, tmp_path, capsys):
        cfg = _config(tmp_path, CAVITY_YAML)
        out = tmp_path / "cavity.json"
        assert main(["simulate-cavity", "--config", cfg, "--out", str(out)]) == 0
        assert "TE101 = " in capsys.readouterr().out
        payload = io.read_json(out)
        assert payload["f_ghz"] == pytest.approx(5.436074616612465, rel=1e-12)
        assert payload["mode"] == [1, 0, 1]

    def test_bad_config_exit_one(self, tmp_path, capsys):
        cfg = _config(tmp_path, "qubit:\n  ec_mhz: 190\n  ej: 9500\n")
        assert main(["simulate-qubit", "--config", cfg]) == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_linalg_failure_exit_two(self, tmp_path, capsys, monkeypatch):
        # LinAlgError subclasses ValueError, yet it is a solver failure
        def fail(*args):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(spectra, "_transmon_eigvals", fail)
        cfg = _config(tmp_path, QUBIT_YAML)
        assert main(["simulate-qubit", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "solver failure" in err and "did not converge" in err


class TestSweepGate:
    def test_deterministic_csv(self, tmp_path, capsys):
        cfg = _config(tmp_path, SWEEP_YAML)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep-gate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["sweep-gate", "--config", cfg, "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_json_validates(self, tmp_path, capsys):
        cfg = _config(tmp_path, SWEEP_YAML)
        out = tmp_path / "sweep.json"
        assert main(["sweep-gate", "--config", cfg, "--json", str(out)]) == 0
        assert "gate points" in capsys.readouterr().out
        payload = io.read_json(out)
        jsonschema.validate(payload, io.load_schema("sweep"))
        assert {p["regime"] for p in payload["points"]} <= {
            "pinch_off", "dispersive", "hybridized"}

    # a gatemon at EC = 5 GHz and T = 1 needs more than the default 201-point
    # grid: the sweep must solve every point at the configured grid_n
    GATEMON_GRID_YAML = (
        "qubit:\n  ec_mhz: 5000\n  gap_mhz: 45600\n  transmissions: [1.0]\n"
        "  grid_n: 401\n"
        "system:\n  f_bare_ghz: 5.443\n  g_mhz: 100\n"
        "sweep:\n  profile:\n    seed: 3\n    n: 9\n    max_value: 2.0\n"
        "  maps_to: transmission\n"
    )

    def test_configured_grid_n_reaches_every_point(self, tmp_path, capsys):
        cfg = _config(tmp_path, self.GATEMON_GRID_YAML)
        assert main(["sweep-gate", "--config", cfg]) == 0
        assert capsys.readouterr().out.startswith("9 gate points")

    @pytest.mark.parametrize("routine,ng", [("dstevd", None), ("dstebz", None), ("dpotrf", None),
                                            ("dpotrs", None), ("dpotrf", 0.23), ("dpotrs", 0.23)],
                             ids=["dstevd", "dstebz", "dpotrf", "dpotrs",
                                  "dpotrf-offset-charge", "dpotrs-offset-charge"])
    def test_lapack_failure_exit_two(self, routine, ng, tmp_path, capsys, fail_lapack):
        # a LAPACK wrapper reporting info = 1 is a solver failure; dstebz runs
        # in the transmon check, dpotrf and dpotrs in the gatemon check at every ng
        fail_lapack(routine)
        yaml = SWEEP_YAML if routine.startswith("dst") else self.GATEMON_GRID_YAML
        if ng is not None:
            yaml = yaml.replace("  grid_n: 401\n", f"  grid_n: 401\n  ng: {ng}\n")
        assert main(["sweep-gate", "--config", _config(tmp_path, yaml)]) == 2
        captured = capsys.readouterr()
        assert "solver failure" in captured.err
        assert f"LAPACK {routine} failed with info = 1" in captured.err
        assert captured.out == ""

    def test_table_next_to_config_from_another_directory(self, tmp_path, capsys,
                                                          monkeypatch):
        sub = tmp_path / "sub"
        table = sub / "table.csv"
        io.write_gate_table(table, [-1.0, 0.0, 5.0, 10.0], [0.0, 1000.0, 9500.0, 20000.0])
        head = SWEEP_YAML.split("sweep:")[0]
        _config(sub, head + "sweep:\n  table_csv: table.csv\n")
        _config(tmp_path, head + f"sweep:\n  table_csv: {table}\n", name="absolute.yaml")
        monkeypatch.chdir(tmp_path)
        assert main(["sweep-gate", "--config", "sub/run.yaml", "--out", "relative.csv"]) == 0
        assert main(["sweep-gate", "--config", "absolute.yaml", "--out", "absolute.csv"]) == 0
        capsys.readouterr()
        assert Path("relative.csv").read_bytes() == Path("absolute.csv").read_bytes()

    def test_multi_channel_transmission_sweep_exit_one(self, tmp_path, capsys):
        cfg = _config(tmp_path, self.GATEMON_GRID_YAML.replace("[1.0]", "[0.85, 0.3, 0.1]"))
        assert main(["sweep-gate", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert "gatemon has 3" in captured.err
        assert captured.out == ""

    def test_non_string_table_path_exit_one(self, tmp_path):
        # an integer path would be opened as a file descriptor: 0 reads stdin
        cfg = _config(tmp_path, SWEEP_YAML.split("sweep:")[0] + "sweep:\n  table_csv: 0\n")
        table = io.write_gate_table(tmp_path / "table.csv", [0.0, 5.0, 10.0],
                                    [1000.0, 9500.0, 20000.0])
        env = dict(os.environ)
        src = str(Path(cqedkit.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-m", "cqedkit", "sweep-gate", "--config", cfg],
                              input=table.read_text(), env=env, capture_output=True, text=True)
        assert done.returncode == 1, done.stdout
        assert "sweep table_csv must be a path" in done.stderr

    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_table_exit_one(self, tmp_path, capsys, column):
        table = tmp_path / "table.csv"
        rows = [[0.0, 5.0, 10.0], [1000.0, 9500.0, 20000.0]]
        rows[column][1] = float("nan")
        io.write_gate_table(table, *rows)
        cfg = _config(tmp_path, SWEEP_YAML.split("sweep:")[0] + "sweep:\n  table_csv: table.csv\n")
        assert main(["sweep-gate", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert f"sweep table_csv {table}: gate table voltages and values must be finite" \
            in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_profile_below_five_samples_exit_one(self, tmp_path, capsys, n):
        cfg = _config(tmp_path, SWEEP_YAML.replace("    n: 9\n", f"    n: {n}\n"))
        assert main(["sweep-gate", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert f"sweep profile: n must be at least 5, got {n}" in captured.err
        assert "broadcast" not in captured.err and captured.out == ""

    def test_other_variant_key_exit_one(self, tmp_path, capsys):
        cfg = _config(tmp_path, SWEEP_YAML.replace("ej_mhz: 9500\n",
                                                   "ej_mhz: 9500\n  grid_n: 301\n"))
        assert main(["sweep-gate", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert "qubit grid_n does not apply to a transmon" in captured.err
        assert captured.out == ""


class TestSynth:
    YAML = (
        "synth:\n  kind: reflection_trace\n  seed: 11\n  snr_db: 35\n"
        "  truth: {a_re: 1.0, a_im: 0.0, ql: 6000, qc: 12000, theta: 0.1,"
        " f_r_ghz: 5.2816}\n"
        "  grid: {f_min_ghz: 5.2728, f_max_ghz: 5.2904, n_f: 401}\n"
    )

    def test_deterministic_and_truth_sidecar(self, tmp_path, capsys):
        cfg = _config(tmp_path, self.YAML)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["synth", "--config", cfg, "--out", str(a)]) == 0
        assert main(["synth", "--config", cfg, "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        truth = io.read_json(tmp_path / "a.truth.json")
        jsonschema.validate(truth, io.load_schema("synth_truth"))
        assert truth["seed"] == 11

    def test_seed_override_changes_data(self, tmp_path, capsys):
        cfg = _config(tmp_path, self.YAML)
        a, c = tmp_path / "a.csv", tmp_path / "c.csv"
        assert main(["synth", "--config", cfg, "--out", str(a)]) == 0
        assert main(["synth", "--config", cfg, "--out", str(c),
                     "--seed", "99"]) == 0
        capsys.readouterr()
        assert a.read_bytes() != c.read_bytes()
        assert io.read_json(tmp_path / "c.truth.json")["seed"] == 99

    def test_yaml_exponent_string_is_a_number(self, tmp_path, capsys):
        cfg = _config(tmp_path, self.YAML.replace("ql: 6000", "ql: 6e3"))
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "a.csv")]) == 0
        capsys.readouterr()
        assert io.read_json(tmp_path / "a.truth.json")["truth"]["ql"] == 6000.0

    def test_non_numeric_truth_exit_one(self, tmp_path, capsys):
        cfg = _config(tmp_path, self.YAML.replace("ql: 6000", "ql: fast"))
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "a.csv")]) == 1
        assert "ql" in capsys.readouterr().err

    def test_fractional_grid_count_exit_one(self, tmp_path, capsys):
        cfg = _config(tmp_path, self.YAML.replace("n_f: 401", "n_f: 40.5"))
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "a.csv")]) == 1
        assert "n_f" in capsys.readouterr().err
        assert not (tmp_path / "a.truth.json").exists()

    def test_negative_time_axis_exit_one(self, tmp_path, capsys):
        text = (CONFIGS / "synth_rabi.yaml").read_text()
        assert "t_max_ns: 1000.0" in text
        cfg = _config(tmp_path, text.replace("t_max_ns: 1000.0", "t_max_ns: -1000.0"))
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "a.csv")]) == 1
        assert "t_max_ns" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.yaml"]

    # each edit used to exit 0 with data that ignored it and a sidecar that
    # recorded it: the default depth under a "dept" key, a power map without
    # a gate axis, theta = 1.0 recorded as true
    @pytest.mark.parametrize("name, old, new, key", [
        ("synth_gate_map", "depth: 0.8", "dept: 0.3", "dept"),
        ("synth_power_map", "n_p: 46", "n_p: 46\n    n_v: 5", "n_v"),
        ("synth_reflection", "theta: 0.15", "theta: true", "theta"),
    ], ids=["misspelt-truth-key", "grid-key-of-another-kind", "bool-for-a-number"])
    def test_recipe_key_outside_its_kind_exit_one(self, tmp_path, capsys, name, old, new, key):
        text = (CONFIGS / f"{name}.yaml").read_text()
        assert old in text
        cfg = _config(tmp_path, text.replace(old, new))
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "a.csv")]) == 1
        assert key in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.yaml"]

    def test_outdir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(io.OUTDIR_ENV, str(tmp_path / "outputs"))
        cfg = _config(tmp_path, self.YAML)
        assert main(["synth", "--config", cfg, "--out", "data.csv"]) == 0
        capsys.readouterr()
        assert (tmp_path / "outputs" / "data.csv").is_file()
        assert (tmp_path / "outputs" / "data.truth.json").is_file()


    def test_relative_outdir_env(self, tmp_path, capsys, monkeypatch):
        # each path is resolved once, by its writer, and printed as written
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(io.OUTDIR_ENV, "rel")
        cfg = _config(tmp_path, self.YAML)
        assert main(["synth", "--config", cfg, "--out", "x.csv", "--plot", "x.svg"]) == 0
        printed = [Path(line.removeprefix("wrote "))
                   for line in capsys.readouterr().out.splitlines()]
        assert printed == [Path("rel/x.csv"), Path("rel/x.truth.json"), Path("rel/x.svg")]
        assert all(p.is_file() for p in printed)
        assert not (tmp_path / "rel" / "rel").exists()


class TestPipeline:
    def test_pass_run(self, tmp_path, capsys):
        rc = main(["pipeline", "--config", PIPELINE_YAML,
                   "--workdir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[cavity] ok" in out and "[fit] ok" in out
        assert out.rstrip().endswith("PASS")
        report = io.read_json(tmp_path / "report.json")
        jsonschema.validate(report, io.load_schema("report"))
        assert report["passed"] is True
        assert (tmp_path / "trace.csv").is_file()
        assert (tmp_path / "sweep.csv").is_file()
        assert (tmp_path / "fit.json").is_file()

    def test_relative_outdir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(io.OUTDIR_ENV, "rel")
        assert main(["pipeline", "--config", PIPELINE_YAML, "--workdir", "w"]) == 0
        assert f"wrote {Path('rel/w/report.json')}" in capsys.readouterr().out
        for name in ("report.json", "sweep.csv", "sweep.json", "trace.csv",
                     "trace.truth.json", "fit.json"):
            assert (tmp_path / "rel" / "w" / name).is_file(), name
        assert not (tmp_path / "rel" / "rel").exists()
        report = io.read_json(tmp_path / "rel" / "w" / "report.json")
        sweep = next(s for s in report["stages"] if s["name"] == "sweep")
        assert Path(sweep["details"]["csv"]) == Path("rel/w/sweep.csv")

    def test_bare_frequency_without_a_cavity(self, tmp_path, capsys):
        text = SWEEP_YAML.replace(CAVITY_YAML, "")
        text = text.replace("system:\n", "system:\n  f_bare_ghz: 5.44\n")
        assert main(["pipeline", "--config", _config(tmp_path, text),
                     "--workdir", str(tmp_path)]) == 0
        assert "[cavity] ok: f_bare_ghz=5.44" in capsys.readouterr().out

    def test_tolerance_miss_exit_two(self, tmp_path, capsys):
        cfg = _config(tmp_path, SWEEP_YAML +
                      "pipeline:\n  tolerances:\n    f_r_mhz: 1.0e-9\n")
        rc = main(["pipeline", "--config", cfg, "--workdir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 2
        assert "f_r_mhz: FAIL" in out and "FAIL: " in out
        report = io.read_json(tmp_path / "report.json")
        assert report["passed"] is False
        assert any("f_r_mhz" in f for f in report["failures"])

    def test_unknown_tolerance_exit_one(self, tmp_path, capsys):
        cfg = _config(tmp_path, SWEEP_YAML +
                      "pipeline:\n  tolerances:\n    qc_rell: 1e-12\n")
        rc = main(["pipeline", "--config", cfg, "--workdir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "qc_rell" in captured.err and "ql_rel" in captured.err
        assert "PASS" not in captured.out

    def test_stage_labeled_input_error_exit_one(self, tmp_path, capsys):
        cfg = _config(
            tmp_path,
            QUBIT_YAML + CAVITY_YAML +
            "system:\n  g_mhz: 100\n"
            f"sweep:\n  table_csv: {tmp_path}/missing.csv\n")
        rc = main(["pipeline", "--config", cfg, "--workdir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "pipeline stage sweep" in captured.err
        # the stage lines, then the report, then the verdict
        lines = captured.out.splitlines()
        assert [line.split(":")[0] for line in lines[:3]] == [
            "[cavity] ok", "[qubit] ok", "[sweep] FAIL"]
        assert lines[3] == f"wrote {tmp_path / 'report.json'}"
        assert lines[4].startswith(f"FAIL: sweep: cannot read {tmp_path}/missing.csv")
        assert len(lines) == 5
        report = io.read_json(tmp_path / "report.json")
        assert report["passed"] is False
        assert report["stages"][-1]["name"] == "sweep"
        assert report["stages"][-1]["status"] == "fail"

    def test_library_warning_prints_one_line(self, tmp_path, capsys, monkeypatch):
        # g = 2 GHz leaves the qubit within 10 g of the cavity, so the
        # dispersive shift warns; the warning takes one stderr line and the
        # run goes on. pytest records warnings in-process, so the stderr
        # comes from a fresh interpreter and the stdout from both
        strong = Path(PIPELINE_YAML).read_text().replace("g_mhz: 100.0", "g_mhz: 2000.0")
        cfg = _config(tmp_path, strong)
        monkeypatch.chdir(tmp_path)
        formatter = warnings.formatwarning
        with pytest.warns(UserWarning, match="10 g"):
            assert main(["pipeline", "--config", cfg, "--workdir", "w"]) == 0
        assert warnings.formatwarning is formatter
        out = capsys.readouterr().out
        env = dict(os.environ)
        src = str(Path(cqedkit.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-m", "cqedkit", "pipeline", "--config", cfg,
                               "--workdir", "w"], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ("warning: |delta| = 1.84e+03 MHz < 10 g; "
                               "dispersive result unreliable\n")
        assert done.stdout == out and out.rstrip().endswith("PASS")


class TestIntegerConfigKeys:
    GATEMON_YAML = ("qubit:\n  ec_mhz: 190\n  gap_mhz: 45600\n"
                    "  transmissions: [0.85, 0.3, 0.1]\n")

    def test_null_grid_n_exit_one(self, tmp_path, capsys):
        cfg = _config(tmp_path, self.GATEMON_YAML + "  grid_n: null\n")
        assert main(["simulate-qubit", "--config", cfg]) == 1
        assert "qubit grid_n must be an integer, got None" in capsys.readouterr().err

    def test_fractional_cavity_mode_exit_one(self, tmp_path, capsys):
        cfg = _config(tmp_path, CAVITY_YAML + "  m: 1.5\n")
        assert main(["simulate-cavity", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert "cavity m must be an integer, got 1.5" in captured.err
        assert "TE" not in captured.out

    def test_fractional_profile_n_exit_one(self, tmp_path, capsys):
        cfg = _config(tmp_path, SWEEP_YAML.replace("    n: 9\n", "    n: 41.5\n"))
        assert main(["sweep-gate", "--config", cfg]) == 1
        assert "sweep profile n must be an integer" in capsys.readouterr().err

    def test_fractional_pipeline_seed_exit_one(self, tmp_path, capsys):
        cfg = _config(tmp_path, SWEEP_YAML + "pipeline:\n  seed: 7.9\n")
        assert main(["pipeline", "--config", cfg, "--workdir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "pipeline seed must be an integer, got 7.9" in captured.err
        assert not (tmp_path / "report.json").exists()

    def test_integral_exponent_passes(self, tmp_path, capsys):
        # PyYAML reads 9e0 as a string; it names the integer 9
        cfg = _config(tmp_path, SWEEP_YAML.replace("    n: 9\n", "    n: 9e0\n"))
        assert main(["sweep-gate", "--config", cfg]) == 0
        assert capsys.readouterr().out.startswith("9 gate points")


class TestNumberConfigKeys:
    # each case edits one number in a shipped config
    @pytest.mark.parametrize("name, old, new, verb, key", [
        ("gatemon", "ec_mhz: 190.0", "ec_mhz: null", "simulate-qubit", "qubit ec_mhz"),
        ("gatemon", "[0.85, 0.3, 0.1]", "[0.85, null]", "simulate-qubit",
         "qubit transmissions[1]"),
        ("pipeline", "length_a_mm: 70.0", "length_a_mm: [70]", "simulate-cavity",
         "cavity length_a_mm"),
        ("pipeline", "g_mhz: 100.0", "g_mhz: .nan", "sweep-gate", "system g_mhz"),
        ("pipeline", "v_pinch: 0.0", "v_pinch: low", "sweep-gate", "sweep profile v_pinch"),
        ("synth_reflection", "snr_db: 35.0", "snr_db: .inf", "synth", "synth snr_db"),
    ], ids=["null-ec", "null-transmission", "list-length", "nan-g", "text-v_pinch", "inf-snr"])
    def test_bad_number_exit_one(self, tmp_path, capsys, name, old, new, verb, key):
        text = (Path(PIPELINE_YAML).parent / f"{name}.yaml").read_text()
        assert old in text
        cfg = _config(tmp_path, text.replace(old, new))
        out = str(tmp_path / "out")
        assert main([verb, "--config", cfg, "--out", out]) == 1
        captured = capsys.readouterr()
        assert f"{key} must be a finite number" in captured.err
        assert "wrote" not in captured.out


class TestConfigEscapes:
    # each case edits one value in a shipped config; each once escaped
    # cli.main as a TypeError or OverflowError traceback
    @pytest.mark.parametrize("name, old, new, verb, message", [
        ("synth_reflection", "kind: reflection_trace", "kind: [reflection_trace]", "synth",
         "unknown synth kind"),
        ("synth_reflection", "kind: reflection_trace", "kind: {reflection_trace: 1}", "synth",
         "unknown synth kind"),
        ("pipeline", "length_a_mm: 70.0", "length_a_mm: 1e-300", "simulate-cavity",
         "TE(1,0,1) frequency overflows"),
        ("pipeline", "height_d_mm: 30.0", "height_d_mm: 1e-300", "sweep-gate",
         "TE(1,0,1) frequency overflows"),
        ("synth_power_map", "g_mhz: 100.0", "g_mhz: 1e-300", "synth", "n_crit"),
    ], ids=["list-kind", "mapping-kind", "tiny-length", "tiny-height", "tiny-g"])
    def test_exit_one_with_one_line(self, tmp_path, capsys, name, old, new, verb, message):
        text = (Path(PIPELINE_YAML).parent / f"{name}.yaml").read_text()
        assert old in text
        cfg = _config(tmp_path, text.replace(old, new))
        assert main([verb, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert len(captured.err.splitlines()) == 1
        assert "wrote" not in captured.out


def _synth_input(cfg, d):
    assert main(["synth", "--config", cfg, "--out", str(d / "data.csv")]) == 0


def _power_map_row(cfg, d):
    """|S21|^2 of the first synthesized power-map row, a Lorentzian dip."""
    _synth_input(cfg, d)
    m = io.read_map_csv(d / "data.csv")
    io.write_magnitude_trace(d / "data.csv", m.fast_values, m.grid[0] ** 2)


SYNTH_FILES = {"data.csv": None, "data.truth.json": "synth_truth", "data.svg": None}
SYNTH_STDOUT = (("data.csv", "data.truth.json", "data.svg"), 0)
FIT_FILES = {"fit.json": "fit_result", "fit.svg": None}
FIT_ARGS = ["{d}/data.csv", "--out", "{d}/fit.json", "--plot", "{d}/fit.svg"]
RESONATOR_WROTE = ("fit.json", "resid.csv", "fit.svg")
SPECTRUM = (["--out", "{d}/spectrum.json", "--plot", "{d}/spectrum.svg"],
            {"spectrum.json": "spectrum", "spectrum.svg": None},
            (("spectrum.json", "spectrum.svg"), 4))


# verb, shipped config, input step, arguments ({d} is the output directory),
# every file the verb writes with the schema its JSON follows, and its
# stdout: the files named by its "wrote" lines, in order, and how many
# other (summary) lines it prints
SHIPPED_RUNS = [
    *[pytest.param("synth", name, None, ["--out", "{d}/data.csv", "--plot", "{d}/data.svg"],
                   SYNTH_FILES, SYNTH_STDOUT, id=f"synth-{name}")
      for name in ("synth_reflection", "synth_rabi", "synth_power_map", "synth_gate_map",
                   "synth_two_tone")],
    pytest.param("fit-resonator", "synth_reflection", _synth_input,
                 [*FIT_ARGS, "--residuals", "{d}/resid.csv"], {**FIT_FILES, "resid.csv": None},
                 (RESONATOR_WROTE, 6), id="fit-resonator"),
    pytest.param("fit-resonator", "synth_reflection", _synth_input,
                 [*FIT_ARGS, "--delay", "--residuals", "{d}/resid.csv"],
                 {**FIT_FILES, "resid.csv": None}, (RESONATOR_WROTE, 7),
                 id="fit-resonator-delay"),
    pytest.param("fit-rabi", "synth_rabi", _synth_input, FIT_ARGS, FIT_FILES,
                 (("fit.json", "fit.svg"), 8), id="fit-rabi"),
    pytest.param("fit-lorentzian", "synth_power_map", _power_map_row, FIT_ARGS, FIT_FILES,
                 (("fit.json", "fit.svg"), 5), id="fit-lorentzian"),
    pytest.param("simulate-qubit", "gatemon", None, *SPECTRUM, id="simulate-qubit-gatemon"),
    pytest.param("simulate-qubit", "pipeline", None, *SPECTRUM, id="simulate-qubit-pipeline"),
    pytest.param("simulate-cavity", "pipeline", None, ["--out", "{d}/cavity.json"],
                 {"cavity.json": None}, (("cavity.json",), 1), id="simulate-cavity-pipeline"),
    *[pytest.param("sweep-gate", name, None,
                   ["--out", "{d}/sweep.csv", "--json", "{d}/sweep.json",
                    "--plot", "{d}/sweep.svg"],
                   {"sweep.csv": None, "sweep.json": "sweep", "sweep.svg": None},
                   (("sweep.csv", "sweep.json", "sweep.svg"), 2),
                   id=f"sweep-gate-{name}")
      for name in ("pipeline", "synth_gate_map", "synth_two_tone")],
    pytest.param("pipeline", "pipeline", None, ["--workdir", "{d}/w"],
                 {"w/report.json": "report", "w/sweep.json": "sweep", "w/fit.json": "fit_result",
                  "w/trace.truth.json": "synth_truth", "w/sweep.csv": None, "w/trace.csv": None},
                 (("w/report.json",), 9), id="pipeline"),
]


@pytest.mark.parametrize("verb, config, prepare, args, files, stdout", SHIPPED_RUNS)
def test_verbs_on_shipped_configs(tmp_path, capsys, verb, config, prepare, args, files,
                                  stdout):
    cfg = str(CONFIGS / f"{config}.yaml")
    if prepare is not None:
        prepare(cfg, tmp_path)
    argv = [verb] + ([] if prepare else ["--config", cfg])
    argv += [a.format(d=tmp_path) for a in args]
    capsys.readouterr()
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    wrote = [line.removeprefix("wrote ") for line in lines if line.startswith("wrote ")]
    assert wrote == [str(tmp_path / name) for name in stdout[0]]
    assert len(lines) - len(wrote) == stdout[1]
    for name, schema in files.items():
        path = tmp_path / name
        assert path.is_file(), name
        if name.endswith(".json"):
            payload = io.read_json(path)
            if schema is not None:
                jsonschema.validate(payload, io.load_schema(schema))


# every verb's help and arguments, in order: (flags or name, help, required,
# type, nargs); -h is left out
VERB_ARGUMENTS = {
    "fit-resonator": ("fit the complex reflection model", [
        ("data", "input CSV file", True, None, None),
        ("--out", "write the machine-readable result here", False, None, None),
        ("--delay", "also fit a cable delay", False, None, 0),
        ("--residuals", "write the complex fit residuals as CSV here", False, None, None),
        ("--plot", "write an SVG of data and fit", False, None, None)]),
    "fit-lorentzian": ("fit a Lorentzian dip", [
        ("data", "input CSV file", True, None, None),
        ("--out", "write the machine-readable result here", False, None, None),
        ("--plot", "write an SVG of data and fit", False, None, None)]),
    "fit-rabi": ("fit a decaying Rabi oscillation", [
        ("data", "input CSV file", True, None, None),
        ("--out", "write the machine-readable result here", False, None, None),
        ("--plot", "write an SVG of data and fit", False, None, None)]),
    "simulate-qubit": ("solve the qubit spectrum", [
        ("--config", "YAML run configuration", True, None, None),
        ("--out", "write the machine-readable result here", False, None, None),
        ("--plot", "write an SVG of the level diagram", False, None, None)]),
    "simulate-cavity": ("rectangular cavity mode frequency", [
        ("--config", "YAML run configuration", True, None, None),
        ("--out", "write the machine-readable result here", False, None, None)]),
    "sweep-gate": ("sweep the gate and tabulate observables", [
        ("--config", "YAML run configuration", True, None, None),
        ("--out", "write the machine-readable result here", False, None, None),
        ("--json", "write the sweep as JSON here", False, None, None),
        ("--plot", "write an SVG of the sweep", False, None, None)]),
    "synth": ("generate synthetic data with a truth sidecar", [
        ("--config", "YAML run configuration", True, None, None),
        ("--out", "write the machine-readable result here", False, None, None),
        ("--seed", "override the configured seed", False, int, None),
        ("--truth", "truth JSON path (default: out with .truth.json)", False, None, None),
        ("--plot", "write an SVG rendering", False, None, None)]),
    "pipeline": ("end-to-end run with tolerance checks", [
        ("--config", "YAML run configuration", True, None, None),
        ("--seed", "override the configured seed", False, int, None),
        ("--workdir", "artifact directory (default: current)", False, None, None)]),
}


def test_verb_arguments_and_help():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert {a.dest: a.help for a in sub._choices_actions} == {
        verb: help_text for verb, (help_text, _) in VERB_ARGUMENTS.items()}
    for verb, (_, arguments) in VERB_ARGUMENTS.items():
        got = [(" ".join(a.option_strings) or a.dest, a.help, a.required, a.type, a.nargs)
               for a in sub.choices[verb]._actions if a.dest != "help"]
        assert got == arguments, verb


class TestArgumentErrors:
    def test_unknown_verb(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_missing_required_config(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["simulate-qubit"])
        assert err.value.code == 1
