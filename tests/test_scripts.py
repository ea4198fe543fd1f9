"""Smoke tests of scripts/: each runs in a fresh interpreter against the
public API and must exit 0 with its artifacts written. The CLI
fingerprint's output must also equal tests/cli_fingerprint.txt, the one
check of the command line's bytes."""

import difflib
import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cqedkit
from cqedkit.errors import NoResonanceError

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(cqedkit.__file__).resolve().parents[1])
# the byte contract of the command line; regenerate it only for an intended
# change of output, as README's Scripts section shows
GOLDEN = ROOT / "tests" / "cli_fingerprint.txt"


def _run(script, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def test_fitter_benchmark_runs(tmp_path):
    done = _run("fitter_benchmark.py", "--n", "5", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert " ms per fit " in done.stdout.splitlines()[0]


def _fitter_benchmark(monkeypatch, fails):
    """scripts/fitter_benchmark.py loaded in-process, with a fit_reflection
    that raises ``fails`` on its second trace."""
    spec = importlib.util.spec_from_file_location("fitter_benchmark",
                                                  ROOT / "scripts" / "fitter_benchmark.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    fit, calls = script.fit_reflection, []

    def failing(trace):
        calls.append(trace)
        if len(calls) == 2:
            raise fails
        return fit(trace)

    monkeypatch.setattr(script, "fit_reflection", failing)
    return script


def test_fitter_benchmark_counts_a_fit_error_as_a_failure(monkeypatch, capsys):
    script = _fitter_benchmark(monkeypatch, NoResonanceError("flat"))
    script.main(["--n", "3"])
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "  trace 1: NoResonanceError: flat"
    assert out[1].startswith("2/3 converged; median ")


def test_fitter_benchmark_stops_on_any_other_exception(monkeypatch):
    script = _fitter_benchmark(monkeypatch, ValueError("a bug"))
    with pytest.raises(ValueError, match="a bug"):
        script.main(["--n", "3"])


def test_gate_sweep_demo_writes_artifacts(tmp_path):
    done = _run("gate_sweep_demo.py", "--outdir", str(tmp_path), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "sweep.csv").stat().st_size > 0
    for name in ("sweep.svg", "gate_map.svg", "two_tone.svg", "two_tone_flat.svg"):
        assert (tmp_path / name).read_text().startswith("<svg"), name


def test_cli_fingerprint_hashes_every_stream(tmp_path):
    # the fingerprint's stdout must equal the golden file
    done = _run("cli_fingerprint.py", "fp", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    golden = GOLDEN.read_text()
    diff = difflib.unified_diff(golden.splitlines(keepends=True),
                                done.stdout.splitlines(keepends=True),
                                str(GOLDEN), "cli_fingerprint.py", n=0)
    assert done.stdout == golden, "the CLI's bytes moved:\n" + "".join(diff)
    digests = dict(reversed(line.split("  ", 1)) for line in done.stdout.splitlines())
    assert all(len(d) == 64 for d in digests.values())
    exit_code = {name.removesuffix(".exit"): d for name, d in digests.items()
                 if name.endswith(".exit")}
    for name in exit_code:
        assert f"{name}.stdout" in digests and f"{name}.stderr" in digests
    sha = {code: hashlib.sha256(str(code).encode()).hexdigest() for code in (0, 1, 2)}
    assert exit_code["pipeline"] == sha[0]
    assert exit_code["pipeline-tolerance-miss"] == sha[2]
    assert exit_code["pipeline-input-error"] == exit_code["pipeline-value-error"] == sha[1]
    assert exit_code["fit-resonator-overflow"] == sha[1]
    assert exit_code["pipeline-strong-coupling"] == sha[0]
    assert exit_code["sweep-gate-truncated"] == exit_code["sweep-gate-truncated-ng0"] == sha[2]
    assert exit_code["sweep-gate-transmon-truncated"] == sha[2]
    assert exit_code["unknown-verb"] == sha[1]
    for written in ("pipe/report.json", "pipe_input/report.json", "pipe_value/report.json",
                    "seed99/truth.json", "frd_resid.csv"):
        assert written in digests
    for name in ("simulate-qubit-duplicate-key", "simulate-qubit-bad-yaml",
                 "simulate-cavity-out-dir", "fit-lorentzian-undecodable",
                 "simulate-qubit-undecodable", "simulate-qubit-control-byte"):
        assert exit_code[name] == sha[1]


def test_reach_census_lists_every_module(tmp_path):
    done = _run("reach_census.py", "-q", "-p", "no:cacheprovider",
                str(ROOT / "tests" / "test_svgplot.py"), cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    package = Path(cqedkit.__file__).parent
    for module in sorted(package.glob("*.py")):
        assert any(line.startswith(f"{module.name}: ") for line in lines), module.name
    # the plotting tests reach svgplot's import and both plots
    svgplot = next(line for line in lines if line.startswith("svgplot.py: "))
    reached = int(svgplot.split()[3]) - int(svgplot.split()[1])
    assert reached > 100
    assert lines[-1].startswith("total: ") and lines[-1].endswith(" executable lines unreached")


def test_verb_walltime_compares_two_trees(tmp_path):
    done = _run("verb_walltime.py", SRC, SRC, "--repeats", "1", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    bytecode, header, *rows = done.stdout.splitlines()
    writes = not os.environ.get("PYTHONDONTWRITEBYTECODE")
    assert bytecode == f"bytecode writing in the verb processes: {'on' if writes else 'off'}"
    assert header.split()[0] == "verb"
    labels = [row.split()[0] for row in rows]
    assert labels[:5] == ["synth-reflection", "synth-rabi", "synth-power_map",
                          "synth-gate_map", "synth-two_tone"]
    assert {"fit-resonator", "fit-lorentzian", "fit-rabi", "simulate-qubit-gatemon",
            "simulate-cavity", "sweep-gate", "pipeline"} <= set(labels)
    assert labels[-1] == "session"
    assert all(row.split()[-1] in ("0/1", "1/1") for row in rows)


@pytest.mark.parametrize("value, writes", [("1", False), (None, True)], ids=["off", "on"])
def test_verb_walltime_tells_whether_verbs_write_bytecode(value, writes):
    spec = importlib.util.spec_from_file_location("verb_walltime",
                                                  ROOT / "scripts" / "verb_walltime.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    if value is not None:
        env["PYTHONDONTWRITEBYTECODE"] = value
    assert script.writes_bytecode(env) is writes
