"""Smoke tests of scripts/: each runs in a fresh interpreter against the
public API and must exit 0 with its artifacts written."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import cqedkit

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(cqedkit.__file__).resolve().parents[1])


def _run(script, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def test_fitter_benchmark_runs(tmp_path):
    done = _run("fitter_benchmark.py", "--n", "5", cwd=tmp_path)
    assert done.returncode == 0, done.stderr


def test_gate_sweep_demo_writes_artifacts(tmp_path):
    done = _run("gate_sweep_demo.py", "--outdir", str(tmp_path), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "sweep.csv").stat().st_size > 0
    for name in ("sweep.svg", "gate_map.svg", "two_tone.svg", "two_tone_flat.svg"):
        assert (tmp_path / name).read_text().startswith("<svg"), name


def test_cli_fingerprint_hashes_every_stream(tmp_path):
    done = _run("cli_fingerprint.py", "fp", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    digests = dict(reversed(line.split("  ", 1)) for line in done.stdout.splitlines())
    assert all(len(d) == 64 for d in digests.values())
    exit_code = {name.removesuffix(".exit"): d for name, d in digests.items()
                 if name.endswith(".exit")}
    for name in exit_code:
        assert f"{name}.stdout" in digests and f"{name}.stderr" in digests
    sha = {code: hashlib.sha256(str(code).encode()).hexdigest() for code in (0, 1, 2)}
    assert exit_code["pipeline"] == sha[0]
    assert exit_code["pipeline-tolerance-miss"] == sha[2]
    assert exit_code["pipeline-input-error"] == sha[1]
    assert exit_code["pipeline-strong-coupling"] == sha[0]
    assert exit_code["sweep-gate-truncated"] == exit_code["sweep-gate-truncated-ng0"] == sha[2]
    assert exit_code["sweep-gate-transmon-truncated"] == sha[2]
    assert exit_code["unknown-verb"] == sha[1]
    for written in ("pipe/report.json", "pipe_input/report.json", "envout/env.svg",
                    "seed99/truth.json", "frd_resid.csv"):
        assert written in digests


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
