"""Smoke tests of scripts/: each runs in a fresh interpreter against the
public API and must exit 0 with its artifacts written."""

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
