"""Byte pins of the shipped synthetic maps.

``synth`` on configs/synth_gate_map.yaml, synth_two_tone.yaml and
synth_power_map.yaml writes the map CSV and its truth sidecar. These
SHA-256 pins hold their bytes in the test suite, so a change to the map
generators or to the CSV writer that moves one bit of a shipped map
fails here, not only in scripts/cli_fingerprint.py.

As in test_sweep_bytes.py, the digests come from a fresh interpreter
with BLAS pinned to one thread. Run this file as a script to print the
digests of the current tree:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tests/test_map_bytes.py OUTDIR
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import cqedkit

SRC = str(Path(cqedkit.__file__).resolve().parents[1])
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# digests of 8dcfa5b, before the CSV writer formatted rows from Python
# floats; they equal scripts/cli_fingerprint.py's synth-* entries
PINS = {
    "gate_map.csv": "f58c4010511d7c6d7f087c43afe3443932ce28c5fa4fe93457bb046fc0ff59b0",
    "gate_map.truth.json": "03f68429ab30248609c0863ebf064882f680cfc0ecaf5e0cb47f995080342f93",
    "two_tone.csv": "ebc563421583944e597cbf894b287ab0e1c1fca15c176823a5935a97c6345981",
    "two_tone.truth.json": "627cb55445699ea9116c9a49d55939d680739810d7da4f21481f89624c9fd62d",
    "power_map.csv": "0879b2b1b6bf0a44dfd4c86aa5dca1c1a47220cdb50069eeb66de561133b47b3",
    "power_map.truth.json": "bddce5a6a4b722e08cbe1ebb65e421c6bacbd9b70d27aed34bdd2e72a8b14ab9",
}


def digests(outdir: Path) -> dict:
    from cqedkit.cli import main

    out = {}
    for kind in ("gate_map", "two_tone", "power_map"):
        argv = ["synth", "--config", str(CONFIGS / f"synth_{kind}.yaml"),
                "--out", str(outdir / f"{kind}.csv")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        for name in (f"{kind}.csv", f"{kind}.truth.json"):
            out[name] = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
    return out


def test_shipped_map_bytes_are_pinned(tmp_path):
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == PINS


if __name__ == "__main__":
    print(json.dumps(digests(Path(sys.argv[1]))))
