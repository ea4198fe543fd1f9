"""Byte pins of gatemon sweep CSVs.

No shipped config sweeps a gatemon, so scripts/cli_fingerprint.py never
writes a gatemon sweep CSV. These SHA-256 pins hold that contract in the
test suite: a speed-up of the solver or of the sweep must leave the bytes
of ``io.write_sweep_csv`` as they are.

The digests are computed in a fresh interpreter with BLAS pinned to one
thread, as the benchmark and the CLI fingerprint run, because the bits of
a dense eigensolve depend on the BLAS thread count. Run this file as a
script to print the digests of the current tree:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tests/test_sweep_bytes.py OUTDIR
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import cqedkit

SRC = str(Path(cqedkit.__file__).resolve().parents[1])
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# digests of d3746c6, before the parity-split check and the per-sweep memo;
# perfbench_gatemon is also perfbench/golden.json's gatemon.sweep.csv.
# one_channel_ng was pinned on a three-channel device, (0.85, 0.3, 0.1),
# whose other channels the sweep dropped; one channel gives the same bytes
PINS = {
    "perfbench_gatemon": "8d1e73de36177b4ec3c182194a9247f6d992d13f4bc7b08770ef65914003ca88",
    "saturating": "f9bb862d6177b53ed051b233f5126ec564cd2ba4abdda6d2b1f09ba389ce8b9a",
    "one_channel_ng": "51400d6dad833376edadff7a22183093a072abaf673fbe5837b7afc2290a72fc",
}


def devices():
    """(gate model, qubit, system) of each pinned sweep."""
    from cqedkit import DispersiveSystem, QubitParams, nanowire_profile

    system = DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0, kappa_mhz=1.2, gamma_q_mhz=0.3)
    return {
        # perfbench golden.check_devices()["gatemon"]
        "perfbench_gatemon": (
            nanowire_profile(seed=3, v_min=-2.0, v_max=10.0, n=9, v_pinch=0.0,
                             max_value=1.0, maps_to="transmission"),
            QubitParams(ec=250.0, gap=60000.0, transmissions=(1.0,)),
            system,
        ),
        # 11 of the 25 points clip to T = 1 exactly
        "saturating": (
            nanowire_profile(seed=1, n=25, max_value=1.0, maps_to="transmission"),
            QubitParams(ec=220.0, gap=55000.0, transmissions=(1.0,)),
            system,
        ),
        # off the ng = 0 symmetry, so the check solves the whole matrix
        "one_channel_ng": (
            nanowire_profile(seed=5, n=13, max_value=0.95, maps_to="transmission"),
            QubitParams(ec=250.0, gap=45600.0, transmissions=(0.85,), ng=0.23),
            system,
        ),
    }


def digests(outdir: Path) -> dict:
    from cqedkit import gate_sweep, io

    out = {}
    for name, (model, params, system) in devices().items():
        path = io.write_sweep_csv(outdir / f"{name}.csv", gate_sweep(model, params, system))
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_gatemon_sweep_csv_bytes_are_pinned(tmp_path):
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == PINS


if __name__ == "__main__":
    print(json.dumps(digests(Path(sys.argv[1]))))
