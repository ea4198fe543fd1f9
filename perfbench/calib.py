"""Host-speed reference kernels for the benchmark's time metrics.

The sandbox this benchmark was tuned on shares its host with other
tenants: the same computation runs up to 1.5x slower for seconds to
minutes at a time. A tiny generic kernel tracked that poorly; a kernel
with the same kind of work and working set as the ops tracks them to a
few per cent. So each workload owns a reference kernel
built from numpy, the interpreter and the OS only (never cqedkit), timed
between ops, and op times are reported at the reference
host speed at which that kernel takes REF_S:

    reported time = measured time * REF_S / kernel time nearby

A change to cqedkit cannot move a kernel, so the scaling cancels the
host's speed and keeps the program's. Set-up times are scaled the same
way, each by the fresh-interpreter kernel timed just before it (run.py).
Raw times are kept in every result record.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

# typical kernel seconds, between ops, on the tuning host (2-vCPU Xeon
# sandbox); they only fix the unit, so that scaled times read close to raw
REF_S = {
    "fit_campaign": 0.0011,
    "gate_sweep": 0.043,
    "map_roundtrip": 0.010,
    "cli_session": 0.45,
}

_rng = np.random.default_rng(2024)


def _hermitian(n):
    a = _rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n))
    return a + a.conj().T


_H = (_hermitian(201), _hermitian(403))
_F = np.linspace(5.0, 5.01, 401)
_VALUES = _rng.standard_normal(8000).tolist()


def _dense_eig() -> None:
    """The dense Hermitian eigensolves of a gatemon point with its check."""
    for h in _H:
        np.linalg.eigvalsh(h)


def _lm_like() -> None:
    """Residuals of a complex model on 401 points and small normal-equation
    solves, in the proportions of one reflection fit."""
    x = np.array([1.0, 0.0, 6000.0, 12000.0, 0.1, 5.005])
    for k in range(8):
        cols = []
        for j in range(7):
            z = x[0] * (1.0 - (2 * x[2] / x[3]) * np.exp(1j * x[4])
                        / (1.0 + 2j * x[2] * (_F - x[5]) / x[5]))
            cols.append(np.concatenate([z.real, z.imag]))
        jac = np.column_stack(cols[1:]) - cols[0][:, None]
        a = jac.T @ jac + np.eye(6)
        np.linalg.solve(a, jac.T @ cols[0])
        x[2] += 1.0


def _csv_like() -> None:
    """Shortest-repr formatting and parsing of floats, as in a map CSV."""
    text = ",".join(repr(v) for v in _VALUES)
    [float(c) for c in text.split(",")]


def _startup() -> None:
    """A fresh interpreter that imports the program's third-party stack."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg, yaml"],
                   env=env, check=True)


# workload -> (kernel, repeats per timing, op seconds between timings);
# a timing is the fastest of its repeats, which drops interrupts and the
# cache misses of the first repeat after an op
KERNELS = {
    "fit_campaign": (_lm_like, 5, 0.25),
    "gate_sweep": (_dense_eig, 1, 1.0),
    "map_roundtrip": (_csv_like, 3, 0.5),
    "cli_session": (_startup, 1, 2.0),
}


def every_s(workload: str) -> float:
    """Op time between two timings of the workload's kernel."""
    return KERNELS[workload][2]


def kernel_seconds(workload: str) -> float:
    """One timing of the workload's reference kernel."""
    fn, repeats, _ = KERNELS[workload]
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best
