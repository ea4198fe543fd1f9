"""Wall time of every CLI verb on the shipped configs, old tree against new.

Run: python3 scripts/verb_walltime.py OLD_SRC NEW_SRC [--repeats N]

OLD_SRC and NEW_SRC are the `src` directories of two checkouts. Each
repeat runs the whole session below once per tree, every verb as a fresh
`python -m cqedkit` process with that tree alone on PYTHONPATH and BLAS
and OpenMP on one thread: the synth verbs first (the fit verbs read what
they write), then the rest. Which tree runs a verb first alternates from
verb to verb and from repeat to repeat. Each tree works in its own
scratch directory, removed at the end; both read this checkout's
configs/.

For each verb, and for the whole session, it prints each tree's median
and quartiles in ms and how many repeats the new tree ran faster. A verb
that exits non-zero stops the run with exit code 1. The first line says
whether the verb processes write bytecode: a verb that does not (under
PYTHONDONTWRITEBYTECODE or -B) compiles every module it imports again,
so its time depends on it.
"""

import argparse
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _session():
    """(label, argv) of every verb on the shipped configs, synth first."""
    synth = [(f"synth-{kind}", ["synth", "--config", str(CONFIGS / f"synth_{kind}.yaml"),
                                "--out", f"{kind}.csv", "--plot", f"{kind}.svg"])
             for kind in ("reflection", "rabi", "power_map", "gate_map", "two_tone")]
    fits = [
        ("fit-resonator", ["fit-resonator", "reflection.csv", "--out", "fr.json",
                           "--plot", "fr.svg"]),
        ("fit-resonator-delay", ["fit-resonator", "reflection.csv", "--delay",
                                 "--out", "frd.json"]),
        ("fit-lorentzian", ["fit-lorentzian", "dip.csv", "--out", "fl.json", "--plot", "fl.svg"]),
        ("fit-rabi", ["fit-rabi", "rabi.csv", "--out", "fb.json", "--plot", "fb.svg"]),
    ]
    config = [
        ("simulate-qubit-gatemon", ["simulate-qubit", "--config", str(CONFIGS / "gatemon.yaml"),
                                    "--out", "gatemon.json", "--plot", "gatemon.svg"]),
        ("simulate-qubit-transmon", ["simulate-qubit", "--config",
                                     str(CONFIGS / "pipeline.yaml"), "--out", "transmon.json"]),
        ("simulate-cavity", ["simulate-cavity", "--config", str(CONFIGS / "pipeline.yaml"),
                             "--out", "cavity.json"]),
        ("sweep-gate", ["sweep-gate", "--config", str(CONFIGS / "synth_gate_map.yaml"),
                        "--out", "sweep.csv", "--json", "sweep.json", "--plot", "sweep.svg"]),
        ("pipeline", ["pipeline", "--config", str(CONFIGS / "pipeline.yaml"), "--workdir", "pipe"]),
    ]
    return synth + fits + config


def _write_dip(path: Path) -> None:
    """A seeded Lorentzian dip in dB for fit-lorentzian, written without cqedkit."""
    rng = random.Random(22)
    lines = ["freq_ghz,mag_db"]
    for k in range(401):
        f = 5.40 + 0.08 * k / 400
        y = -12.0 * 0.002**2 / ((f - 5.44) ** 2 + 0.002**2)
        lines.append(f"{f!r},{y + rng.gauss(0.0, 0.1)!r}")
    path.write_text("\n".join(lines) + "\n")


def writes_bytecode(env) -> bool:
    """Whether a Python process started with ``env`` writes the bytecode
    of the modules it imports."""
    done = subprocess.run([sys.executable, "-c", "import sys; print(sys.dont_write_bytecode)"],
                          env=env, capture_output=True, text=True, check=True)
    return done.stdout.strip() == "False"


def _quartiles(ms):
    if len(ms) < 2:
        return ms[0], ms[0]
    q1, _, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", help="src directory of the old tree")
    parser.add_argument("new_src", help="src directory of the new tree")
    parser.add_argument("--repeats", type=int, default=10, help="sessions per tree (default 10)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    trees = {"old": str(Path(args.old_src).resolve()), "new": str(Path(args.new_src).resolve())}
    session = _session()
    times = {(side, label): [] for side in trees for label, _ in session}
    with tempfile.TemporaryDirectory(prefix="verb_walltime_") as tmp:
        workdirs, envs = {}, {}
        for side, src in trees.items():
            workdirs[side] = Path(tmp) / side
            workdirs[side].mkdir()
            _write_dip(workdirs[side] / "dip.csv")
            envs[side] = dict(os.environ, PYTHONPATH=src, **{var: "1" for var in THREAD_VARS})
        writes = writes_bytecode(envs["new"])
        print(f"bytecode writing in the verb processes: {'on' if writes else 'off'}")
        for r in range(args.repeats):
            for k, (label, verb_argv) in enumerate(session):
                order = ("old", "new") if (r + k) % 2 == 0 else ("new", "old")
                for side in order:
                    start = time.perf_counter()
                    done = subprocess.run([sys.executable, "-m", "cqedkit", *verb_argv],
                                          cwd=workdirs[side], env=envs[side],
                                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                          text=True)
                    elapsed = time.perf_counter() - start
                    if done.returncode != 0:
                        print(f"{side} {label} exited {done.returncode}: {done.stderr.strip()}",
                              file=sys.stderr)
                        return 1
                    times[side, label].append(elapsed * 1e3)
    rows = [(label, times["old", label], times["new", label]) for label, _ in session]
    totals = [[sum(times[side, label][r] for label, _ in session) for r in range(args.repeats)]
              for side in ("old", "new")]
    rows.append(("session", *totals))
    print(f"{'verb':<24} {'old ms (q1-q3)':>24} {'new ms (q1-q3)':>24} {'change':>8} "
          f"{'new wins':>9}")
    for label, old, new in rows:
        cells = []
        for ms in (old, new):
            q1, q3 = _quartiles(ms)
            cells.append(f"{statistics.median(ms):.1f} ({q1:.1f}-{q3:.1f})")
        change = statistics.median(new) / statistics.median(old) - 1.0
        wins = sum(n < o for o, n in zip(old, new))
        print(f"{label:<24} {cells[0]:>24} {cells[1]:>24} {change:>+8.1%} "
              f"{f'{wins}/{len(old)}':>9}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
