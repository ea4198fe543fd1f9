"""cqedkit benchmark: one command per workload run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit_campaign --seed 1 --seconds 20 --trace 0

Workloads: fit_campaign, gate_sweep, map_roundtrip, cli_session (see
workloads.py and BENCHMARK.json for what each stresses and why). Each run
uses fresh worker processes with BLAS and OpenMP pinned to one thread;
the set-up is timed several times in fresh processes and reported as the
median. Outputs go to a temporary directory under .perfbench_out/ in the
checkout and are removed afterwards; a traced run leaves its span file
there.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones. The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fit_campaign", "gate_sweep", "map_roundtrip", "cli_session")
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# fresh set-ups an untraced run times; it reports their median
SETUPS = 5
TIMEOUT_S = 170.0

WORK_UNITS = {"fit_campaign": "fits", "gate_sweep": "gate points",
              "map_roundtrip": "map rows", "cli_session": "verbs"}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def spawn_worker(args, root: Path, outdir: Path, env: dict, setup_only: bool, deadline: float):
    """Start a worker; return (seconds from spawn to READY or None, exit code, stderr)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(root), "--outdir", str(outdir)]
    if setup_only:
        cmd.append("--setup-only")

    def remaining():
        return max(deadline - time.monotonic(), 0.1)

    err_path = outdir / "worker.stderr"
    ready = None
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=err,
                                text=True, start_new_session=True)
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if sel.select(timeout=remaining()) and proc.stdout.readline().strip() == "READY":
                ready = time.perf_counter() - t0
        try:
            proc.communicate(timeout=remaining())
        except subprocess.TimeoutExpired:
            # the worker and any verb process it started share its session
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return ready, proc.returncode, err_path.read_text()


def environment(root: Path) -> dict:
    """CPU, thread setting, library versions and the code under test."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: THREADS for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        return _fail("--seed must be a non-negative integer")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    root = Path.cwd().resolve()
    if not (root / "src" / "cqedkit" / "__init__.py").is_file() or not (root / "configs").is_dir():
        return _fail(f"{root} is not a cqedkit checkout (no src/cqedkit or configs/)")
    bench = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    deadline = time.monotonic() + TIMEOUT_S
    # pin the thread pools before any numpy import, here and in every child
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    import calib  # imports numpy

    env = dict(os.environ)
    env.pop("CQEDKIT_OUTDIR", None)
    env["PYTHONPATH"] = str(root / "src")

    base = root / ".perfbench_out"
    base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        setups, kernels = [], []
        while True:
            last = args.trace or len(setups) == SETUPS - 1
            if not args.trace:
                # the host speed the set-up runs at: a fresh interpreter
                # that imports numpy, scipy and yaml, timed right before it
                kernels.append(calib.kernel_seconds("cli_session"))
            ready, code, stderr = spawn_worker(args, root, tmp, env, not last, deadline)
            if code != 0 or ready is None:
                sys.stderr.write(stderr[-4000:])
                return _fail(f"worker for {args.workload} exited {code}")
            setups.append(ready)
            if last:
                break
        result = json.loads((tmp / "result.json").read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        result["raw"]["setup_s"] = statistics.median(setups)
        result["setup_kernel_s"] = kernels
        metrics["setup_s"] = calib.REF_S["cli_session"] * statistics.median(
            s / k for s, k in zip(setups, kernels))
        result["setup_scale"] = metrics["setup_s"] / result["raw"]["setup_s"]
    if set(metrics) != set(units):
        return _fail(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    result["environment"] = environment(root)
    correct = not result["problems"]
    out = {name: {"value": value, "unit": units[name]} for name, value in sorted(metrics.items())}
    record = base / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "setups_s": setups}, indent=1))

    tail = result["tail"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['ops']} ops in a closed loop, one caller; work unit = "
          f"{WORK_UNITS[args.workload]}")
    if not args.trace:
        print(f"  op_ms_tail is p{tail['percentile']:g} ({tail['ops_beyond']:.0f} of "
              f"{tail['ops']} ops beyond it); setup_s is the median of {len(setups)} fresh set-ups")
        if tail["ops_beyond"] < 10:
            print(f"  WARNING: fewer than ten ops beyond p{tail['percentile']:g}; "
                  "op_ms_tail is not a resolved tail in this run")
    for name, m in out.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  times are at the reference host speed (op scale {result['speed_scale']:.4f}, "
              f"set-up scale {result['setup_scale']:.4f}, see perfbench/calib.py); unscaled: "
              + json.dumps(result["raw"], sort_keys=True))
    print("details: " + json.dumps(result["details"], sort_keys=True))
    if "trace_artifact" in result:
        print(f"spans: {result['trace_artifact']}")
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    print(f"result record: {record.relative_to(root)}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result["ops"],
                      "failed": result["failed_ops"], "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
