"""Run one benchmark workload in this fresh process.

Started by run.py, never by hand. After setup it prints READY, so the
parent can time the set-up from process start. With --setup-only it stops
there. Otherwise it runs the closed loop (one caller; the next op starts
when the previous returns) until --seconds of op time have passed, the
current rotation of inputs is complete and the workload's minimum number
of rotations has run, then checks the outputs and writes result.json
into --outdir.

With --trace 1 the time is split: the first half runs untraced, the
second half with spans recorded, so the run reports the tracing overhead
next to the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# a layer with no spans on the workload that stresses it is an error
STRESSED_SPANS = {
    "fit_campaign": ("fitters.fit_reflection", "fitters.fit_rabi", "lm.lm_minimize",
                     "lm.residual", "lm.numeric_jacobian"),
    "gate_sweep": ("coupling.gate_sweep", "spectra.gatemon_levels", "spectra.transmon_levels"),
    "map_roundtrip": ("io.write_map_csv", "io.read_map_csv", "synth.synth_power_map",
                      "fitters.fit_lorentzian", "lm.lm_minimize", "lm.jac"),
    "cli_session": ("config.load_config", "svgplot.line_plot", "io.write_json",
                    "cli.synth", "cli.pipeline"),
}
IMPORT_PROBES = 3


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile of a non-empty list."""
    s = sorted(values)
    pos = (len(s) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def closed_loop(wl, seconds: float) -> dict:
    """Run ops until `seconds` of op time have passed on a rotation boundary,
    and for at least `wl.min_rotations` rotations.

    Between ops, at most once per calib.every_s of op time, the workload's
    reference kernel is timed (see calib.py); each op's time is scaled by
    the median of the five kernel timings around it.
    """
    import calib

    latencies, works, failures = [], [], []
    kernel_at, kernel_s = [], []
    useful = 0
    busy = 0.0
    last_kernel = -math.inf
    calib.kernel_seconds(wl.name)  # warm-up
    i = 0
    while busy < seconds or i % wl.cycle or i < wl.min_rotations * wl.cycle:
        if busy - last_kernel >= calib.every_s(wl.name):
            kernel_at.append(i)
            kernel_s.append(calib.kernel_seconds(wl.name))
            last_kernel = busy
        t0 = time.perf_counter()
        result = wl.op(i)
        dt = time.perf_counter() - t0
        busy += dt
        latencies.append(dt)
        works.append(wl.work(i))
        u, failure = wl.record(i, result)
        useful += u
        if failure:
            failures.append(failure)
        i += 1
    ref = calib.REF_S[wl.name]
    scaled, j = [], 0
    for k, dt in enumerate(latencies):
        while j + 1 < len(kernel_at) and kernel_at[j + 1] <= k:
            j += 1
        scaled.append(dt * ref / statistics.median(kernel_s[max(j - 2, 0):j + 3]))
    return {"latencies": scaled, "raw_latencies": latencies, "works": works,
            "useful": useful, "failures": failures, "kernel_s": kernel_s,
            "speed_scale": ref / statistics.median(kernel_s),
            "work_per_s": rotation_rate(scaled, works, wl.cycle),
            "raw_work_per_s": rotation_rate(latencies, works, wl.cycle)}


def rotation_rate(latencies, works, cycle: int) -> float:
    """Median, over whole rotations of the input mix, of work units per second.

    The rare very slow op (a delay fit that rescans and then gives up)
    would otherwise set the rate of the whole run; the traced run shows
    where its time goes.
    """
    rates = [sum(works[k:k + cycle]) / sum(latencies[k:k + cycle])
             for k in range(0, len(latencies) - cycle + 1, cycle)]
    return statistics.median(rates)


def import_seconds(root: Path) -> float:
    """Median time of a fresh `import cqedkit.cli`, timed inside the child."""
    code = "import time; t = time.perf_counter(); import cqedkit.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                             capture_output=True, text=True).stdout
        times.append(float(out.strip()))
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    root = Path(args.root).resolve()
    outdir = Path(args.outdir).resolve()
    sys.path.insert(0, str(root / "src"))
    warnings.simplefilter("ignore")

    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()  # set-up is traced too: synth runs there
    wl.setup(args.seed, root, outdir, traced=bool(args.trace))
    mod = sys.modules.get("cqedkit")
    if mod is not None and Path(mod.__file__).resolve().parent != root / "src" / "cqedkit":
        print(f"cqedkit imported from {mod.__file__}, not from this checkout", file=sys.stderr)
        return 2
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if tracer is None:
        loop = closed_loop(wl, args.seconds)
    else:
        tracer.uninstall()
        untraced = closed_loop(wl, args.seconds / 2)
        tracer.install()
        wl.tracer = tracer
        loop = closed_loop(wl, args.seconds / 2)
        wl.tracer = None
        tracer.uninstall()
    accuracy, problems, details = wl.finish()
    problems = loop["failures"] + problems

    lat = loop["latencies"]
    n = len(lat)
    beyond = n * (1 - wl.tail_pct / 100.0)
    result.update(
        ops=n,
        failed_ops=len(loop["failures"]),
        problems=problems,
        details=details,
        tail={"percentile": wl.tail_pct, "ops": n, "ops_beyond": beyond},
        works=loop["works"],
        raw_latencies_s=loop["raw_latencies"],
        kernel_s=loop["kernel_s"],
        speed_scale=loop["speed_scale"],
        raw={"work_per_s": loop["raw_work_per_s"],
             "op_ms_p50": 1e3 * statistics.median(loop["raw_latencies"]),
             "op_ms_tail": 1e3 * percentile(loop["raw_latencies"], wl.tail_pct)},
    )
    work_per_s = loop["work_per_s"]
    if tracer is None:
        result["metrics"] = {
            "work_per_s": work_per_s,
            "op_ms_p50": 1e3 * statistics.median(lat),
            "op_ms_tail": 1e3 * percentile(lat, wl.tail_pct),
            "ok_frac": loop["useful"] / sum(loop["works"]),
            "peak_rss_mb": wl.peak_rss_kb() / 1024.0,
            "accuracy_err": accuracy,
        }
    else:
        m = tracer.layer_metrics()
        for name in STRESSED_SPANS[args.workload]:
            if name not in tracer.names:
                problems.append(f"traced run recorded no {name} spans on {args.workload}")
        if args.workload == "cli_session":
            m["cli.import_s"] = import_seconds(root)
            m["cli.import_share"] = m["cli.import_s"] / (m["cli.import_s"]
                                                         + tracer.cli_main_median_s())
        else:
            m["cli.import_s"] = m["cli.import_share"] = 0.0
        m["coupling.sweep_61pt_s"] = (
            wl.roadmap_sweep_seconds() if args.workload == "gate_sweep" else 0.0)
        untraced_rate = untraced["work_per_s"]
        m["trace.work_per_s"] = work_per_s
        m["trace.untraced_work_per_s"] = untraced_rate
        m["trace.overhead_frac"] = 1.0 - work_per_s / untraced_rate
        result["metrics"] = m
        artifact = root / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.dump(artifact)
        result["trace_artifact"] = str(artifact.relative_to(root))
    with open(outdir / "result.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
