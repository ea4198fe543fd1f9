"""Steadiness mode: rerun the untraced benchmark and report its spread.

From the root of a checkout:

    python3 perfbench/steady.py --runs 10 --seed0 100 --out .perfbench_out/steady-a.json
    python3 perfbench/steady.py --compare .perfbench_out/steady-a.json .perfbench_out/steady-b.json

The first form runs every workload in BENCHMARK.json --runs times, each
with another seed, and reports each end-to-end metric's median and
quartiles. A metric is flagged when its spread, the distance between the
quartiles as a share of the median, exceeds its bound from
BENCHMARK.json, and marked when it exceeds a third of it. The second
form flags every metric whose second median is worse than the first by
more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def spec() -> dict:
    return json.loads(Path("BENCHMARK.json").read_text())


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode != 0 or not last.startswith("{"):
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(last)


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"), "values": values}


def measure(args) -> int:
    bench = spec()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    report, flagged = {}, 0
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(bench, workload, args.seed0 + k) for k in range(args.runs)]
        report[workload] = {}
        print(f"{workload}: {args.runs} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1}")
        for name, m in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            report[workload][name] = s
            mark = ""
            if s["spread"] > m["bound"]:
                mark, flagged = "  SPREAD EXCEEDS BOUND", flagged + 1
            elif s["spread"] > m["bound"] / 3:
                mark = "  (above a third of the bound)"
            print(f"  {name:14s} median {s['median']:.6g} {m['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f} "
                  f"(bound {m['bound']}){mark}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 1 if flagged else 0


def compare(first_path: str, second_path: str) -> int:
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    first = json.loads(Path(first_path).read_text())
    second = json.loads(Path(second_path).read_text())
    flagged = 0
    for workload in first:
        for name, m in bounds.items():
            a, b = first[workload][name]["median"], second[workload][name]["median"]
            worse = (b - a) / abs(a) if m["better"] == "lower" else (a - b) / abs(a)
            mark = ""
            if worse > m["bound"]:
                mark, flagged = "  WORSE THAN BOUND", flagged + 1
            print(f"{workload:14s} {name:14s} {a:.6g} -> {b:.6g}  worse by {worse:+.4f} "
                  f"(bound {m['bound']}){mark}")
    return 1 if flagged else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--out", help="write medians, quartiles and raw values here")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
