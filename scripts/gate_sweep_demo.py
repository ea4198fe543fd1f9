"""Draw the gate sweep and the paper's two maps through the command line.

Runs `python -m cqedkit` as the CLI fingerprint's synth-gate_map,
synth-two_tone and sweep-gate-files runs do, writing into OUT: `synth` on
configs/synth_gate_map.yaml and configs/synth_two_tone.yaml, `sweep-gate` on
the latter. Their CSVs and SVGs hash as in tests/cli_fingerprint.txt.
Then it draws the panel no verb draws: two_tone.csv read back, less its
per-column median over the gate axis. A failing verb's exit code ends it.

Run: python3 scripts/gate_sweep_demo.py [--outdir OUT]
"""

import argparse
import subprocess
import sys
from pathlib import Path

from cqedkit import io, subtract_background, svgplot

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# (verb, config, output stem) of each run
RUNS = [("synth", "gate_map", "gate_map"), ("synth", "two_tone", "two_tone"),
        ("sweep-gate", "two_tone", "sweep")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="demo_out", help="artifact directory")
    out = Path(ap.parse_args().outdir)
    for verb, config, stem in RUNS:
        argv = [verb, "--config", CONFIGS / f"synth_{config}.yaml",
                "--out", out / f"{stem}.csv", "--plot", out / f"{stem}.svg"]
        done = subprocess.run([sys.executable, "-m", "cqedkit", *map(str, argv)])
        if done.returncode:
            raise SystemExit(done.returncode)
    m = io.read_map_csv(out / "two_tone.csv")
    svg = svgplot.heatmap(out / "two_tone_flat.svg", m.slow_values, m.fast_values,
                          subtract_background(m.grid, axis=0), m.fast_name, m.slow_name,
                          "two-tone map, background subtracted")
    print(f"wrote {svg}")


if __name__ == "__main__":
    main()
