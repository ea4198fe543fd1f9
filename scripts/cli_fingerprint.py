"""Fingerprint the command line: run a fixed set of verb invocations
in-process and print the SHA-256 of every file they write and of every
stdout stream, stderr stream and exit code.

Run: python3 scripts/cli_fingerprint.py OUTDIR

OUTDIR must be new or empty. The invocations run inside it with relative
paths, so two runs against two source trees compare with a plain diff:

    PYTHONPATH=old/src python3 scripts/cli_fingerprint.py a > a.txt
    PYTHONPATH=new/src python3 scripts/cli_fingerprint.py b > b.txt
    diff a.txt b.txt
"""

import os

# sweep CSV bytes depend on the BLAS thread count; pin it before numpy loads
os.environ["OPENBLAS_NUM_THREADS"] = "1"
# argparse wraps help text to the terminal width
os.environ["COLUMNS"] = "80"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import cqedkit.io  # noqa: E402
from cqedkit.cli import main  # noqa: E402

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SYNTH_KINDS = ("reflection", "rabi", "power_map", "gate_map", "two_tone")
VERBS = ("fit-resonator", "fit-lorentzian", "fit-rabi", "simulate-qubit",
         "simulate-cavity", "sweep-gate", "synth", "pipeline")

# configs written next to the shipped ones, for the failure paths, a
# warning and the gatemon at nonzero offset charge (tolerance_miss.yaml is
# pipeline.yaml with an unreachable f_r tolerance, strong_coupling.yaml is
# pipeline.yaml with g too strong for the dispersive shift, which warns,
# gatemon_ng.yaml is gatemon.yaml at ng = 0.23 and
# gatemon_truncated_ng0.yaml is gatemon_truncated.yaml at ng = 0)
EXTRA_CONFIGS = {
    "missing_table.yaml": (
        "qubit:\n  ec_mhz: 190\n  ej_mhz: 9500\n"
        "cavity:\n  length_a_mm: 70\n  width_b_mm: 5\n  height_d_mm: 30\n"
        "system:\n  g_mhz: 100\n"
        "sweep:\n  table_csv: missing.csv\n"),
    "bad_key.yaml": "qubit:\n  ec_mhz: 190\n  ej: 9500\n",
    # EC = 5 GHz and an open channel need more than the default 201-point
    # grid: the refinement check fails
    "gatemon_truncated.yaml": (
        "qubit:\n  ec_mhz: 5000\n  gap_mhz: 45600\n  transmissions: [1.0]\n  ng: 0.23\n"
        "system:\n  f_bare_ghz: 5.443\n  g_mhz: 100\n"
        "sweep:\n  profile:\n    seed: 3\n    n: 9\n    max_value: 2.0\n"
        "  maps_to: transmission\n"),
    # EJ/EC up to about 500 at the smallest charge cutoff: the transmon
    # refinement check fails part way up the profile
    "transmon_truncated.yaml": (
        "qubit:\n  ec_mhz: 190\n  ej_mhz: 9500\n  ng: 0.23\n  n_cut: 10\n"
        "system:\n  f_bare_ghz: 5.443\n  g_mhz: 100\n"
        "sweep:\n  profile:\n    seed: 3\n    n: 9\n    max_value: 100000.0\n"
        "  maps_to: ej\n"),
}


def _fit(verb, data, stem, *extra):
    files = ["--out", f"{stem}.json", "--plot", f"{stem}.svg"]
    if verb == "fit-resonator":
        files += ["--residuals", f"{stem}_resid.csv"]
    return [(verb, [verb, data, *extra]), (f"{verb}-files", [verb, data, *extra, *files])]


# (name, argv, environment overrides); later runs read what earlier ones wrote
RUNS = [
    *[(f"synth-{k}", ["synth", "--config", f"cfg/synth_{k}.yaml",
                      "--out", f"{k}.csv", "--plot", f"{k}.svg"], {}) for k in SYNTH_KINDS],
    ("synth-seed-truth", ["synth", "--config", "cfg/synth_reflection.yaml", "--seed", "99",
                          "--truth", "seed99/truth.json", "--out", "seed99/data.csv"], {}),
    ("synth-default-out", ["synth", "--config", "cfg/synth_rabi.yaml"], {}),
    *[(name, argv, {}) for name, argv in _fit("fit-resonator", "reflection.csv", "fr")],
    *[(f"{name}-delay", argv, {})
      for name, argv in _fit("fit-resonator", "reflection.csv", "frd", "--delay")],
    ("fit-resonator-noise", ["fit-resonator", "fr_resid.csv"], {}),
    ("fit-resonator-missing", ["fit-resonator", "missing.csv"], {}),
    *[(name, argv, {}) for name, argv in _fit("fit-lorentzian", "row.csv", "fl")],
    *[(name, argv, {}) for name, argv in _fit("fit-rabi", "rabi.csv", "fb")],
    ("simulate-qubit-gatemon", ["simulate-qubit", "--config", "cfg/gatemon.yaml",
                                "--out", "qubit.json", "--plot", "qubit.svg"], {}),
    ("simulate-qubit-gatemon-ng", ["simulate-qubit", "--config", "cfg/gatemon_ng.yaml",
                                   "--out", "qubit_ng.json"], {}),
    ("simulate-qubit-transmon", ["simulate-qubit", "--config", "cfg/pipeline.yaml"], {}),
    ("simulate-qubit-bad-key", ["simulate-qubit", "--config", "cfg/bad_key.yaml"], {}),
    ("simulate-cavity", ["simulate-cavity", "--config", "cfg/pipeline.yaml"], {}),
    ("simulate-cavity-out", ["simulate-cavity", "--config", "cfg/pipeline.yaml",
                             "--out", "cavity.json"], {}),
    ("sweep-gate", ["sweep-gate", "--config", "cfg/pipeline.yaml"], {}),
    ("sweep-gate-files", ["sweep-gate", "--config", "cfg/synth_two_tone.yaml", "--out",
                          "sweep.csv", "--json", "sweep.json", "--plot", "sweep.svg"], {}),
    ("sweep-gate-truncated", ["sweep-gate", "--config", "cfg/gatemon_truncated.yaml"], {}),
    ("sweep-gate-truncated-ng0", ["sweep-gate", "--config", "cfg/gatemon_truncated_ng0.yaml"],
     {}),
    ("sweep-gate-transmon-truncated", ["sweep-gate", "--config",
                                       "cfg/transmon_truncated.yaml"], {}),
    ("pipeline", ["pipeline", "--config", "cfg/pipeline.yaml", "--workdir", "pipe"], {}),
    ("pipeline-seed", ["pipeline", "--config", "cfg/pipeline.yaml", "--seed", "3",
                       "--workdir", "pipe_seed"], {}),
    ("pipeline-tolerance-miss", ["pipeline", "--config", "cfg/tolerance_miss.yaml",
                                 "--workdir", "pipe_miss"], {}),
    ("pipeline-input-error", ["pipeline", "--config", "cfg/missing_table.yaml",
                              "--workdir", "pipe_input"], {}),
    ("pipeline-strong-coupling", ["pipeline", "--config", "cfg/strong_coupling.yaml",
                                  "--workdir", "pipe_strong"], {}),
    ("unknown-verb", ["frobnicate"], {}),
    ("missing-config", ["simulate-qubit"], {}),
    ("missing-data", ["fit-rabi"], {}),
    ("outdir-env-synth", ["synth", "--config", "cfg/synth_reflection.yaml",
                          "--out", "env.csv", "--plot", "env.svg"],
     {cqedkit.io.OUTDIR_ENV: "envout"}),
    ("outdir-env-pipeline", ["pipeline", "--config", "cfg/pipeline.yaml", "--workdir", "w"],
     {cqedkit.io.OUTDIR_ENV: "envout"}),
    ("help", ["--help"], {}),
    *[(f"help-{verb}", [verb, "--help"], {}) for verb in VERBS],
]


def _run(argv, env):
    saved = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return out.getvalue(), err.getvalue(), code


def _power_map_row(workdir):
    """|S21|^2 of the first power-map row as a magnitude trace, a Lorentzian dip."""
    m = cqedkit.io.read_map_csv(workdir / "power_map.csv")
    cqedkit.io.write_magnitude_trace(workdir / "row.csv", m.fast_values, m.grid[0] ** 2)


def _sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def fingerprint(workdir: Path) -> list[str]:
    """Run every invocation inside workdir; return the `sha256  name` lines."""
    workdir.mkdir(parents=True, exist_ok=True)
    if any(workdir.iterdir()):
        raise SystemExit(f"{workdir} is not empty")
    cfg = workdir / "cfg"
    shutil.copytree(CONFIGS, cfg)
    for name, text in EXTRA_CONFIGS.items():
        (cfg / name).write_text(text)
    pipeline = (cfg / "pipeline.yaml").read_text()
    (cfg / "tolerance_miss.yaml").write_text(pipeline.replace("f_r_mhz: 0.5", "f_r_mhz: 1.0e-9"))
    (cfg / "strong_coupling.yaml").write_text(pipeline.replace("g_mhz: 100.0", "g_mhz: 2000.0"))
    (cfg / "gatemon_ng.yaml").write_text((cfg / "gatemon.yaml").read_text() + "  ng: 0.23\n")
    truncated = EXTRA_CONFIGS["gatemon_truncated.yaml"]
    (cfg / "gatemon_truncated_ng0.yaml").write_text(truncated.replace("  ng: 0.23\n", ""))
    lines = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv, env in RUNS:
            if name == "fit-lorentzian":
                _power_map_row(Path("."))
            out, err, code = _run(argv, env)
            lines += [f"{_sha(out)}  {name}.stdout", f"{_sha(err)}  {name}.stderr",
                      f"{_sha(str(code))}  {name}.exit"]
        files = sorted(p for p in Path(".").rglob("*") if p.is_file() and cfg.name not in p.parts)
        lines += [f"{_sha(p.read_bytes())}  {p.as_posix()}" for p in files]
    finally:
        os.chdir(cwd)
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} OUTDIR")
    print("\n".join(fingerprint(Path(sys.argv[1]))))
