"""Golden outputs: the byte and value contract every benchmark run checks.

Synth CSVs, sweep CSVs and truth sidecars must stay SHA-256 identical;
fit JSON values must agree within 1e-9 relative. The golden cases below
are fixed and do not depend on the run's seed, so every run can check
them. ``golden.json`` holds the expected hashes and values.

Regenerate it, only when an output change is intended, from the root of a
checkout with:

    python3 perfbench/golden.py --regen
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from run import THREAD_VARS, THREADS

GOLDEN_PATH = Path(__file__).with_name("golden.json")
REL_TOL = 1e-9


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def flatten(obj, prefix: str = "") -> dict:
    """Nested JSON -> {"a.b.0": leaf} with the leaves untouched."""
    if isinstance(obj, dict):
        out = {}
        for k in sorted(obj):
            out.update(flatten(obj[k], f"{prefix}{k}."))
        return out
    if isinstance(obj, list):
        out = {}
        for i, v in enumerate(obj):
            out.update(flatten(v, f"{prefix}{i}."))
        return out
    return {prefix[:-1]: obj}


def _same_value(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or not (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
    ):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def load() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def compare(workload: str, files: dict, values: dict, golden: dict | None = None) -> list[str]:
    """Check artifacts against the golden record; one message per mismatch.

    ``files`` maps an artifact name to the path it was written to,
    ``values`` maps an artifact name to its flattened values.
    """
    ref = (golden or load())[workload]
    problems = []
    for name, path in files.items():
        want = ref["files"].get(name)
        if want is None:
            problems.append(f"{workload}: artifact {name}: no golden hash recorded")
            continue
        got = sha256(path)
        if got != want:
            problems.append(
                f"{workload}: artifact {name}: sha256 {got[:16]}... differs from golden {want[:16]}..."
            )
    for name, vals in values.items():
        want = ref["values"].get(name)
        if want is None:
            problems.append(f"{workload}: artifact {name}: no golden values recorded")
            continue
        if set(vals) != set(want):
            problems.append(
                f"{workload}: artifact {name}: keys differ from golden "
                f"(extra {sorted(set(vals) - set(want))}, missing {sorted(set(want) - set(vals))})"
            )
            continue
        for key in sorted(vals):
            if not _same_value(vals[key], want[key]):
                problems.append(
                    f"{workload}: artifact {name}: {key} = {vals[key]!r}, golden {want[key]!r}"
                )
    return problems


# -- golden cases of the in-process workloads ------------------------------


def _reflection_spec(delay: bool):
    from cqedkit import SynthSpec

    truth = {"a_re": 0.9, "a_im": 0.1, "ql": 6000.0, "qc": 12000.0, "theta": 0.15,
             "f_r_ghz": 5.2816}
    if delay:
        truth["tau_ns"] = 150.0
    return SynthSpec(kind="reflection_trace", seed=11, snr_db=30.0, truth=truth,
                     grid={"f_min_ghz": 5.2712, "f_max_ghz": 5.2920, "n_f": 401})


def _rabi_spec():
    from cqedkit import SynthSpec

    return SynthSpec(kind="rabi_trace", seed=5, snr_db=20.0,
                     truth={"A": 1.0, "T_R": 260.0, "omega": 2 * math.pi / 32.0, "B": 0.0,
                            "a": -0.0004, "b": 0.5},
                     grid={"t_max_ns": 1000.0, "n_t": 501})


def check_devices():
    """Fixed gate-sweep devices: one single-channel gatemon, one transmon."""
    from cqedkit import DispersiveSystem, QubitParams, nanowire_profile

    system = DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0, kappa_mhz=1.2, gamma_q_mhz=0.3)
    gatemon = (
        nanowire_profile(seed=3, v_min=-2.0, v_max=10.0, n=9, v_pinch=0.0, max_value=1.0,
                         maps_to="transmission"),
        QubitParams(ec=250.0, gap=60000.0, transmissions=(1.0,)),
        system,
    )
    transmon = (
        nanowire_profile(seed=3, v_min=-2.0, v_max=10.0, n=41, v_pinch=0.0,
                         max_value=20000.0, maps_to="ej"),
        QubitParams(ec=190.0, ej=9500.0),
        system,
    )
    return {"gatemon": gatemon, "transmon": transmon}


def _map_specs():
    from cqedkit import SynthSpec

    power = SynthSpec(kind="power_map", seed=17, snr_db=35.0,
                      truth={"depth": 0.8, "baseline": 1.0, "attenuation_db": 0.0},
                      grid={"f_min_ghz": 5.425, "f_max_ghz": 5.455, "n_f": 151,
                            "p_min_dbm": -150.0, "p_max_dbm": -105.0, "n_p": 6})
    gate = SynthSpec(kind="gate_map", seed=21, snr_db=30.0,
                     truth={"depth": 0.8, "baseline": 1.0},
                     grid={"f_min_ghz": 5.30, "f_max_ghz": 5.58, "n_f": 141,
                           "v_min": -2.0, "v_max": 10.0, "n_v": 7})
    two_tone = SynthSpec(kind="two_tone_map", seed=29, snr_db=30.0,
                         truth={"depth": 0.5, "baseline": 1.0, "fwhm_mhz": 8.0,
                                "two_photon": True, "alpha_mhz": -218.35,
                                "background_amp": 0.02, "background_period_ghz": 1.3},
                         grid={"f_min_ghz": 2.0, "f_max_ghz": 5.6, "n_f": 181,
                               "v_min": -2.0, "v_max": 10.0, "n_v": 7})
    return power, gate, two_tone


def artifacts(workload: str, outdir) -> tuple[dict, dict]:
    """Write the golden cases of an in-process workload; return (files, values)."""
    from cqedkit import (
        DispersiveSystem, QubitParams, coupling, fitters, io, spectra, synth,
    )

    out = Path(outdir)
    files, values = {}, {}
    if workload == "fit_campaign":
        for delay in (False, True):
            spec = _reflection_spec(delay)
            stem = "reflection_delay" if delay else "reflection"
            trace = synth.synth_reflection(spec)
            files[f"{stem}.csv"] = io.write_complex_trace(out / f"{stem}.csv", trace)
            files[f"{stem}.truth.json"] = io.write_json(out / f"{stem}.truth.json",
                                                        spec.to_dict())
            fit = fitters.fit_reflection(trace, delay=delay)
            values[f"{stem}.fit.json"] = flatten(io.sanitize_json(fit.to_dict()))
        spec = _rabi_spec()
        t, y = synth.synth_rabi(spec)
        files["rabi.csv"] = io.write_rabi_trace(out / "rabi.csv", t, y)
        files["rabi.truth.json"] = io.write_json(out / "rabi.truth.json", spec.to_dict())
        values["rabi.fit.json"] = flatten(io.sanitize_json(fitters.fit_rabi(t, y).to_dict()))
    elif workload == "gate_sweep":
        for name, (model, params, system) in check_devices().items():
            sweep = coupling.gate_sweep(model, params, system)
            files[f"{name}.sweep.csv"] = io.write_sweep_csv(out / f"{name}.sweep.csv", sweep)
    elif workload == "map_roundtrip":
        power, gate, two_tone = _map_specs()
        qubit = spectra.transmon_levels(QubitParams(ec=190.0, ej=9500.0))
        system = DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0, qubit=qubit,
                                  kappa_mhz=1.2, gamma_q_mhz=0.3)
        model, params, sweep_system = check_devices()["transmon"]
        sweep = coupling.gate_sweep(model, params, sweep_system, voltages=gate.axis("v"))
        maps = (
            ("power_map", synth.synth_power_map(power, system), power),
            ("gate_map", synth.synth_gate_map(gate, sweep), gate),
            ("two_tone_map", synth.synth_two_tone(two_tone, sweep), two_tone),
        )
        for name, m, spec in maps:
            files[f"{name}.csv"] = io.write_map_csv(out / f"{name}.csv", m)
            files[f"{name}.truth.json"] = io.write_json(out / f"{name}.truth.json",
                                                        spec.to_dict())
        m = io.read_map_csv(files["power_map.csv"])
        rows = {}
        for i, row in enumerate(m.grid):
            fit = fitters.fit_lorentzian(m.fast_values, row**2)
            rows[str(i)] = fit.to_dict()["params"]
        values["power_map.row_fits"] = flatten(rows)
    else:
        raise ValueError(f"no in-process golden cases for {workload}")
    return files, values


def _cli_artifacts(root: Path, outdir: Path) -> tuple[dict, dict]:
    """Run one CLI session in subprocesses and collect its golden artifacts."""
    import workloads

    wl = workloads.CliSession()
    wl.setup(0, root, outdir, traced=False)
    files, values = {}, {}
    for i in range(len(wl.session)):
        verb = wl.plan[i]
        code, stderr = wl.op(i)
        if code != 0:
            raise RuntimeError(f"verb {verb.label} exited {code}: {stderr}")
        for name in verb.files:
            files[name] = wl.workdir / name
        for name in verb.values:
            values[name] = flatten(json.loads((wl.workdir / name).read_text()))
    return files, values


def regen(root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    golden = {}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for workload in ("fit_campaign", "gate_sweep", "map_roundtrip", "cli_session"):
            d = Path(tmp) / workload
            d.mkdir()
            if workload == "cli_session":
                files, values = _cli_artifacts(root, d)
            else:
                files, values = artifacts(workload, d)
            golden[workload] = {
                "files": {k: sha256(p) for k, p in sorted(files.items())},
                "values": values,
            }
    return golden


def main() -> int:
    ap = argparse.ArgumentParser(description="Regenerate perfbench/golden.json.")
    ap.add_argument("--regen", action="store_true", help="rewrite golden.json from this checkout")
    args = ap.parse_args()
    if not args.regen:
        ap.print_help()
        return 1
    # the same single-threaded BLAS as the benchmark workers: threaded
    # reductions change the last bits of the dense eigensolves
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    golden = regen(Path.cwd())
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
