"""Command-line interface.

Verbs: fit-resonator, fit-lorentzian, fit-rabi, simulate-qubit,
simulate-cavity, sweep-gate, synth, pipeline.

Exit codes: 0 on success, 1 for input problems (bad arguments, unreadable
or malformed files, config errors), 2 when a solver or fit fails or the
pipeline misses a tolerance. Results print to stdout; --out writes the
machine-readable artifact and --plot an SVG rendering where offered.

Each verb imports the modules it runs when it runs, so it compiles and
executes only the package modules on its own code path: svgplot loads
only with --plot, config only for a verb that reads one.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

import cqedkit

from . import io
from .errors import InputDataError, SolverError

# the library functions a verb calls as this module's attribute holds it at
# call time, so a caller can swap one here (a test, or a tracer timing the
# verbs); without one, the package serves it and its module loads on first use
_CALLS = ("gatemon_levels", "transmon_levels", "gate_sweep", "fit_reflection", "fit_lorentzian",
          "fit_rabi", "synth_reflection", "synth_rabi", "synth_power_map", "synth_gate_map",
          "synth_two_tone")


def _call(name: str):
    """The library function ``name``: this module's attribute, if one is
    set, else the package's."""
    return globals().get(name) or getattr(cqedkit, name)


def __getattr__(name: str):
    """The first lookup of a library function from outside binds all of
    them here, each as its own module holds it then. So a caller that
    wraps a function in its own module first and here next (a tracer)
    wraps the original here, as when this module imported them all, and
    not its own wrapper a second time."""
    if name not in _CALLS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for func in _CALLS:
        globals().setdefault(func, getattr(cqedkit, func))
    return globals()[name]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; bad arguments are input errors here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit_json(payload: dict, out) -> None:
    """Write the result JSON to --out, or print it to stdout without one."""
    print(f"wrote {io.write_json(out, payload)}" if out else io.json_text(payload))


def _print_params(result) -> None:
    for name in result.names:
        print(f"{name} = {result.param(name):.10g} +/- {result.error(name):.4g}")
    print(f"chi2 = {result.chi2:.6g}  iterations = {result.iterations}")


def _plot(path, x, series, xlabel: str, ylabel: str, title: str) -> None:
    """Write a line-plot SVG for --plot and print where it went."""
    from . import svgplot

    print(f"wrote {svgplot.line_plot(path, x, series, xlabel, ylabel, title)}")


def cmd_fit_resonator(args) -> int:
    from .fitters import ComplexTrace, reflection_model

    trace = io.read_complex_trace(args.data)
    fit = _call("fit_reflection")(trace, delay=args.delay)
    if args.out:
        print(f"f_r = {fit.f_r_ghz:.9g} GHz")
        print(f"Ql = {fit.ql:.6g} +/- {fit.errors['ql']:.3g}")
        print(f"Qc = {fit.qc:.6g} +/- {fit.errors['qc']:.3g}")
        print(f"Qi = {fit.qi:.6g} +/- {fit.errors['qi']:.3g}")
        print(f"theta = {fit.theta:.6g} rad")
        if fit.tau_ns is not None:
            print(f"tau = {fit.tau_ns:.6g} ns")
        print(f"residual rms = {fit.residual_rms:.4g}")
    _emit_json(fit.to_dict(), args.out)
    model = reflection_model(trace.freqs_ghz, fit.a, fit.ql, fit.qc, fit.theta, fit.f_r_ghz,
                             fit.tau_ns or 0.0)
    if args.residuals:
        resid = ComplexTrace(trace.freqs_ghz, trace.values - model)
        print(f"wrote {io.write_complex_trace(args.residuals, resid)}")
    if args.plot:
        series = [("data", np.abs(trace.values)), ("fit", np.abs(model))]
        _plot(args.plot, trace.freqs_ghz, series, "frequency (GHz)", "|S21|", "reflection fit")
    return 0


def cmd_fit_lorentzian(args) -> int:
    from .fitters import lorentzian_model

    freqs, mags = io.read_magnitude_trace(args.data)
    result = _call("fit_lorentzian")(freqs, mags)
    if args.out:
        _print_params(result)
    _emit_json(result.to_dict(), args.out)
    if args.plot:
        series = [("data", mags), ("fit", lorentzian_model(freqs, *result.params))]
        _plot(args.plot, freqs, series, "frequency (GHz)", "magnitude (dB)", "Lorentzian fit")
    return 0


def cmd_fit_rabi(args) -> int:
    from .fitters import rabi_model

    t, y = io.read_rabi_trace(args.data)
    result = _call("fit_rabi")(t, y)
    if args.out:
        _print_params(result)
        f_mhz = result.param("omega") / (2.0 * np.pi) * 1e3
        print(f"Rabi frequency = {f_mhz:.6g} MHz, decay T_R = {result.param('T_R'):.6g} ns")
    _emit_json(result.to_dict(), args.out)
    if args.plot:
        series = [("data", y), ("fit", rabi_model(t, *result.params))]
        _plot(args.plot, t, series, "time (ns)", "signal", "Rabi fit")
    return 0


def _solve_spectrum(cfg):
    from . import config as cfgmod

    params = cfgmod.qubit_params(cfg)
    solve = _call("transmon_levels" if params.is_transmon else "gatemon_levels")
    return params, solve(params, **cfgmod.solver_options(cfg, params))


def cmd_simulate_qubit(args) -> int:
    from . import config as cfgmod

    cfg = cfgmod.load_config(args.config)
    params, spectrum = _solve_spectrum(cfg)
    print(f"variant = {'transmon' if params.is_transmon else 'gatemon'}")
    print(f"f01 = {spectrum.f01:.6f} MHz")
    print(f"f12 = {spectrum.f12:.6f} MHz")
    print(f"alpha = {spectrum.alpha:.6f} MHz")
    if args.out:
        print(f"wrote {io.write_json(args.out, spectrum.to_dict())}")
    if args.plot:
        levels = spectrum.levels
        _plot(args.plot, np.arange(levels.size, dtype=float), [("E_k - E_0", levels - levels[0])],
              "level index", "energy (MHz)", "qubit spectrum")
    return 0


def cmd_simulate_cavity(args) -> int:
    from . import config as cfgmod
    from .spectra import te_mode_frequency

    cfg = cfgmod.load_config(args.config)
    geom = cfgmod.cavity_geometry(cfg)
    f_ghz = te_mode_frequency(geom)
    print(f"TE{geom.m}{geom.n}{geom.p} = {f_ghz:.9g} GHz")
    if args.out:
        size_mm = {"length_a": geom.length_a * 1e3, "width_b": geom.width_b * 1e3,
                   "height_d": geom.height_d * 1e3}
        payload = {"f_ghz": f_ghz, "mode": [geom.m, geom.n, geom.p], "geometry_mm": size_mm}
        print(f"wrote {io.write_json(args.out, payload)}")
    return 0


def _run_sweep(cfg, voltages=None):
    from . import config as cfgmod

    params = cfgmod.qubit_params(cfg)
    model = cfgmod.gate_model(cfg, params)
    system = cfgmod.dispersive_system(cfg)
    return _call("gate_sweep")(model, params, system, voltages=voltages,
                      solver_options=cfgmod.solver_options(cfg, params))


def _sweep_json(sweep) -> dict:
    keys = ("f_bare_ghz", "g_mhz", "kappa_mhz", "gamma_q_mhz")
    points = [{**dict(zip(sweep.CSV_COLUMNS, p)), "regime": p.regime} for p in sweep.points]
    return {**{k: getattr(sweep.system, k) for k in keys}, "points": points}


def cmd_sweep_gate(args) -> int:
    from . import config as cfgmod

    cfg = cfgmod.load_config(args.config)
    sweep = _run_sweep(cfg)
    regimes = Counter(p.regime for p in sweep.points)
    breakdown = ", ".join(f"{k}: {v}" for k, v in sorted(regimes.items()))
    print(f"{len(sweep.points)} gate points ({breakdown})")
    chi = sweep.column("chi_MHz")
    finite = chi[np.isfinite(chi)]
    if finite.size:
        print(f"chi range = [{finite.min():.6g}, {finite.max():.6g}] MHz")
    if args.out:
        print(f"wrote {io.write_sweep_csv(args.out, sweep)}")
    if args.json:
        print(f"wrote {io.write_json(args.json, _sweep_json(sweep))}")
    if args.plot:
        series = [
            ("f_C", sweep.column("f_C_GHz")),
            ("f_plus", sweep.column("f_plus_GHz")),
            ("f_minus", sweep.column("f_minus_GHz")),
            ("f_Q", sweep.column("f_Q_MHz") / 1e3),
        ]
        _plot(args.plot, sweep.column("V_G"), series, "V_G (V)", "frequency (GHz)", "gate sweep")
    return 0


def cmd_synth(args) -> int:
    from . import config as cfgmod

    cfg = cfgmod.load_config(args.config)
    spec = cfgmod.synth_spec(cfg)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    out = args.out or f"{spec.kind}.csv"
    # each kind writes its data and names its plot: (svgplot function,
    # arguments after the path)
    if spec.kind == "reflection_trace":
        trace = _call("synth_reflection")(spec)
        data = io.write_complex_trace(out, trace)
        plot = ("line_plot", trace.freqs_ghz, [("|S21|", np.abs(trace.values))],
                "frequency (GHz)", "|S21|", "synthetic reflection")
    elif spec.kind == "rabi_trace":
        t, y = _call("synth_rabi")(spec)
        data = io.write_rabi_trace(out, t, y)
        plot = ("line_plot", t, [("y", y)], "time (ns)", "signal", "synthetic Rabi trace")
    else:
        if spec.kind == "power_map":
            _, spectrum = _solve_spectrum(cfg)
            system = cfgmod.dispersive_system(cfg, qubit=spectrum)
            m = _call("synth_power_map")(spec, system)
        else:
            # evaluate the sweep on the map's own gate axis
            sweep = _run_sweep(cfg, voltages=spec.axis("v"))
            generator = "synth_gate_map" if spec.kind == "gate_map" else "synth_two_tone"
            m = _call(generator)(spec, sweep)
        data = io.write_map_csv(out, m)
        plot = ("heatmap", m.slow_values, m.fast_values, m.grid,
                m.fast_name, m.slow_name, f"synthetic {spec.kind}")
    print(f"wrote {data}")
    truth = args.truth or Path(out).with_suffix(".truth.json")
    print(f"wrote {io.write_json(truth, spec.to_dict())}")
    if args.plot:
        from . import svgplot

        draw, *plot_args = plot
        print(f"wrote {getattr(svgplot, draw)(args.plot, *plot_args)}")
    return 0


def cmd_pipeline(args) -> int:
    """Config-driven end-to-end run: cavity, qubit, sweep, synth, fit.

    The synthetic reflection trace is generated at the dispersive cavity
    frequency and refit; recovered Ql, Qc, f_r must land inside the
    configured tolerances or the run fails with exit code 2. Exceptions
    carry the label of the stage they interrupted.
    """
    from . import config as cfgmod
    from .coupling import dispersive_shift_two_level
    from .synth import SynthSpec

    cfg = cfgmod.load_config(args.config)
    opts = cfgmod.pipeline_options(cfg)
    tolerances = opts["tolerances"]
    seed = args.seed if args.seed is not None else opts["seed"]
    workdir = Path(args.workdir or ".")
    stages, checks, failures = [], [], []

    def stage(name, status, **details):
        stages.append({"name": name, "status": status, "details": details})
        mark = "ok" if status == "ok" else "FAIL"
        pretty = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in details.items())
        print(f"[{name}] {mark}: {pretty}")

    current = "cavity"
    error = None
    try:
        # the frequency the later stages use: f_bare_ghz, else the cavity mode
        stage("cavity", "ok", f_bare_ghz=cfgmod.dispersive_system(cfg).f_bare_ghz)

        current = "qubit"
        _, spectrum = _solve_spectrum(cfg)
        stage("qubit", "ok", f01_mhz=spectrum.f01, alpha_mhz=spectrum.alpha)

        current = "sweep"
        sweep = _run_sweep(cfg)
        sweep_csv = str(io.write_sweep_csv(workdir / "sweep.csv", sweep))
        io.write_json(workdir / "sweep.json", _sweep_json(sweep))
        n_disp = sum(p.regime == "dispersive" for p in sweep.points)
        stage("sweep", "ok", points=len(sweep.points), dispersive=n_disp, csv=sweep_csv)

        current = "synth"
        system = cfgmod.dispersive_system(cfg, qubit=spectrum)
        chi_mhz = dispersive_shift_two_level(system.g_mhz, system.delta_mhz)
        f_c = system.f_bare_ghz + chi_mhz / 1e3
        ql_true = f_c * 1e3 / system.kappa_mhz
        truth = {"a_re": 1.0, "a_im": 0.0, "ql": ql_true, "qc": 2.0 * ql_true,
                 "theta": 0.1, "f_r_ghz": f_c}
        span = 12.0 * system.kappa_mhz / 1e3
        if not np.all(np.diff(np.linspace(f_c - span, f_c + span, 401)) > 0):
            raise InputDataError(f"system kappa_mhz = {system.kappa_mhz:g} is too narrow to sample")
        spec = SynthSpec(kind="reflection_trace", seed=seed, snr_db=40.0, truth=truth,
                         grid={"f_min_ghz": f_c - span, "f_max_ghz": f_c + span, "n_f": 401})
        trace = _call("synth_reflection")(spec)
        io.write_complex_trace(workdir / "trace.csv", trace)
        io.write_json(workdir / "trace.truth.json", spec.to_dict())
        stage("synth", "ok", f_r_ghz=f_c, ql=ql_true, snr_db=40.0)

        current = "fit"
        fit = _call("fit_reflection")(trace)
        io.write_json(workdir / "fit.json", fit.to_dict())
        for name, err in (("ql_rel", abs(fit.ql - truth["ql"]) / truth["ql"]),
                          ("qc_rel", abs(fit.qc - truth["qc"]) / truth["qc"]),
                          ("f_r_mhz", abs(fit.f_r_ghz - truth["f_r_ghz"]) * 1e3)):
            tol = tolerances[name]
            ok = err <= tol
            checks.append({"name": name, "ok": ok, "deviation": err, "tolerance": tol})
            print(f"  {name}: {'ok' if ok else 'FAIL'} (deviation {err:.4g}, tolerance {tol:g})")
            if not ok:
                failures.append(f"{name}: deviation {err:.4g} exceeds tolerance {tol:g}")
        # failures holds only these checks: every earlier stage passed
        stage("fit", "fail" if failures else "ok", ql=fit.ql, qc=fit.qc,
              f_r_ghz=fit.f_r_ghz, qi=fit.qi)
    except (SolverError, InputDataError, ValueError) as exc:
        stage(current, "fail", error=str(exc))
        failures.append(f"{current}: {exc}")
        error = exc

    report = {"passed": not failures, "stages": stages, "checks": checks,
              "tolerances": tolerances, "failures": failures}
    print(f"wrote {io.write_json(workdir / 'report.json', report)}")
    print("FAIL: " + "; ".join(failures) if failures else "PASS")
    if isinstance(error, InputDataError):
        # a missing or malformed stage input exits 1, after the report is written
        raise InputDataError(f"pipeline stage {current}: {error}") from error
    if isinstance(error, ValueError):
        # main maps it as outside the pipeline: exit 1, or 2 for a LinAlgError
        raise error
    return 2 if failures else 0


_DATA = ("data", {"help": "input CSV file"})
_CONFIG = ("--config", {"required": True, "help": "YAML run configuration"})
_OUT = ("--out", {"help": "write the machine-readable result here"})
_SEED = ("--seed", {"type": int, "help": "override the configured seed"})
_FIT_PLOT = ("--plot", {"help": "write an SVG of data and fit"})

# verb: (handler, help, arguments in order)
VERBS = {
    "fit-resonator": (cmd_fit_resonator, "fit the complex reflection model", [
        _DATA, _OUT,
        ("--delay", {"action": "store_true", "help": "also fit a cable delay"}),
        ("--residuals", {"help": "write the complex fit residuals as CSV here"}),
        _FIT_PLOT]),
    "fit-lorentzian": (cmd_fit_lorentzian, "fit a Lorentzian dip", [_DATA, _OUT, _FIT_PLOT]),
    "fit-rabi": (cmd_fit_rabi, "fit a decaying Rabi oscillation", [_DATA, _OUT, _FIT_PLOT]),
    "simulate-qubit": (cmd_simulate_qubit, "solve the qubit spectrum", [
        _CONFIG, _OUT, ("--plot", {"help": "write an SVG of the level diagram"})]),
    "simulate-cavity": (cmd_simulate_cavity, "rectangular cavity mode frequency",
                        [_CONFIG, _OUT]),
    "sweep-gate": (cmd_sweep_gate, "sweep the gate and tabulate observables", [
        _CONFIG, _OUT, ("--json", {"help": "write the sweep as JSON here"}),
        ("--plot", {"help": "write an SVG of the sweep"})]),
    "synth": (cmd_synth, "generate synthetic data with a truth sidecar", [
        _CONFIG, _OUT, _SEED,
        ("--truth", {"help": "truth JSON path (default: out with .truth.json)"}),
        ("--plot", {"help": "write an SVG rendering"})]),
    "pipeline": (cmd_pipeline, "end-to-end run with tolerance checks", [
        _CONFIG, _SEED, ("--workdir", {"help": "artifact directory (default: current)"})]),
}


def build_parser(verbs=VERBS) -> argparse.ArgumentParser:
    """Every verb's subparser; those of ``verbs`` (default: all) get their
    arguments. The top-level help and usage name the verbs only."""
    parser = _Parser(prog="cqedkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in VERBS.items():
        p = sub.add_parser(name, help=help_text)
        if name in verbs:
            for flag, kwargs in arguments:
                p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top level takes no option values, so its command is the first
    # verb name in argv, if it names one: only that verb needs arguments
    parser = build_parser(verbs=[a for a in argv if a in VERBS][:1])
    args = parser.parse_args(argv)
    # a library warning prints as one line, as the errors below do; numpy's
    # floating-point and polyfit rank warnings (RuntimeWarnings) do not print
    saved, warnings.formatwarning = warnings.formatwarning, lambda msg, *_: f"warning: {msg}\n"
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return args.func(args)
    except InputDataError as exc:
        data = getattr(args, "data", None)  # the one file a fit verb reads
        named = data is None or data in str(exc)
        print(f"error: {exc}" if named else f"error: {data}: {exc}", file=sys.stderr)
        return 1
    except (SolverError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, but it is a failure of the solver, not the input
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid value: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = saved
