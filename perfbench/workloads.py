"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup``; ``op(i)`` is
one timed operation (the caller times it), ``work(i)`` its size in work
units, and ``record(i, result)`` checks its output outside the timed
region, returning (useful work units, failure message or None). Inputs
are cycled, so op ``i`` and op ``i + n_items`` see the same input; a
repeated input must give bit-identical output. ``finish`` completes the
untimed checks and returns (accuracy_err, problems, details).

A fitter raising one of cqedkit's documented ``FitError`` outcomes is a
useful-work miss (it lowers ``ok_frac``), not a failed op. An op fails
when it raises anything else, a CLI verb exits non-zero, or an output
breaks a check.

Only the standard library is imported at module level: the CLI session
imports nothing from cqedkit in its own process.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import golden

# errors below this relative size are below the f01 reference's own
# resolution, so they read as this floor rather than as rounding noise
F01_REL_RESOLUTION = 1e-10
F01_TOLERANCE_MHZ = 1e-6


def _lhs(rng, n: int, dims: int):
    """Latin-hypercube samples in [0, 1)^dims: each axis stratified in n bins."""
    import numpy as np

    u = np.empty((n, dims))
    for d in range(dims):
        u[:, d] = (rng.permutation(n) + rng.random(n)) / n
    return u


def _between(lo, hi, u):
    return lo + (hi - lo) * u


def _log_between(lo, hi, u):
    return 10.0 ** _between(math.log10(lo), math.log10(hi), u)


class Workload:
    name = ""
    cycle = 1          # ops per rotation; a run ends on a rotation boundary
    min_rotations = 1  # a run has at least this many rotations
    tail_pct = 50.0    # the percentile reported as op_ms_tail
    tracer = None      # set by the worker during the traced phase

    def setup(self, seed: int, root: Path, outdir: Path, traced: bool) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def work(self, i: int) -> int:
        return 1

    def record(self, i: int, result) -> tuple[int, str | None]:
        raise NotImplementedError

    def finish(self) -> tuple[float, list[str], dict]:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- fit_campaign ----------------------------------------------------------


@dataclass
class _FitItem:
    kind: str          # "plain", "delay" or "rabi"
    truth: dict
    data: tuple        # (trace,) or (t, y)


class FitCampaign(Workload):
    """Monte-Carlo fit campaign on traces synthesized in setup.

    Reflection draws use the parameter ranges and the per-trace seed
    formula of scripts/fitter_benchmark.py, Latin-hypercube stratified so
    that every seed sees the same spread of difficulty; SNR spans 12-40 dB.
    """

    name = "fit_campaign"
    n_items = 2000
    KINDS = ("plain", "plain", "delay", "plain", "plain", "rabi", "plain", "plain", "delay",
             "plain")
    cycle = len(KINDS)
    # p95 and above sit at or beyond the knee where delay fits start to
    # rescan (p97.5 is 2-6x p95), so the share of rescanning fits, which
    # swings from seed to seed, would set the tail; p90 is the delay-fit body
    tail_pct = 90.0

    def setup(self, seed, root, outdir, traced):
        import numpy as np
        from cqedkit import SynthSpec, errors, fitters, synth

        self.fitters, self.FitError, self.outdir = fitters, errors.FitError, outdir
        rng = np.random.default_rng([seed, 0])
        kinds = [self.KINDS[i % self.cycle] for i in range(self.n_items)]
        refl = [i for i, k in enumerate(kinds) if k != "rabi"]
        rabi = [i for i, k in enumerate(kinds) if k == "rabi"]
        self.items: list[_FitItem] = [None] * self.n_items
        u = _lhs(rng, len(refl), 7)
        for j, i in enumerate(refl):
            qc = _log_between(5e3, 1e5, u[j, 0])
            qi = qc * _log_between(0.3, 30.0, u[j, 1])
            ql = 1.0 / (1.0 / qi + 1.0 / qc)
            f_r = _between(4.0, 8.0, u[j, 2])
            fwhm = f_r / ql
            truth = {"a_re": 1.0, "a_im": 0.0, "ql": ql, "qc": qc,
                     "theta": _between(-0.4, 0.4, u[j, 3]), "f_r_ghz": f_r}
            if kinds[i] == "delay":
                # one to four phase turns of cable delay across the window
                turns = _between(1.0, 4.0, u[j, 5]) * (1 if u[j, 6] < 0.5 else -1)
                truth["tau_ns"] = turns / (20.0 * fwhm)
            spec = SynthSpec(kind="reflection_trace", seed=seed * 100003 + i,
                             snr_db=_between(12.0, 40.0, u[j, 4]), truth=truth,
                             grid={"f_min_ghz": f_r - 10 * fwhm, "f_max_ghz": f_r + 10 * fwhm,
                                   "n_f": 401})
            self.items[i] = _FitItem(kinds[i], truth, (synth.synth_reflection(spec),))
        u = _lhs(rng, len(rabi), 6)
        for j, i in enumerate(rabi):
            truth = {"A": 1.0, "T_R": _between(150.0, 800.0, u[j, 0]),
                     "omega": 2 * math.pi / _between(20.0, 60.0, u[j, 1]),
                     "B": _between(-math.pi, math.pi, u[j, 2]),
                     "a": _between(-5e-4, 5e-4, u[j, 3]), "b": _between(0.3, 0.7, u[j, 4])}
            spec = SynthSpec(kind="rabi_trace", seed=seed * 100003 + i,
                             snr_db=_between(15.0, 30.0, u[j, 5]), truth=truth,
                             grid={"t_max_ns": 1000.0, "n_t": 501})
            self.items[i] = _FitItem("rabi", truth, synth.synth_rabi(spec))
        self.first: list = [None] * self.n_items
        self.ql_err: dict[int, float] = {}
        self.omega_err: dict[int, float] = {}
        self.fit_errors: dict[str, int] = {}

    def op(self, i):
        item = self.items[i % self.n_items]
        try:
            if item.kind == "rabi":
                return self.fitters.fit_rabi(*item.data)
            return self.fitters.fit_reflection(item.data[0], delay=item.kind == "delay")
        except Exception as exc:  # classified in record()
            return exc

    def record(self, i, result):
        j = i % self.n_items
        item = self.items[j]
        if isinstance(result, Exception):
            if not isinstance(result, self.FitError):
                return 0, f"fit_campaign item {j}: {type(result).__name__}: {result}"
            signature, useful = ("raised", type(result).__name__), 0
        elif item.kind == "rabi":
            signature, useful = tuple(result.params.tolist()), 1
        else:
            signature, useful = (result.ql, result.qc, result.f_r_ghz, result.theta,
                                 result.a, result.tau_ns), 1
        if self.first[j] is None:
            self.first[j] = signature
            if not useful:
                self.fit_errors[signature[1]] = self.fit_errors.get(signature[1], 0) + 1
            elif item.kind == "rabi":
                self.omega_err[j] = abs(result.param("omega") / item.truth["omega"] - 1.0)
            else:
                self.ql_err[j] = abs(result.ql - item.truth["ql"]) / item.truth["ql"]
        elif signature != self.first[j]:
            return useful, f"fit_campaign item {j}: repeated fit differs from its first result"
        return useful, None

    def finish(self):
        problems = []
        for j in range(self.n_items):
            if self.first[j] is None:
                _, failure = self.record(j, self.op(j))
                if failure:
                    problems.append(failure)
        accuracy = statistics.median(self.ql_err.values())
        useful = (len(self.ql_err) + len(self.omega_err)) / self.n_items
        omega = statistics.median(self.omega_err.values())
        if accuracy > 0.05:
            problems.append(f"fit_campaign: median |Ql - truth|/truth {accuracy:.3g} > 0.05")
        if omega > 1e-2:
            problems.append(f"fit_campaign: median Rabi omega error {omega:.3g} > 1e-2")
        if useful < 0.8:
            problems.append(f"fit_campaign: only {useful:.3f} of the first pass converged")
        files, values = golden.artifacts(self.name, self.outdir)
        problems += golden.compare(self.name, files, values)
        details = {"items": self.n_items, "first_pass_ok_frac": useful,
                   "rabi_omega_err_median": omega, "fit_errors": self.fit_errors}
        return accuracy, problems, details


# -- gate_sweep ------------------------------------------------------------


class GateSweep(Workload):
    """Gate sweeps with the refinement check on, as users run them.

    Two of every three devices are single-channel gatemons whose profile
    crosses the cavity, so pinch-off, dispersive and hybridized points all
    occur; the third is a transmon sweep shaped like configs/pipeline.yaml,
    which keeps the tridiagonal solver next to the dense one.
    """

    name = "gate_sweep"
    KINDS = ("gatemon", "gatemon", "transmon")
    cycle = len(KINDS)
    n_items = 30
    n_verified = 6
    tail_pct = 75.0

    def setup(self, seed, root, outdir, traced):
        import numpy as np
        from cqedkit import DispersiveSystem, QubitParams, coupling, nanowire_profile

        self.coupling, self.outdir = coupling, outdir
        self.devices = []
        for i in range(self.n_items):
            rng = np.random.default_rng([seed, i])
            kind = self.KINDS[i % self.cycle]
            if kind == "gatemon":
                params = QubitParams(ec=rng.uniform(200.0, 300.0), gap=rng.uniform(50e3, 70e3),
                                     transmissions=(1.0,))
                model = nanowire_profile(seed=seed * 1000 + i, v_min=-2.0, v_max=10.0, n=17,
                                         v_pinch=0.0, max_value=rng.uniform(0.85, 1.0),
                                         maps_to="transmission")
            else:
                params = QubitParams(ec=rng.uniform(170.0, 210.0), ej=9500.0)
                model = nanowire_profile(seed=seed * 1000 + i, v_min=-2.0, v_max=10.0, n=41,
                                         v_pinch=0.0, max_value=rng.uniform(15000.0, 25000.0),
                                         maps_to="ej")
            system = DispersiveSystem(f_bare_ghz=rng.uniform(5.40, 5.48),
                                      g_mhz=rng.uniform(80.0, 120.0), kappa_mhz=1.2,
                                      gamma_q_mhz=0.3)
            self.devices.append((model, params, system))
        self.first: list = [None] * self.n_items
        self.regimes: dict[str, int] = {}

    def op(self, i):
        model, params, system = self.devices[i % self.n_items]
        return self.coupling.gate_sweep(model, params, system)

    def work(self, i):
        return self.devices[i % self.n_items][0].voltages.size

    def record(self, i, result):
        j = i % self.n_items
        cols = ("f_Q_MHz", "chi_MHz", "f_C_GHz", "f_plus_GHz", "f_minus_GHz")
        signature = b"".join(result.column(c).tobytes() for c in cols)
        if self.first[j] is None:
            self.first[j] = signature
            for p in result.points:
                self.regimes[p.regime] = self.regimes.get(p.regime, 0) + 1
            if j < self.n_verified:
                _, problem = self._verify(self.devices[j], result)
                if problem:
                    return 0, f"gate_sweep device {j}: {problem}"
        elif signature != self.first[j]:
            return 0, f"gate_sweep device {j}: repeated sweep differs from its first result"
        return self.work(i), None

    def _verify(self, device, sweep):
        """Max relative f01 error against the reference, and any problem."""
        import refs

        model, params, system = device
        worst = 0.0
        for p in sweep.points:
            value = float(model(p.vg))
            if value <= 0.0:
                want_f01 = math.nan
            elif params.is_transmon:
                want_f01 = refs.transmon_f01(params.ec, value, params.ng)
            else:
                want_f01 = refs.gatemon_f01(params.ec, params.gap, (value,), params.ng)
            want_regime = refs.regime(system.f_bare_ghz, system.g_mhz, want_f01)
            if p.regime != want_regime:
                return worst, f"V_G = {p.vg:g}: regime {p.regime}, reference {want_regime}"
            if want_regime == "pinch_off":
                continue
            err = abs(p.f_q_mhz - want_f01)
            if err > F01_TOLERANCE_MHZ:
                return worst, f"V_G = {p.vg:g}: f01 off the reference by {err:.3g} MHz"
            worst = max(worst, err / want_f01)
        return worst, None

    def roadmap_sweep_seconds(self) -> float:
        """Wall time of the ROADMAP's 61-point gatemon sweep (profile seed 3)."""
        from cqedkit import DispersiveSystem, QubitParams, nanowire_profile

        model = nanowire_profile(seed=3, v_min=-2.0, v_max=10.0, n=61, v_pinch=0.0,
                                 max_value=1.0, maps_to="transmission")
        params = QubitParams(ec=250.0, gap=60000.0, transmissions=(1.0,))
        system = DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0, kappa_mhz=1.2, gamma_q_mhz=0.3)
        t0 = time.perf_counter()
        self.coupling.gate_sweep(model, params, system)
        return time.perf_counter() - t0

    def finish(self):
        problems = []
        accuracy = F01_REL_RESOLUTION
        for name, device in golden.check_devices().items():
            worst, problem = self._verify(device, self.coupling.gate_sweep(*device))
            if problem:
                problems.append(f"gate_sweep check device {name}: {problem}")
            accuracy = max(accuracy, worst)
        files, values = golden.artifacts(self.name, self.outdir)
        problems += golden.compare(self.name, files, values)
        return accuracy, problems, {"devices": self.n_items, "regimes": self.regimes}


# -- map_roundtrip ---------------------------------------------------------


class MapRoundtrip(Workload):
    """Seeded maps through synth -> write_map_csv -> read_map_csv -> analysis.

    Power-map rows are |S21| of the theta = 0 reflection model, so |S21|^2
    is exactly Lorentzian; each row is fit with fit_lorentzian and scored
    against power_dependence. Gate and two-tone maps use sweeps solved
    once in setup; two-tone maps are background-subtracted after reading.
    """

    name = "map_roundtrip"
    KINDS = ("power_map", "gate_map", "two_tone_map", "power_map")
    COLS = (1201, 601, 901, 301)
    GENERATORS = {"power_map": "synth_power_map", "gate_map": "synth_gate_map",
                  "two_tone_map": "synth_two_tone"}
    cycle = len(KINDS)
    n_items = 24
    # the top quarter of ops are the 1201-column power maps; p80 sits in
    # that group, away from the step down to the next-largest kind
    tail_pct = 80.0

    def setup(self, seed, root, outdir, traced):
        import numpy as np
        from cqedkit import (
            DispersiveSystem, QubitParams, SynthSpec, coupling, errors, fitters, io,
            nanowire_profile, spectra, synth,
        )

        self.np, self.synth, self.io, self.fitters = np, synth, io, fitters
        self.FitError, self.outdir = errors.FitError, outdir
        rng = np.random.default_rng([seed, 0])
        per_slot = self.n_items // self.cycle
        # every seed gets the same row counts, so the op mix does not swing
        # with the seed; the seed decides which map gets how many
        rows = [rng.permutation(np.linspace(20, 160, per_slot).astype(int))
                for _ in range(self.cycle)]
        self.items = []
        for i in range(self.n_items):
            slot, turn = i % self.cycle, i // self.cycle
            kind, cols, n_rows = self.KINDS[slot], self.COLS[slot], int(rows[slot][turn])
            item_rng = np.random.default_rng([seed, i + 1])
            params = QubitParams(ec=item_rng.uniform(170.0, 210.0),
                                 ej=item_rng.uniform(8000.0, 12000.0))
            f_bare = item_rng.uniform(5.40, 5.48)
            if kind == "power_map":
                # linewidth, SNR and depth as in configs/synth_power_map.yaml:
                # with them fixed, the row-fit error has the same scale in
                # every map and its median is steady from seed to seed
                system = DispersiveSystem(f_bare_ghz=f_bare, g_mhz=item_rng.uniform(60.0, 110.0),
                                          qubit=spectra.transmon_levels(params), kappa_mhz=1.2,
                                          gamma_q_mhz=item_rng.uniform(0.1, 0.5))
                chi_ghz = system.g_mhz**2 / system.delta_mhz / 1e3
                pad = 8 * system.kappa_mhz / 1e3
                spec = SynthSpec(kind=kind, seed=seed * 1000 + i, snr_db=35.0,
                                 truth={"depth": 0.8, "baseline": 1.0, "attenuation_db": 0.0},
                                 grid={"f_min_ghz": f_bare + min(chi_ghz, 0.0) - pad,
                                       "f_max_ghz": f_bare + max(chi_ghz, 0.0) + pad,
                                       "n_f": cols, "p_min_dbm": -150.0, "p_max_dbm": -105.0,
                                       "n_p": n_rows})
                reference = coupling.power_dependence(system, spec.axis("p"))
                self.items.append((spec, system, reference))
                continue
            system = DispersiveSystem(f_bare_ghz=f_bare, g_mhz=item_rng.uniform(60.0, 110.0),
                                      kappa_mhz=item_rng.uniform(0.8, 1.6),
                                      gamma_q_mhz=item_rng.uniform(0.1, 0.5))
            model = nanowire_profile(seed=seed * 1000 + i, v_min=-2.0, v_max=10.0, n=41,
                                     v_pinch=0.0, max_value=item_rng.uniform(15000.0, 25000.0))
            grid = {"v_min": -2.0, "v_max": 10.0, "n_v": n_rows, "n_f": cols}
            if kind == "gate_map":
                truth = {"depth": item_rng.uniform(0.6, 0.9), "baseline": 1.0}
                grid.update(f_min_ghz=f_bare - 0.14, f_max_ghz=f_bare + 0.14)
            else:
                truth = {"depth": 0.5, "baseline": 1.0, "fwhm_mhz": item_rng.uniform(5.0, 10.0),
                         "two_photon": True, "alpha_mhz": spectra.transmon_levels(params).alpha,
                         "background_amp": item_rng.uniform(0.0, 0.05),
                         "background_period_ghz": 1.3}
                grid.update(f_min_ghz=2.0, f_max_ghz=5.6)
            spec = SynthSpec(kind=kind, seed=seed * 1000 + i, snr_db=item_rng.uniform(30.0, 40.0),
                             truth=truth, grid=grid)
            sweep = coupling.gate_sweep(model, params, system, voltages=spec.axis("v"))
            self.items.append((spec, sweep, None))
        self.first: list = [None] * self.n_items
        self.f0_err: list[float] = []
        self.row_fit_errors = 0

    def op(self, i):
        spec, arg, _ = self.items[i % self.n_items]
        m = getattr(self.synth, self.GENERATORS[spec.kind])(spec, arg)
        path = self.io.write_map_csv(self.outdir / f"{spec.kind}.csv", m)
        back = self.io.read_map_csv(path)
        if spec.kind == "power_map":
            fits = []
            for row in back.grid:
                try:
                    fits.append(self.fitters.fit_lorentzian(back.fast_values, row**2))
                except self.FitError as exc:
                    fits.append(exc)
            return m, path, back, fits
        if spec.kind == "two_tone_map":
            return m, path, back, self.fitters.subtract_background(back.grid, axis=0)
        return m, path, back, None

    def work(self, i):
        grid = self.items[i % self.n_items][0].grid
        return int(grid.get("n_p", grid.get("n_v")))

    def record(self, i, result):
        np = self.np
        j = i % self.n_items
        spec, arg, reference = self.items[j]
        m, path, back, analysis = result
        if not (np.array_equal(m.grid, back.grid) and np.array_equal(m.fast_values, back.fast_values)
                and np.array_equal(m.slow_values, back.slow_values)):
            return 0, f"map_roundtrip item {j} ({spec.kind}): map read back differs from the one written"
        useful = m.grid.shape[0]
        f0 = ()
        if spec.kind == "power_map":
            f0 = tuple(math.nan if isinstance(f, Exception) else f.param("f0") for f in analysis)
            useful -= sum(math.isnan(x) for x in f0)
        elif spec.kind == "two_tone_map":
            if not np.allclose(np.median(analysis, axis=0), 0.0, atol=1e-12):
                return 0, f"map_roundtrip item {j}: background subtraction left a column offset"
        signature = (golden.sha256(path), f0)
        if self.first[j] is None:
            self.first[j] = signature
            if spec.kind == "power_map":
                self.row_fit_errors += m.grid.shape[0] - useful
                self.f0_err += [abs(x - ref) / ref for x, ref in zip(f0, reference)
                                if not math.isnan(x)]
        elif signature != self.first[j]:
            return 0, f"map_roundtrip item {j}: repeated map differs from its first result"
        return useful, None

    def finish(self):
        problems = []
        for j in range(self.n_items):
            if self.first[j] is None:
                _, failure = self.record(j, self.op(j))
                if failure:
                    problems.append(failure)
        accuracy = statistics.median(self.f0_err)
        # a line centre more than a tenth of the narrowest linewidth
        # (0.8 MHz at ~5.4 GHz) off the model is a wrong answer
        if accuracy > 0.08e-3 / 5.4:
            problems.append(f"map_roundtrip: median |f0 - f_C(P)|/f_C(P) {accuracy:.3g} too large")
        files, values = golden.artifacts(self.name, self.outdir)
        problems += golden.compare(self.name, files, values)
        details = {"maps": self.n_items, "power_rows_fit": len(self.f0_err),
                   "row_fit_errors": self.row_fit_errors}
        return accuracy, problems, details


# -- cli_session -----------------------------------------------------------


@dataclass
class _Verb:
    label: str
    argv: list
    files: list = field(default_factory=list)    # outputs with golden hashes
    values: list = field(default_factory=list)   # JSON outputs with golden values


class CliSession(Workload):
    """Fresh `python -m cqedkit <verb>` processes on the shipped configs.

    Every verb runs in each session: synth for all five kinds first (the
    fit verbs read their outputs), then the rest in a seeded order, with
    seeded --plot flags. A rotation is one whole session, so every verb
    counts in each rate, and a run has at least two. It is the only
    workload where import and config loading sit on the critical path.
    """

    name = "cli_session"
    n_sessions = 8
    min_rotations = 2
    # two sessions are 28 verbs: p60 has eleven beyond it
    tail_pct = 60.0
    PLOTTABLE = ("synth-reflection", "synth-two-tone", "fit-resonator", "fit-resonator-delay",
                 "fit-rabi", "fit-lorentzian", "simulate-qubit-gatemon", "sweep-gate")

    def setup(self, seed, root, outdir, traced):
        rng = random.Random(seed)
        self.root, self.workdir = root, outdir / "cli"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.lorentz_truth = self._write_magnitude_trace(rng, self.workdir / "mag.csv")
        self.session = self._session(root / "configs", self.workdir)
        self.cycle = len(self.session)
        self.plan: list[_Verb] = []
        for _ in range(self.n_sessions):
            synth_verbs = [v for v in self.session if v.argv[0] == "synth"]
            others = [v for v in self.session if v.argv[0] != "synth"]
            rng.shuffle(synth_verbs)
            rng.shuffle(others)
            for v in synth_verbs + others:
                argv = list(v.argv)
                if v.label in self.PLOTTABLE and rng.random() < 0.5:
                    argv += ["--plot", str(self.workdir / f"{v.label}.svg")]
                self.plan.append(_Verb(v.label, argv, v.files, v.values))
        self.golden = None
        self.env = None
        self.main = None
        if traced:
            # the traced run calls cqedkit.cli.main in this process
            import cqedkit.cli

            self.main = cqedkit.cli.main
        self.deviations: dict[str, float] = {}
        self.ran: set[str] = set()
        self.verb_rss_kb = 0

    @staticmethod
    def _session(cfg: Path, d: Path) -> list:
        def out(name):
            return str(d / name)

        return [
            _Verb("synth-reflection", ["synth", "--config", str(cfg / "synth_reflection.yaml"),
                                       "--out", out("refl.csv")],
                  files=["refl.csv", "refl.truth.json"]),
            _Verb("synth-rabi", ["synth", "--config", str(cfg / "synth_rabi.yaml"),
                                 "--out", out("rabi.csv")],
                  files=["rabi.csv", "rabi.truth.json"]),
            _Verb("synth-power-map", ["synth", "--config", str(cfg / "synth_power_map.yaml"),
                                      "--out", out("power.csv")],
                  files=["power.csv", "power.truth.json"]),
            _Verb("synth-gate-map", ["synth", "--config", str(cfg / "synth_gate_map.yaml"),
                                     "--out", out("gate.csv")],
                  files=["gate.csv", "gate.truth.json"]),
            _Verb("synth-two-tone", ["synth", "--config", str(cfg / "synth_two_tone.yaml"),
                                     "--out", out("two_tone.csv")],
                  files=["two_tone.csv", "two_tone.truth.json"]),
            _Verb("fit-resonator", ["fit-resonator", out("refl.csv"), "--out", out("fit_refl.json")],
                  values=["fit_refl.json"]),
            _Verb("fit-resonator-delay", ["fit-resonator", out("refl.csv"), "--delay",
                                          "--out", out("fit_refl_delay.json")],
                  values=["fit_refl_delay.json"]),
            _Verb("fit-lorentzian", ["fit-lorentzian", out("mag.csv"), "--out", out("fit_lor.json")]),
            _Verb("fit-rabi", ["fit-rabi", out("rabi.csv"), "--out", out("fit_rabi.json")],
                  values=["fit_rabi.json"]),
            _Verb("simulate-qubit-gatemon", ["simulate-qubit", "--config", str(cfg / "gatemon.yaml"),
                                             "--out", out("qubit_gatemon.json")],
                  values=["qubit_gatemon.json"]),
            _Verb("simulate-qubit-transmon", ["simulate-qubit", "--config",
                                              str(cfg / "pipeline.yaml"),
                                              "--out", out("qubit_transmon.json")],
                  values=["qubit_transmon.json"]),
            _Verb("simulate-cavity", ["simulate-cavity", "--config", str(cfg / "pipeline.yaml"),
                                      "--out", out("cavity.json")],
                  values=["cavity.json"]),
            _Verb("sweep-gate", ["sweep-gate", "--config", str(cfg / "synth_gate_map.yaml"),
                                 "--out", out("sweep.csv"), "--json", out("sweep.json")],
                  files=["sweep.csv"], values=["sweep.json"]),
            _Verb("pipeline", ["pipeline", "--config", str(cfg / "pipeline.yaml"),
                               "--workdir", out("pipe")],
                  files=["pipe/sweep.csv", "pipe/trace.csv", "pipe/trace.truth.json"],
                  values=["pipe/sweep.json", "pipe/fit.json"]),
        ]

    @staticmethod
    def _write_magnitude_trace(rng: random.Random, path: Path) -> dict:
        """A seeded Lorentzian dip in dB for fit-lorentzian; returns its truth."""
        f0 = rng.uniform(5.43, 5.45)
        fwhm = rng.uniform(2e-3, 6e-3)
        depth = rng.uniform(8.0, 20.0)
        offset = rng.uniform(-3.0, 0.0)
        noise = rng.uniform(0.05, 0.2)
        lines = ["freq_ghz,mag_db"]
        for k in range(401):
            f = 5.40 + 0.08 * k / 400
            y = offset - depth * (fwhm / 2) ** 2 / ((f - f0) ** 2 + (fwhm / 2) ** 2)
            lines.append(f"{f!r},{y + rng.gauss(0.0, noise)!r}")
        path.write_text("\n".join(lines) + "\n")
        return {"f0": f0, "fwhm": fwhm}

    def op(self, i):
        argv = self.plan[i % len(self.plan)].argv
        if self.main is not None:
            with contextlib.redirect_stdout(stdio.StringIO()):
                if self.tracer is not None:
                    return self.tracer.timed_call(f"cli.{argv[0]}", self.main, argv)
                return self.main(argv)
        if self.env is None:
            src = str(self.root / "src")
            self.env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
            self.env.pop("CQEDKIT_OUTDIR", None)
        proc = subprocess.Popen([sys.executable, "-m", "cqedkit", *argv], cwd=self.root,
                                env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                text=True)
        with proc.stderr:
            stderr = proc.stderr.read()
        # wait4 gives this verb's own peak RSS, not that of every child so far
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, stderr, usage.ru_maxrss

    def record(self, i, result):
        verb = self.plan[i % len(self.plan)]
        self.ran.add(verb.label)
        rc, stderr, rss_kb = result if isinstance(result, tuple) else (result, "", 0)
        self.verb_rss_kb = max(self.verb_rss_kb, rss_kb)
        if rc != 0:
            return 0, f"cli_session verb {verb.label} exited {rc}: {stderr.strip()[-300:]}"
        d = self.workdir
        files = {name: d / name for name in verb.files}
        values = {name: golden.flatten(json.loads((d / name).read_text())) for name in verb.values}
        if self.golden is None:
            self.golden = golden.load()
        problems = golden.compare(self.name, files, values, self.golden)
        if problems:
            return 0, "; ".join(problems)
        if verb.label == "fit-lorentzian":
            fit = json.loads((d / "fit_lor.json").read_text())["params"]
            t = self.lorentz_truth
            if abs(fit["f0"] - t["f0"]) > 0.1 * t["fwhm"]:
                return 0, f"cli_session fit-lorentzian: f0 {fit['f0']!r} far from truth {t['f0']!r}"
        elif verb.label in ("fit-resonator", "pipeline"):
            fit_name, truth_name = {"fit-resonator": ("fit_refl.json", "refl.truth.json"),
                                    "pipeline": ("pipe/fit.json", "pipe/trace.truth.json")}[verb.label]
            fit = json.loads((d / fit_name).read_text())["params"]
            truth = json.loads((d / truth_name).read_text())["truth"]
            for key in ("ql", "qc", "f_r_ghz"):
                dev = abs(fit[key] - truth[key]) / abs(truth[key])
                self.deviations[f"{verb.label}.{key}"] = dev
        return 1, None

    def finish(self):
        problems = []
        # a run too short to finish the first session finishes it here, so
        # that every verb is checked and both scored verbs count
        for i in range(len(self.session)):
            if self.plan[i].label not in self.ran:
                _, failure = self.record(i, self.op(i))
                if failure:
                    problems.append(failure)
        if not self.deviations:
            return math.nan, problems, {}
        accuracy = max(self.deviations.values())
        if accuracy > 0.05:
            problems.append(f"cli_session: fit deviation from the truth sidecar {accuracy:.3g} > 0.05")
        return accuracy, problems, {"verbs_per_session": len(self.session),
                                    "deviations": self.deviations}

    def peak_rss_kb(self):
        """The largest verb process's peak RSS."""
        return self.verb_rss_kb


WORKLOADS = {w.name: w for w in (FitCampaign, GateSweep, MapRoundtrip, CliSession)}
