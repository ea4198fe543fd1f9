"""Thirteen numbered acceptance criteria for the toolkit, one test each.

Every test prints a single PASS/FAIL line with the measured numbers; run
with ``pytest tests/test_acceptance.py -v -s`` to see all thirteen lines.
Criteria with a runtime budget time themselves and fail if they blow it.
"""

import hashlib
import math
import time

import numpy as np

from cqedkit import (
    CavityGeometry,
    DispersiveSystem,
    QubitParams,
    SweepPoint,
    SweepResult,
    SynthSpec,
    anti_crossing,
    derive_qi,
    dispersive_shift_two_level,
    fit_lorentzian,
    fit_rabi,
    fit_reflection,
    gatemon_levels,
    infer_transmission,
    lm_minimize,
    lorentzian_model,
    numeric_jacobian,
    synth_rabi,
    synth_reflection,
    synth_two_tone,
    te_mode_frequency,
    transmon_levels,
)
from cqedkit.cli import main

EC = 190.0


def _report(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_internal_q_from_loaded_and_coupling():
    qi = derive_qi(6740.0, 7360.0)
    _report(1, 75_000.0 <= qi <= 85_000.0,
            f"Qi(6740, 7360) = {qi:.1f}, band [75000, 85000]")


def test_criterion_02_te101_frequency():
    f = te_mode_frequency(CavityGeometry(0.070, 0.005, 0.030))
    rel = abs(f - 5.443) / 5.443
    _report(2, rel < 0.005,
            f"TE101 = {f:.6f} GHz, {100 * rel:.3f}% from 5.443")


def test_criterion_03_resonator_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    converged = 0
    for i in range(100):
        qc = 10 ** rng.uniform(math.log10(5e3), math.log10(1e5))
        qi = qc * 10 ** rng.uniform(math.log10(0.7), 1.0)
        ql = 1.0 / (1.0 / qi + 1.0 / qc)
        theta = rng.uniform(-0.4, 0.4)
        f_r = rng.uniform(4.0, 8.0)
        fwhm = f_r / ql
        spec = SynthSpec(
            kind="reflection_trace", seed=i, snr_db=30.0,
            truth={"a_re": 1.0, "a_im": 0.0, "ql": ql, "qc": qc,
                   "theta": theta, "f_r_ghz": f_r},
            grid={"f_min_ghz": f_r - 8 * fwhm, "f_max_ghz": f_r + 8 * fwhm,
                  "n_f": 1601},
        )
        fit = fit_reflection(synth_reflection(spec))
        converged += fit.fit.converged
        worst = max(worst, abs(fit.ql / ql - 1.0), abs(fit.qc / qc - 1.0),
                    abs(fit.f_r_ghz / f_r - 1.0))
    elapsed = time.perf_counter() - t0
    _report(3, worst <= 0.02 and converged == 100 and elapsed < 10.0,
            f"worst rel err {100 * worst:.2f}% (limit 2%), "
            f"{converged}/100 converged, {elapsed:.2f} s")


def test_criterion_04_device_regression_internal_q():
    qi_t, qc_t = 27_000.0, 7270.0
    ql_t = 1.0 / (1.0 / qi_t + 1.0 / qc_t)
    fwhm = 5.2816 / ql_t
    spec = SynthSpec(
        kind="reflection_trace", seed=1, snr_db=40.0,
        truth={"a_re": 1.0, "a_im": 0.0, "ql": ql_t, "qc": qc_t,
               "theta": 0.1, "f_r_ghz": 5.2816},
        grid={"f_min_ghz": 5.2816 - 8 * fwhm, "f_max_ghz": 5.2816 + 8 * fwhm,
              "n_f": 1201},
    )
    fit = fit_reflection(synth_reflection(spec))
    _report(4, 26_000.0 <= fit.qi <= 28_000.0,
            f"fitted Qi = {fit.qi:.1f}, band [26000, 28000]")


def test_criterion_05_transmon_square_root_asymptotics():
    t0 = time.perf_counter()
    worst = 0.0
    for ratio in (30.0, 50.0, 100.0):
        ej = ratio * EC
        s = transmon_levels(QubitParams(ec=EC, ej=ej))
        approx = math.sqrt(8.0 * ej * EC) - EC
        worst = max(worst, abs(s.f01 - approx) / s.f01)
    elapsed = time.perf_counter() - t0
    _report(5, worst < 0.01 and elapsed < 1.0,
            f"worst |f01 - asymptote|/f01 = {100 * worst:.3f}% "
            f"over EJ/EC in (30, 50, 100), {elapsed:.2f} s")


def test_criterion_06_gatemon_anharmonicity_band():
    # the band endpoints are deep-transmon statements, so each endpoint
    # run must keep EJ_eff = gap*T/4 large relative to EC: a huge gap at
    # T = 0.01 (EJ_eff/EC = 2000) and gap = 240*EC at T = 1 (EJ_eff/EC = 60)
    t0 = time.perf_counter()
    lo = gatemon_levels(QubitParams(ec=EC, gap=1.52e8, transmissions=(0.01,)))
    hi = gatemon_levels(QubitParams(ec=EC, gap=240.0 * EC, transmissions=(1.0,)))
    err_lo = abs(lo.alpha + EC) / EC
    err_hi = abs(hi.alpha + EC / 4.0) / (EC / 4.0)
    alphas = [
        gatemon_levels(QubitParams(ec=EC, gap=50.0 * EC, transmissions=(t,))).alpha
        for t in np.linspace(0.01, 1.0, 21)
    ]
    monotone = bool(np.all(np.diff(alphas) > 0.0))
    elapsed = time.perf_counter() - t0
    _report(6, err_lo < 0.02 and err_hi < 0.10 and monotone and elapsed < 5.0,
            f"alpha(T=0.01) = {lo.alpha:.2f} ({100 * err_lo:.2f}% from -EC), "
            f"alpha(T=1) = {hi.alpha:.2f} ({100 * err_hi:.2f}% from -EC/4), "
            f"monotone in T: {monotone}, {elapsed:.2f} s")


def test_criterion_07_transmission_inference_round_trip():
    t0 = time.perf_counter()
    gap = 240.0 * EC
    t = infer_transmission(-172.0, EC, gap)
    alpha = gatemon_levels(QubitParams(ec=EC, gap=gap, transmissions=(t,))).alpha
    elapsed = time.perf_counter() - t0
    _report(7, 0.0 < t < 1.0 and abs(alpha + 172.0) <= 1.0 and elapsed < 5.0,
            f"T = {t:.6f}, re-solved alpha = {alpha:.3f} MHz "
            f"(target -172 +- 1), {elapsed:.2f} s")


def test_criterion_08_dispersive_shift_inversion():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        g = rng.uniform(1.0, 300.0)
        # keep every draw in the dispersive regime |delta| >= 10 g
        delta = float(rng.choice((-1.0, 1.0))) * rng.uniform(10.0 * g, 8000.0)
        chi = dispersive_shift_two_level(g, delta)
        # chi = g^2/delta inverts to g = sqrt(chi * delta)
        worst = max(worst, abs(math.sqrt(chi * delta) / g - 1.0))
    deltas = (1100.0, 1837.0, 2500.0, 4000.0)
    g_back = [math.sqrt(dispersive_shift_two_level(100.0, d) * d) for d in deltas]
    recovered = all(abs(g / 100.0 - 1.0) <= 1e-12 for g in g_back)
    _report(8, worst <= 1e-12 and recovered,
            f"worst round-trip rel err {worst:.2e} over 1000 draws, "
            f"g = 100 MHz recovered from {len(deltas)} shift/detuning pairs")


def test_criterion_09_anti_crossing_identities():
    f_bare, g = 5.443, 100.0
    f_q = np.linspace(f_bare - 0.2, f_bare + 0.2, 401)
    pairs = np.array([anti_crossing(f_bare, fq, g) for fq in f_q])
    splits = pairs[:, 0] - pairs[:, 1]
    min_split = float(splits.min())
    split_err = abs(min_split - 2.0 * g / 1e3) / (2.0 * g / 1e3)
    trace_err = float(np.max(np.abs(pairs.sum(axis=1) - (f_bare + f_q))
                             / (f_bare + f_q)))
    on_resonance = int(np.argmin(splits)) == f_q.size // 2
    _report(9, split_err <= 1e-10 and on_resonance and trace_err <= 1e-14,
            f"min splitting {1e3 * min_split:.6f} MHz vs 2g = 200 "
            f"(rel err {split_err:.2e}) at resonance, "
            f"branch-sum identity rel err {trace_err:.2e}")


def test_criterion_10_rabi_round_trip():
    t0 = time.perf_counter()
    truth = {"A": 1.0, "T_R": 260.0, "omega": 2.0 * math.pi / 32.0,
             "B": 0.3, "a": -0.0002, "b": 0.1}
    hits = 0
    for seed in range(100):
        spec = SynthSpec(kind="rabi_trace", seed=seed, snr_db=20.0,
                         truth=truth, grid={"t_max_ns": 1000.0, "n_t": 251})
        fit = fit_rabi(*synth_rabi(spec))
        hits += abs(fit.param("T_R") - 260.0) <= 60.0
    elapsed = time.perf_counter() - t0
    _report(10, hits >= 95 and elapsed < 10.0,
            f"{hits}/100 seeds recover T_R = 260 within +-60 ns "
            f"(need >= 95), {elapsed:.2f} s")


def test_criterion_11_lorentzian_round_trip():
    f = np.linspace(4790.0, 5210.0, 841)
    clean = lorentzian_model(f, 5000.0, 21.0, 0.8, 1.0)
    # noise 20 dB below the unit baseline level
    y = clean + np.random.default_rng(5).normal(0.0, 0.1, f.size)
    fit = fit_lorentzian(f, y)
    err = abs(fit.param("fwhm") - 21.0) / 21.0
    _report(11, err < 0.10,
            f"fitted FWHM = {fit.param('fwhm'):.3f} MHz vs 21 "
            f"({100 * err:.2f}% off, limit 10%)")


def test_criterion_12_two_tone_dip_spacing():
    t0 = time.perf_counter()
    alpha = -200.0
    nan = float("nan")
    points = [SweepPoint(vg=v, f_q_mhz=4200.0, chi_mhz=0.0, f_c_ghz=5.444,
                         f_plus_ghz=nan, f_minus_ghz=nan)
              for v in (0.0, 1.0)]
    sweep = SweepResult(points, DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0,
                                                 kappa_mhz=1.2, gamma_q_mhz=0.3))
    spec = SynthSpec(
        kind="two_tone_map", seed=1, snr_db=None,
        truth={"two_photon": True, "alpha_mhz": alpha, "depth": 0.5},
        grid={"f_min_ghz": 3.9, "f_max_ghz": 4.4, "n_f": 2001,
              "v_min": 0.0, "v_max": 1.0, "n_v": 2},
    )
    m = synth_two_tone(spec, sweep)
    row, f = m.grid[0], m.fast_values

    # peak extraction by a joint two-dip fit: grid argmins seed the centers,
    # the shared model untangles the overlapping tails
    def unit_lor(c, w):
        return 1.0 / (1.0 + (2.0 * (f - c) / w) ** 2)

    def residuals(x):
        c1, w1, d1, c2, w2, d2, off = x
        return (off - d1 * unit_lor(c1, w1) - d2 * unit_lor(c2, w2)) - row

    c1_0 = f[np.argmin(row)]
    away = np.abs(f - c1_0) > 0.05
    c2_0 = f[away][np.argmin(row[away])]
    result = lm_minimize(
        residuals, [c1_0, 0.005, 0.5, c2_0, 0.005, 0.25, 1.0],
        names=["c1", "w1", "d1", "c2", "w2", "d2", "off"],
        jac=lambda x: numeric_jacobian(residuals, x),
    )
    sep_mhz = abs(result.param("c1") - result.param("c2")) * 1e3
    dev = abs(sep_mhz - abs(alpha) / 2.0)
    elapsed = time.perf_counter() - t0
    _report(12, result.converged and dev <= 1e-6 and elapsed < 5.0,
            f"dip separation {sep_mhz:.9f} MHz vs |alpha|/2 = 100 "
            f"(|dev| = {dev:.2e} MHz), {elapsed:.2f} s")


SYNTH_YAML = (
    "synth:\n  kind: reflection_trace\n  seed: 11\n  snr_db: 35\n"
    "  truth: {a_re: 1.0, a_im: 0.0, ql: 6000, qc: 12000, theta: 0.1,"
    " f_r_ghz: 5.2816}\n"
    "  grid: {f_min_ghz: 5.2728, f_max_ghz: 5.2904, n_f: 401}\n"
)


def test_criterion_13_synth_determinism(tmp_path, capsys):
    cfg = tmp_path / "synth.yaml"
    cfg.write_text(SYNTH_YAML)
    digests = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        digests.append((
            hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(out.with_suffix(".truth.json").read_bytes()).hexdigest(),
        ))
    capsys.readouterr()
    ok = digests[0] == digests[1]
    _report(13, ok, f"two runs, data sha256 {digests[0][0][:12]} "
                    f"{'==' if ok else '!='} {digests[1][0][:12]}, "
                    f"truth sidecars {'match' if ok else 'differ'}")
