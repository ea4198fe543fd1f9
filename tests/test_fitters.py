"""Estimator tests: reflection, Lorentzian, and Rabi fits plus the
background subtraction helper.

The statistical invariants (round trips under noise, bias bounds) run on
fixed seeds so the suite is reproducible; the margins were chosen with
room to spare over the typical noise draw.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqedkit import fitters
from cqedkit import (
    ComplexTrace,
    SynthSpec,
    derive_qi,
    fit_lorentzian,
    fit_rabi,
    fit_reflection,
    subtract_background,
    synth_rabi,
    synth_reflection,
)
from cqedkit.fitters import (
    _rabi_residuals,
    _reflection_residuals,
    initial_guess_reflection,
    lorentzian_jacobian,
    lorentzian_model,
    rabi_model,
)
from cqedkit.errors import (
    FitInitError,
    InputDataError,
    NoDipError,
    NoResonanceError,
    NotConvergedError,
)
from cqedkit.lm import numeric_jacobian
from jacobian_oracle import central_difference, forward_loop


def _trace(ql, qc, f_r=5.2816, theta=0.1, a=1.0 + 0.0j, snr_db=None, seed=0,
           n=801, halfwidth=10.0):
    fwhm = f_r / ql
    spec = SynthSpec(
        kind="reflection_trace",
        seed=seed,
        snr_db=snr_db,
        truth={"a_re": a.real, "a_im": a.imag, "ql": ql, "qc": qc,
               "theta": theta, "f_r_ghz": f_r},
        grid={"f_min_ghz": f_r - halfwidth * fwhm,
              "f_max_ghz": f_r + halfwidth * fwhm, "n_f": n},
    )
    return synth_reflection(spec)


def _spy_lm(monkeypatch):
    """Record (converged, params) of every optimizer run inside the fitters."""
    runs = []
    real = fitters.lm_minimize

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        runs.append((result.converged, result.params.copy()))
        return result

    monkeypatch.setattr(fitters, "lm_minimize", spy)
    return runs


def test_complex_trace_validation():
    f = np.linspace(5.0, 5.1, 100)
    with pytest.raises(InputDataError):
        ComplexTrace(f, np.ones(99, dtype=complex))
    with pytest.raises(InputDataError):
        ComplexTrace(f[::-1], np.ones(100, dtype=complex))
    bad = np.ones(100, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(InputDataError):
        ComplexTrace(f, bad)


def test_derive_qi():
    assert derive_qi(6740.0, 7360.0) == pytest.approx(80010.32258064521)
    with pytest.raises(ValueError):
        derive_qi(7360.0, 6740.0)
    with pytest.raises(ValueError):
        derive_qi(-10.0, 100.0)


def test_reflection_noiseless_round_trip():
    fit = fit_reflection(_trace(6000.0, 12000.0, theta=0.2))
    assert fit.ql == pytest.approx(6000.0, rel=1e-8)
    assert fit.qc == pytest.approx(12000.0, rel=1e-8)
    assert fit.f_r_ghz == pytest.approx(5.2816, rel=1e-10)
    assert fit.theta == pytest.approx(0.2, abs=1e-8)
    assert fit.qi == derive_qi(fit.ql, fit.qc)  # exact, same code path


def test_reflection_100_trace_round_trip():
    # noisy round trip across the fitter's stated operating band
    rng = np.random.default_rng(42)
    for i in range(100):
        qc = 10.0 ** rng.uniform(np.log10(5e3), np.log10(1e5))
        # draw the dip depth 2*Ql/Qc directly so every trace stays visible
        ql = qc * rng.uniform(0.4, 1.8) / 2.0
        theta = rng.uniform(-0.4, 0.4)
        fit = fit_reflection(_trace(ql, qc, theta=theta, snr_db=30.0, seed=i))
        assert fit.ql == pytest.approx(ql, rel=0.05)
        assert fit.qc == pytest.approx(qc, rel=0.05)
        assert fit.qi == derive_qi(fit.ql, fit.qc)


def test_reflection_overcoupled_trace_accepted():
    # strongly overcoupled line: |S21| barely dips but the circle is large
    fit = fit_reflection(_trace(9700.0, 10000.0, snr_db=30.0, seed=3))
    assert fit.ql == pytest.approx(9700.0, rel=0.02)


def test_reflection_frequency_bias_small():
    # median recovered f_r over 200 noise draws stays within a tenth of a
    # linewidth of the truth
    ql, f_r = 6000.0, 5.2816
    fwhm = f_r / ql
    centers = [
        fit_reflection(_trace(ql, 12000.0, snr_db=30.0, seed=s)).f_r_ghz
        for s in range(200)
    ]
    assert abs(np.median(centers) - f_r) < 0.1 * fwhm


def test_reflection_flat_trace_rejected():
    rng = np.random.default_rng(0)
    f = np.linspace(5.0, 5.2, 401)
    z = 1.0 + rng.normal(0, 0.01, 401) + 1j * rng.normal(0, 0.01, 401)
    with pytest.raises(NoResonanceError):
        fit_reflection(ComplexTrace(f, z))


def test_reflection_constant_trace_rejected():
    f = np.linspace(5.0, 5.2, 401)
    with pytest.raises(NoResonanceError):
        fit_reflection(ComplexTrace(f, np.full(401, 0.9 + 0.1j)))


def test_reflection_needs_enough_points():
    with pytest.raises(InputDataError):
        fit_reflection(_trace(6000.0, 12000.0, n=49))


def test_reflection_nonphysical_qi_warns():
    # synthesize with Qc < Ql: the model is evaluable there and the fit
    # must flag the unphysical decomposition instead of inventing a Qi
    trace = _trace(6000.0, 4000.0, snr_db=50.0, seed=1)
    with pytest.warns(UserWarning, match="nonphysical Qi"):
        fit = fit_reflection(trace)
    assert math.isnan(fit.qi)
    assert fit.ql == pytest.approx(6000.0, rel=0.02)


def test_reflection_delay_recovery():
    spec = SynthSpec(
        kind="reflection_trace",
        seed=5,
        snr_db=45.0,
        truth={"a_re": 1.0, "a_im": 0.0, "ql": 6000.0, "qc": 12000.0,
               "theta": 0.1, "f_r_ghz": 5.2816, "tau_ns": 35.0},
        grid={"f_min_ghz": 5.2728, "f_max_ghz": 5.2904, "n_f": 801},
    )
    trace = synth_reflection(spec)
    fit = fit_reflection(trace, delay=True)
    assert fit.tau_ns == pytest.approx(35.0, rel=0.05)
    assert fit.ql == pytest.approx(6000.0, rel=0.02)


@pytest.mark.parametrize("delay", [False, True])
def test_reflection_batched_jacobian_bit_identical(delay):
    # the fitter's one-call Jacobian against the per-column loop
    trace = _trace(6000.0, 12000.0, snr_db=30.0, seed=4, n=401)
    f, z = trace.freqs_ghz, trace.values
    f_mid = float(0.5 * (f[0] + f[-1]))
    residuals, batched = _reflection_residuals(f, z, delay, f_mid)
    rng = np.random.default_rng(23)
    for _ in range(25):
        x = [*rng.normal(0.0, 1.0, 2), 10.0 ** rng.uniform(2.0, 5.0),
             10.0 ** rng.uniform(2.0, 5.5) * rng.choice([-1.0, 1.0]),
             rng.uniform(-1.2, 1.2), 5.2816 * (1.0 + rng.normal(0.0, 1e-4))]
        if delay:
            x.append(rng.uniform(-100.0, 100.0))
        loop = forward_loop(residuals, x)
        j = numeric_jacobian(batched, x)
        assert j.flags.c_contiguous
        assert np.array_equal(j, loop)


def test_reflection_delay_fit_pinned():
    # every bit of this fit held before the Jacobian was batched
    spec = SynthSpec(
        kind="reflection_trace", seed=17, snr_db=30.0,
        truth={"a_re": 0.8, "a_im": 0.3, "ql": 6000.0, "qc": 15000.0,
               "theta": -0.2, "f_r_ghz": 5.2816, "tau_ns": 60.0},
        grid={"f_min_ghz": 5.2728, "f_max_ghz": 5.2904, "n_f": 401},
    )
    d = fit_reflection(synth_reflection(spec), delay=True).to_dict()
    assert d["params"] == {
        "a_re": -0.16010163638536706, "a_im": 0.8392985571219446,
        "ql": 6003.230326734123, "qc": 14903.828452448313,
        "theta": -0.19283948935204853, "f_r_ghz": 5.281603527029302,
        "tau_ns": 59.95782628172545,
    }
    assert d["errors"] == {
        "a_re": 1.0531361487968818, "a_im": 0.2007864486491287,
        "ql": 63.70881496511698, "qc": 120.02727240197927,
        "theta": 0.007240772488789753, "f_r_ghz": 4.466276238482456e-06,
        "tau_ns": 0.037810163773235865, "qi": 142.15213008662124,
    }
    assert d["iterations"] == 7 and d["chi2"] == 0.2815794038358026


def test_reflection_delay_rescan_recovers_tau(monkeypatch):
    # the edge-slope delay seed of this trace does not converge; the
    # quarter-turn tau rescan rebuilds the guess and its first trial does
    truth = {"a_re": 1.0, "a_im": 0.0, "ql": 25310.19188070285, "qc": 32749.17520124937,
             "theta": 0.3860152196008001, "f_r_ghz": 4.673520407601624,
             "tau_ns": -291.6111327098439}
    spec = SynthSpec(kind="reflection_trace", seed=700339, snr_db=21.30222395429524,
                     truth=truth, grid={"f_min_ghz": 4.671673910178915,
                                        "f_max_ghz": 4.675366905024334, "n_f": 401})
    runs = _spy_lm(monkeypatch)
    fit = fit_reflection(synth_reflection(spec), delay=True)
    assert [converged for converged, _ in runs] == [False, True]
    assert fit.tau_ns == pytest.approx(truth["tau_ns"], abs=0.5)
    assert fit.ql == pytest.approx(truth["ql"], rel=0.05)
    assert fit.qc == pytest.approx(truth["qc"], rel=0.05)
    assert fit.f_r_ghz == pytest.approx(truth["f_r_ghz"], abs=0.1 * truth["f_r_ghz"] / truth["ql"])


def test_reflection_initial_guess_in_basin():
    # the guess itself must already identify the line to a factor of a few
    trace = _trace(6000.0, 12000.0, theta=0.3, snr_db=35.0, seed=2)
    guess = initial_guess_reflection(trace)
    assert guess["f_r_ghz"] == pytest.approx(5.2816, abs=3 * 5.2816 / 6000.0)
    assert 6000.0 / 5 < guess["ql"] < 6000.0 * 5
    assert all(np.isfinite(v) for v in guess.values())


def test_reflection_initial_guess_degenerate_circle_fallback():
    # at 12 dB the Kasa circle radius is below three noise rms, so the
    # guess falls back to |S21| dip heuristics, which seed theta at 0;
    # the fit from there still recovers the resonator
    truth = {"a_re": 1.0, "a_im": 0.0, "ql": 4428.509709605055, "qc": 6007.147453110993,
             "theta": -0.0001353731661372648, "f_r_ghz": 7.072085614735537}
    spec = SynthSpec(kind="reflection_trace", seed=700027, snr_db=12.32118135501388,
                     truth=truth, grid={"f_min_ghz": 7.05611616659501,
                                        "f_max_ghz": 7.088055062876063, "n_f": 401})
    trace = synth_reflection(spec)
    _, radius = fitters._kasa_circle(trace.values)
    assert radius < 3.0 * fitters._baseline(trace.values)[2]
    guess = initial_guess_reflection(trace)
    assert guess["theta"] == 0.0
    assert all(math.isfinite(v) for v in guess.values())
    fwhm = truth["f_r_ghz"] / truth["ql"]
    assert guess["f_r_ghz"] == pytest.approx(truth["f_r_ghz"], abs=fwhm)
    fit = fit_reflection(trace)
    assert fit.ql == pytest.approx(truth["ql"], rel=0.05)
    assert fit.qc == pytest.approx(truth["qc"], rel=0.05)


@pytest.mark.parametrize("n", [1, 2])
def test_reflection_initial_guess_on_the_shortest_traces(n):
    # the moving mean of one sample is the sample, and two samples give no
    # noise estimate; the guess stays finite (one sample spans no band, so
    # its width is 0 and Ql is clipped)
    trace = ComplexTrace(np.linspace(5.0, 5.1, n), np.full(n, 0.5 + 0.1j))
    with np.errstate(divide="ignore"):
        guess = initial_guess_reflection(trace)
    assert all(math.isfinite(v) for v in guess.values())


def test_reflection_initial_guess_on_an_all_zero_trace():
    # no baseline and a zero-radius circle: the guess nudges the baseline
    # off zero and falls back to the |S21| heuristics
    trace = ComplexTrace(np.linspace(5.0, 5.1, 50), np.zeros(50))
    with pytest.raises(np.linalg.LinAlgError, match="degenerate circle"):
        fitters._kasa_circle(trace.values)
    guess = initial_guess_reflection(trace)
    assert guess["a_re"] == 1e-12 and guess["theta"] == 0.0


def test_reflection_kasa_circle_refuses_samples_that_square_to_inf():
    z = np.full(20, 0.5 + 0.1j)
    z[3] = 1e308
    with pytest.raises(np.linalg.LinAlgError, match="degenerate circle"):
        fitters._kasa_circle(z)


# seeded delay traces on which the fit ends in each reflection verdict
@pytest.mark.parametrize("seed, snr_db, truth, grid, match", [
    (71, 29.995843525393607,
     {"ql": 8533.223052914836, "qc": 125421.42511812408, "theta": -0.10553347057550422,
      "tau_ns": 46.28956581275415},
     {"f_min_ghz": 4.9960433990896735, "f_max_ghz": 5.0039566009103265, "n_f": 150},
     "reflection fit did not converge"),
    (1, 32.59500461999415,
     {"ql": 20755.357250273482, "qc": 237956.02771912163, "theta": -0.47244088675693163,
      "tau_ns": 3.814331321927824},
     {"f_min_ghz": 4.998088404164453, "f_max_ghz": 5.001911595835547, "n_f": 313},
     "nonphysical quality factors"),
], ids=["not-converged", "nonphysical"])
def test_reflection_verdicts(seed, snr_db, truth, grid, match):
    spec = SynthSpec(kind="reflection_trace", seed=seed, snr_db=snr_db, grid=grid,
                     truth={"a_re": 1.0, "a_im": 0.0, "f_r_ghz": 5.0, **truth})
    with pytest.raises(NotConvergedError, match=match):
        fit_reflection(synth_reflection(spec), delay=True)


def test_reflection_fit_to_dict_schema_fields():
    fit = fit_reflection(_trace(6000.0, 12000.0, snr_db=40.0))
    d = fit.to_dict()
    assert set(d) >= {"params", "errors", "derived", "chi2", "converged"}
    assert d["derived"]["qi"] == pytest.approx(fit.qi)


def test_lorentzian_jacobian_matches_numeric():
    f = np.linspace(4900.0, 5100.0, 101)
    y = np.zeros_like(f)
    x = np.array([5003.0, 21.0, 0.6, 1.1])
    num = central_difference(lambda xv, fv, yv: lorentzian_model(fv, *xv) - yv,
                             x, args=(f, y))
    # tolerance bounded by the central-difference truncation error, not
    # by the analytic expressions
    np.testing.assert_allclose(lorentzian_jacobian(x, f, y), num,
                               rtol=1e-4, atol=1e-7)


def test_lorentzian_round_trip():
    rng = np.random.default_rng(5)
    f = np.linspace(4790.0, 5210.0, 841)
    y = lorentzian_model(f, 5000.0, 21.0, 0.8, 1.0) + rng.normal(0, 0.02, f.size)
    fit = fit_lorentzian(f, y)
    assert fit.param("f0") == pytest.approx(5000.0, abs=0.5)
    assert fit.param("fwhm") == pytest.approx(21.0, rel=0.05)


def test_lorentzian_two_equal_dips_locks_deeper_seed():
    # with two identical dips the smoothed minimum picks one; the fit must
    # return that one rather than an average of the pair
    f = np.linspace(0.0, 200.0, 801)
    y = (lorentzian_model(f, 60.0, 8.0, 0.5, 1.0)
         + lorentzian_model(f, 140.0, 8.0, 0.5, 0.0))
    fit = fit_lorentzian(f, y)
    f0 = fit.param("f0")
    assert min(abs(f0 - 60.0), abs(f0 - 140.0)) < 1.0


def test_lorentzian_flat_rejected():
    rng = np.random.default_rng(0)
    f = np.linspace(0.0, 100.0, 256)
    with pytest.raises(NoDipError):
        fit_lorentzian(f, 1.0 + rng.normal(0, 0.01, f.size))


def test_lorentzian_not_converged():
    # |S21| of a seeded reflection trace on which LM hits its iteration cap
    spec = SynthSpec(kind="reflection_trace", seed=550, snr_db=29.671317471319462,
                     truth={"a_re": 1.0, "a_im": 0.0, "ql": 38875.589313912606,
                            "qc": 584593.8686529452, "theta": 0.4826254178463568,
                            "f_r_ghz": 5.0, "tau_ns": -44.95083676506402},
                     grid={"f_min_ghz": 4.997452935962442, "f_max_ghz": 5.002547064037558,
                           "n_f": 69})
    trace = synth_reflection(spec)
    with pytest.raises(NotConvergedError, match="Lorentzian fit did not converge"):
        fit_lorentzian(trace.freqs_ghz, np.abs(trace.values))


def test_lorentzian_input_checks():
    with pytest.raises(InputDataError):
        fit_lorentzian(np.arange(10.0), np.ones(10))
    with pytest.raises(InputDataError, match="equal length"):
        fit_lorentzian(np.arange(30.0), np.ones(29))
    f = np.linspace(0.0, 1.0, 30)
    y = np.ones(30)
    y[5] = np.inf
    with pytest.raises(InputDataError):
        fit_lorentzian(f, y)


def test_rabi_noiseless_round_trip():
    t = np.linspace(0.0, 1000.0, 251)
    y = rabi_model(t, 1.0, 260.0, 2 * np.pi / 32.0, 0.3, -2e-4, 0.1)
    fit = fit_rabi(t, y)
    assert fit.param("T_R") == pytest.approx(260.0, rel=1e-6)
    assert fit.param("omega") == pytest.approx(2 * np.pi / 32.0, rel=1e-8)


def test_rabi_omega_within_dft_bin_at_snr20():
    t_max, n = 1000.0, 251
    omega_true = 2 * np.pi / 32.0
    dft_bin = 2 * np.pi / t_max
    for seed in range(20):
        spec = SynthSpec(kind="rabi_trace", seed=seed, snr_db=20.0,
                         truth={"A": 1.0, "T_R": 260.0, "omega": omega_true,
                                "B": 0.3, "a": -2e-4, "b": 0.1},
                         grid={"t_max_ns": t_max, "n_t": n})
        fit = fit_rabi(*synth_rabi(spec))
        assert abs(fit.param("omega") - omega_true) < dft_bin


def test_rabi_omega_reported_positive():
    t = np.linspace(0.0, 500.0, 200)
    y = rabi_model(t, 0.8, 300.0, 0.21, -1.2, 0.0, 0.0)
    fit = fit_rabi(t, y)
    assert fit.param("omega") > 0


def test_rabi_sign_fold(monkeypatch):
    # this fit converges on the mirror solution (-omega, -B); the fold
    # reports the same curve with omega > 0, and that is the truth
    truth = {"A": 1.0, "T_R": 228.08094428162033, "omega": 0.014076528226900755,
             "B": -0.021030143151853586, "a": 0.00011608788917322156, "b": 0.5}
    spec = SynthSpec(kind="rabi_trace", seed=10838, snr_db=29.70562617167424,
                     truth=truth, grid={"t_max_ns": 1000.0, "n_t": 101})
    t, y = synth_rabi(spec)
    runs = _spy_lm(monkeypatch)
    fit = fit_rabi(t, y)
    [(converged, raw)] = runs
    assert converged and raw[2] < 0
    assert np.array_equal(fit.params, raw * [1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
    np.testing.assert_allclose(rabi_model(t, *fit.params), rabi_model(t, *raw),
                               rtol=0.0, atol=1e-15)
    assert fit.param("omega") == pytest.approx(truth["omega"], rel=0.03)
    assert fit.param("B") == pytest.approx(truth["B"], abs=0.1)


def _start_mirrored(monkeypatch, flip):
    """Make the fitters' optimizer start with the parameters at ``flip`` negated."""
    real = fitters.lm_minimize

    def mirrored(fn, x0, *args, **kwargs):
        x0 = np.array(x0, dtype=float)
        x0[flip] *= -1.0
        return real(fn, x0, *args, **kwargs)

    monkeypatch.setattr(fitters, "lm_minimize", mirrored)


def _correlation(cov):
    s = np.sqrt(np.diag(cov))
    return cov / np.outer(s, s)


def test_rabi_sign_fold_folds_the_covariance(monkeypatch):
    # from the mirrored seed (-omega, -B) the fit lands on the mirror
    # solution; after the fold, its correlations of omega and B with A, T_R
    # and the background keep the sign the direct fit gives them (the
    # unfolded covariance gets up to 0.12 of them wrong)
    spec = SynthSpec(kind="rabi_trace", seed=5, snr_db=20.0,
                     truth={"A": 1.0, "T_R": 260.0, "omega": 2 * np.pi / 32.0,
                            "B": 0.3, "a": -2e-4, "b": 0.1},
                     grid={"t_max_ns": 1000.0, "n_t": 251})
    t, y = synth_rabi(spec)
    direct = fit_rabi(t, y)
    _start_mirrored(monkeypatch, [2, 3])
    runs = _spy_lm(monkeypatch)
    fit = fit_rabi(t, y)
    assert runs[0][1][2] < 0
    np.testing.assert_allclose(fit.params, direct.params, rtol=1e-6)
    np.testing.assert_allclose(_correlation(fit.covariance), _correlation(direct.covariance),
                               rtol=0.0, atol=1e-4)


def test_lorentzian_sign_fold_folds_the_covariance(monkeypatch):
    # from -fwhm the fit lands on the same dip with fwhm < 0; the fold
    # gives back the direct fit bit for bit, covariance included
    rng = np.random.default_rng(5)
    f = np.linspace(4790.0, 5210.0, 841)
    y = lorentzian_model(f, 5000.0, 21.0, 0.8, 1.0) + rng.normal(0, 0.02, f.size)
    direct = fit_lorentzian(f, y)
    _start_mirrored(monkeypatch, [1])
    runs = _spy_lm(monkeypatch)
    fit = fit_lorentzian(f, y)
    assert runs[0][1][1] < 0
    assert np.array_equal(fit.params, direct.params)
    assert np.array_equal(fit.covariance, direct.covariance)
    assert _correlation(fit.covariance)[1, 2] < 0


def test_rabi_batched_jacobian_bit_identical():
    t = np.linspace(0.0, 1000.0, 501)
    y = rabi_model(t, 1.0, 300.0, 0.2, 0.4, 1e-4, 0.5)
    rng = np.random.default_rng(31)
    for _ in range(25):
        x = np.array([rng.normal(1.0, 0.5), 10.0 ** rng.uniform(1.5, 3.5),
                      rng.uniform(0.02, 0.4), rng.uniform(-4.0, 4.0),
                      rng.normal(0.0, 1e-3), rng.normal(0.5, 0.2)])
        loop = forward_loop(_rabi_residuals, x, args=(t, y))
        j = numeric_jacobian(_rabi_residuals, x, args=(t, y))
        assert j.flags.c_contiguous
        assert np.array_equal(j, loop)


def test_rabi_overflowing_trial_steps_are_quiet():
    # a trace on which a rejected LM trial step overflows exp(-t / T_R)
    spec = SynthSpec(
        kind="rabi_trace", seed=7 * 100003 + 1915, snr_db=24.065254263588162,
        truth={"A": 1.0, "T_R": 309.9689140774216, "omega": 0.15962721086199494,
               "B": 2.5903901800977813, "a": 0.00021780685176082373,
               "b": 0.4363686698783646},
        grid={"t_max_ns": 1000.0, "n_t": 501},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = fit_rabi(*synth_rabi(spec))
    assert result.converged
    assert result.param("T_R") == pytest.approx(309.97, rel=0.05)


@pytest.mark.parametrize("edit", ["swap-two", "one-huge"])
def test_rabi_time_axis_must_increase_at_every_step(edit):
    # the median step of each axis is positive: only a check of every step refuses them
    t = np.linspace(0.0, 1000.0, 201)
    y = rabi_model(t, 1.0, 260.0, 2 * np.pi / 32.0, 0.0, 0.0, 0.5)
    if edit == "swap-two":
        t[[50, 51]] = t[[51, 50]]
    else:
        t[100] = 1e308
    with pytest.raises(InputDataError, match="^time axis must be increasing$"):
        fit_rabi(t, y)


def test_rabi_linear_only_rejected():
    t = np.linspace(0.0, 500.0, 200)
    with pytest.raises(FitInitError):
        fit_rabi(t, 0.002 * t + 0.5)


def test_rabi_constant_rejected():
    t = np.linspace(0.0, 500.0, 200)
    with pytest.raises(FitInitError):
        fit_rabi(t, np.full(200, 0.37))


def test_rabi_pure_noise_rejected():
    t = np.linspace(0.0, 500.0, 200)
    rejected = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        try:
            fit_rabi(t, rng.normal(0.0, 1.0, t.size))
        except FitInitError:
            rejected += 1
    # the spectral gate is statistical; the occasional draw with a real-
    # looking peak may pass, but the bulk must be turned away
    assert rejected >= 18


# overdamped traces on which LM converges onto omega ~ 1e-11 rad/ns; on the
# second the omega error bar is 0, so an error-bar rule would not see it
@pytest.mark.parametrize("seed, snr_db, truth", [
    (1128, 19.348725060716788, {"T_R": 85.61075194654882, "omega": 0.0023707794275971135,
                                "B": -0.9584704827005233, "a": 8.444726910580684e-05,
                                "b": 0.4872853477719219}),
    (768, 12.094718257043052, {"T_R": 56.76607618076769, "omega": 0.0033182520469701494,
                               "B": 2.5876942020376124, "a": -0.00020775381193600918,
                               "b": 0.4943064123241732}),
], ids=["seed1128", "seed768"])
def test_rabi_collapsed_oscillation_rejected(seed, snr_db, truth):
    spec = SynthSpec(kind="rabi_trace", seed=seed, snr_db=snr_db, truth={"A": 1.0, **truth},
                     grid={"t_max_ns": 1000.0, "n_t": 501})
    with pytest.raises(NotConvergedError, match="under half an oscillation"):
        fit_rabi(*synth_rabi(spec))


# seeded traces on which the fit ends in each remaining Rabi verdict
@pytest.mark.parametrize("seed, snr_db, truth, grid, match", [
    (44, 1.9668945725525977,
     {"A": 0.7974550228925236, "T_R": 1831.0399958875403, "omega": 0.3358127100757616,
      "B": 1.1571733940113393},
     {"t_max_ns": 574.850797914187, "n_t": 315}, "Rabi fit did not converge"),
    (2019, 0.6320181923632029,
     {"A": 0.6810978701060287, "T_R": 868.621015147783, "omega": 0.2020265712095437,
      "B": 1.8659344247937826},
     {"t_max_ns": 197.06974296646845, "n_t": 63}, "non-positive decay time"),
], ids=["not-converged", "negative-decay"])
def test_rabi_verdicts(seed, snr_db, truth, grid, match):
    spec = SynthSpec(kind="rabi_trace", seed=seed, snr_db=snr_db, grid=grid,
                     truth={"a": 0.0, "b": 0.5, **truth})
    with pytest.raises(NotConvergedError, match=match):
        fit_rabi(*synth_rabi(spec))


def test_rabi_growing_oscillation_seeds_the_decay_with_the_span(monkeypatch):
    # the residual does not shrink from the first half to the second, so
    # no decay time can be read off it
    t = np.linspace(0.0, 1000.0, 201)
    y = 0.5 * np.exp(t / 800.0) * np.cos(0.05 * t) + 0.5
    starts = []
    real = fitters.lm_minimize

    def spy(fn, x0, *args, **kwargs):
        starts.append(list(x0))
        return real(fn, x0, *args, **kwargs)

    monkeypatch.setattr(fitters, "lm_minimize", spy)
    with pytest.raises(NotConvergedError):
        fit_rabi(t, y)
    assert starts[0][1] == t[-1] - t[0]


def test_rabi_input_checks():
    with pytest.raises(InputDataError):
        fit_rabi(np.arange(10.0), np.ones(10))
    t = np.linspace(0.0, 1.0, 30)
    with pytest.raises(InputDataError):
        fit_rabi(t[::-1], np.ones(30))


def test_subtract_background_removes_common_mode():
    rng = np.random.default_rng(9)
    background = np.sin(np.linspace(0.0, 6.0, 120))
    grid = np.tile(background, (40, 1))
    grid[13, 60] += 2.0  # a sparse feature survives
    flat = subtract_background(grid)
    assert np.max(np.abs(np.delete(flat, 13, axis=0))) < 1e-12
    assert flat[13, 60] == pytest.approx(2.0, abs=1e-12)


def test_subtract_background_axis_one():
    grid = np.arange(12.0).reshape(3, 4)
    flat = subtract_background(grid, axis=1)
    assert np.allclose(np.median(flat, axis=1), 0.0)


def test_subtract_background_needs_2d():
    with pytest.raises(InputDataError):
        subtract_background(np.arange(5.0))


@given(st.integers(min_value=2, max_value=30), st.integers(min_value=2, max_value=30))
@settings(max_examples=30, deadline=None)
def test_subtract_background_median_zero(rows, cols):
    rng = np.random.default_rng(rows * 100 + cols)
    grid = rng.normal(size=(rows, cols))
    flat = subtract_background(grid)
    assert np.allclose(np.median(flat, axis=0), 0.0, atol=1e-12)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("values", [
    [3.0], [-0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [-0.0, 0.0, -0.0],
    [-0.0, 1.0], [-1.0, 1.0], [2.0, 1.0, 2.0, 2.0], [5.0, 5.0, 1.0, 9.0, 5.0],
    [1.0, np.nan, 3.0], [np.nan, 2.0], [-np.nan, 4.0, 1.0], [np.inf, -np.inf],
    [np.inf, 1.0, np.inf], [1e308, 1e308], [5e-324, -5e-324, 5e-324],
    [0.1, 0.2], [1.0, 3.0, 2.0, 7.0, 0.5, 0.25],
])
def test_median_matches_numpy_bit_for_bit(values):
    a = np.array(values)
    kept = a.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, 1e308 + 1e308
        assert _bits(fitters._median(a)) == _bits(np.median(a))
    assert a.tobytes() == kept.tobytes()


@given(st.lists(st.floats(allow_nan=True) | st.sampled_from([0.0, -0.0, 1.0]),
                min_size=1, max_size=41))
@settings(max_examples=200, deadline=None)
def test_median_matches_numpy_on_any_sample(values):
    a = np.array(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _bits(fitters._median(a)) == _bits(np.median(a))
