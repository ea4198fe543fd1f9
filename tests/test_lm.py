"""Optimizer unit tests: exactness on linear problems, the standard
nonlinear benchmark, failure-mode behavior, and bit-for-bit agreement
with the reference core in tests/lm_oracle.py."""

import warnings

import numpy as np
import pytest

import lm_oracle
from cqedkit import SynthSpec, fitters, lm, synth_rabi, synth_reflection
from cqedkit.errors import FitError
from cqedkit.lm import FitResult, lm_minimize, numeric_jacobian
from jacobian_oracle import central_difference, forward_loop


def _loop(fn):
    """The oracle's per-column forward difference as an lm_minimize ``jac=``."""
    return lambda x, *args: forward_loop(fn, x, args)


def test_linear_problem_exact():
    # residual r = M x - y has one global minimum the normal equations hit
    rng = np.random.default_rng(1)
    m = rng.normal(size=(40, 3))
    x_true = np.array([2.0, -1.0, 0.5])
    y = m @ x_true

    def residuals(x):
        return m @ x - y

    result = lm_minimize(residuals, [0.0, 0.0, 0.0], jac=_loop(residuals))
    assert result.converged
    np.testing.assert_allclose(result.params, x_true, rtol=1e-8)
    assert result.chi2 < 1e-16


def test_rosenbrock():
    def residuals(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    result = lm_minimize(residuals, [-1.2, 1.0], jac=_loop(residuals))
    assert result.converged
    np.testing.assert_allclose(result.params, [1.0, 1.0], atol=1e-6)


def test_zero_residual_exponential():
    t = np.linspace(0.0, 5.0, 60)
    y = 3.0 * np.exp(-0.7 * t)

    def residuals(x):
        return x[0] * np.exp(-x[1] * t) - y

    result = lm_minimize(residuals, [1.0, 1.0], names=["amp", "rate"], jac=_loop(residuals))
    assert result.converged
    assert result.param("amp") == pytest.approx(3.0, rel=1e-8)
    assert result.param("rate") == pytest.approx(0.7, rel=1e-8)


def test_analytic_jacobian_used():
    t = np.linspace(0.0, 5.0, 60)
    y = 3.0 * np.exp(-0.7 * t)

    def residuals(x):
        return x[0] * np.exp(-x[1] * t) - y

    def jac(x):
        e = np.exp(-x[1] * t)
        return np.column_stack([e, -x[0] * t * e])

    result = lm_minimize(residuals, [1.0, 1.0], jac=jac)
    assert result.converged
    np.testing.assert_allclose(result.params, [3.0, 0.7], rtol=1e-8)


def test_numeric_jacobian_matches_analytic():
    t = np.linspace(0.1, 4.0, 25)

    def fn(x):
        return x[0] * np.exp(-x[1] * t) + x[2]

    def jac(x):
        e = np.exp(-x[1] * t)
        return np.column_stack([e, -x[0] * t * e, np.ones_like(t)])

    x = np.array([2.5, 0.9, -0.3])
    np.testing.assert_allclose(central_difference(fn, x), jac(x), rtol=1e-6, atol=1e-8)
    # the forward difference is first order: its error is about the step
    np.testing.assert_allclose(numeric_jacobian(fn, x), jac(x), rtol=1e-6, atol=1e-7)


def test_batched_numeric_jacobian_bit_identical():
    # the one call on the stacked points must reproduce the per-column
    # loop exactly, layout too
    t = np.linspace(0.1, 4.0, 25)

    def fn(x):
        return x[0] * np.exp(-x[1] * t) + x[2]

    rng = np.random.default_rng(11)
    for _ in range(25):
        # magnitudes on both sides of the max(|x|, 1) step floor
        x = rng.normal(0.0, 2.0, 3) * 10.0 ** rng.integers(-3, 2, 3)
        loop = forward_loop(fn, x)
        j = numeric_jacobian(fn, x)
        assert j.flags.c_contiguous and j.shape == loop.shape
        assert np.array_equal(j, loop)


def test_batched_jacobian_fit_matches_default_loop():
    t = np.linspace(0.0, 5.0, 60)
    y = 3.0 * np.exp(-0.7 * t) + 0.01 * np.sin(7.0 * t)

    def residuals(x):
        return x[0] * np.exp(-x[1] * t) - y

    def jac(x):
        return numeric_jacobian(residuals, x)

    loop = lm_minimize(residuals, [1.0, 1.0], jac=_loop(residuals))
    batched = lm_minimize(residuals, [1.0, 1.0], jac=jac)
    assert batched.to_dict() == loop.to_dict()
    assert np.array_equal(batched.covariance, loop.covariance)


def test_nonfinite_start_rejected():
    def identity(x):
        return x

    def infinite(x):
        return np.array([np.inf])

    with pytest.raises(ValueError):
        lm_minimize(identity, [np.nan], jac=_loop(identity))
    with pytest.raises(ValueError):
        lm_minimize(infinite, [1.0], jac=_loop(infinite))


def test_overflowing_start_cost_rejected():
    # every residual is finite but r @ r is inf; the search once damped its
    # step below tolerance and reported convergence at the start
    def huge(x):
        return np.array([1e308, x[0] - 1.0])

    with pytest.raises(ValueError, match="cost overflows"):
        lm_minimize(huge, [0.0], jac=_loop(huge))


def test_complex_residuals_rejected():
    # as an array or as a list, which takes the np.asarray path
    for residuals in (lambda x: np.array([1j * x[0]]), lambda x: [1j * x[0]]):
        with pytest.raises(ValueError, match="must return real values"):
            lm_minimize(residuals, [1.0], jac=lambda x: np.array([[1.0]]))


def test_names_length_checked():
    def identity(x):
        return x

    with pytest.raises(ValueError):
        lm_minimize(identity, [1.0, 2.0], names=["only_one"], jac=_loop(identity))


def test_singular_problem_does_not_crash():
    # two parameters enter only through their sum: rank-deficient Jacobian
    t = np.linspace(0.0, 1.0, 20)
    y = 2.0 * t

    def residuals(x):
        return (x[0] + x[1]) * t - y

    result = lm_minimize(residuals, [0.5, 0.5], jac=_loop(residuals))
    assert isinstance(result, FitResult)
    assert result.param("x0") + result.param("x1") == pytest.approx(2.0, rel=1e-6)


def test_error_bars_scale_with_noise():
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 1.0, 400)
    sigma = 0.05
    y = 1.5 * t + rng.normal(0.0, sigma, t.size)

    def residuals(x):
        return x[0] * t - y

    result = lm_minimize(residuals, [0.0], names=["slope"], jac=_loop(residuals))
    # analytic 1-sigma error for a straight-line fit through the origin
    expected = sigma / np.sqrt(np.sum(t * t))
    assert result.error("slope") == pytest.approx(expected, rel=0.3)


def test_result_to_dict_shape():
    def residuals(x):
        return x - 3.0

    result = lm_minimize(residuals, [0.0], names=["a"], jac=_loop(residuals))
    d = result.to_dict()
    assert d["params"]["a"] == pytest.approx(3.0)
    assert d["converged"] is True
    assert set(d) == {"params", "errors", "chi2", "converged", "iterations", "message"}


def test_zero_cost_at_start():
    def residuals(x):
        return np.zeros(3)

    result = lm_minimize(residuals, [1.0, 2.0], jac=_loop(residuals))
    assert result.converged
    assert result.iterations == 0
    assert result.chi2 == 0.0


@pytest.mark.parametrize("seed,message,final_calls", [
    (0, "proposed step below tolerance", 0),  # x has not moved since the last Jacobian
    (3, "step and cost decrease below tolerance", 1),  # the last step moved x
])
def test_covariance_reuses_the_last_jacobian(seed, message, final_calls):
    t = np.linspace(0.0, 5.0, 60)
    y = 3.0 * np.exp(-0.7 * t) + np.random.default_rng(seed).normal(0.0, 0.05, t.size)

    def residuals(x):
        return x[0] * np.exp(-x[1] * t) - y

    calls = []

    def jac(x):
        calls.append(x.copy())
        return forward_loop(residuals, x)

    result = lm_minimize(residuals, [1.0, 1.0], jac=jac)
    assert result.message == message
    assert len(calls) == result.iterations + final_calls
    assert np.array_equal(calls[-1], result.params)

    # a forced recompute: a fresh Jacobian at the final x, as before the reuse
    cov, errors = lm._covariance(forward_loop(residuals, result.params), result.chi2)
    assert np.array_equal(result.errors, errors)
    assert np.array_equal(result.covariance, cov)


# Damping escalation: lambda starts at 1e-3 and grows tenfold per unusable
# trial step until it passes 1e12, so an exhausted iteration solves the
# damped normal equations 16 times.
EXHAUSTED_SOLVES = 16


def _counted(monkeypatch, fail=False):
    """Count lm's linear solves; with fail=True each raises as a singular
    matrix does."""
    solves = []
    real = np.linalg.solve

    def solve(a, b):
        solves.append(a.copy())
        if fail:
            raise np.linalg.LinAlgError("Singular matrix")
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    return solves


def _logged(calls):
    def residuals(x):
        calls.append(x.copy())
        return np.array([x.sum() - 3.0])

    return residuals


def test_stall_on_steps_that_never_lower_the_cost(monkeypatch):
    # a Jacobian of the wrong sign makes every step climb; from x = 0 each
    # trial step is the whole of x_try, so it never counts as tiny
    solves, calls = _counted(monkeypatch), []
    result = lm_minimize(_logged(calls), [0.0], jac=lambda x: np.array([[-1.0]]))
    assert not result.converged
    assert "damping exhausted" in result.message
    assert result.iterations == 1
    assert len(solves) == EXHAUSTED_SOLVES
    assert len(calls) == 1 + EXHAUSTED_SOLVES
    assert np.array_equal(result.params, [0.0])


@pytest.mark.parametrize("fail", [False, True], ids=["non-finite-step", "singular-solve"])
def test_stall_on_steps_that_cannot_be_taken(monkeypatch, fail):
    # |j| = 1e200 squares to inf in the normal equations, so every step is
    # NaN; a solve that raises LinAlgError takes the same escalation
    solves, calls = _counted(monkeypatch, fail), []
    with np.errstate(over="ignore", invalid="ignore"):
        result = lm_minimize(_logged(calls), [0.0, 0.0], jac=lambda x: np.array([[1e200, 1e200]]))
    assert not result.converged
    assert "damping exhausted" in result.message
    assert result.iterations == 1
    assert len(solves) == EXHAUSTED_SOLVES
    assert len(calls) == 1  # no trial step was evaluated
    assert np.array_equal(result.params, [0.0, 0.0])


def test_stop_on_a_non_finite_jacobian(monkeypatch):
    solves, calls = _counted(monkeypatch), []
    result = lm_minimize(_logged(calls), [0.0], jac=lambda x: np.array([[np.nan]]))
    assert not result.converged
    assert result.message == "Jacobian not finite"
    assert (result.iterations, len(solves), len(calls)) == (1, 0, 1)


def test_a_trial_point_the_residual_refuses_is_a_rejected_step():
    # the residual raises ValueError past x = 1, as a model with a domain
    # does; those trial steps are rejected and the fit stops at the edge
    calls = []

    def residuals(x):
        calls.append(x.copy())
        if x[0] > 1.0:
            raise ValueError("outside the model's domain")
        return x - 3.0

    result = lm_minimize(residuals, [0.0], jac=lambda x: np.array([[1.0]]))
    assert result.converged
    assert result.message == "proposed step below tolerance"
    assert result.param("x0") == pytest.approx(1.0, abs=1e-9)
    assert (result.iterations, len(calls)) == (29, 57)


# -- the trimmed core against the reference LM (tests/lm_oracle.py) -----------


def _outcome(call):
    """Every bit of a fit's result, or the FitError it raised."""
    try:
        res = call()
    except FitError as exc:
        return type(exc).__name__, str(exc)
    fit = getattr(res, "fit", res)
    out = [repr(res.to_dict()), repr(fit.to_dict()), fit.params.tobytes(),
           fit.errors.tobytes(), fit.covariance.tobytes()]
    if fit is not res:
        out += [repr(res.errors), repr(res.a), repr(res.qi), repr(res.residual_rms)]
    return out


def _with_oracle(monkeypatch, call):
    """call() with the fitters running the reference lm_minimize and
    numeric_jacobian, which the fitters reach through these names."""
    with monkeypatch.context() as m:
        m.setattr(fitters, "lm_minimize", lm_oracle.lm_minimize)
        m.setattr(lm, "numeric_jacobian", lm_oracle.numeric_jacobian)
        return _outcome(call)


def _reflection_cases():
    rng = np.random.default_rng(29)
    for i in range(24):
        delay = i % 3 == 2
        qc = 10.0 ** rng.uniform(np.log10(5e3), 5.0)
        ql = 1.0 / (1.0 / (qc * 10.0 ** rng.uniform(np.log10(0.3), np.log10(30.0))) + 1.0 / qc)
        f_r = rng.uniform(4.0, 8.0)
        fwhm = f_r / ql
        truth = {"a_re": 1.0, "a_im": 0.0, "ql": ql, "qc": qc,
                 "theta": rng.uniform(-0.4, 0.4), "f_r_ghz": f_r}
        if delay:
            truth["tau_ns"] = rng.uniform(1.0, 4.0) * rng.choice([-1, 1]) / (20.0 * fwhm)
        spec = SynthSpec(kind="reflection_trace", seed=2900 + i, snr_db=rng.uniform(3.0, 40.0),
                         truth=truth, grid={"f_min_ghz": f_r - 10 * fwhm,
                                            "f_max_ghz": f_r + 10 * fwhm, "n_f": 401})
        yield synth_reflection(spec), delay


def test_reflection_fits_match_the_reference_lm(monkeypatch):
    runs, seen = [], set()
    real = fitters.lm_minimize

    def counted(*args, **kwargs):
        runs.append(1)
        return real(*args, **kwargs)

    for trace, delay in _reflection_cases():
        def call():
            return fitters.fit_reflection(trace, delay=delay)

        runs.clear()
        with warnings.catch_warnings(), monkeypatch.context() as m:
            warnings.simplefilter("ignore")
            m.setattr(fitters, "lm_minimize", counted)
            got = _outcome(call)
            want = _with_oracle(monkeypatch, call)
        assert got == want
        seen.add(("delay" if delay else "plain", "raised" if isinstance(got, tuple) else "fit"))
        if len(runs) > 1:
            seen.add("rescanned")
    assert seen >= {("plain", "fit"), ("delay", "fit"), ("plain", "raised"), "rescanned"}


def test_rabi_and_lorentzian_fits_match_the_reference_lm(monkeypatch):
    rng = np.random.default_rng(61)
    calls = []
    for i in range(8):
        truth = {"A": 1.0, "T_R": rng.uniform(150.0, 800.0),
                 "omega": 2 * np.pi / rng.uniform(20.0, 60.0), "B": rng.uniform(-np.pi, np.pi),
                 "a": rng.uniform(-5e-4, 5e-4), "b": rng.uniform(0.3, 0.7)}
        spec = SynthSpec(kind="rabi_trace", seed=2950 + i, snr_db=rng.uniform(10.0, 30.0),
                         truth=truth, grid={"t_max_ns": 1000.0, "n_t": 501})
        calls.append(lambda data=synth_rabi(spec): fitters.fit_rabi(*data))
    f = np.linspace(5.40, 5.46, 301)
    for i in range(8):
        f0, fwhm = rng.uniform(5.42, 5.44), rng.uniform(1e-3, 4e-3)
        y = fitters.lorentzian_model(f, f0, fwhm, rng.uniform(0.2, 0.9), 1.0)
        y = y + rng.normal(0.0, rng.uniform(1e-3, 3e-2), f.size)
        calls.append(lambda y=y: fitters.fit_lorentzian(f, y))
    for call in calls:
        assert _outcome(call) == _with_oracle(monkeypatch, call)


def _exp_residuals(t, y):
    # broadcasts, so it also serves numeric_jacobian's stacked call
    return lambda x: x[0] * np.exp(-x[1] * t) - y


def _runs_alike(fn, x0, jac=None, args=()):
    """Run the package's and the reference LM on one problem, with each
    one's own numeric_jacobian unless jac is given; return the package's
    result once their outcomes agree bit for bit."""
    results = []
    for core in (lm, lm_oracle):
        j = jac or (lambda x, *a, nj=core.numeric_jacobian: nj(fn, x, args=a))
        results.append(core.lm_minimize(fn, x0, args=args, jac=j))
    got, want = (_outcome(lambda r=r: r) for r in results)
    assert got == want
    return results[0]


def test_every_exit_matches_the_reference_lm():
    t = np.linspace(0.0, 5.0, 40)
    y = 3.0 * np.exp(-0.7 * t) + np.random.default_rng(5).normal(0.0, 0.05, t.size)

    # zero cost at the start
    exact = _exp_residuals(t, 3.0 * np.exp(-0.7 * t))
    assert _runs_alike(exact, [3.0, 0.7]).message == "zero cost at start"

    # rejected steps on the way to a converged fit: more single residual
    # calls than the start plus one per iteration
    calls = []

    def counted(x):
        calls.append(np.ndim(x))
        return _exp_residuals(t, y)(x)

    result = _runs_alike(counted, [0.2, 4.0])
    assert result.converged
    assert calls.count(1) // 2 > result.iterations + 1  # both cores ran

    # non-finite trial points, as NaN and as a ValueError
    def nan_below_zero(x):
        with np.errstate(invalid="ignore"):
            return np.sqrt(x) - 1.0

    def refuses_below_zero(x):
        if np.any(x < 0):
            raise ValueError("outside the domain")
        return np.sqrt(x) - 1.0

    for fn in (nan_below_zero, refuses_below_zero):
        result = _runs_alike(fn, [10.0], jac=lambda x: (0.5 / np.sqrt(x))[:, None])
        assert result.converged and result.param("x0") == pytest.approx(1.0)

    # exhausted damping: a tiny Jacobian of the wrong sign
    result = _runs_alike(lambda x: x - 0.0, [1.0], jac=lambda x: np.array([[-1e-10]]))
    assert result.message == "damping exhausted without cost decrease"

    # MAX_ITER: r = x^2 halves x at every step and never meets the tolerance
    result = _runs_alike(lambda x: x**2, [1.0], jac=lambda x: np.diag(2.0 * x))
    assert (result.message, result.iterations) == ("max iterations reached", lm.MAX_ITER)

    # a non-finite Jacobian
    result = _runs_alike(lambda x: x - 3.0, [0.0], jac=lambda x: np.array([[np.inf]]))
    assert result.message == "Jacobian not finite"


# -- inputs that take the np.asarray path ------------------------------------


def test_a_list_residual_fits_as_its_array_does():
    t = np.linspace(0.0, 5.0, 30)
    y = 2.0 * np.exp(-0.5 * t)
    fn = _exp_residuals(t, y)
    jac = (lambda x: forward_loop(fn, x))
    as_list = _runs_alike(lambda x: fn(x).tolist(), [1.0, 1.0], jac=jac)
    assert _outcome(lambda: as_list) == _outcome(lambda: lm_minimize(fn, [1.0, 1.0], jac=jac))


def test_a_non_float64_jacobian_is_cast():
    # an integer Jacobian, and one in float32, each as float64
    for jac in (lambda x: np.array([[1]]), lambda x: np.array([[1.0]], dtype=np.float32)):
        got = _runs_alike(lambda x: x - 3.0, [0.0], jac=jac)
        want = lm_minimize(lambda x: x - 3.0, [0.0], jac=lambda x: np.array([[1.0]]))
        assert _outcome(lambda: got) == _outcome(lambda: want)
