"""Optimizer unit tests: exactness on linear problems, the standard
nonlinear benchmark, and failure-mode behavior."""

import numpy as np
import pytest

from cqedkit import lm
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
    def residuals(x):
        return np.array([1j * x[0]])

    with pytest.raises(ValueError):
        lm_minimize(residuals, [1.0], jac=_loop(residuals))


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
