"""Dense Levenberg-Marquardt least squares.

Small and self-contained on purpose: every fit in this package runs through
lm_minimize so the convergence rules stay in one place. Residual functions
must return real 1-D arrays; complex data is fit by stacking real and
imaginary parts.

Every caller names its Jacobian: ``lm_minimize`` requires ``jac=``. A
fitter passes an analytic one or forward differences from
``numeric_jacobian``, the one difference rule in the package: step
parameter i by ``1.49e-8 * max(|x_i|, 1)`` and divide the change in the
residual by the step. The residual is called once, on the (n, n+1, 1)
stack of points (column 0 is x, column i+1 is x with parameter i
stepped), so each ``X[i]`` is an (n+1, 1) column that broadcasts against
a 1-D data axis. It must return the (n+1, m) stack of rows, each with the
bits a single call at that point gives; the Jacobian is one difference of
those rows.

Convergence: an accepted step whose relative size and relative cost
decrease are both below ``TOL`` (1e-10), or a rejected step that has
shrunk below ``TOL``. Hard cap of ``MAX_ITER`` (200) iterations. Both are
constants. A singular, non-finite or rejected step escalates the
damping; if damping maxes out the result is returned with
``converged=False`` rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_ITER = 200
TOL = 1e-10
_REL_STEP = 1.49e-8  # sqrt(eps)
_LAMBDA_INIT = 1e-3
_LAMBDA_MAX = 1e12
_TINY = 1e-300


@dataclass
class FitResult:
    """Optimizer output: named parameter vector plus diagnostics."""

    names: list[str]
    params: np.ndarray
    errors: np.ndarray
    covariance: np.ndarray
    iterations: int
    converged: bool
    chi2: float
    message: str = ""

    def param(self, name: str) -> float:
        return float(self.params[self.names.index(name)])

    def error(self, name: str) -> float:
        return float(self.errors[self.names.index(name)])

    def to_dict(self) -> dict:
        """Plain floats, NaN included; writers map NaN to null."""
        return {
            "params": dict(zip(self.names, np.asarray(self.params, float).tolist())),
            "errors": dict(zip(self.names, np.asarray(self.errors, float).tolist())),
            "chi2": float(self.chi2),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "message": self.message,
        }


def numeric_jacobian(fn, x, args=()):
    """Forward-difference Jacobian of a residual function at x, C-ordered
    (m, n), from one call on the (n, n+1, 1) stack (module docstring)."""
    x = np.asarray(x, dtype=float)
    h = _REL_STEP * np.maximum(np.abs(x), 1.0)
    xs = np.repeat(x[:, None], x.size + 1, axis=1)
    xs[np.arange(x.size), np.arange(1, x.size + 1)] += h
    rs = np.asarray(fn(xs[:, :, None], *args), dtype=float)
    # the layout picks the BLAS kernel behind j.T @ j, and so its bits
    return np.ascontiguousarray(((rs[1:] - rs[0]) / h[:, None]).T)


def _covariance(jac: np.ndarray, chi2: float) -> tuple[np.ndarray, np.ndarray]:
    m, n = jac.shape
    dof = max(m - n, 1)
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jac.T @ jac)
    cov = cov * (chi2 / dof)
    cov = (cov + cov.T) / 2.0
    errors = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return cov, errors


def lm_minimize(
    fn,
    x0,
    args=(),
    names: list[str] | None = None,
    *,
    jac,
) -> FitResult:
    """Minimize sum(fn(x, *args)**2) from x0.

    ``fn(x, *args)`` returns the residual vector and ``jac(x, *args)`` its
    Jacobian, analytic or from ``numeric_jacobian``.
    Non-finite residuals at the start raise ValueError; anywhere later they
    reject the trial step. The covariance comes from the Jacobian at the
    final x, which is the last iteration's own when no step was accepted
    after it was taken.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if names is None:
        names = [f"x{i}" for i in range(x.size)]
    if len(names) != x.size:
        raise ValueError("names length does not match parameter count")
    if not np.isfinite(x).all():
        raise ValueError("initial parameters must be finite")

    def residuals(xv):
        r = np.asarray(fn(xv, *args))
        if np.iscomplexobj(r):
            raise ValueError("residual function must return real values")
        return r.astype(float, copy=False).ravel()

    def jacobian(xv):
        return np.asarray(jac(xv, *args), dtype=float)

    r = residuals(x)
    if not np.isfinite(r).all():
        raise ValueError("residuals are not finite at the initial point")
    cost = float(r @ r)

    lam = _LAMBDA_INIT
    iterations = 0
    converged = False
    message = "max iterations reached"

    if cost == 0.0:
        converged, message = True, "zero cost at start"

    j = None  # the Jacobian at x, dropped whenever x moves

    while not converged and iterations < MAX_ITER:
        iterations += 1
        j = jacobian(x)
        if not np.isfinite(j).all():
            message = "Jacobian not finite"
            break
        a = j.T @ j
        g = j.T @ r
        a_diag = a.diagonal().copy()
        d = a_diag.copy()
        floor = max(d.max(), 1.0) * 1e-14
        d[d < floor] = floor

        while lam <= _LAMBDA_MAX:
            # damp a's diagonal in place; solve leaves a untouched
            np.fill_diagonal(a, a_diag + lam * d)
            try:
                step = np.linalg.solve(a, -g)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.isfinite(step).all():
                x_try = x + step
                step_rel = math.sqrt(step @ step) / max(math.sqrt(x_try @ x_try), _TINY)
                # a wild trial step may overflow the model or its cost; a
                # non-finite cost fails the test below, so keep the overflow quiet
                with np.errstate(over="ignore"):
                    try:
                        r_try = residuals(x_try)
                        cost_try = float(r_try @ r_try)
                    except (ValueError, FloatingPointError):
                        cost_try = math.inf
                if cost_try < cost:
                    cost_rel = (cost - cost_try) / max(cost, _TINY)
                    x, r, cost = x_try, r_try, cost_try
                    j = None
                    lam = max(lam / 3.0, 1e-14)
                    if (step_rel < TOL and cost_rel < TOL) or cost == 0.0:
                        converged = True
                        message = "step and cost decrease below tolerance"
                    break
                # rejected step: a tiny one means we sit at the minimum already
                if step_rel < TOL:
                    converged = True
                    message = "proposed step below tolerance"
                    break
            # a singular, non-finite or rejected step: damp harder
            lam *= 10.0
        else:
            message = "damping exhausted without cost decrease"
            break

    if j is None:
        j = jacobian(x)
    cov, errors = _covariance(j, cost)
    return FitResult(
        names=list(names),
        params=x,
        errors=errors,
        covariance=cov,
        iterations=iterations,
        converged=converged,
        chi2=cost,
        message=message,
    )
