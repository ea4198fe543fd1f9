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

``lm_minimize`` keeps what the callables return without a copy when it
is already in the form it works on: a C-contiguous 1-D float64 ndarray
residual and a float64 ndarray Jacobian. Anything else goes through
``np.asarray``: a complex residual is refused, others are cast to float
and flattened. The loop keeps the current residual while it tries the
next point, so a residual function must not write into an array it has
returned before.

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
_F64 = np.dtype(np.float64)


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
    n = x.size
    h = _REL_STEP * np.maximum(np.abs(x), 1.0)
    xs = np.repeat(x[:, None], n + 1, axis=1)
    xs.reshape(-1)[1 :: n + 2] += h  # the diagonal xs[i, i + 1]
    rs = np.asarray(fn(xs[:, :, None], *args), dtype=float)
    j = rs[1:] - rs[0]
    j /= h[:, None]
    # the layout picks the BLAS kernel behind j.T @ j, and so its bits
    return j.T.copy()


def _covariance(jac: np.ndarray, chi2: float) -> tuple[np.ndarray, np.ndarray]:
    m, n = jac.shape
    dof = max(m - n, 1)
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jac.T @ jac)
    cov = cov * (chi2 / dof)
    cov = (cov + cov.T) / 2.0
    errors = np.sqrt(np.maximum(np.diag(cov), 0.0))
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
    Non-finite residuals, or a cost that overflows, at the start raise
    ValueError; anywhere later they reject the trial step. The covariance
    comes from the Jacobian at the final x, which is the last iteration's
    own when no step was accepted after it was taken.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if names is None:
        names = [f"x{i}" for i in range(x.size)]
    if len(names) != x.size:
        raise ValueError("names length does not match parameter count")
    if not np.isfinite(x).all():
        raise ValueError("initial parameters must be finite")

    def residuals(xv):
        r = fn(xv, *args)
        if type(r) is np.ndarray and r.dtype == _F64 and r.ndim == 1 and r.flags.c_contiguous:
            return r
        r = np.asarray(r)
        if np.iscomplexobj(r):
            raise ValueError("residual function must return real values")
        return r.astype(float, copy=False).ravel()

    def jacobian(xv):
        j = jac(xv, *args)
        if type(j) is np.ndarray and j.dtype == _F64:
            return j
        return np.asarray(j, dtype=float)

    r = residuals(x)
    if not np.isfinite(r).all():
        raise ValueError("residuals are not finite at the initial point")
    # an overflow is reported by the error below, not by a warning as well
    with np.errstate(over="ignore"):
        cost = float(r @ r)
    if not math.isfinite(cost):
        # no trial cost falls below inf, so damping would shrink the step
        # until it "converged" at the start
        raise ValueError("cost overflows at the initial point")

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
        neg_g = -(j.T @ r)
        a_diag = a.diagonal().copy()
        d = np.maximum(a_diag, max(a_diag.max(), 1.0) * 1e-14)
        damped = a.reshape(-1)[:: a.shape[0] + 1]  # a view of a's diagonal

        while lam <= _LAMBDA_MAX:
            # damp a's diagonal in place; solve leaves a untouched
            np.add(a_diag, lam * d, out=damped)
            try:
                step = np.linalg.solve(a, neg_g)
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
