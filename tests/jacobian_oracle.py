"""Finite-difference oracles for the Jacobian tests.

``forward_loop`` is the column-at-a-time forward difference that
``cqedkit.lm.numeric_jacobian`` must reproduce bit for bit from its one
call on the stacked points; it also serves as the ``jac=`` of optimizer
tests whose residuals do not broadcast. ``central_difference`` checks
analytic Jacobians to second order.
"""

import numpy as np


def forward_loop(fn, x, args=()):
    """One residual call at x and one per stepped parameter, step
    1.49e-8 * max(|x_i|, 1); C-ordered (m, n)."""
    x = np.asarray(x, dtype=float)
    r0 = np.asarray(fn(x, *args), dtype=float)
    cols = []
    for i in range(x.size):
        h = 1.49e-8 * max(abs(x[i]), 1.0)
        xp = x.copy()
        xp[i] += h
        cols.append((np.asarray(fn(xp, *args), dtype=float) - r0) / h)
    return np.column_stack(cols)


def central_difference(fn, x, args=(), rel_step=6.06e-6):
    """Central differences, step rel_step * max(|x_i|, 1) (eps**(1/3))."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        h = rel_step * max(abs(x[i]), 1.0)
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        rp = np.asarray(fn(xp, *args), dtype=float)
        rm = np.asarray(fn(xm, *args), dtype=float)
        cols.append((rp - rm) / (2.0 * h))
    return np.column_stack(cols)
