"""Independent references for the benchmark's accuracy checks.

Nothing here calls cqedkit. The qubit references are dense numpy
diagonalisations set up differently from ``cqedkit.spectra``: the gatemon
potential's charge-basis matrix elements come from direct cosine
quadrature of the real, even channel potential (not an FFT on the solver's
grid), with their own charge cutoff, and the transmon is a full dense
matrix rather than a tridiagonal solve.
"""

from __future__ import annotations

import numpy as np

GATEMON_N_CUT = 40
GATEMON_N_QUAD = 4096
TRANSMON_N_CUT = 60


def gatemon_f01(ec: float, gap: float, transmissions, ng: float = 0.0) -> float:
    """f01 (MHz) of 4*EC*(n-ng)^2 - gap*sum_i sqrt(1 - T_i sin^2(phi/2))."""
    phi = (np.arange(GATEMON_N_QUAD) + 0.5) * (2.0 * np.pi / GATEMON_N_QUAD)
    u = np.zeros_like(phi)
    for t in transmissions:
        u -= gap * np.sqrt(1.0 - t * np.sin(phi / 2.0) ** 2)
    m = np.arange(2 * GATEMON_N_CUT + 1)
    coef = np.cos(np.outer(m, phi)) @ u / GATEMON_N_QUAD
    k = np.arange(-GATEMON_N_CUT, GATEMON_N_CUT + 1)
    h = np.diag(4.0 * ec * (k - ng) ** 2) + coef[np.abs(k[:, None] - k[None, :])]
    w = np.linalg.eigvalsh(h)
    return float(w[1] - w[0])


def transmon_f01(ec: float, ej: float, ng: float = 0.0) -> float:
    """f01 (MHz) of 4*EC*(n-ng)^2 - (EJ/2)*sum(|n><n+1| + h.c.)."""
    k = np.arange(-TRANSMON_N_CUT, TRANSMON_N_CUT + 1)
    hop = np.eye(k.size, k=1) + np.eye(k.size, k=-1)
    h = np.diag(4.0 * ec * (k - ng) ** 2) - 0.5 * ej * hop
    w = np.linalg.eigvalsh(h)
    return float(w[1] - w[0])


def regime(f_bare_ghz: float, g_mhz: float, f01_mhz: float) -> str:
    """Regime label from the dispersive criterion |f_bare - f01| > 10 g."""
    if not np.isfinite(f01_mhz):
        return "pinch_off"
    return "dispersive" if abs(f_bare_ghz * 1e3 - f01_mhz) > 10.0 * g_mhz else "hybridized"
