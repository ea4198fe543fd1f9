"""Qubit-cavity coupling model: dispersive shifts, anti-crossings, gate
sweeps, power dependence, and qubit-induced cavity loss.

Sign convention throughout: delta = f_bare - f_qubit (cavity minus qubit),
in MHz. Cavity frequencies are GHz, couplings and linewidths MHz.

Gate tables are interpolated by a monotone cubic written here in numpy;
only the spectrum solvers touch scipy, and only its compiled LAPACK
wrappers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import CqedkitError
from .spectra import QubitParams, QubitSpectrum, gatemon_levels, transmon_levels

PLANCK_J_S = 6.62607015e-34

# |delta| > DISPERSIVE_FACTOR * g counts as dispersive; below that the
# hybridized branches are the meaningful observables.
DISPERSIVE_FACTOR = 10.0


@dataclass
class DispersiveSystem:
    """Bare cavity plus qubit spectrum and loss rates."""

    f_bare_ghz: float
    g_mhz: float
    qubit: QubitSpectrum | None = None
    kappa_mhz: float = 1.0
    gamma_q_mhz: float = 0.0

    def __post_init__(self):
        if self.f_bare_ghz <= 0:
            raise ValueError("f_bare_ghz must be positive")
        if self.g_mhz <= 0:
            raise ValueError("g_mhz must be positive")
        if self.kappa_mhz <= 0:
            raise ValueError("kappa_mhz must be positive")
        if self.gamma_q_mhz < 0:
            raise ValueError("gamma_q_mhz must be non-negative")

    @property
    def delta_mhz(self) -> float:
        """Detuning f_bare - f01 in MHz."""
        if self.qubit is None:
            raise ValueError("system has no qubit spectrum attached")
        return self.f_bare_ghz * 1e3 - self.qubit.f01

    def induced_loss_mhz(self, delta_mhz: float) -> float:
        """Cavity loss rate the qubit adds at detuning delta (inverse
        Purcell effect): (g/delta)^2 * gamma_q, in MHz."""
        if delta_mhz == 0:
            raise ValueError("delta = 0: inverse-Purcell formula needs detuning")
        return (self.g_mhz / delta_mhz) ** 2 * self.gamma_q_mhz


def dispersive_shift_two_level(g: float, delta: float) -> float:
    """Two-level dispersive cavity shift chi = g^2/delta (MHz)."""
    if delta == 0:
        raise ValueError("delta = 0 is resonant; use anti_crossing instead")
    if abs(delta) < DISPERSIVE_FACTOR * g:
        warnings.warn(
            f"|delta| = {abs(delta):.3g} MHz < 10 g; dispersive result unreliable",
            stacklevel=2,
        )
    return g * g / delta


def anti_crossing(f_bare_ghz: float, f_q_ghz: float, g_mhz: float):
    """Hybridized branch frequencies (f_plus, f_minus) in GHz.

    Eigenvalues of the 2x2 single-excitation block; the minimum splitting
    2g occurs at resonance.
    """
    if g_mhz <= 0:
        raise ValueError("g_mhz must be positive")
    mean = (f_bare_ghz + f_q_ghz) / 2.0
    split = math.hypot((f_bare_ghz - f_q_ghz) / 2.0, g_mhz / 1e3)
    return mean + split, mean - split


def critical_photon_number(g_mhz: float, delta_mhz: float) -> float:
    """n_crit = (delta / 2g)^2, where the dispersive picture breaks down.
    Raises ValueError when g is so small that n_crit overflows a float."""
    if g_mhz <= 0:
        raise ValueError("g_mhz must be positive")
    try:
        n_crit = (delta_mhz / (2.0 * g_mhz)) ** 2
    except OverflowError:
        n_crit = math.inf
    if math.isinf(n_crit):
        raise ValueError(f"n_crit = (delta / 2g)^2 overflows at g = {g_mhz:g} MHz, "
                         f"delta = {delta_mhz:g} MHz")
    return n_crit


def mean_photon_number(
    power_dbm, f_ghz: float, kappa_mhz: float, attenuation_db: float = 0.0
):
    """Steady-state one-port photon number n = P/(h f kappa).

    ``attenuation_db`` is the line attenuation between the stated source
    power and the cavity port; it is configuration, not physics.
    """
    p_watt = 1e-3 * np.power(10.0, (np.asarray(power_dbm, float) - attenuation_db) / 10.0)
    return p_watt / (PLANCK_J_S * f_ghz * 1e9 * kappa_mhz * 1e6)


def crossover_weight(system, powers_dbm, attenuation_db=0.0):
    """Weight of the dressed cavity line across the power crossover:
    1 / (1 + n/n_crit), a logistic in log photon number centered on n_crit
    and one e-fold wide, 1 at n << n_crit and 0 at n >> n_crit."""
    n_crit = critical_photon_number(system.g_mhz, system.delta_mhz)
    n_bar = mean_photon_number(
        powers_dbm, system.f_bare_ghz, system.kappa_mhz, attenuation_db
    )
    return 1.0 / (1.0 + n_bar / n_crit)


def power_dependence(
    system: DispersiveSystem,
    powers_dbm,
    attenuation_db: float = 0.0,
) -> np.ndarray:
    """Apparent cavity frequency f_C(P) in GHz across the power crossover.

    Phenomenological model: the dispersive shift chi is weighted by
    crossover_weight, giving f_bare + chi at n << n_crit and the bare
    frequency at n >> n_crit.
    """
    chi = dispersive_shift_two_level(system.g_mhz, system.delta_mhz)
    weight = crossover_weight(system, powers_dbm, attenuation_db)
    return system.f_bare_ghz + chi / 1e3 * weight


@dataclass
class GateSweepModel:
    """Sampled map from gate voltage to EJ (MHz) or channel transmission.

    Evaluation interpolates the table with a monotone cubic (pchip), so
    there is no overshoot between samples, and holds the end values outside
    its range.
    """

    voltages: np.ndarray
    values: np.ndarray
    maps_to: str = "ej"  # "ej" or "transmission"

    def __post_init__(self):
        self.voltages = np.asarray(self.voltages, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.voltages.ndim != 1 or self.voltages.shape != self.values.shape:
            raise ValueError("voltages and values must be 1-D arrays of equal length")
        if self.voltages.size < 2:
            raise ValueError("need at least two table samples")
        if not np.isfinite([self.voltages, self.values]).all():
            raise ValueError("gate table voltages and values must be finite")
        if not np.all(np.diff(self.voltages) > 0):
            raise ValueError("V_G samples must be strictly increasing")
        if self.maps_to not in ("ej", "transmission"):
            raise ValueError(f"maps_to must be 'ej' or 'transmission', got {self.maps_to!r}")
        if np.any(self.values < 0):
            raise ValueError("mapped values must be non-negative")
        if self.maps_to == "transmission" and np.any(self.values > 1):
            raise ValueError("transmissions must lie in [0, 1]")
        self._coeffs = _pchip_coefficients(self.voltages, self.values)

    def __call__(self, v):
        x = self.voltages
        v = np.clip(v, x[0], x[-1])
        i = np.clip(np.searchsorted(x, v, side="right") - 1, 0, x.size - 2)
        s = v - x[i]
        c3, c2, c1, c0 = self._coeffs[:, i]
        # the order of scipy's PPoly evaluation, which sums from 0.0, so the bits match
        s2 = s * s
        out = 0.0 + c0 + c1 * s + c2 * s2 + c3 * (s2 * s)
        hi = 1.0 if self.maps_to == "transmission" else np.inf
        return np.clip(out, 0.0, hi)


def _pchip_coefficients(x, y):
    """Per-interval cubic coefficients, highest power first, of the monotone
    Hermite interpolant of Fritsch and Butland (SIAM J. Sci. Stat. Comput.
    5, 300 (1984)): knot slopes are the weighted harmonic mean of the
    secants, zero at an extremum, with Moler's one-sided rule at the ends.
    The arithmetic is scipy's PchipInterpolator's, operation for operation."""
    h = np.diff(x)
    m = np.diff(y) / h
    if x.size == 2:
        d = np.array([m[0], m[0]])
    else:
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        sign = np.sign(m)
        flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        d = np.empty_like(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        steep = (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0))
        d[[0, -1]] = np.where(np.sign(end) != np.sign(m0), 0.0,
                              np.where(steep, 3.0 * m0, end))
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


def nanowire_profile(
    seed: int,
    v_min: float = -2.0,
    v_max: float = 10.0,
    n: int = 41,
    v_pinch: float = 0.0,
    max_value: float = 20000.0,
    maps_to: str = "ej",
) -> GateSweepModel:
    """Seeded synthetic gate response: smooth turn-on plus bounded wiggles.

    Zero below ``v_pinch``, then a smoothstep ramp toward ``max_value``
    modulated by a smoothed random walk of relative amplitude 0.2.
    Stands in for a semiconductor-junction response where no measured
    table is available. ``n`` is at least 5, the width of the walk's
    smoothing window.
    """
    if n < 5:
        raise ValueError(f"n must be at least 5, got {n}")
    rng = np.random.default_rng(seed)
    v = np.linspace(v_min, v_max, n)
    v_on = v_pinch + 0.6 * (v_max - v_pinch)
    s = np.clip((v - v_pinch) / (v_on - v_pinch), 0.0, 1.0)
    ramp = s * s * (3.0 - 2.0 * s)
    walk = np.cumsum(rng.standard_normal(n))
    walk = np.convolve(walk, np.ones(5) / 5.0, mode="same")
    peak = np.max(np.abs(walk))
    if peak > 0:
        walk /= peak
    values = max_value * ramp * (1.0 + 0.2 * walk * s)
    values = np.maximum(values, 0.0)
    if maps_to == "transmission":
        values = np.clip(values, 0.0, 1.0)
    return GateSweepModel(v, values, maps_to=maps_to)


class SweepPoint(NamedTuple):
    """One gate point of a sweep, which is one row of its CSV: the fields
    are SweepResult.CSV_COLUMNS, in that order. NaN marks fields without
    meaning at the point, and that pattern is the point's regime.
    """

    vg: float
    f_q_mhz: float
    chi_mhz: float
    f_c_ghz: float
    f_plus_ghz: float
    f_minus_ghz: float

    @property
    def regime(self) -> str:
        """"pinch_off" where f_Q is NaN, else "hybridized" where chi is
        NaN, else "dispersive"."""
        if math.isnan(self.f_q_mhz):
            return "pinch_off"
        return "hybridized" if math.isnan(self.chi_mhz) else "dispersive"


@dataclass
class SweepResult:
    """Gate sweep output: the points, ordered by V_G, and the system they
    were solved against, from which maps are resynthesized."""

    points: list[SweepPoint]
    system: DispersiveSystem

    CSV_COLUMNS = ("V_G", "f_Q_MHz", "chi_MHz", "f_C_GHz", "f_plus_GHz", "f_minus_GHz")
    _INDEX = {name: i for i, name in enumerate(CSV_COLUMNS)}

    def column(self, name: str) -> np.ndarray:
        i = self._INDEX[name]
        return np.array([p[i] for p in self.points], dtype=float)


def gate_sweep(
    model: GateSweepModel,
    params: QubitParams,
    system: DispersiveSystem,
    voltages=None,
    solver_options=None,
) -> SweepResult:
    """Sweep the gate table and record qubit and cavity observables.

    Per point: the junction value from ``model`` replaces EJ, or the
    transmission of the one channel, in ``params``; a gatemon with more
    channels is refused, as the table drives only one. The spectrum is
    solved, and either the dispersive shift (|delta| > 10 g, chi finite)
    or the hybridized anti-crossing branches (chi NaN) are reported.
    Pinch-off points (EJ = 0 or T = 0) leave the bare cavity: f_Q NaN,
    f_C = f_bare, chi = 0. The result carries ``system`` itself.

    ``voltages`` defaults to the model's own sample grid. Points are
    returned ordered by V_G no matter how they were evaluated. Each
    distinct junction value is solved once per call, so the points where
    a transmission table clips at 1 share one solve, and every distinct
    junction value runs its refinement check. ``solver_options``
    (``n_cut`` or ``grid_n``, as from ``config.solver_options``) goes to
    every solve.
    """
    solver_options = solver_options or {}
    if voltages is None:
        voltages = model.voltages
    voltages = np.sort(np.asarray(voltages, dtype=float))
    is_transmon_sweep = model.maps_to == "ej"
    if is_transmon_sweep != params.is_transmon:
        raise ValueError("sweep table maps_to does not match the qubit variant")
    if not is_transmon_sweep and len(params.transmissions) != 1:
        n = len(params.transmissions)
        raise ValueError(f"a transmission sweep drives one channel; the gatemon has {n}")

    points = []
    solved = {}  # junction value -> spectrum; a clipped table repeats values
    for v, value in zip(voltages, model(voltages).tolist()):
        if value <= 0.0:
            f01, chi, f_c = math.nan, 0.0, system.f_bare_ghz
            f_plus = f_minus = math.nan
        else:
            if value not in solved:
                try:
                    if is_transmon_sweep:
                        solved[value] = transmon_levels(
                            replace(params, ej=value), **solver_options)
                    else:
                        solved[value] = gatemon_levels(
                            replace(params, transmissions=(value,)), **solver_options)
                except CqedkitError as exc:
                    raise type(exc)(f"V_G = {v:g}: {exc}") from exc
            f01 = solved[value].f01
            delta = system.f_bare_ghz * 1e3 - f01
            f_plus, f_minus = anti_crossing(system.f_bare_ghz, f01 / 1e3, system.g_mhz)
            if abs(delta) > DISPERSIVE_FACTOR * system.g_mhz:
                chi = system.g_mhz**2 / delta
                f_c = system.f_bare_ghz + chi / 1e3
            else:
                # near resonance a single shifted line is meaningless; report
                # the branch that carries the cavity character
                chi = math.nan
                f_c = f_plus if f01 <= system.f_bare_ghz * 1e3 else f_minus
        points.append(SweepPoint(float(v), f01, chi, f_c, f_plus, f_minus))
    return SweepResult(points, system)
