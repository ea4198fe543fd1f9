"""Synthetic data generation with known ground truth.

Every generator forward-evaluates the same models the fitters use, adds
calibrated noise, and stays reproducible: a magnitude signal-to-noise ratio
of ``snr_db`` means a noise rms of ``scale * 10**(-snr_db/20)`` where
``scale`` is the baseline magnitude (complex noise splits that rms evenly
over the two quadratures). ``snr_db = None`` disables noise.

Random source: numpy's default PCG64 generator. 2D maps draw one
independent stream per slow-axis row, seeded with the pair
``(seed, row_index)``, so extending a sweep never perturbs rows already
generated and rows can be produced in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import (
    DispersiveSystem,
    SweepResult,
    crossover_weight,
    dispersive_shift_two_level,
)
from .errors import ConfigError
from .fitters import ComplexTrace, lorentzian_model, rabi_model, reflection_model

SYNTH_KINDS = (
    "reflection_trace",
    "power_map",
    "gate_map",
    "two_tone_map",
    "rabi_trace",
)

# grid keys each kind must provide
_GRID_KEYS = {
    "reflection_trace": ("f_min_ghz", "f_max_ghz", "n_f"),
    "power_map": ("f_min_ghz", "f_max_ghz", "n_f", "p_min_dbm", "p_max_dbm", "n_p"),
    "gate_map": ("f_min_ghz", "f_max_ghz", "n_f", "v_min", "v_max", "n_v"),
    "two_tone_map": ("f_min_ghz", "f_max_ghz", "n_f", "v_min", "v_max", "n_v"),
    "rabi_trace": ("t_max_ns", "n_t"),
}

_TRUTH_KEYS = {
    "reflection_trace": ("a_re", "a_im", "ql", "qc", "theta", "f_r_ghz"),
    "rabi_trace": ("A", "T_R", "omega", "B", "a", "b"),
    # map kinds pull their physics from a DispersiveSystem / SweepResult and
    # keep only presentation knobs in truth, all optional
    "power_map": (),
    "gate_map": (),
    "two_tone_map": (),
}


def whole_number(value, what: str):
    """A whole number: an int as it is, or an integral float such as 4e2.

    The one integer rule of SynthSpec and of the config readers.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return value
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if isinstance(value, (bool, np.bool_)) or not x.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return x


@dataclass
class SynthSpec:
    """Recipe for one synthetic dataset.

    kind selects the generator, truth carries the generating parameters,
    grid the axes. The same spec serialized next to the data is the ground
    truth record used to score fits.
    """

    kind: str
    seed: int
    snr_db: float | None
    truth: dict
    grid: dict

    def __post_init__(self):
        if self.kind not in SYNTH_KINDS:
            raise ConfigError(
                f"unknown synth kind {self.kind!r}, expected one of {SYNTH_KINDS}"
            )
        self.seed = int(whole_number(self.seed, "seed"))
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        if self.snr_db is not None:
            self.snr_db = float(self.snr_db)
            if not math.isfinite(self.snr_db):
                raise ConfigError("snr_db must be finite (omit it for noiseless)")
        missing = [k for k in _GRID_KEYS[self.kind] if k not in self.grid]
        if missing:
            raise ConfigError(f"synth grid for {self.kind} is missing {missing}")
        missing = [k for k in _TRUTH_KEYS[self.kind] if k not in self.truth]
        if missing:
            raise ConfigError(f"synth truth for {self.kind} is missing {missing}")
        for axis in ("f", "p", "v", "t"):
            n_key = f"n_{axis}"
            if n_key not in _GRID_KEYS[self.kind]:
                continue
            # the sidecar records the count as given, so it must be the
            # number of points the axis gets
            if whole_number(self.grid[n_key], n_key) < 2:
                raise ConfigError(f"{n_key} must be at least 2")

    def axis(self, prefix: str) -> np.ndarray:
        g = self.grid
        if prefix == "t":
            return np.linspace(0.0, float(g["t_max_ns"]), int(g["n_t"]))
        lo_key = {"f": "f_min_ghz", "p": "p_min_dbm", "v": "v_min"}[prefix]
        hi_key = {"f": "f_max_ghz", "p": "p_max_dbm", "v": "v_max"}[prefix]
        lo, hi = float(g[lo_key]), float(g[hi_key])
        if not hi > lo:
            raise ConfigError(f"{hi_key} must exceed {lo_key}")
        return np.linspace(lo, hi, int(g[f"n_{prefix}"]))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "snr_db": self.snr_db,
            "truth": dict(self.truth),
            "grid": dict(self.grid),
        }


@dataclass
class Map2D:
    """2D magnitude map: grid[i, j] at slow_values[i], fast_values[j]."""

    slow_name: str
    slow_values: np.ndarray
    fast_name: str
    fast_values: np.ndarray
    grid: np.ndarray

    def __post_init__(self):
        self.slow_values = np.asarray(self.slow_values, dtype=float)
        self.fast_values = np.asarray(self.fast_values, dtype=float)
        self.grid = np.asarray(self.grid, dtype=float)
        if self.grid.shape != (self.slow_values.size, self.fast_values.size):
            raise ValueError(
                f"grid shape {self.grid.shape} does not match axes "
                f"({self.slow_values.size}, {self.fast_values.size})"
            )


def _noise_rms(snr_db: float | None, scale: float) -> float:
    if snr_db is None:
        return 0.0
    return abs(scale) * 10.0 ** (-snr_db / 20.0)


def _noisy_row(row, spec: SynthSpec, i: int, scale: float):
    """Map row i plus noise from its own (seed, i) stream."""
    sigma = _noise_rms(spec.snr_db, scale)
    if sigma > 0:
        row = row + np.random.default_rng((spec.seed, i)).normal(0, sigma, row.size)
    return row


def synth_reflection(spec: SynthSpec) -> ComplexTrace:
    """Complex reflection trace from the fit model plus complex noise."""
    if spec.kind != "reflection_trace":
        raise ConfigError(f"spec kind is {spec.kind!r}, not reflection_trace")
    t = spec.truth
    f = spec.axis("f")
    a = complex(float(t["a_re"]), float(t["a_im"]))
    z = reflection_model(
        f,
        a,
        float(t["ql"]),
        float(t["qc"]),
        float(t["theta"]),
        float(t["f_r_ghz"]),
        float(t.get("tau_ns", 0.0)),
    )
    sigma = _noise_rms(spec.snr_db, abs(a))
    if sigma > 0:
        rng = np.random.default_rng(spec.seed)
        per_quad = sigma / math.sqrt(2.0)
        z = z + rng.normal(0.0, per_quad, f.size) + 1j * rng.normal(
            0.0, per_quad, f.size
        )
    return ComplexTrace(f, z)


def _dip(f_ghz, center_ghz, fwhm_mhz, depth, baseline):
    return lorentzian_model(f_ghz, center_ghz, max(fwhm_mhz, 1e-6) / 1e3, depth, baseline)


def _mag_dip(f_ghz, center_ghz, fwhm_mhz, depth):
    """|S21| of the symmetric reflection model, normalized to 1 off resonance.

    The loaded Q is set by the linewidth and the coupling Q by the requested
    relative dip depth, so cavity map rows really are reflection traces.
    """
    ql = center_ghz * 1e3 / max(fwhm_mhz, 1e-6)
    qc = 2.0 * ql / min(max(depth, 1e-9), 1.0)
    return np.abs(reflection_model(f_ghz, 1.0, ql, qc, 0.0, center_ghz))


def synth_power_map(spec: SynthSpec, system: DispersiveSystem) -> Map2D:
    """Cavity |S21| vs (probe power, frequency); rows are reflection traces.

    The dip sits at the power-dependent cavity frequency: dressed
    (f_bare + chi) at low photon number, bare at high, with the logistic
    crossover at the critical photon number. Its linewidth carries the
    qubit-induced loss (g/Delta)^2 * gamma_q weighted by the same
    crossover, so the low-power line is the broader one.

    Optional truth keys: depth (0.8), baseline (1.0), attenuation_db (0),
    width_efolds (1.0).
    """
    if spec.kind != "power_map":
        raise ConfigError(f"spec kind is {spec.kind!r}, not power_map")
    if system.qubit is None:
        raise ConfigError("power_map needs a DispersiveSystem with a qubit attached")
    t = spec.truth
    depth = float(t.get("depth", 0.8))
    baseline = float(t.get("baseline", 1.0))
    atten = float(t.get("attenuation_db", 0.0))
    width = float(t.get("width_efolds", 1.0))
    powers = spec.axis("p")
    f = spec.axis("f")
    delta = system.delta_mhz
    chi = dispersive_shift_two_level(system.g_mhz, delta)
    purcell = (system.g_mhz / delta) ** 2 * system.gamma_q_mhz

    grid = np.empty((powers.size, f.size))
    for i, p in enumerate(powers):
        w = crossover_weight(system, p, atten, width)
        f_dip = system.f_bare_ghz + w * chi / 1e3
        fwhm = system.kappa_mhz + w * purcell
        row = baseline * _mag_dip(f, f_dip, fwhm, depth)
        grid[i] = _noisy_row(row, spec, i, baseline)
    return Map2D("P_dBm", powers, "f_GHz", f, grid)


def synth_gate_map(spec: SynthSpec, sweep: SweepResult) -> Map2D:
    """Cavity |S21| vs (gate voltage, frequency); rows are reflection traces.

    Dispersive and pinched-off points give one dip at the shifted (or
    bare) cavity frequency. Hybridized points give two dips at the
    anti-crossing branches, each weighted by its cavity fraction
    w = (1 +- detuning/splitting)/2 in depth, with linewidth
    w*kappa + (1-w)*gamma_q.

    Optional truth keys: depth (0.8), baseline (1.0).
    """
    if spec.kind != "gate_map":
        raise ConfigError(f"spec kind is {spec.kind!r}, not gate_map")
    t = spec.truth
    depth = float(t.get("depth", 0.8))
    baseline = float(t.get("baseline", 1.0))
    f = spec.axis("f")
    kappa = sweep.kappa_mhz
    gamma = sweep.gamma_q_mhz
    g = sweep.g_mhz

    volts = sweep.column("V_G")
    grid = np.empty((volts.size, f.size))
    for i, pt in enumerate(sweep.points):
        if pt.regime == "hybridized":
            delta = sweep.f_bare_ghz * 1e3 - pt.f_q_mhz
            omega = math.hypot(delta, 2.0 * g)
            w_plus = 0.5 * (1.0 + delta / omega)
            row = np.full(f.shape, baseline)
            for center, w in ((pt.f_plus_ghz, w_plus), (pt.f_minus_ghz, 1.0 - w_plus)):
                fwhm = w * kappa + (1.0 - w) * gamma
                row = row * _mag_dip(f, center, fwhm, depth * w)
        elif pt.regime == "dispersive":
            delta = sweep.f_bare_ghz * 1e3 - pt.f_q_mhz
            fwhm = kappa + (g / delta) ** 2 * gamma
            row = baseline * _mag_dip(f, pt.f_c_ghz, fwhm, depth)
        else:  # pinch_off: bare cavity line
            row = baseline * _mag_dip(f, pt.f_c_ghz, kappa, depth)
        grid[i] = _noisy_row(row, spec, i, baseline)
    return Map2D("V_G", volts, "f_GHz", f, grid)


def synth_two_tone(spec: SynthSpec, sweep: SweepResult) -> Map2D:
    """Qubit spectroscopy magnitude vs (gate voltage, drive frequency).

    Each gate point with a finite qubit frequency gets a Lorentzian dip at
    f01. With two_photon enabled a second dip appears at f01 + alpha/2 at
    half depth (below f01 for negative anharmonicity). An optional smooth
    background depending only on drive frequency is added identically to
    every row, which per-frequency median subtraction along the gate axis
    removes.

    Optional truth keys: depth (0.5), baseline (1.0), fwhm_mhz (5.0),
    two_photon (False), alpha_mhz (required if two_photon),
    two_photon_depth (depth/2), background_amp (0.0),
    background_period_ghz (1.0).
    """
    if spec.kind != "two_tone_map":
        raise ConfigError(f"spec kind is {spec.kind!r}, not two_tone_map")
    t = spec.truth
    depth = float(t.get("depth", 0.5))
    baseline = float(t.get("baseline", 1.0))
    fwhm = float(t.get("fwhm_mhz", 5.0))
    two_photon = bool(t.get("two_photon", False))
    alpha = float(t.get("alpha_mhz", 0.0))
    # half the single-photon depth unless explicitly overridden
    depth2 = float(t.get("two_photon_depth", depth / 2.0))
    if two_photon and alpha == 0.0:
        raise ConfigError("two_photon requires a nonzero alpha_mhz in truth")
    bg_amp = float(t.get("background_amp", 0.0))
    bg_period = float(t.get("background_period_ghz", 1.0))

    f = spec.axis("f")
    background = bg_amp * np.sin(2.0 * np.pi * (f - f[0]) / bg_period)
    volts = sweep.column("V_G")
    grid = np.empty((volts.size, f.size))
    for i, pt in enumerate(sweep.points):
        row = np.full(f.shape, baseline)
        if pt.f_q_mhz == pt.f_q_mhz:  # skip pinch-off NaNs
            f01 = pt.f_q_mhz / 1e3
            row = row - (baseline - _dip(f, f01, fwhm, depth, baseline))
            if two_photon:
                f02_half = f01 + alpha / 2e3
                row = row - (baseline - _dip(f, f02_half, fwhm, depth2, baseline))
        row = row + background
        grid[i] = _noisy_row(row, spec, i, baseline)
    return Map2D("V_G", volts, "f_d_GHz", f, grid)


def synth_rabi(spec: SynthSpec):
    """Decaying-cosine Rabi trace, returned as (t_ns, y) arrays."""
    if spec.kind != "rabi_trace":
        raise ConfigError(f"spec kind is {spec.kind!r}, not rabi_trace")
    t = spec.truth
    t_ns = spec.axis("t")
    y = rabi_model(
        t_ns,
        float(t["A"]),
        float(t["T_R"]),
        float(t["omega"]),
        float(t["B"]),
        float(t["a"]),
        float(t["b"]),
    )
    sigma = _noise_rms(spec.snr_db, float(t["A"]))
    if sigma > 0:
        y = y + np.random.default_rng(spec.seed).normal(0.0, sigma, t_ns.size)
    return t_ns, y
