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
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError
from .io import RABI_PARAM_NAMES, REFLECTION_PARAM_NAMES

# axis -> (low, high, count) grid keys; the time axis starts at 0
_AXES = {
    "f": ("f_min_ghz", "f_max_ghz", "n_f"),
    "p": ("p_min_dbm", "p_max_dbm", "n_p"),
    "v": ("v_min", "v_max", "n_v"),
    "t": (None, "t_max_ns", "n_t"),
}

# kind -> (grid axes, truth key -> default), None marking a required key
# and a bool default a switch; map kinds take their physics from a
# DispersiveSystem / SweepResult and keep presentation knobs in truth
SYNTH_KINDS = {
    "reflection_trace": ("f", {**dict.fromkeys(REFLECTION_PARAM_NAMES), "tau_ns": 0.0}),
    "power_map": ("fp", {"depth": 0.8, "baseline": 1.0, "attenuation_db": 0.0}),
    "gate_map": ("fv", {"depth": 0.8, "baseline": 1.0}),
    "two_tone_map": ("fv", {"depth": 0.5, "baseline": 1.0, "fwhm_mhz": 5.0,
                            "two_photon": False, "alpha_mhz": 0.0,
                            "background_amp": 0.0, "background_period_ghz": 1.0}),
    "rabi_trace": ("t", dict.fromkeys(RABI_PARAM_NAMES)),
}
GRID_KEYS = {kind: dict.fromkeys(k for a in axes for k in _AXES[a] if k)
             for kind, (axes, _) in SYNTH_KINDS.items()}


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


def number(value, what: str) -> float:
    """A finite float; numeric text passes, since PyYAML reads a number
    written without a decimal point, such as 6e3, as a string.

    The one number rule of SynthSpec and of the config readers.
    """
    try:
        x = math.nan if isinstance(value, (bool, np.bool_)) else float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return x


def _value(value, default, name: str, key: str):
    """A truth or grid value: a bool for a switch (a key whose default is a
    bool), else a finite number, kept as given if an int or a float, so the
    sidecar records 12000, and read by the number rule if not."""
    if isinstance(default, bool):
        if not isinstance(value, (bool, np.bool_)):
            raise ConfigError(f"synth {name} {key} must be true or false, got {value!r}")
        return bool(value)
    if type(value) is int or isinstance(value, float) and math.isfinite(value):
        return value
    return number(value, f"synth {name} {key}")


@dataclass
class SynthSpec:
    """Recipe for one synthetic dataset.

    kind selects the generator, truth carries the generating parameters,
    grid the axes. The same spec serialized next to the data is the ground
    truth record used to score fits. Keys outside SYNTH_KINDS are refused.
    """

    kind: str
    seed: int
    snr_db: float | None
    truth: dict
    grid: dict

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in SYNTH_KINDS:
            raise ConfigError(
                f"unknown synth kind {self.kind!r}, expected one of {tuple(SYNTH_KINDS)}"
            )
        self.seed = int(whole_number(self.seed, "synth seed"))
        if self.seed < 0:
            raise ConfigError(f"synth seed must be a non-negative integer, got {self.seed}")
        if self.snr_db is not None:
            self.snr_db = number(self.snr_db, "synth snr_db")
        if not isinstance(self.truth, dict) or not isinstance(self.grid, dict):
            raise ConfigError("synth truth and grid must be mappings")
        axes, defaults = SYNTH_KINDS[self.kind]
        for name, table in (("grid", GRID_KEYS[self.kind]), ("truth", defaults)):
            given = getattr(self, name)
            unknown = given.keys() - table.keys()
            if unknown:
                raise ConfigError(f"unknown keys in synth {name} for {self.kind}: "
                                  f"{sorted(unknown)}; allowed: {sorted(table)}")
            setattr(self, name, {k: _value(v, table[k], name, k) for k, v in given.items()})
            missing = [k for k, d in table.items() if d is None and k not in given]
            if missing:
                raise ConfigError(f"synth {name} for {self.kind} is missing {missing}")
        for a in axes:
            n_key = _AXES[a][2]
            # the sidecar records the count as given, so it must be the
            # number of points the axis gets
            if whole_number(self.grid[n_key], n_key) < 2:
                raise ConfigError(f"{n_key} must be at least 2")

    def axis(self, prefix: str) -> np.ndarray:
        lo_key, hi_key, n_key = _AXES[prefix]
        lo = float(self.grid[lo_key]) if lo_key else 0.0
        hi = float(self.grid[hi_key])
        if not hi > lo:
            raise ConfigError(f"{hi_key} must exceed {lo_key or 0}")
        return np.linspace(lo, hi, int(self.grid[n_key]))

    def to_dict(self) -> dict:
        return asdict(self)


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


def _truth(spec: SynthSpec, kind: str) -> dict:
    """The truth of a spec, which must be of the generator's kind, over
    the kind's defaults."""
    if spec.kind != kind:
        raise ConfigError(f"spec kind is {spec.kind!r}, not {kind}")
    return {**SYNTH_KINDS[kind][1], **spec.truth}


def _noisy(values, spec: SynthSpec, scale: float, stream):
    """values plus noise of rms |scale| * 10**(-snr_db/20) drawn from
    default_rng(stream); complex values get it split over I and Q."""
    sigma = 0.0 if spec.snr_db is None else abs(scale) * 10.0 ** (-spec.snr_db / 20.0)
    if not sigma > 0:
        return values
    rng, n = np.random.default_rng(stream), values.size
    if not np.iscomplexobj(values):
        return values + rng.normal(0.0, sigma, n)
    per_quad = sigma / math.sqrt(2.0)
    return values + rng.normal(0.0, per_quad, n) + 1j * rng.normal(0.0, per_quad, n)


def synth_reflection(spec: SynthSpec):
    """Complex reflection trace (a ComplexTrace) from the fit model plus
    complex noise."""
    from .fitters import ComplexTrace, reflection_model

    t = _truth(spec, "reflection_trace")
    f = spec.axis("f")
    a = complex(float(t["a_re"]), float(t["a_im"]))
    z = reflection_model(f, a, *(float(t[k]) for k in ("ql", "qc", "theta", "f_r_ghz", "tau_ns")))
    if not np.all(np.isfinite(z)):
        raise ConfigError("synth truth qc * cos(theta) and f_r_ghz must be nonzero")
    return ComplexTrace(f, _noisy(z, spec, abs(a), spec.seed))


def _mag_dip(f_ghz, center_ghz, fwhm_mhz, depth):
    """|S21| of the symmetric reflection model, normalized to 1 off resonance.

    The loaded Q is set by the linewidth and the coupling Q by the requested
    relative dip depth, so cavity map rows really are reflection traces.
    """
    from .fitters import reflection_model

    ql = center_ghz * 1e3 / max(fwhm_mhz, 1e-6)
    qc = 2.0 * ql / min(max(depth, 1e-9), 1.0)
    return np.abs(reflection_model(f_ghz, 1.0, ql, qc, 0.0, center_ghz))


def synth_power_map(spec: SynthSpec, system) -> Map2D:
    """Cavity |S21| vs (probe power, frequency) of a DispersiveSystem with
    a qubit; rows are reflection traces.

    The dip sits at the cavity frequency of coupling.power_dependence:
    dressed (f_bare + chi) at low photon number, bare at high, with the
    logistic crossover at the critical photon number. Its linewidth carries
    the qubit-induced loss (g/Delta)^2 * gamma_q weighted by the same
    crossover, so the low-power line is the broader one.

    Truth keys and their defaults: SYNTH_KINDS["power_map"].
    """
    from .coupling import crossover_weight, power_dependence

    t = _truth(spec, "power_map")
    if system.qubit is None:
        raise ConfigError("power_map needs a DispersiveSystem with a qubit attached")
    depth = float(t["depth"])
    baseline = float(t["baseline"])
    atten = float(t["attenuation_db"])
    powers = spec.axis("p")
    f = spec.axis("f")
    centers = power_dependence(system, powers, atten)
    purcell = system.induced_loss_mhz(system.delta_mhz)
    fwhms = system.kappa_mhz + crossover_weight(system, powers, atten) * purcell

    grid = np.empty((powers.size, f.size))
    for i, (center, fwhm) in enumerate(zip(centers, fwhms)):
        row = baseline * _mag_dip(f, center, fwhm, depth)
        grid[i] = _noisy(row, spec, baseline, (spec.seed, i))
    return Map2D("P_dBm", powers, "f_GHz", f, grid)


def synth_gate_map(spec: SynthSpec, sweep) -> Map2D:
    """Cavity |S21| vs (gate voltage, frequency) along a SweepResult; rows
    are reflection traces.

    Dispersive and pinched-off points give one dip at the shifted (or
    bare) cavity frequency, the dispersive one broadened by the
    qubit-induced loss (g/Delta)^2 * gamma_q. Hybridized points give two
    dips at the anti-crossing branches, each weighted by its cavity
    fraction w = (1 +- detuning/splitting)/2 in depth, with linewidth
    w*kappa + (1-w)*gamma_q.

    Truth keys and their defaults: SYNTH_KINDS["gate_map"].
    """
    t = _truth(spec, "gate_map")
    depth = float(t["depth"])
    baseline = float(t["baseline"])
    f = spec.axis("f")
    system = sweep.system
    kappa = system.kappa_mhz
    gamma = system.gamma_q_mhz

    volts = sweep.column("V_G")
    grid = np.empty((volts.size, f.size))
    for i, pt in enumerate(sweep.points):
        delta = system.f_bare_ghz * 1e3 - pt.f_q_mhz
        if pt.regime == "hybridized":
            omega = math.hypot(delta, 2.0 * system.g_mhz)
            w_plus = 0.5 * (1.0 + delta / omega)
            row = np.full(f.shape, baseline)
            for center, w in ((pt.f_plus_ghz, w_plus), (pt.f_minus_ghz, 1.0 - w_plus)):
                fwhm = w * kappa + (1.0 - w) * gamma
                row = row * _mag_dip(f, center, fwhm, depth * w)
        elif pt.regime == "dispersive":
            fwhm = kappa + system.induced_loss_mhz(delta)
            row = baseline * _mag_dip(f, pt.f_c_ghz, fwhm, depth)
        else:  # pinch_off: bare cavity line
            row = baseline * _mag_dip(f, pt.f_c_ghz, kappa, depth)
        grid[i] = _noisy(row, spec, baseline, (spec.seed, i))
    return Map2D("V_G", volts, "f_GHz", f, grid)


def synth_two_tone(spec: SynthSpec, sweep) -> Map2D:
    """Qubit spectroscopy magnitude vs (gate voltage, drive frequency)
    along a SweepResult.

    Each gate point with a finite qubit frequency gets a Lorentzian dip at
    f01. With two_photon enabled a second dip appears at f01 + alpha/2 at
    half depth (below f01 for negative anharmonicity). An optional smooth
    background depending only on drive frequency is added identically to
    every row, which per-frequency median subtraction along the gate axis
    removes.

    Truth keys and their defaults: SYNTH_KINDS["two_tone_map"]; alpha_mhz
    must be nonzero when two_photon is on.
    """
    from .fitters import lorentzian_model

    t = _truth(spec, "two_tone_map")
    depth = float(t["depth"])
    baseline = float(t["baseline"])
    fwhm_ghz = max(float(t["fwhm_mhz"]), 1e-6) / 1e3
    alpha = float(t["alpha_mhz"])
    if t["two_photon"] and alpha == 0.0:
        raise ConfigError("two_photon requires a nonzero alpha_mhz in truth")
    bg_amp = float(t["background_amp"])
    bg_period = float(t["background_period_ghz"])

    f = spec.axis("f")
    background = bg_amp * np.sin(2.0 * np.pi * (f - f[0]) / bg_period)
    volts = sweep.column("V_G")
    grid = np.empty((volts.size, f.size))
    for i, pt in enumerate(sweep.points):
        row = np.full(f.shape, baseline)
        if pt.regime != "pinch_off":
            f01 = pt.f_q_mhz / 1e3
            row = row - (baseline - lorentzian_model(f, f01, fwhm_ghz, depth, baseline))
            if t["two_photon"]:
                f02_half = f01 + alpha / 2e3
                row = row - (baseline - lorentzian_model(f, f02_half, fwhm_ghz, depth / 2.0,
                                                         baseline))
        row = row + background
        grid[i] = _noisy(row, spec, baseline, (spec.seed, i))
    return Map2D("V_G", volts, "f_d_GHz", f, grid)


def synth_rabi(spec: SynthSpec):
    """Decaying-cosine Rabi trace, returned as (t_ns, y) arrays."""
    from .fitters import rabi_model

    t = _truth(spec, "rabi_trace")
    t_ns = spec.axis("t")
    y = rabi_model(t_ns, *(float(t[k]) for k in RABI_PARAM_NAMES))
    return t_ns, _noisy(y, spec, float(t["A"]), spec.seed)
