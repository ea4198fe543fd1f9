"""YAML run configuration.

One file drives the CLI: named sections hold the qubit, cavity, coupled
system, gate sweep, synthesis recipe, and pipeline settings. Section and
key names are checked strictly so a typo fails loudly instead of silently
falling back to a default.
"""

from __future__ import annotations

import math

import numpy as np

from .coupling import DispersiveSystem, GateSweepModel, nanowire_profile
from .errors import ConfigError
from .io import read_gate_table
from .spectra import CavityGeometry, QubitParams, QubitSpectrum, te_mode_frequency
from .synth import SynthSpec

KNOWN_SECTIONS = ("qubit", "cavity", "system", "sweep", "synth", "pipeline")
# pipeline fit checks and their defaults: relative Ql and Qc error, f_r error in MHz
PIPELINE_TOLERANCES = {"ql_rel": 0.02, "qc_rel": 0.05, "f_r_mhz": 0.5}


def load_config(path) -> dict:
    import yaml

    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if cfg is None:
        cfg = {}
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping of sections")
    unknown = set(cfg) - set(KNOWN_SECTIONS)
    if unknown:
        raise ConfigError(
            f"unknown config sections {sorted(unknown)}; known: {list(KNOWN_SECTIONS)}"
        )
    return cfg


def _section(cfg: dict, name: str) -> dict:
    sec = cfg.get(name)
    if sec is None:
        raise ConfigError(f"config has no {name!r} section")
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    return sec


def _check_keys(sec: dict, name: str, allowed: set, required: set = frozenset()):
    unknown = set(sec) - allowed
    if unknown:
        raise ConfigError(
            f"unknown keys in {name!r} section: {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    missing = required - set(sec)
    if missing:
        raise ConfigError(f"{name!r} section is missing {sorted(missing)}")


def qubit_params(cfg: dict) -> QubitParams:
    sec = _section(cfg, "qubit")
    _check_keys(
        sec,
        "qubit",
        {"ec_mhz", "ej_mhz", "gap_mhz", "transmissions", "ng", "n_cut", "grid_n"},
        {"ec_mhz"},
    )
    trans = sec.get("transmissions")
    if trans is not None:
        if not isinstance(trans, (list, tuple)):
            raise ConfigError("transmissions must be a list")
        trans = tuple(float(t) for t in trans)
    try:
        return QubitParams(
            ec=float(sec["ec_mhz"]),
            ej=float(sec["ej_mhz"]) if "ej_mhz" in sec else None,
            gap=float(sec["gap_mhz"]) if "gap_mhz" in sec else None,
            transmissions=trans,
            ng=float(sec.get("ng", 0.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"qubit section: {exc}") from exc


def solver_options(cfg: dict) -> dict:
    """Optional truncation overrides from the qubit section."""
    sec = cfg.get("qubit") or {}
    opts = {}
    for key in ("n_cut", "grid_n"):
        if key in sec:
            opts[key] = _integer(sec[key], f"qubit {key}")
    return opts


def cavity_geometry(cfg: dict) -> CavityGeometry:
    sec = _section(cfg, "cavity")
    _check_keys(
        sec,
        "cavity",
        {"length_a_mm", "width_b_mm", "height_d_mm", "m", "n", "p"},
        {"length_a_mm", "width_b_mm", "height_d_mm"},
    )
    try:
        return CavityGeometry(
            length_a=float(sec["length_a_mm"]) * 1e-3,
            width_b=float(sec["width_b_mm"]) * 1e-3,
            height_d=float(sec["height_d_mm"]) * 1e-3,
            m=_integer(sec.get("m", 1), "cavity m"),
            n=_integer(sec.get("n", 0), "cavity n"),
            p=_integer(sec.get("p", 1), "cavity p"),
        )
    except ValueError as exc:
        raise ConfigError(f"cavity section: {exc}") from exc


def dispersive_system(cfg: dict, qubit: QubitSpectrum | None = None) -> DispersiveSystem:
    """Build the coupled system; f_bare_ghz falls back to the cavity mode."""
    sec = _section(cfg, "system")
    _check_keys(
        sec,
        "system",
        {"f_bare_ghz", "g_mhz", "kappa_mhz", "gamma_q_mhz"},
        {"g_mhz"},
    )
    if "f_bare_ghz" in sec:
        f_bare = float(sec["f_bare_ghz"])
    elif "cavity" in cfg:
        f_bare = te_mode_frequency(cavity_geometry(cfg))
    else:
        raise ConfigError("system section needs f_bare_ghz or a cavity section")
    try:
        return DispersiveSystem(
            f_bare_ghz=f_bare,
            g_mhz=float(sec["g_mhz"]),
            qubit=qubit,
            kappa_mhz=float(sec.get("kappa_mhz", 1.0)),
            gamma_q_mhz=float(sec.get("gamma_q_mhz", 0.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"system section: {exc}") from exc


def gate_model(cfg: dict) -> GateSweepModel:
    sec = _section(cfg, "sweep")
    _check_keys(
        sec,
        "sweep",
        {"table_csv", "profile", "maps_to", "interp", "v_min", "v_max", "n_v"},
    )
    maps_to = sec.get("maps_to", "ej")
    interp = sec.get("interp", "pchip")
    has_table = "table_csv" in sec
    has_profile = "profile" in sec
    if has_table == has_profile:
        raise ConfigError("sweep section needs exactly one of table_csv or profile")
    try:
        if has_table:
            v, values = read_gate_table(sec["table_csv"])
            return GateSweepModel(v, values, maps_to=maps_to, kind=interp)
        prof = sec["profile"]
        if not isinstance(prof, dict):
            raise ConfigError("sweep profile must be a mapping")
        _check_keys(
            prof,
            "sweep.profile",
            {"seed", "v_min", "v_max", "n", "v_pinch", "max_value", "wiggle"},
            {"seed"},
        )
        return nanowire_profile(
            seed=_integer(prof["seed"], "sweep profile seed"),
            v_min=float(prof.get("v_min", -2.0)),
            v_max=float(prof.get("v_max", 10.0)),
            n=_integer(prof.get("n", 41), "sweep profile n"),
            v_pinch=float(prof.get("v_pinch", 0.0)),
            max_value=float(prof.get("max_value", 20000.0)),
            maps_to=maps_to,
            wiggle=float(prof.get("wiggle", 0.2)),
        )
    except ValueError as exc:
        raise ConfigError(f"sweep section: {exc}") from exc


def sweep_voltages(cfg: dict):
    """Explicit sweep grid if the config requests one, else None."""
    sec = cfg.get("sweep") or {}
    given = [k for k in ("v_min", "v_max", "n_v") if k in sec]
    if not given:
        return None
    if len(given) != 3:
        raise ConfigError("sweep grid needs all of v_min, v_max, n_v")
    v_min, v_max = float(sec["v_min"]), float(sec["v_max"])
    n_v = _integer(sec["n_v"], "sweep n_v")
    if not (v_max > v_min and n_v >= 2):
        raise ConfigError("sweep grid needs v_max > v_min and n_v >= 2")
    return np.linspace(v_min, v_max, n_v)


def synth_spec(cfg: dict) -> SynthSpec:
    sec = _section(cfg, "synth")
    _check_keys(sec, "synth", {"kind", "seed", "snr_db", "truth", "grid"}, {"kind", "seed"})
    truth = sec.get("truth", {})
    grid = sec.get("grid", {})
    if not isinstance(truth, dict) or not isinstance(grid, dict):
        raise ConfigError("synth truth and grid must be mappings")
    return SynthSpec(
        kind=sec["kind"],
        seed=_integer(sec["seed"], "synth seed"),
        snr_db=sec.get("snr_db"),
        truth=_scalars(truth, "synth truth"),
        grid=_scalars(grid, "synth grid"),
    )


def _scalars(values: dict, what: str) -> dict:
    """Keep numbers and bools; convert numeric strings, which is how PyYAML
    reads a number written without a decimal point, such as 6e3."""
    out = dict(values)
    for key, value in values.items():
        if isinstance(value, (bool, int, float)):
            continue
        try:
            x = float(value) if isinstance(value, str) else math.nan
        except ValueError:
            x = math.nan
        if not math.isfinite(x):
            raise ConfigError(f"{what} {key} must be a finite number, got {value!r}")
        out[key] = x
    return out


def pipeline_options(cfg: dict) -> dict:
    sec = cfg.get("pipeline") or {}
    if not isinstance(sec, dict):
        raise ConfigError("pipeline section must be a mapping")
    _check_keys(sec, "pipeline", {"seed", "tolerances"})
    tol = sec.get("tolerances") or {}
    if not isinstance(tol, dict):
        raise ConfigError("pipeline tolerances must be a mapping")
    _check_keys(tol, "pipeline.tolerances", set(PIPELINE_TOLERANCES))
    tolerances = {key: _positive(value, f"pipeline tolerance {key}") for key, value in tol.items()}
    return {"seed": _integer(sec.get("seed", 7), "pipeline seed"), "tolerances": tolerances}


def _integer(value, what: str) -> int:
    """An integer value; integral floats, such as a YAML 4e2, pass."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if isinstance(value, bool) or not x.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(x)


def _positive(value, what: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not (math.isfinite(x) and x > 0):
        raise ConfigError(f"{what} must be finite and positive, got {value!r}")
    return x
