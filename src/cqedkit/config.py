"""YAML run configuration.

One file drives the CLI: named sections hold the qubit, cavity, coupled
system, gate sweep, synthesis recipe, and pipeline settings. Section and
key names are checked strictly so a typo fails loudly instead of silently
falling back to a default. Every number is read strictly as well: null,
lists, non-numeric text and non-finite values fail naming the key.
"""

from __future__ import annotations

import math
from pathlib import Path

from .coupling import DispersiveSystem, GateSweepModel, nanowire_profile
from .errors import ConfigError
from .io import read_gate_table
from .spectra import CavityGeometry, QubitParams, QubitSpectrum, te_mode_frequency
from .synth import SynthSpec, number, whole_number

KNOWN_SECTIONS = ("qubit", "cavity", "system", "sweep", "synth", "pipeline")
# pipeline fit checks and their defaults: relative Ql and Qc error, f_r error in MHz
PIPELINE_TOLERANCES = {"ql_rel": 0.02, "qc_rel": 0.05, "f_r_mhz": 0.5}


def load_config(path) -> dict:
    """The config file as a mapping of sections. A relative
    ``sweep.table_csv`` is resolved against the config file's directory,
    so a config finds the table next to it from any working directory.
    A key given twice in one mapping is an error, not a silent override."""
    import yaml

    class Loader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            seen = set()
            for key_node, _ in node.value:
                # a merge key (<<) has no constructor of its own
                if (isinstance(key_node, yaml.ScalarNode)
                        and key_node.tag != "tag:yaml.org,2002:merge"):
                    key = self.construct_object(key_node)
                    if key in seen:
                        raise ConfigError(f"duplicate key {key!r} in {path}",
                                          line=key_node.start_mark.line + 1)
                    seen.add(key)
            return super().construct_mapping(node, deep)

    try:
        with open(path, "rb") as fh:
            cfg = yaml.load(fh, Loader=Loader)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.MarkedYAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc.problem}",
                          line=exc.problem_mark.line + 1) from exc
    except yaml.reader.ReaderError as exc:
        raise ConfigError(f"invalid YAML in {path}: #x{exc.character:02x} at position "
                          f"{exc.position}: {exc.reason}") from exc
    if cfg is None:
        cfg = {}
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping of sections")
    unknown = set(cfg) - set(KNOWN_SECTIONS)
    if unknown:
        raise ConfigError(
            f"unknown config sections {sorted(unknown)}; known: {list(KNOWN_SECTIONS)}"
        )
    sweep = cfg.get("sweep")
    if isinstance(sweep, dict) and isinstance(sweep.get("table_csv"), str):
        sweep["table_csv"] = str(Path(path).parent / sweep["table_csv"])
    return cfg


def _section(cfg: dict, name: str, allowed: set, required: set = frozenset()) -> dict:
    """The named section, a mapping with only allowed keys and every required one."""
    sec = cfg.get(name)
    if sec is None:
        raise ConfigError(f"config has no {name!r} section")
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    _check_keys(sec, name, allowed, required)
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
    """The qubit section as QubitParams, each value checked here to name its key."""
    sec = _section(
        cfg,
        "qubit",
        {"ec_mhz", "ej_mhz", "gap_mhz", "transmissions", "ng", "n_cut", "grid_n"},
        {"ec_mhz"},
    )
    variant = sorted({"ej_mhz", "gap_mhz", "transmissions"} & set(sec))
    if variant not in (["ej_mhz"], ["gap_mhz", "transmissions"]):
        raise ConfigError(f"qubit section needs ej_mhz, or gap_mhz and transmissions; got {variant}")
    trans = sec.get("transmissions")
    if trans is not None:
        if not isinstance(trans, (list, tuple)):
            raise ConfigError("transmissions must be a list")
        trans = tuple(_within(t, f"qubit transmissions[{i}]", 1.0) for i, t in enumerate(trans))
    try:
        return QubitParams(
            ec=_positive(sec["ec_mhz"], "qubit ec_mhz"),
            ej=_within(sec["ej_mhz"], "qubit ej_mhz") if "ej_mhz" in sec else None,
            gap=_within(sec["gap_mhz"], "qubit gap_mhz") if "gap_mhz" in sec else None,
            transmissions=trans,
            ng=_float(sec, "ng", "qubit", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"qubit section: {exc}") from exc


def solver_options(cfg: dict, qubit: QubitParams) -> dict:
    """Truncation override of the configured variant, if set: n_cut for a
    transmon, grid_n for a gatemon; the other key is an error."""
    sec = cfg["qubit"]
    variant, key, other = (("transmon", "n_cut", "grid_n") if qubit.is_transmon
                           else ("gatemon", "grid_n", "n_cut"))
    if other in sec:
        raise ConfigError(f"qubit {other} does not apply to a {variant}; its key is {key}")
    return {key: _integer(sec[key], f"qubit {key}")} if key in sec else {}


def cavity_geometry(cfg: dict) -> CavityGeometry:
    sec = _section(
        cfg,
        "cavity",
        {"length_a_mm", "width_b_mm", "height_d_mm", "m", "n", "p"},
        {"length_a_mm", "width_b_mm", "height_d_mm"},
    )
    try:
        return CavityGeometry(
            length_a=_positive(sec["length_a_mm"], "cavity length_a_mm") * 1e-3,
            width_b=_positive(sec["width_b_mm"], "cavity width_b_mm") * 1e-3,
            height_d=_positive(sec["height_d_mm"], "cavity height_d_mm") * 1e-3,
            m=_integer(sec.get("m", 1), "cavity m"),
            n=_integer(sec.get("n", 0), "cavity n"),
            p=_integer(sec.get("p", 1), "cavity p"),
        )
    except ValueError as exc:
        raise ConfigError(f"cavity section: {exc}") from exc


def dispersive_system(cfg: dict, qubit: QubitSpectrum | None = None) -> DispersiveSystem:
    """Build the coupled system; f_bare_ghz falls back to the cavity mode."""
    sec = _section(
        cfg, "system", {"f_bare_ghz", "g_mhz", "kappa_mhz", "gamma_q_mhz"}, {"g_mhz"}
    )
    if "f_bare_ghz" in sec:
        f_bare = _float(sec, "f_bare_ghz", "system")
    elif "cavity" in cfg:
        f_bare = te_mode_frequency(cavity_geometry(cfg))
    else:
        raise ConfigError("system section needs f_bare_ghz or a cavity section")
    try:
        return DispersiveSystem(
            f_bare_ghz=f_bare,
            g_mhz=_float(sec, "g_mhz", "system"),
            qubit=qubit,
            kappa_mhz=_float(sec, "kappa_mhz", "system", 1.0),
            gamma_q_mhz=_float(sec, "gamma_q_mhz", "system", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"system section: {exc}") from exc


def gate_model(cfg: dict, qubit: QubitParams) -> GateSweepModel:
    """The sweep section's table or profile, which drives EJ of a transmon
    or the transmission of a gatemon's one channel."""
    sec = _section(cfg, "sweep", {"table_csv", "profile"})
    maps_to = "ej" if qubit.is_transmon else "transmission"
    has_table = "table_csv" in sec
    has_profile = "profile" in sec
    if has_table == has_profile:
        raise ConfigError("sweep section needs exactly one of table_csv or profile")
    where = "sweep profile"  # what a ValueError from the model names
    try:
        if has_table:
            if not isinstance(sec["table_csv"], str):
                raise ConfigError(f"sweep table_csv must be a path, got {sec['table_csv']!r}")
            where = f"sweep table_csv {sec['table_csv']}"
            v, values = read_gate_table(sec["table_csv"])
            return GateSweepModel(v, values, maps_to=maps_to)
        prof = sec["profile"]
        if not isinstance(prof, dict):
            raise ConfigError("sweep profile must be a mapping")
        floats = ("v_min", "v_max", "v_pinch", "max_value")
        _check_keys(prof, "sweep.profile", {"seed", "n", *floats}, {"seed"})
        # keys left out take nanowire_profile's defaults
        given = {k: number(prof[k], f"sweep profile {k}") for k in floats if k in prof}
        if "n" in prof:
            given["n"] = _integer(prof["n"], "sweep profile n")
        seed = _integer(prof["seed"], "sweep profile seed")
        return nanowire_profile(seed=seed, maps_to=maps_to, **given)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def synth_spec(cfg: dict) -> SynthSpec:
    """The synth section as a SynthSpec, which checks the recipe itself."""
    sec = _section(cfg, "synth", {"kind", "seed", "snr_db", "truth", "grid"}, {"kind", "seed"})
    return SynthSpec(
        kind=sec["kind"],
        seed=sec["seed"],
        # null means noiseless; SynthSpec reads the rest by the number rule
        snr_db=sec.get("snr_db"),
        truth=sec.get("truth", {}),
        grid=sec.get("grid", {}),
    )


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
    return int(whole_number(value, what))


def _float(sec: dict, key: str, where: str, default=None):
    """sec[key] read by number, or default when the key is absent."""
    return number(sec[key], f"{where} {key}") if key in sec else default


def _positive(value, what: str) -> float:
    x = number(value, what)
    if x <= 0:
        raise ConfigError(f"{what} must be finite and positive, got {value!r}")
    return x


def _within(value, what: str, high: float = math.inf) -> float:
    """value read by number and checked to lie in [0, high]"""
    x = number(value, what)
    if not 0.0 <= x <= high:
        raise ConfigError(f"{what} must lie in [0, {high:g}], got {value!r}")
    return x
