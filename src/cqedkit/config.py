"""YAML run configuration.

One file drives the CLI: named sections hold the qubit, cavity, coupled
system, gate sweep, synthesis recipe, and pipeline settings. One table,
KEYS, gives every key of every section its rule and its default, and
the readers check each section through it: a typo fails loudly instead
of silently falling back to a default, and null, lists, non-numeric text
and non-finite values fail naming the key.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ConfigError
from .synth import GRID_KEYS, SYNTH_KINDS, SynthSpec, number, whole_number

REQUIRED = object()  # the default of a key that must be given

# section -> key -> (rule, default). A rule is "number" (finite),
# "positive", (lo, hi) for a number in [lo, hi], "integer", "natural" (a
# non-negative integer), "switch" (true or false), "path" (text),
# "mapping" (or null, for a section left out), [rule] for a list of
# values each by that rule, or None for a value SynthSpec checks itself.
# A default of None means the key is not given. The profile defaults are
# nanowire_profile's.
KEYS = {
    "qubit": {"ec_mhz": ("positive", REQUIRED), "ej_mhz": ((0, math.inf), None),
              "gap_mhz": ((0, math.inf), None), "transmissions": ([(0, 1)], None),
              # the spectrum has period 1 in ng
              "ng": ((-1, 1), 0.0), "n_cut": ("integer", None), "grid_n": ("integer", None)},
    "cavity": {"length_a_mm": ("positive", REQUIRED), "width_b_mm": ("positive", REQUIRED),
               "height_d_mm": ("positive", REQUIRED),
               "m": ("natural", 1), "n": ("natural", 0), "p": ("natural", 1)},
    "system": {"f_bare_ghz": ("positive", None), "g_mhz": ("positive", REQUIRED),
               "kappa_mhz": ("positive", 1.0), "gamma_q_mhz": ((0, math.inf), 0.0)},
    "sweep": {"table_csv": ("path", None), "profile": ("mapping", None)},
    "sweep.profile": {"seed": ("natural", REQUIRED), "n": ("integer", 41),
                      "v_min": ("number", -2.0), "v_max": ("number", 10.0),
                      "v_pinch": ("number", 0.0), "max_value": ("number", 20000.0)},
    # snr_db null means noiseless
    "synth": {"kind": (None, REQUIRED), "seed": ("natural", REQUIRED), "snr_db": (None, None),
              "truth": (None, {}), "grid": (None, {})},
    # synth.truth.<kind> and synth.grid.<kind> apply when synth.kind is
    # <kind>; SynthSpec checks them from synth's tables, where None marks a
    # required number and a bool default a switch
    **{f"synth.{part}.{kind}": {key: ("switch" if isinstance(d, bool) else "number",
                                      REQUIRED if d is None else d)
                                for key, d in table.items()}
       for kind, (_, truth) in SYNTH_KINDS.items()
       for part, table in (("truth", truth), ("grid", GRID_KEYS[kind]))},
    # pipeline fit checks: relative Ql and Qc error, f_r error in MHz
    "pipeline": {"seed": ("natural", 7), "tolerances": ("mapping", None)},
    "pipeline.tolerances": {"ql_rel": ("positive", 0.02), "qc_rel": ("positive", 0.05),
                            "f_r_mhz": ("positive", 0.5)},
}


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
    known = list(dict.fromkeys(name.split(".")[0] for name in KEYS))
    unknown = set(cfg) - set(known)
    if unknown:
        raise ConfigError(f"unknown config sections {sorted(unknown, key=str)}; known: {known}")
    sweep = cfg.get("sweep")
    if isinstance(sweep, dict) and isinstance(sweep.get("table_csv"), str):
        sweep["table_csv"] = str(Path(path).parent / sweep["table_csv"])
    return cfg


def _read(name: str, sec) -> dict:
    """Section ``name`` by its table in KEYS: every key, each one given
    checked by its rule and named in the error, each one left out at its
    default. A section left out (or null) reads as an empty one, unless
    it has a required key."""
    table = KEYS[name]
    if sec is None:
        if any(default is REQUIRED for _, default in table.values()):
            raise ConfigError(f"config has no {name!r} section")
        sec = {}
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    unknown = sec.keys() - table.keys()
    if unknown:
        raise ConfigError(f"unknown keys in {name!r} section: {sorted(unknown, key=str)}; "
                          f"allowed: {sorted(table)}")
    missing = [key for key, (_, default) in table.items() if default is REQUIRED and key not in sec]
    if missing:
        raise ConfigError(f"{name!r} section is missing {sorted(missing)}")
    where = name.replace(".", " ")
    return {key: _check(rule, sec[key], f"{where} {key}") if key in sec else default
            for key, (rule, default) in table.items()}


def _check(rule, value, what: str):
    """value checked by one rule of KEYS; an error names what"""
    if isinstance(rule, list):
        if not isinstance(value, list):
            raise ConfigError(f"{what} must be a list, got {value!r}")
        return [_check(rule[0], v, f"{what}[{i}]") for i, v in enumerate(value)]
    if rule is None:
        return value
    if rule == "mapping":
        if value is not None and not isinstance(value, dict):
            raise ConfigError(f"{what} must be a mapping, got {value!r}")
        return value
    if rule == "path":
        if not isinstance(value, str):
            raise ConfigError(f"{what} must be a path, got {value!r}")
        return value
    if rule in ("integer", "natural"):
        x = int(whole_number(value, what))
        if rule == "natural" and x < 0:
            raise ConfigError(f"{what} must be a non-negative integer, got {value!r}")
        return x
    x = number(value, what)
    if rule == "positive" and not x > 0:
        raise ConfigError(f"{what} must be finite and positive, got {value!r}")
    if isinstance(rule, tuple) and not rule[0] <= x <= rule[1]:
        raise ConfigError(f"{what} must lie in [{rule[0]:g}, {rule[1]:g}], got {value!r}")
    return x


def qubit_params(cfg: dict):
    """The qubit section as QubitParams, a transmon (ej_mhz given) or a
    gatemon (gap_mhz and transmissions given)."""
    from .spectra import QubitParams

    sec = _read("qubit", cfg.get("qubit"))
    variant = [key for key in ("ej_mhz", "gap_mhz", "transmissions") if sec[key] is not None]
    if variant not in (["ej_mhz"], ["gap_mhz", "transmissions"]):
        raise ConfigError(f"qubit section needs ej_mhz, or gap_mhz and transmissions; got {variant}")
    try:
        return QubitParams(ec=sec["ec_mhz"], ej=sec["ej_mhz"], gap=sec["gap_mhz"],
                           transmissions=sec["transmissions"], ng=sec["ng"])
    except ValueError as exc:
        raise ConfigError(f"qubit section: {exc}") from exc


def solver_options(cfg: dict, qubit) -> dict:
    """Truncation override of the configured variant of ``qubit`` (the
    QubitParams), if set: n_cut for a transmon, grid_n for a gatemon; the
    other key is an error."""
    from .spectra import check_truncation

    sec = _read("qubit", cfg.get("qubit"))
    variant, key, other = (("transmon", "n_cut", "grid_n") if qubit.is_transmon
                           else ("gatemon", "grid_n", "n_cut"))
    if sec[other] is not None:
        raise ConfigError(f"qubit {other} does not apply to a {variant}; its key is {key}")
    if sec[key] is None:
        return {}
    try:
        check_truncation(key, sec[key])
    except ValueError as exc:
        raise ConfigError(f"qubit {exc}") from exc
    return {key: sec[key]}


def cavity_geometry(cfg: dict):
    """The cavity section as a CavityGeometry, in metres."""
    from .spectra import CavityGeometry

    sec = _read("cavity", cfg.get("cavity"))
    size = {key: sec[key] * 1e-3 for key in ("length_a_mm", "width_b_mm", "height_d_mm")}
    for key, metres in size.items():
        if metres == 0:  # positive in mm, below the smallest float in metres
            raise ConfigError(f"cavity {key} underflows to 0 m, got {sec[key]!r}")
    try:
        return CavityGeometry(length_a=size["length_a_mm"], width_b=size["width_b_mm"],
                              height_d=size["height_d_mm"], m=sec["m"], n=sec["n"], p=sec["p"])
    except ValueError as exc:
        raise ConfigError(f"cavity section: {exc}") from exc


def dispersive_system(cfg: dict, qubit=None):
    """The coupled system, a DispersiveSystem with ``qubit`` (a
    QubitSpectrum, or None) attached; f_bare_ghz falls back to the cavity
    mode."""
    from .coupling import DispersiveSystem
    from .spectra import te_mode_frequency

    sec = _read("system", cfg.get("system"))
    f_bare = sec["f_bare_ghz"]
    if f_bare is None:
        if "cavity" not in cfg:
            raise ConfigError("system section needs f_bare_ghz or a cavity section")
        f_bare = te_mode_frequency(cavity_geometry(cfg))
    return DispersiveSystem(f_bare_ghz=f_bare, g_mhz=sec["g_mhz"], qubit=qubit,
                            kappa_mhz=sec["kappa_mhz"], gamma_q_mhz=sec["gamma_q_mhz"])


def gate_model(cfg: dict, qubit):
    """The sweep section's table or profile as a GateSweepModel, which
    drives EJ of a transmon or the transmission of a gatemon's one channel
    (``qubit`` is the QubitParams)."""
    from .coupling import GateSweepModel, nanowire_profile
    from .io import read_gate_table

    sec = _read("sweep", cfg.get("sweep"))
    if (sec["table_csv"] is None) == (sec["profile"] is None):
        raise ConfigError("sweep section needs exactly one of table_csv or profile")
    maps_to = "ej" if qubit.is_transmon else "transmission"
    where = "sweep profile"  # what a ValueError from the model names
    try:
        if sec["table_csv"] is not None:
            where = f"sweep table_csv {sec['table_csv']}"
            return GateSweepModel(*read_gate_table(sec["table_csv"]), maps_to=maps_to)
        return nanowire_profile(maps_to=maps_to, **_read("sweep.profile", sec["profile"]))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def synth_spec(cfg: dict) -> SynthSpec:
    """The synth section as a SynthSpec, which checks the recipe itself."""
    return SynthSpec(**_read("synth", cfg.get("synth")))


def pipeline_options(cfg: dict) -> dict:
    """The pipeline seed and every fit tolerance, each at its default when not set."""
    sec = _read("pipeline", cfg.get("pipeline"))
    return {"seed": sec["seed"], "tolerances": _read("pipeline.tolerances", sec["tolerances"])}
