"""Import hygiene: scipy, yaml, orjson and the package's own modules load
on first use, so each CLI verb pays only for the modules on its own code
path. orjson loads only with a CSV read or write. The spectrum solvers
load scipy's compiled LAPACK wrappers, ``scipy.linalg._flapack``, and
nothing else of scipy: no verb imports the ``scipy.linalg`` package.
Every check runs in a fresh interpreter,
because this test process has long since imported scipy and every
cqedkit module. The fit verbs also leave ``numpy.ma`` unloaded, which
np.median imports on its first call.
"""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import cqedkit
from cqedkit import SynthSpec, io, lorentzian_model, synth_reflection
from cqedkit.cli import main

SRC = str(Path(cqedkit.__file__).resolve().parents[1])
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PIPELINE_YAML = str(CONFIGS / "pipeline.yaml")


def _loaded_after(code: str) -> set:
    """Third-party modules (scipy*, yaml*, orjson), numpy.ma and cqedkit's modules,
    if loaded, after running ``code``. The LAPACK wrapper module counts
    once cqedkit has loaded it, although cqedkit keeps it out of
    sys.modules."""
    probe = code + (
        "\nimport json, sys\n"
        "loaded = {m for m in sys.modules"
        " if m.split('.')[0] in ('scipy', 'yaml', 'orjson', 'cqedkit') or m == 'numpy.ma'}\n"
        "spectra = sys.modules.get('cqedkit.spectra')\n"
        "if spectra and spectra._flapack.cache_info().currsize:\n"
        "    loaded.add(spectra.FLAPACK)\n"
        "print(json.dumps(sorted(loaded)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def _scipy(loaded: set) -> set:
    return {m for m in loaded if m.split(".")[0] == "scipy"}


def _cqedkit(loaded: set) -> set:
    """The package's submodules among ``loaded``, by their own names."""
    return {m.split(".", 1)[1] for m in loaded if m.startswith("cqedkit.")}


def _main(argv) -> str:
    return f"from cqedkit.cli import main\nassert main({argv!r}) == 0"


def test_package_import_loads_no_solver():
    loaded = _loaded_after("import cqedkit, cqedkit.cli")
    assert not _scipy(loaded)
    assert "yaml" not in loaded
    assert "orjson" not in loaded


def test_package_import_loads_no_submodule_but_errors():
    assert _cqedkit(_loaded_after("import cqedkit")) <= {"errors"}


def test_package_serves_names_and_submodules_by_attribute():
    # attribute access imports a submodule, as `import cqedkit.svgplot` would
    assert cqedkit.__getattr__("svgplot") is sys.modules["cqedkit.svgplot"]
    assert cqedkit.__getattr__("fit_rabi") is cqedkit.fitters.fit_rabi
    assert {"fit_rabi", "NoDipError", "io", "cli"} <= set(dir(cqedkit))
    with pytest.raises(AttributeError, match="has no attribute 'fit_nothing'"):
        cqedkit.fit_nothing  # noqa: B018


def test_cli_serves_only_the_library_functions_its_verbs_call():
    import cqedkit.cli as cli

    assert cli.fit_rabi is cqedkit.fitters.fit_rabi
    with pytest.raises(AttributeError, match="has no attribute 'lorentzian_model'"):
        cli.lorentzian_model  # noqa: B018


def test_a_public_name_loads_its_own_submodule():
    loaded = _cqedkit(_loaded_after("from cqedkit import fit_rabi, NoDipError"))
    assert loaded == {"errors", "fitters", "io", "lm"}


def _fit_inputs(d: Path) -> None:
    """trace.csv (reflection), dip.csv (Lorentzian) and rabi.csv in ``d``."""
    spec = SynthSpec(kind="reflection_trace", seed=11, snr_db=35.0,
                     truth={"a_re": 1.0, "a_im": 0.0, "ql": 6000.0, "qc": 12000.0,
                            "theta": 0.1, "f_r_ghz": 5.2816},
                     grid={"f_min_ghz": 5.2728, "f_max_ghz": 5.2904, "n_f": 401})
    io.write_complex_trace(d / "trace.csv", synth_reflection(spec))
    f = np.linspace(4900.0, 5100.0, 301)
    noise = np.random.default_rng(5).normal(0.0, 0.02, f.size)
    io.write_magnitude_trace(d / "dip.csv", f, lorentzian_model(f, 5000.0, 21.0, 0.8, 1.0) + noise)
    assert main(["synth", "--config", str(CONFIGS / "synth_rabi.yaml"),
                 "--out", str(d / "rabi.csv")]) == 0


def test_fit_resonator_loads_no_scipy(tmp_path):
    _fit_inputs(tmp_path)
    loaded = _loaded_after(_main(["fit-resonator", str(tmp_path / "trace.csv"),
                                  "--out", str(tmp_path / "fit.json")]))
    assert not _scipy(loaded)


@pytest.mark.parametrize("argv", [
    ["fit-resonator", "trace.csv", "--out", "fit.json", "--plot", "fit.svg"],
    ["fit-resonator", "trace.csv", "--delay", "--out", "fit.json"],
    ["fit-lorentzian", "dip.csv", "--out", "fit.json", "--plot", "fit.svg"],
    ["fit-rabi", "rabi.csv", "--out", "fit.json", "--plot", "fit.svg"],
    ["pipeline", "--config", PIPELINE_YAML, "--workdir", "run"],
], ids=["fit-resonator", "fit-resonator-delay", "fit-lorentzian", "fit-rabi", "pipeline"])
def test_fit_verbs_load_no_numpy_ma(argv, tmp_path, monkeypatch):
    # the fitters take medians with fitters._median, which skips the
    # numpy.ma import np.median makes for its NaN check
    monkeypatch.chdir(tmp_path)
    _fit_inputs(tmp_path)
    assert "numpy.ma" not in _loaded_after(_main(argv))


def test_simulate_qubit_loads_linalg_only(tmp_path):
    # only the compiled LAPACK wrappers of scipy.linalg, not the package
    loaded = _loaded_after(_main(["simulate-qubit", "--config", PIPELINE_YAML,
                                  "--out", str(tmp_path / "spectrum.json")]))
    assert _scipy(loaded) == {"scipy.linalg._flapack"}


@pytest.mark.parametrize("argv", [
    ["synth", "--config", str(CONFIGS / "synth_gate_map.yaml"), "--out", "map.csv"],
    ["synth", "--config", str(CONFIGS / "synth_two_tone.yaml"), "--out", "map.csv"],
    ["synth", "--config", str(CONFIGS / "synth_power_map.yaml"), "--out", "map.csv"],
    ["sweep-gate", "--config", PIPELINE_YAML, "--out", "sweep.csv"],
    ["pipeline", "--config", PIPELINE_YAML, "--workdir", "run"],
], ids=["synth-gate-map", "synth-two-tone", "synth-power-map", "sweep-gate", "pipeline"])
def test_gate_verbs_load_linalg_only(argv, tmp_path, monkeypatch):
    # gate models interpolate in numpy and the spectra call LAPACK through
    # scipy's compiled wrappers: no scipy package __init__ runs
    monkeypatch.chdir(tmp_path)
    loaded = _loaded_after(_main(argv))
    assert _scipy(loaded) == {"scipy.linalg._flapack"}


@pytest.mark.parametrize("argv, csv", [
    (["fit-resonator", "trace.csv", "--out", "fit.json"], True),
    (["fit-lorentzian", "dip.csv"], True),
    (["fit-rabi", "rabi.csv", "--out", "fit.json"], True),
    (["synth", "--config", str(CONFIGS / "synth_gate_map.yaml"), "--out", "map.csv"], True),
    (["sweep-gate", "--config", PIPELINE_YAML, "--out", "sweep.csv"], True),
    (["pipeline", "--config", PIPELINE_YAML, "--workdir", "run"], True),
    (["simulate-qubit", "--config", PIPELINE_YAML, "--out", "q.json", "--plot", "q.svg"], False),
    (["simulate-cavity", "--config", PIPELINE_YAML, "--out", "cavity.json"], False),
], ids=["fit-resonator", "fit-lorentzian", "fit-rabi", "synth", "sweep-gate", "pipeline",
        "simulate-qubit", "simulate-cavity"])
def test_only_csv_verbs_load_orjson(argv, csv, tmp_path, monkeypatch):
    # orjson imports uuid and zoneinfo: a verb that reads and writes no CSV skips it
    monkeypatch.chdir(tmp_path)
    _fit_inputs(tmp_path)
    assert ("orjson" in _loaded_after(_main(argv))) == csv


FIT_MODULES = {"cli", "errors", "io", "fitters", "lm"}
CONFIG_MODULES = {"cli", "config", "errors", "io", "spectra", "synth"}
ALL_MODULES = CONFIG_MODULES | FIT_MODULES | {"coupling", "svgplot"}


@pytest.mark.parametrize("argv, modules", [
    (["fit-resonator", "trace.csv", "--out", "fit.json"], FIT_MODULES),
    (["fit-resonator", "trace.csv", "--delay", "--plot", "fit.svg"], FIT_MODULES | {"svgplot"}),
    (["fit-lorentzian", "dip.csv"], FIT_MODULES),
    (["fit-rabi", "rabi.csv", "--out", "fit.json"], FIT_MODULES),
    (["simulate-qubit", "--config", PIPELINE_YAML], CONFIG_MODULES),
    (["simulate-qubit", "--config", str(CONFIGS / "gatemon.yaml"), "--plot", "q.svg"],
     CONFIG_MODULES | {"svgplot"}),
    (["simulate-cavity", "--config", PIPELINE_YAML, "--out", "cavity.json"], CONFIG_MODULES),
    (["sweep-gate", "--config", PIPELINE_YAML, "--out", "sweep.csv", "--json", "sweep.json"],
     CONFIG_MODULES | {"coupling"}),
    (["synth", "--config", str(CONFIGS / "synth_rabi.yaml"), "--out", "r.csv"],
     (CONFIG_MODULES - {"spectra"}) | {"fitters", "lm"}),
    (["synth", "--config", str(CONFIGS / "synth_gate_map.yaml"), "--out", "map.csv"],
     ALL_MODULES - {"svgplot"}),
    (["synth", "--config", str(CONFIGS / "synth_two_tone.yaml"), "--out", "map.csv",
      "--plot", "map.svg"], ALL_MODULES),
    (["pipeline", "--config", PIPELINE_YAML, "--workdir", "run"], ALL_MODULES - {"svgplot"}),
], ids=["fit-resonator", "fit-resonator-delay-plot", "fit-lorentzian", "fit-rabi",
        "simulate-qubit", "simulate-qubit-plot", "simulate-cavity", "sweep-gate",
        "synth-rabi", "synth-gate-map", "synth-two-tone-plot", "pipeline"])
def test_verb_loads_only_the_modules_it_runs(argv, modules, tmp_path, monkeypatch):
    # a fit verb runs no config, spectra, coupling or synth; a simulate
    # verb no fitters, lm or coupling; svgplot loads only with --plot
    monkeypatch.chdir(tmp_path)
    _fit_inputs(tmp_path)
    assert _cqedkit(_loaded_after(_main(argv))) == modules


def test_no_module_imports_scipy():
    banned = ("scipy",)
    for path in Path(SRC, "cqedkit").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            assert not any(n.startswith(banned) for n in names), path.name


# the public names as they stood when __all__ was a hand-written list, less
# dispersive_shift_transmon, purcell_induced_cavity_loss and
# coupling_from_shift, which had no caller
PUBLIC_NAMES = [
    "CavityGeometry", "ComplexTrace", "ConfigError", "CqedkitError", "DispersiveSystem",
    "FitError", "FitInitError", "FitResult", "GateSweepModel", "InputDataError", "Map2D",
    "NoDipError", "NoResonanceError", "NoSolutionError", "NotConvergedError", "QubitParams",
    "QubitSpectrum", "ResonatorFit", "SolverError", "SweepPoint", "SweepResult", "SynthSpec",
    "TruncationError", "anti_crossing", "critical_photon_number",
    "derive_qi", "dispersive_shift_two_level", "fit_lorentzian",
    "fit_rabi", "fit_reflection", "gate_sweep", "gatemon_levels", "infer_transmission",
    "initial_guess_reflection", "lm_minimize", "lorentzian_model", "mean_photon_number",
    "nanowire_profile", "numeric_jacobian", "power_dependence",
    "rabi_model", "reflection_model", "subtract_background", "synth_gate_map",
    "synth_power_map", "synth_rabi", "synth_reflection", "synth_two_tone",
    "te_mode_frequency", "transmon_levels",
]


def test_public_names():
    assert cqedkit.__all__ == PUBLIC_NAMES
    assert not [n for n in cqedkit.__all__ if isinstance(getattr(cqedkit, n), types.ModuleType)]
    namespace = {}
    exec("from cqedkit import *", namespace)
    # the submodule io would shadow the standard library's
    assert "io" not in namespace
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)
