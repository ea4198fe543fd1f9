"""Gate-tunable superconducting qubits coupled to 3D microwave cavities:
spectrum solvers, dispersive-coupling models, resonator and time-domain
fitters, and reproducible synthetic data.

The public names load lazily: each imports its submodule on first access,
so a program (a CLI verb) compiles and runs only the modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it serves
_HOMES = {
    "errors": ("ConfigError", "CqedkitError", "FitError", "FitInitError", "InputDataError",
               "NoDipError", "NoResonanceError", "NoSolutionError", "NotConvergedError",
               "SolverError", "TruncationError"),
    "spectra": ("CavityGeometry", "QubitParams", "QubitSpectrum", "gatemon_levels",
                "infer_transmission", "te_mode_frequency", "transmon_levels"),
    "coupling": ("DispersiveSystem", "GateSweepModel", "SweepPoint", "SweepResult",
                 "anti_crossing", "critical_photon_number", "dispersive_shift_two_level",
                 "gate_sweep", "mean_photon_number", "nanowire_profile", "power_dependence"),
    "lm": ("FitResult", "lm_minimize", "numeric_jacobian"),
    "fitters": ("ComplexTrace", "ResonatorFit", "derive_qi", "fit_lorentzian", "fit_rabi",
                "fit_reflection", "initial_guess_reflection", "lorentzian_model", "rabi_model",
                "reflection_model", "subtract_background"),
    "synth": ("Map2D", "SynthSpec", "synth_gate_map", "synth_power_map", "synth_rabi",
              "synth_reflection", "synth_two_tone"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = (*_HOMES, "cli", "config", "io", "svgplot")

# every public name; submodules are left out, so that `from cqedkit import *`
# does not bind io over the standard library's
__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name, as its submodule holds it now, or a submodule;
    either imports the submodule on first access."""
    if name in _HOME:
        return getattr(_import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
