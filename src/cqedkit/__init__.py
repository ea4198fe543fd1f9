"""Gate-tunable superconducting qubits coupled to 3D microwave cavities:
spectrum solvers, dispersive-coupling models, resonator and time-domain
fitters, and reproducible synthetic data.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ConfigError,
    CqedkitError,
    FitError,
    FitInitError,
    InputDataError,
    NoDipError,
    NoResonanceError,
    NoSolutionError,
    NotConvergedError,
    SolverError,
    TruncationError,
)
from .spectra import (
    CavityGeometry,
    QubitParams,
    QubitSpectrum,
    gatemon_levels,
    infer_transmission,
    te_mode_frequency,
    transmon_levels,
)
from .coupling import (
    DispersiveSystem,
    GateSweepModel,
    SweepPoint,
    SweepResult,
    anti_crossing,
    critical_photon_number,
    dispersive_shift_two_level,
    gate_sweep,
    mean_photon_number,
    nanowire_profile,
    power_dependence,
)
from .lm import FitResult, lm_minimize, numeric_jacobian
from .fitters import (
    ComplexTrace,
    ResonatorFit,
    derive_qi,
    fit_lorentzian,
    fit_rabi,
    fit_reflection,
    initial_guess_reflection,
    lorentzian_model,
    rabi_model,
    reflection_model,
    subtract_background,
)
from .synth import (
    Map2D,
    SynthSpec,
    synth_gate_map,
    synth_power_map,
    synth_rabi,
    synth_reflection,
    synth_two_tone,
)

__version__ = "0.1.0"

# every public name imported above; submodules are left out, so that
# `from cqedkit import *` does not bind io over the standard library's
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
