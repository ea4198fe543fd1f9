"""Import hygiene: scipy and yaml load on first use, so each CLI verb pays
only for the solvers on its own code path. Every check runs in a fresh
interpreter, because this test process has long since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import cqedkit
from cqedkit import SynthSpec, io, synth_reflection

SRC = str(Path(cqedkit.__file__).resolve().parents[1])
PIPELINE_YAML = str(Path(__file__).resolve().parents[1] / "configs" / "pipeline.yaml")


def _loaded_after(code: str) -> set:
    """Third-party modules (scipy*, yaml*) loaded after running ``code``."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('scipy', 'yaml'))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def _main(argv) -> str:
    return f"from cqedkit.cli import main\nassert main({argv!r}) == 0"


def test_package_import_loads_no_solver():
    loaded = _loaded_after("import cqedkit, cqedkit.cli")
    for name in ("scipy.linalg", "scipy.optimize", "scipy.interpolate", "yaml"):
        assert name not in loaded


def test_fit_resonator_loads_no_scipy(tmp_path):
    spec = SynthSpec(kind="reflection_trace", seed=11, snr_db=35.0,
                     truth={"a_re": 1.0, "a_im": 0.0, "ql": 6000.0, "qc": 12000.0,
                            "theta": 0.1, "f_r_ghz": 5.2816},
                     grid={"f_min_ghz": 5.2728, "f_max_ghz": 5.2904, "n_f": 401})
    trace = io.write_complex_trace(tmp_path / "trace.csv", synth_reflection(spec))
    loaded = _loaded_after(_main(["fit-resonator", str(trace),
                                  "--out", str(tmp_path / "fit.json")]))
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}


def test_simulate_qubit_loads_linalg_only(tmp_path):
    loaded = _loaded_after(_main(["simulate-qubit", "--config", PIPELINE_YAML,
                                  "--out", str(tmp_path / "spectrum.json")]))
    assert "scipy.linalg" in loaded
    assert "scipy.interpolate" not in loaded
