"""The benchmark's tracer (perfbench/tracer.py) times cqedkit by swapping
functions at the module attributes their callers look them up in. These
tests read the tracer's own tables, so they follow the file as shipped:
every hook must resolve, and the CLI must call what it finds there at
call time rather than a reference it took at import. The benchmark's
workloads (perfbench/workloads.py) also read gate sweep results, and the
fields they read must stay, and build synth specs, which SynthSpec must
take: a spec it refuses fails here rather than as a failed benchmark run.
"""

import importlib
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import cqedkit.cli as cli
from cqedkit import (
    DispersiveSystem,
    QubitParams,
    SynthSpec,
    gate_sweep,
    io,
    nanowire_profile,
    synth_rabi,
    synth_reflection,
)
from cqedkit.fitters import lorentzian_model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PY = PERFBENCH / "tracer.py"


def _tracer_module():
    # the tracer imports the standard library only
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves():
    tracer = _tracer_module()
    points = [(mod, attr) for mod, attr, _ in tracer.WRAP_POINTS] + [tracer.LM_POINT]
    assert ("cqedkit.cli", "fit_rabi") in points
    for mod, attr in points:
        assert callable(getattr(importlib.import_module(mod), attr, None)), f"{mod}.{attr}"


def test_gate_sweep_keeps_what_the_workloads_read():
    # GateSweep.record and _verify read points, .regime, .vg, .f_q_mhz and
    # column(name) for the five observable columns
    model = nanowire_profile(seed=3, n=9, max_value=1.0, maps_to="transmission")
    system = DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0, kappa_mhz=1.2, gamma_q_mhz=0.3)
    sweep = gate_sweep(model, QubitParams(ec=250.0, gap=60000.0, transmissions=(1.0,)), system)
    assert len(sweep.points) == 9
    assert {p.regime for p in sweep.points} == {"pinch_off", "dispersive", "hybridized"}
    assert [p.vg for p in sweep.points] == model.voltages.tolist()
    for name in ("f_Q_MHz", "chi_MHz", "f_C_GHz", "f_plus_GHz", "f_minus_GHz"):
        assert sweep.column(name).shape == (9,)
    assert np.array_equal(sweep.column("f_Q_MHz"), [p.f_q_mhz for p in sweep.points],
                          equal_nan=True)


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's golden and workloads modules, imported from their
    directory as the benchmark imports them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("golden"), importlib.import_module("workloads")
    for name in ("run", "golden", "workloads"):
        sys.modules.pop(name, None)


def test_suite_sets_every_thread_variable_the_benchmark_pins(perfbench):
    # tests/conftest.py sets them before numpy loads
    run = importlib.import_module("run")
    assert not [var for var in run.THREAD_VARS if var not in os.environ]


def test_golden_synth_specs_build(perfbench):
    golden, _ = perfbench
    specs = [golden._reflection_spec(False), golden._reflection_spec(True),
             golden._rabi_spec(), *golden._map_specs()]
    assert [s.kind for s in specs] == ["reflection_trace", "reflection_trace", "rabi_trace",
                                       "power_map", "gate_map", "two_tone_map"]
    assert specs[1].truth["tau_ns"] == 150.0 and specs[-1].truth["two_photon"] is True


@pytest.mark.parametrize("name", ["fit_campaign", "map_roundtrip"])
def test_workload_synth_specs_build(perfbench, name, tmp_path):
    # setup builds and synthesizes every spec of the workload, with numpy
    # floats from its samplers in truth, grid and snr_db
    _, workloads = perfbench
    workload = workloads.WORKLOADS[name]()
    workload.setup(7, PERFBENCH.parent, tmp_path, False)
    assert len(workload.items) == workload.n_items and None not in workload.items


def _reflection_csv(d):
    spec = SynthSpec(kind="reflection_trace", seed=11, snr_db=35.0,
                     truth={"a_re": 1.0, "a_im": 0.0, "ql": 6000.0, "qc": 12000.0,
                            "theta": 0.1, "f_r_ghz": 5.2816},
                     grid={"f_min_ghz": 5.2728, "f_max_ghz": 5.2904, "n_f": 401})
    return io.write_complex_trace(d / "trace.csv", synth_reflection(spec))


def _lorentzian_csv(d):
    f = np.linspace(4790.0, 5210.0, 841)
    y = lorentzian_model(f, 5000.0, 21.0, 0.8, 1.0)
    y = y + np.random.default_rng(5).normal(0, 0.02, f.size)
    return io.write_magnitude_trace(d / "dip.csv", f, y)


def _rabi_csv(d):
    spec = SynthSpec(kind="rabi_trace", seed=5, snr_db=20.0,
                     truth={"A": 1.0, "T_R": 260.0, "omega": 0.19634954084936207,
                            "B": 0.0, "a": -0.0004, "b": 0.5},
                     grid={"t_max_ns": 1000.0, "n_t": 501})
    return io.write_rabi_trace(d / "rabi.csv", *synth_rabi(spec))


@pytest.mark.parametrize("verb, func, make_csv", [
    ("fit-resonator", "fit_reflection", _reflection_csv),
    ("fit-lorentzian", "fit_lorentzian", _lorentzian_csv),
    ("fit-rabi", "fit_rabi", _rabi_csv),
])
def test_fit_verb_calls_the_module_attribute(verb, func, make_csv, tmp_path, capsys,
                                             monkeypatch):
    calls = []
    original = getattr(cli, func)

    def counting(*args, **kwargs):
        calls.append(func)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, func, counting)
    assert cli.main([verb, str(make_csv(tmp_path))]) == 0
    capsys.readouterr()
    assert calls == [func]


def test_installed_tracer_sees_a_fit_verb(tmp_path, capsys):
    tracer = _tracer_module().Tracer()
    data = _rabi_csv(tmp_path)
    original = cli.fit_rabi
    tracer.install()
    try:
        assert cli.main(["fit-rabi", str(data), "--plot", str(tmp_path / "rabi.svg")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert {"fitters.fit_rabi", "lm.lm_minimize", "svgplot.line_plot"} <= set(tracer.names)
    assert cli.fit_rabi is original
