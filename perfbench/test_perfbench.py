"""Tests of the benchmark itself.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import THREAD_VARS, THREADS  # noqa: E402

# the golden bytes are those of single-threaded BLAS, as in the benchmark;
# this must happen before numpy is first imported
assert "numpy" not in sys.modules, "numpy was imported before the BLAS threads were pinned"
for var in THREAD_VARS:
    os.environ[var] = THREADS

import golden  # noqa: E402
import refs  # noqa: E402
from tracer import Tracer  # noqa: E402

IN_PROCESS = ("fit_campaign", "gate_sweep", "map_roundtrip")


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Golden artifacts of every in-process workload, written once."""
    out = {}
    for workload in IN_PROCESS:
        d = tmp_path_factory.mktemp(workload)
        out[workload] = golden.artifacts(workload, d)
    return out


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_golden_artifacts_match(written, workload):
    files, values = written[workload]
    assert golden.compare(workload, files, values) == []


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_one_byte_change_is_a_named_mismatch(written, workload, tmp_path):
    files, _ = written[workload]
    for name, path in files.items():
        copy = tmp_path / Path(name).name
        shutil.copyfile(path, copy)
        data = bytearray(copy.read_bytes())
        mid = len(data) // 2
        data[mid] = ord("7") if data[mid] != ord("7") else ord("3")
        copy.write_bytes(bytes(data))
        problems = golden.compare(workload, {**files, name: copy}, {})
        assert len(problems) == 1
        assert f"artifact {name}:" in problems[0]


def test_fit_value_tolerance_is_one_part_in_1e9(written):
    _, values = written["fit_campaign"]
    fit = dict(values["reflection.fit.json"])
    ql = fit["params.ql"]
    fit["params.ql"] = ql * (1 + 1e-10)
    assert golden.compare("fit_campaign", {}, {"reflection.fit.json": fit}) == []
    fit["params.ql"] = ql * (1 + 1e-8)
    problems = golden.compare("fit_campaign", {}, {"reflection.fit.json": fit})
    assert len(problems) == 1 and "reflection.fit.json: params.ql" in problems[0]


def test_references_agree_with_spectra():
    from cqedkit import QubitParams, gatemon_levels, transmon_levels

    for t in (0.1, 0.6, 1.0):
        p = QubitParams(ec=250.0, gap=60000.0, transmissions=(t,))
        assert abs(gatemon_levels(p).f01 - refs.gatemon_f01(250.0, 60000.0, (t,))) < 1e-6
    p = QubitParams(ec=190.0, ej=9500.0)
    assert abs(transmon_levels(p).f01 - refs.transmon_f01(190.0, 9500.0)) < 1e-6


def test_self_time_subtracts_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    wrapped_leaf = tracer.span("lm.residual", leaf)

    def outer():
        wrapped_leaf()
        wrapped_leaf()
        time.sleep(0.01)

    tracer.span("lm.lm_minimize", outer)()
    m = tracer.layer_metrics()
    assert m["lm.lm_minimize.calls"] == 1
    assert m["lm.residual_s"] == pytest.approx(0.02, abs=0.01)
    assert m["lm.lm_minimize.self_s"] == pytest.approx(
        m["lm.lm_minimize.busy_s"] - m["lm.residual_s"], abs=1e-9)


def test_install_restores_every_function():
    import cqedkit.cli
    import cqedkit.coupling
    import cqedkit.fitters

    before = (cqedkit.coupling.gatemon_levels, cqedkit.fitters.lm_minimize, cqedkit.cli.main)
    tracer = Tracer()
    tracer.install()
    assert cqedkit.coupling.gatemon_levels is not before[0]
    tracer.uninstall()
    after = (cqedkit.coupling.gatemon_levels, cqedkit.fitters.lm_minimize, cqedkit.cli.main)
    assert after == before


def test_benchmark_json_lists_every_traced_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set(Tracer().layer_metrics())
    names |= {"cli.import_s", "cli.import_share", "coupling.sweep_61pt_s", "trace.work_per_s",
              "trace.untraced_work_per_s", "trace.overhead_frac"}
    assert {m["name"] for m in bench["per_layer"]} == names


def test_reference_kernels_do_not_touch_the_program():
    code = ("import sys, calib\n"
            "for w in calib.KERNELS: calib.kernel_seconds(w)\n"
            "assert not any(m.startswith('cqedkit') for m in sys.modules)\n")
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True, timeout=60)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gate_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
