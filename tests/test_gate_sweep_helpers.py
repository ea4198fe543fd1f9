"""gate_sweep's forked helpers: a gatemon sweep splits its distinct
junction values across the usable cores, and nothing about the result may
show it. The bytes, the exception raised and the processes left behind
must all be those of the serial loop, which a test gets by making one
core usable (os.sched_getaffinity), and a helper must really run.
"""

import contextlib
import hashlib
import os
import pickle
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import cqedkit.cli as cli
from cqedkit import DispersiveSystem, QubitParams, coupling, gate_sweep, io, nanowire_profile
from cqedkit.errors import TruncationError
from cqedkit.spectra import gatemon_levels, transmon_levels

PINS = Path(__file__).parent / "cli_fingerprint.txt"

# scripts/cli_fingerprint.py's gatemon sweeps; their CSVs are pinned as
# gatemon/<name>.csv in tests/cli_fingerprint.txt
_SYSTEM = "system: {f_bare_ghz: 5.443, g_mhz: 100, kappa_mhz: 1.2, gamma_q_mhz: 0.3}\n"
FINGERPRINT_SWEEPS = {
    "perfbench_gatemon": (
        "qubit: {ec_mhz: 250, gap_mhz: 60000, transmissions: [1.0]}\n" + _SYSTEM +
        "sweep: {profile: {seed: 3, v_min: -2.0, v_max: 10.0, n: 9, v_pinch: 0.0,"
        " max_value: 1.0}}\n"),
    "saturating": (  # 11 of the 25 points clip to T = 1 exactly
        "qubit: {ec_mhz: 220, gap_mhz: 55000, transmissions: [1.0]}\n" + _SYSTEM +
        "sweep: {profile: {seed: 1, n: 25, max_value: 1.0}}\n"),
    "one_channel_ng": (
        "qubit: {ec_mhz: 250, gap_mhz: 45600, transmissions: [0.85], ng: 0.23}\n" + _SYSTEM +
        "sweep: {profile: {seed: 5, n: 13, max_value: 0.95}}\n"),
}


class Exited(BaseException):
    """Raised by a stand-in os._exit, so that a helper's body returns
    control to the test that runs it in-process."""


def _device():
    # perfbench's check device: 7 distinct values, 3 for the caller on two cores
    model = nanowire_profile(seed=3, v_min=-2.0, v_max=10.0, n=9, v_pinch=0.0,
                             max_value=1.0, maps_to="transmission")
    params = QubitParams(ec=250.0, gap=60000.0, transmissions=(1.0,))
    system = DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0, kappa_mhz=1.2, gamma_q_mhz=0.3)
    return model, params, system


def _distinct(model, voltages=None):
    """The junction values a sweep solves, in V_G order."""
    grid = model.voltages if voltages is None else np.asarray(voltages, dtype=float)
    return list(dict.fromkeys(t for t in model(grid).tolist() if t > 0.0))


@pytest.fixture
def cores(monkeypatch):
    """``cores(n)`` makes n cores usable to this process."""
    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return use


@pytest.fixture
def solver(monkeypatch, tmp_path):
    """``solver(act=None)`` swaps coupling.gatemon_levels for the real one
    behind a log that helpers write too, and returns a reader of the
    (pid, transmission) pairs in the order solved. ``act(p, in_helper)``
    runs before each solve and may raise or leave."""
    def swap(act=None):
        log = tmp_path / f"solves-{len(list(tmp_path.glob('solves-*')))}.txt"
        log.touch()
        caller = os.getpid()

        def logged(p, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {p.transmissions[0]!r}\n")
            if act is not None:
                act(p, os.getpid() != caller)
            return gatemon_levels(p, **kwargs)

        monkeypatch.setattr(coupling, "gatemon_levels", logged)
        return lambda: [(int(pid), float(t)) for pid, t in
                        (line.split() for line in log.read_text().splitlines())]
    return swap


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@contextlib.contextmanager
def _another_thread():
    """Run a second thread for the body of the block; after it, wait until
    the OS no longer lists it."""
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        yield
    finally:
        stop.set()
        other.join()
        for _ in range(1000):
            if len(os.listdir("/proc/self/task")) == 1:
                break
            time.sleep(0.001)


def _csv(tmp_path, sweep, name):
    return io.write_sweep_csv(tmp_path / name, sweep).read_bytes()


@pytest.mark.parametrize("name", list(FINGERPRINT_SWEEPS))
def test_helpers_write_the_serial_bytes(name, tmp_path, capsys, cores, solver):
    pins = dict(line.split()[::-1] for line in PINS.read_text().splitlines())
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(FINGERPRINT_SWEEPS[name])
    out = {}
    for n in (2, 1):
        cores(n)
        solves = solver()
        assert cli.main(["sweep-gate", "--config", str(cfg), "--out",
                         str(tmp_path / f"{n}.csv")]) == 0
        out[n] = (tmp_path / f"{n}.csv").read_bytes()
        pids = {pid for pid, _ in solves()}
        assert len(pids) == n and os.getpid() in pids
        assert sorted(t for _, t in solves()) == sorted(set(t for _, t in solves()))
    capsys.readouterr()
    assert out[2] == out[1]
    assert hashlib.sha256(out[2]).hexdigest() == pins[f"gatemon/{name}.csv"]
    assert _no_child_left()


def test_fewer_values_than_cores(tmp_path, cores, solver):
    model, params, system = _device()
    voltages = [4.0, 6.0, 8.0]
    assert len(_distinct(model, voltages)) == 3
    cores(8)
    solves = solver()
    forked = gate_sweep(model, params, system, voltages=voltages)
    assert len({pid for pid, _ in solves()}) == 3
    cores(1)
    serial = gate_sweep(model, params, system, voltages=voltages)
    assert _csv(tmp_path, forked, "forked.csv") == _csv(tmp_path, serial, "serial.csv")
    assert _no_child_left()


class Unpicklable(Exception):
    """An error that carries a lock, which does not pickle: a helper
    cannot send it."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


@pytest.mark.parametrize("error", [TruncationError, np.linalg.LinAlgError, Unpicklable])
@pytest.mark.parametrize("failing", [[1], [-1], [1, -1], [-2, -1], [0, 2]],
                         ids=["caller", "helper", "both", "helper-twice", "caller-twice"])
def test_the_lowest_failure_is_raised_as_the_serial_loop_raises_it(failing, error, cores,
                                                                   solver):
    model, params, system = _device()
    values = _distinct(model)
    bad = {values[i] for i in failing}

    def act(p, in_helper):
        if p.transmissions[0] in bad:
            raise error(f"no level at T = {p.transmissions[0]!r}")

    raised = {}
    for n in (2, 1):
        cores(n)
        solves = solver(act)
        with pytest.raises(error) as info:
            gate_sweep(model, params, system)
        raised[n] = (type(info.value), str(info.value))
        assert _no_child_left()
        if n == 2 and all(i % len(values) >= len(values) // 2 for i in failing):
            # the caller waited for the helper's outcome; a failure of its
            # own may stop the helper before it starts
            assert len({pid for pid, _ in solves()}) == 2
    assert raised[2] == raised[1]
    first = min(failing, key=lambda i: i % len(values))
    assert f"{values[first]!r}" in raised[2][1]
    if error is TruncationError:
        assert raised[2][1].startswith("V_G = ")


def test_a_nan_voltage_is_refused_as_the_serial_loop_refuses_it(cores):
    # a NaN junction value is not <= 0, so it is solved, and its solve refuses it
    model, params, system = _device()
    raised = {}
    for n in (2, 1):
        cores(n)
        with pytest.raises(ValueError) as info:
            gate_sweep(model, params, system, voltages=[4.0, float("nan"), 6.0])
        raised[n] = str(info.value)
        assert _no_child_left()
    assert raised[2] == raised[1] == "transmission nan outside [0, 1]"


def test_a_helper_that_leaves_without_a_result_is_solved_by_the_caller(tmp_path, cores,
                                                                       solver):
    model, params, system = _device()

    def act(p, in_helper):
        if in_helper:
            os._exit(3)

    cores(2)
    solves = solver(act)
    forked = gate_sweep(model, params, system)
    caller = [t for pid, t in solves() if pid == os.getpid()]
    assert sorted(caller) == sorted(_distinct(model))
    cores(1)
    serial = gate_sweep(model, params, system)
    assert _csv(tmp_path, forked, "forked.csv") == _csv(tmp_path, serial, "serial.csv")
    assert _no_child_left()


@pytest.mark.parametrize("where", ["caller", "helper"])
def test_no_child_outlives_a_keyboard_interrupt(where, tmp_path, cores, solver):
    model, params, system = _device()
    values = _distinct(model)

    target = values[1] if where == "caller" else values[-2]  # in that process's chunk

    def act(p, in_helper):
        if in_helper == (where == "helper") and p.transmissions[0] == target:
            raise KeyboardInterrupt

    cores(2)
    solver(act)
    if where == "caller":
        with pytest.raises(KeyboardInterrupt):
            gate_sweep(model, params, system)
    else:
        # the helper leaves without a result and the caller solves its chunk
        forked = gate_sweep(model, params, system)
        cores(1)
        serial = gate_sweep(model, params, system)
        assert _csv(tmp_path, forked, "forked.csv") == _csv(tmp_path, serial, "serial.csv")
    assert _no_child_left()


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_a_helper_that_cannot_start_leaves_its_chunk_to_the_caller(call, monkeypatch,
                                                                   tmp_path, cores, solver):
    model, params, system = _device()
    cores(1)
    serial = gate_sweep(model, params, system)

    def refuse(*args):
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, call, refuse)
    cores(2)
    solves = solver()
    forked = gate_sweep(model, params, system)
    assert {pid for pid, _ in solves()} == {os.getpid()}
    assert _csv(tmp_path, forked, "forked.csv") == _csv(tmp_path, serial, "serial.csv")
    assert _no_child_left()


def test_how_many_processes_share_the_solves(monkeypatch, cores):
    cores(2)
    assert coupling._processes(1) == 1
    assert coupling._processes(7) == 2
    cores(8)
    assert coupling._processes(3) == 3
    cores(1)
    assert coupling._processes(7) == 1

    cores(2)
    with _another_thread():
        assert coupling._processes(7) == 1
    assert coupling._processes(7) == 2

    def no_proc(path):
        raise FileNotFoundError(path)

    with monkeypatch.context() as m:
        m.setattr(os, "listdir", no_proc)
        assert coupling._processes(7) == 1
    monkeypatch.delattr(os, "fork")
    assert coupling._processes(7) == 1


def test_transmon_and_threaded_sweeps_stay_in_the_caller(monkeypatch, cores, solver):
    cores(2)
    pids = []

    def logged(p, **kwargs):
        pids.append(os.getpid())
        return transmon_levels(p, **kwargs)

    monkeypatch.setattr(coupling, "transmon_levels", logged)
    model = nanowire_profile(seed=3, n=9)
    gate_sweep(model, QubitParams(ec=190.0, ej=9500.0), DispersiveSystem(5.443, 100.0))
    assert len(pids) > 2

    solves = solver()
    with _another_thread():
        gate_sweep(*_device())
    assert {pid for pid, _ in solves()} == {os.getpid()}
    assert _no_child_left()


def test_the_helper_body_runs_in_process(monkeypatch):
    """The helper's lines, run here with os.fork answering 0 and os._exit
    raising, so that a line census made in one process sees them."""
    model, params, system = _device()
    values = _distinct(model)[:2]

    def solve(t):
        return gatemon_levels(QubitParams(ec=250.0, gap=60000.0, transmissions=(t,)))

    def run(solve):
        fd, out = os.pipe()
        kept = os.dup(fd)  # the helper closes its copy of the read end
        exits = []

        def leave(code):
            exits.append(code)
            raise Exited

        with monkeypatch.context() as m:
            m.setattr(os, "pipe", lambda: (fd, out))
            m.setattr(os, "fork", lambda: 0)
            m.setattr(os, "_exit", leave)
            with pytest.raises(Exited):
                coupling._fork_helper(solve, values)
        try:
            return exits, coupling._received(kept)
        finally:
            os.close(kept)

    exits, sent = run(solve)
    assert exits == [0]
    assert [s.levels.tobytes() for s in sent] == [solve(t).levels.tobytes() for t in values]

    def unpicklable(t):
        raise Unpicklable(t)

    with pytest.raises(TypeError, match="pickle"):
        pickle.dumps(coupling._solve_run(unpicklable, values))
    assert run(unpicklable) == ([0], None)
