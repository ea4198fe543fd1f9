"""Dispersive coupling, anti-crossing, and gate sweep tests."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqedkit import (
    DispersiveSystem,
    GateSweepModel,
    QubitParams,
    QubitSpectrum,
    SweepPoint,
    anti_crossing,
    critical_photon_number,
    dispersive_shift_two_level,
    gate_sweep,
    gatemon_levels,
    mean_photon_number,
    nanowire_profile,
    power_dependence,
)
from cqedkit.errors import TruncationError


def test_two_level_shift_value():
    assert dispersive_shift_two_level(100.0, -2000.0) == pytest.approx(-5.0)


def test_two_level_shift_warns_near_resonance():
    with pytest.warns(UserWarning, match="10 g"):
        dispersive_shift_two_level(100.0, 500.0)


def test_two_level_shift_rejects_resonance():
    with pytest.raises(ValueError):
        dispersive_shift_two_level(100.0, 0.0)


@given(
    g=st.floats(min_value=1.0, max_value=500.0),
    ratio=st.floats(min_value=10.5, max_value=500.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
@settings(max_examples=200, deadline=None)
def test_shift_inversion_identity(g, ratio, sign):
    delta = sign * ratio * g
    chi = dispersive_shift_two_level(g, delta)
    assert math.sqrt(chi * delta) == pytest.approx(g, rel=1e-12)


def test_anti_crossing_minimum_split():
    fp, fm = anti_crossing(5.443, 5.443, 100.0)
    assert (fp - fm) * 1e3 == pytest.approx(200.0, abs=1e-10)
    with pytest.raises(ValueError, match="g_mhz"):
        anti_crossing(5.443, 5.443, 0.0)


def test_anti_crossing_trace_sum():
    # branch sum equals the bare sum for any detuning
    for f_q in np.linspace(4.8, 6.1, 27):
        fp, fm = anti_crossing(5.443, float(f_q), 100.0)
        assert fp + fm == pytest.approx(5.443 + f_q, rel=1e-14)
        assert fp > fm


def test_anti_crossing_split_grows_off_resonance():
    split = lambda fq: np.subtract(*anti_crossing(5.443, fq, 100.0))
    assert split(5.443) < split(5.3) < split(5.0)


def test_critical_photon_number():
    assert critical_photon_number(100.0, 2000.0) == pytest.approx(100.0)
    with pytest.raises(ValueError):
        critical_photon_number(0.0, 2000.0)


@pytest.mark.parametrize("g", [1e-300, 1e-320], ids=["square-overflows", "ratio-overflows"])
def test_critical_photon_number_refuses_to_overflow(g):
    # a Python float square past the float limit raises OverflowError, a
    # ratio past it is inf; both are an unusable g
    with pytest.raises(ValueError, match="overflows"):
        critical_photon_number(g, 1844.0)


@pytest.mark.parametrize("key, value", [
    ("f_bare_ghz", 0.0), ("g_mhz", -1.0), ("kappa_mhz", 0.0), ("gamma_q_mhz", -0.1)])
def test_dispersive_system_validation(key, value):
    with pytest.raises(ValueError, match=key):
        DispersiveSystem(**{"f_bare_ghz": 5.443, "g_mhz": 100.0, key: value})


def test_detuning_needs_a_qubit():
    with pytest.raises(ValueError, match="no qubit spectrum"):
        DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0).delta_mhz


def test_mean_photon_number_db_scaling():
    lo = mean_photon_number(-140.0, 5.443, 1.2)
    hi = mean_photon_number(-130.0, 5.443, 1.2)
    assert hi == pytest.approx(10.0 * lo, rel=1e-12)
    attenuated = mean_photon_number(-130.0, 5.443, 1.2, attenuation_db=10.0)
    assert attenuated == pytest.approx(lo, rel=1e-12)


def test_power_dependence_crossover():
    qubit = QubitSpectrum(levels=[0.0, 3598.96, 6979.57])
    system = DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0, qubit=qubit,
                              kappa_mhz=1.2)
    powers = np.linspace(-170.0, -90.0, 81)
    f_c = power_dependence(system, powers)
    chi_ghz = dispersive_shift_two_level(100.0, system.delta_mhz) / 1e3
    assert f_c[0] == pytest.approx(5.443 + chi_ghz, abs=1e-5)
    assert f_c[-1] == pytest.approx(5.443, abs=1e-5)
    # dressed-to-bare migration is monotone
    diffs = np.diff(f_c)
    assert np.all(diffs <= 0.0) or np.all(diffs >= 0.0)


def test_induced_loss_is_the_inverse_purcell_rate():
    system = DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0, gamma_q_mhz=0.5)
    # (g/delta)^2 = 1/400 at 20 g detuning, on either side of the cavity
    assert system.induced_loss_mhz(-2000.0) == pytest.approx(0.5 / 400.0, rel=1e-15)
    assert system.induced_loss_mhz(2000.0) == system.induced_loss_mhz(-2000.0)
    assert system.induced_loss_mhz(4000.0) == pytest.approx(
        system.induced_loss_mhz(2000.0) / 4.0, rel=1e-15)
    # a lossless qubit adds no cavity loss
    lossless = DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0)
    assert lossless.induced_loss_mhz(-2000.0) == 0.0
    with pytest.raises(ValueError, match="detuning"):
        system.induced_loss_mhz(0.0)


def test_gate_model_clamps_and_bounds():
    model = GateSweepModel([0.0, 1.0, 2.0], [0.0, 500.0, 400.0])
    assert model(-5.0) == pytest.approx(model(0.0))
    assert model(99.0) == pytest.approx(model(2.0))
    v = np.linspace(0.0, 2.0, 301)
    out = model(v)
    # pchip is monotone between knots, so no overshoot past table extrema
    assert out.min() >= 0.0 - 1e-12
    assert out.max() <= 500.0 + 1e-12


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(voltages=[0.0], values=[1.0]),
        dict(voltages=[0.0, 0.0], values=[1.0, 2.0]),
        dict(voltages=[0.0, 1.0], values=[1.0, -2.0]),
        dict(voltages=[0.0, 1.0], values=[0.5, 2.0], maps_to="transmission"),
        dict(voltages=[0.0, 1.0], values=[1.0, 2.0], maps_to="other"),
        dict(voltages=[0.0, 1.0], values=[1.0, 2.0, 3.0]),
    ],
)
def test_gate_model_validation(kwargs):
    with pytest.raises(ValueError):
        GateSweepModel(**kwargs)


def test_nanowire_profile_deterministic():
    a = nanowire_profile(seed=3)
    b = nanowire_profile(seed=3)
    assert np.array_equal(a.values, b.values)
    c = nanowire_profile(seed=4)
    assert not np.array_equal(a.values, c.values)


def test_nanowire_profile_pinches_off():
    model = nanowire_profile(seed=3, v_min=-2.0, v_max=10.0, v_pinch=0.0)
    below = model.voltages < 0.0
    assert np.all(model.values[below] == 0.0)
    assert np.all(model.values >= 0.0)


def _oracle_tables(rng):
    """Seeded gate tables for the PCHIP oracle: profiles in both modes,
    random tables with flat zero runs, integer steps, and two-point tables."""
    for seed in range(40):
        yield nanowire_profile(seed=seed, n=int(rng.integers(5, 62)),
                               max_value=rng.uniform(1e3, 3e4))
        yield nanowire_profile(seed=seed, n=int(rng.integers(5, 62)),
                               max_value=rng.uniform(0.5, 1.2), maps_to="transmission")
        x = np.cumsum(rng.uniform(0.05, 1.0, int(rng.integers(3, 30))))
        y = rng.uniform(0.0, 100.0, x.size)
        y[rng.random(x.size) < 0.4] = 0.0
        yield GateSweepModel(x, y)
        yield GateSweepModel(np.arange(12.0), rng.integers(0, 4, 12).astype(float))
        yield GateSweepModel(np.sort(rng.uniform(-3.0, 3.0, 2)), rng.uniform(0.0, 1.0, 2),
                             maps_to="transmission")


def test_gate_model_matches_scipy_pchip_bit_for_bit():
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(14)
    for model in _oracle_tables(rng):
        x = model.voltages
        # every knot, both ends, points off the table and a 61-point grid
        v = np.concatenate([x, [x[0] - 1.0, x[-1] + 1.0],
                            rng.uniform(x[0] - 0.5, x[-1] + 0.5, 100),
                            np.linspace(x[0], x[-1], 61)])
        hi = 1.0 if model.maps_to == "transmission" else np.inf
        want = np.clip(PchipInterpolator(x, model.values)(np.clip(v, x[0], x[-1])), 0.0, hi)
        got = model(v)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # a scalar reads the same bits as its element of the array
        assert all(np.float64(model(u)).view(np.int64) == w
                   for u, w in zip(v[::9], want[::9].view(np.int64)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("column", ["voltages", "values"])
def test_gate_model_refuses_a_non_finite_table(bad, column):
    table = {"voltages": [0.0, 1.0, 2.0], "values": [0.0, 500.0, 400.0]}
    table[column][1] = bad
    with pytest.raises(ValueError, match="gate table voltages and values must be finite"):
        GateSweepModel(**table)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_nanowire_profile_refuses_fewer_than_five_samples(n):
    with pytest.raises(ValueError, match=f"n must be at least 5, got {n}"):
        nanowire_profile(seed=3, n=n)


def test_gate_sweep_evaluates_the_model_once():
    calls = []

    class Counted(GateSweepModel):
        def __call__(self, v):
            calls.append(np.shape(v))
            return super().__call__(v)

    base = nanowire_profile(seed=3, n=9)
    model = Counted(base.voltages, base.values)
    params = QubitParams(ec=190.0, ej=9500.0)
    system = DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0)
    sweep = gate_sweep(model, params, system)
    assert calls == [(9,)]
    assert sweep.points == gate_sweep(base, params, system).points


def test_gate_sweep_regimes_and_order():
    model = nanowire_profile(seed=3, max_value=20000.0)
    params = QubitParams(ec=190.0, ej=9500.0)
    system = DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0, kappa_mhz=1.2)
    sweep = gate_sweep(model, params, system)

    vg = sweep.column("V_G")
    assert np.all(np.diff(vg) > 0)
    regimes = {p.regime for p in sweep.points}
    assert regimes == {"pinch_off", "dispersive", "hybridized"}
    for p in sweep.points:
        if p.regime == "pinch_off":
            assert math.isnan(p.f_q_mhz) and p.chi_mhz == 0.0
            assert p.f_c_ghz == system.f_bare_ghz
        elif p.regime == "dispersive":
            assert abs(system.f_bare_ghz * 1e3 - p.f_q_mhz) > 10 * system.g_mhz
            assert p.f_c_ghz == pytest.approx(
                system.f_bare_ghz + p.chi_mhz / 1e3, rel=1e-12
            )
        else:
            assert math.isnan(p.chi_mhz)
            assert p.f_c_ghz in (p.f_plus_ghz, p.f_minus_ghz)


def test_sweep_point_regime_reads_the_nan_pattern():
    nan = math.nan
    # f_Q NaN is pinch-off whatever chi holds
    assert SweepPoint(0.0, nan, 0.0, 5.443, nan, nan).regime == "pinch_off"
    assert SweepPoint(0.0, nan, nan, 5.443, nan, nan).regime == "pinch_off"
    assert SweepPoint(1.0, 5440.0, nan, 5.54, 5.54, 5.34).regime == "hybridized"
    assert SweepPoint(2.0, 4500.0, 10.0, 5.453, 5.453, 4.49).regime == "dispersive"
    assert SweepPoint._fields == ("vg", "f_q_mhz", "chi_mhz", "f_c_ghz", "f_plus_ghz",
                                  "f_minus_ghz")


def test_gate_sweep_refuses_a_multi_channel_gatemon():
    # the table drives one transmission; sweeping it would drop the others
    model = nanowire_profile(seed=5, n=5, max_value=0.95, maps_to="transmission")
    system = DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0)
    params = QubitParams(ec=190.0, gap=45600.0, transmissions=(0.85, 0.3, 0.1))
    with pytest.raises(ValueError, match="gatemon has 3"):
        gate_sweep(model, params, system)


def test_gate_sweep_explicit_voltages():
    model = nanowire_profile(seed=3)
    params = QubitParams(ec=190.0, ej=9500.0)
    system = DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0)
    sweep = gate_sweep(model, params, system, voltages=[5.0, 1.0, 3.0])
    assert [p.vg for p in sweep.points] == [1.0, 3.0, 5.0]


def test_gate_sweep_variant_mismatch():
    model = nanowire_profile(seed=3, maps_to="transmission", max_value=1.0)
    params = QubitParams(ec=190.0, ej=9500.0)  # EJ variant
    system = DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0)
    with pytest.raises(ValueError):
        gate_sweep(model, params, system)


def test_gate_sweep_labels_errors_with_voltage():
    # a table driving EJ beyond the solver's truncation budget must say
    # which gate point failed
    model = GateSweepModel([0.0, 1.0], [100.0, 1.9e10])
    params = QubitParams(ec=190.0, ej=9500.0)
    system = DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0)
    with pytest.raises(TruncationError, match="V_G = 1"):
        gate_sweep(model, params, system)


def test_gate_sweep_passes_solver_options_to_every_point():
    # at EC = 5 GHz and T = 1 the default 201-point grid fails the
    # refinement check; the configured 401 points pass it
    model = nanowire_profile(seed=3, n=9, max_value=2.0, maps_to="transmission")
    params = QubitParams(ec=5000.0, gap=45600.0, transmissions=(1.0,))
    system = DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0)
    with pytest.raises(TruncationError):
        gate_sweep(model, params, system)
    sweep = gate_sweep(model, params, system, solver_options={"grid_n": 401})
    for p in sweep.points:
        if p.regime != "pinch_off":
            single = QubitParams(ec=5000.0, gap=45600.0, transmissions=(float(model(p.vg)),))
            assert p.f_q_mhz == gatemon_levels(single, grid_n=401).f01


def test_gate_sweep_solves_each_junction_value_once(monkeypatch):
    from cqedkit import coupling

    # 11 of the 25 points clip to T = 1 exactly
    model = nanowire_profile(seed=1, n=25, max_value=1.0, maps_to="transmission")
    params = QubitParams(ec=220.0, gap=55000.0, transmissions=(1.0,))
    system = DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0, kappa_mhz=1.2, gamma_q_mhz=0.3)
    solved = []

    def counting(p, **kwargs):
        solved.append(p.transmissions)
        return gatemon_levels(p, **kwargs)

    monkeypatch.setattr(coupling, "gatemon_levels", counting)
    sweep = gate_sweep(model, params, system)
    values = [float(model(v)) for v in model.voltages]
    assert values.count(1.0) == 11
    assert sorted(solved) == sorted({(v,) for v in values if v > 0.0})

    # one call per point solves every point on its own
    each = [gate_sweep(model, params, system, voltages=[v]).points[0] for v in model.voltages]
    assert len(solved) == len(set(solved)) + sum(v > 0.0 for v in values)
    assert np.array_equal(np.array([p[:6] for p in sweep.points]),
                          np.array([p[:6] for p in each]), equal_nan=True)
    assert [p.regime for p in sweep.points] == [p.regime for p in each]


def test_sweep_result_column_roundtrip():
    model = nanowire_profile(seed=3)
    params = QubitParams(ec=190.0, ej=9500.0)
    system = DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0)
    sweep = gate_sweep(model, params, system)
    assert sweep.system is system
    assert sweep.column("f_C_GHz").size == len(sweep.points)
    assert sweep.column("f_C_GHz")[0] == sweep.points[0].f_c_ghz
    with pytest.raises(KeyError):
        sweep.column("nope")
