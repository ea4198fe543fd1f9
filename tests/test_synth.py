"""Synthetic data generators: spec validation, reproducibility, and the
geometry of the generated features against their ground truth.
"""

import json
import math

import numpy as np
import pytest

from cqedkit import (
    DispersiveSystem,
    Map2D,
    QubitSpectrum,
    SweepPoint,
    SweepResult,
    SynthSpec,
    fit_reflection,
    gate_sweep,
    nanowire_profile,
    subtract_background,
    synth_gate_map,
    synth_power_map,
    synth_rabi,
    synth_reflection,
    synth_two_tone,
)
from cqedkit import io
from cqedkit.coupling import (
    QubitParams, crossover_weight, dispersive_shift_two_level, power_dependence,
)
from cqedkit.errors import ConfigError
from cqedkit.fitters import reflection_model
from cqedkit.synth import SYNTH_KINDS

REFL_TRUTH = {"a_re": 1.0, "a_im": 0.0, "ql": 6000.0, "qc": 12000.0,
              "theta": 0.1, "f_r_ghz": 5.2816}
REFL_GRID = {"f_min_ghz": 5.2728, "f_max_ghz": 5.2904, "n_f": 401}


def _refl_spec(**over):
    kw = dict(kind="reflection_trace", seed=11, snr_db=35.0,
              truth=dict(REFL_TRUTH), grid=dict(REFL_GRID))
    kw.update(over)
    return SynthSpec(**kw)


def _sweep(points):
    return SweepResult(points, DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0,
                                                kappa_mhz=1.2, gamma_q_mhz=0.3))


def _dispersive_point(vg, f_q_mhz, f_c_ghz):
    return SweepPoint(vg=vg, f_q_mhz=f_q_mhz, chi_mhz=0.0, f_c_ghz=f_c_ghz,
                      f_plus_ghz=float("nan"), f_minus_ghz=float("nan"))


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown synth kind"):
            _refl_spec(kind="hologram")

    @pytest.mark.parametrize("key", ["truth", "grid"])
    def test_truth_and_grid_must_be_mappings(self, key):
        with pytest.raises(ConfigError, match="synth truth and grid must be mappings"):
            _refl_spec(**{key: [1.0]})

    def test_missing_grid_key(self):
        grid = dict(REFL_GRID)
        del grid["n_f"]
        with pytest.raises(ConfigError, match="missing"):
            _refl_spec(grid=grid)

    def test_missing_truth_key(self):
        truth = dict(REFL_TRUTH)
        del truth["ql"]
        with pytest.raises(ConfigError, match="missing"):
            _refl_spec(truth=truth)

    def test_unknown_key_named_with_the_allowed_keys(self):
        with pytest.raises(ConfigError, match=r"truth .*\['tau'\]; allowed: .*'tau_ns'"):
            _refl_spec(truth={**REFL_TRUTH, "tau": 5.0})
        allowed = r"\['f_max_ghz', 'f_min_ghz', 'n_f'\]"
        with pytest.raises(ConfigError, match=rf"grid .*\['n_t'\]; allowed: {allowed}"):
            _refl_spec(grid={**REFL_GRID, "n_t": 5})

    def test_bool_only_for_a_switch(self):
        with pytest.raises(ConfigError, match="truth theta must be a finite number, got True"):
            _refl_spec(truth={**REFL_TRUTH, "theta": True})
        grid = {"f_min_ghz": 3.9, "f_max_ghz": 4.4, "n_f": 11,
                "v_min": 0.0, "v_max": 1.0, "n_v": 2}
        with pytest.raises(ConfigError, match="two_photon must be true or false, got 1"):
            SynthSpec(kind="two_tone_map", seed=1, snr_db=None,
                      truth={"two_photon": 1, "alpha_mhz": -200.0}, grid=grid)

    def test_numpy_scalars_record_as_plain_numbers(self):
        # the benchmark passes numpy floats; a float32 goes through float()
        spec = _refl_spec(snr_db=np.float64(35.0),
                          truth={**REFL_TRUTH, "ql": np.float64(6e3), "theta": np.float32(0.5)})
        plain = _refl_spec(snr_db=35.0, truth={**REFL_TRUTH, "ql": 6000.0, "theta": 0.5})
        assert json.dumps(spec.to_dict()) == json.dumps(plain.to_dict())

    def test_single_point_axis_rejected(self):
        with pytest.raises(ConfigError, match="at least 2"):
            _refl_spec(grid={**REFL_GRID, "n_f": 1})

    @pytest.mark.parametrize("kind, key", [
        ("reflection_trace", "n_f"), ("power_map", "n_p"),
        ("gate_map", "n_v"), ("rabi_trace", "n_t"),
    ])
    @pytest.mark.parametrize("value", [40.5, float("inf")])
    def test_fractional_grid_count_names_key(self, kind, key, value):
        # each kind gets only its own axes, so the value rule, not the
        # unknown-key refusal, is what names the count
        f = {"f_min_ghz": 5.0, "f_max_ghz": 5.1, "n_f": 41}
        grid = {"reflection_trace": f,
                "power_map": {**f, "p_min_dbm": -40.0, "p_max_dbm": 0.0, "n_p": 5},
                "gate_map": {**f, "v_min": -1.0, "v_max": 1.0, "n_v": 5},
                "rabi_trace": {"t_max_ns": 100.0, "n_t": 41}}[kind]
        truth = {"reflection_trace": REFL_TRUTH,
                 "rabi_trace": {"A": 1.0, "T_R": 300.0, "omega": 0.2, "B": 0.0,
                                "a": 0.0, "b": 0.5}}.get(kind, {})
        rule = "an integer" if math.isfinite(value) else "a finite number"
        with pytest.raises(ConfigError, match=f"{key} must be {rule}, got {value}") as info:
            SynthSpec(kind=kind, seed=1, snr_db=None, truth=truth, grid={**grid, key: value})
        assert "allowed" not in str(info.value)

    def test_integral_float_grid_count_kept(self):
        # SynthSpec turns a YAML "4e2" into 400.0; the sidecar keeps the value
        spec = _refl_spec(grid={**REFL_GRID, "n_f": 4e2})
        assert spec.axis("f").size == 400 and spec.to_dict()["grid"]["n_f"] == 400.0

    def test_nonfinite_snr_rejected(self):
        with pytest.raises(ConfigError, match="snr_db must be a finite number"):
            _refl_spec(snr_db=float("inf"))

    @pytest.mark.parametrize("snr_db", [[20], "loud", True, np.True_])
    def test_non_numeric_snr_names_key(self, snr_db):
        # a list used to escape as a TypeError, text and bools to pass
        with pytest.raises(ConfigError, match="snr_db"):
            _refl_spec(snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", ["20", "2e1", 20, np.float32(20.0)],
                             ids=["text", "text-exponent", "int", "float32"])
    def test_numeric_snr_passes_as_float(self, snr_db):
        # snr_db follows the number rule of the truth and grid values, which
        # reads numeric text as PyYAML gives it for 2e1; the sidecar
        # records the float, as a YAML 20.0 does
        spec = _refl_spec(snr_db=snr_db)
        assert type(spec.snr_db) is float and spec.snr_db == 20.0
        assert json.dumps(spec.to_dict()) == json.dumps(_refl_spec(snr_db=20.0).to_dict())

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            _refl_spec(seed=-1)

    @pytest.mark.parametrize("seed", [7.9, True, float("inf"), float("nan"), -1.0, "7.5"])
    def test_non_integer_seed_names_key(self, seed):
        # a fractional seed used to run, and be recorded, as its integer part
        with pytest.raises(ConfigError, match="seed"):
            _refl_spec(seed=seed)

    def test_integral_float_seed_passes(self):
        spec = _refl_spec(seed=7.0)
        assert spec.seed == 7 and type(spec.to_dict()["seed"]) is int

    def test_inverted_axis_rejected(self):
        spec = _refl_spec(grid={"f_min_ghz": 5.3, "f_max_ghz": 5.2, "n_f": 101})
        with pytest.raises(ConfigError, match="must exceed"):
            spec.axis("f")

    def test_negative_time_axis_rejected(self):
        # the time axis follows the range rule of the others: it starts at 0
        spec = SynthSpec(kind="rabi_trace", seed=1, snr_db=None,
                         truth={"A": 1, "T_R": 260, "omega": 0.2, "B": 0, "a": 0, "b": 0},
                         grid={"t_max_ns": -1000.0, "n_t": 251})
        with pytest.raises(ConfigError, match="t_max_ns must exceed 0"):
            spec.axis("t")

    def test_kind_mismatch_at_generator(self):
        with pytest.raises(ConfigError, match="not rabi_trace"):
            synth_rabi(_refl_spec())


def test_axis_endpoints_exact():
    spec = _refl_spec()
    f = spec.axis("f")
    assert f[0] == 5.2728 and f[-1] == 5.2904 and f.size == 401
    t = SynthSpec(kind="rabi_trace", seed=1, snr_db=None,
                  truth={"A": 1, "T_R": 260, "omega": 0.2, "B": 0, "a": 0, "b": 0},
                  grid={"t_max_ns": 1000.0, "n_t": 251}).axis("t")
    assert t[0] == 0.0 and t[-1] == 1000.0 and t.size == 251


def test_reflection_deterministic_and_seed_sensitive():
    a = synth_reflection(_refl_spec())
    b = synth_reflection(_refl_spec())
    c = synth_reflection(_refl_spec(seed=12))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_reflection_self_inversion():
    # the generator and the fitter share the forward model, so a clean
    # trace must round-trip well inside the noise-set error bars
    fit = fit_reflection(synth_reflection(_refl_spec(snr_db=40.0)))
    assert fit.ql == pytest.approx(6000.0, rel=0.02)
    assert fit.qc == pytest.approx(12000.0, rel=0.02)
    assert fit.f_r_ghz == pytest.approx(5.2816, abs=1e-4)


def test_rabi_noiseless_matches_model_exactly():
    spec = SynthSpec(kind="rabi_trace", seed=3, snr_db=None,
                     truth={"A": 1.0, "T_R": 260.0, "omega": 0.2, "B": 0.3,
                            "a": -2e-4, "b": 0.1},
                     grid={"t_max_ns": 1000.0, "n_t": 251})
    t, y = synth_rabi(spec)
    from cqedkit.fitters import rabi_model
    assert np.array_equal(y, rabi_model(t, 1.0, 260.0, 0.2, 0.3, -2e-4, 0.1))


def test_noise_rms_tracks_snr():
    spec_hi = _refl_spec(snr_db=40.0, seed=7)
    spec_lo = _refl_spec(snr_db=20.0, seed=7)
    clean = synth_reflection(_refl_spec(snr_db=None)).values
    for spec, expect in ((spec_hi, 1e-2), (spec_lo, 1e-1)):
        resid = synth_reflection(spec).values - clean
        rms = float(np.sqrt(np.mean(np.abs(resid) ** 2)))
        assert rms == pytest.approx(expect, rel=0.15)


def test_map_csv_round_trip_bytes_identical(tmp_path):
    pts = [_dispersive_point(v, 4500.0, 5.444) for v in (0.5, 1.0, 1.5)]
    spec = SynthSpec(kind="gate_map", seed=21, snr_db=30.0, truth={},
                     grid={"f_min_ghz": 5.43, "f_max_ghz": 5.46, "n_f": 61,
                           "v_min": 0.5, "v_max": 1.5, "n_v": 3})
    m = synth_gate_map(spec, _sweep(pts))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    io.write_map_csv(p1, m)
    io.write_map_csv(p2, synth_gate_map(spec, _sweep(pts)))
    assert p1.read_bytes() == p2.read_bytes()
    back = io.read_map_csv(p1)
    assert np.allclose(back.grid, m.grid)


def test_row_noise_streams_stable_under_truncation():
    # dropping trailing gate points must not change the rows kept
    pts = [_dispersive_point(v, 4500.0 + 10 * v, 5.444) for v in range(6)]
    spec = SynthSpec(kind="two_tone_map", seed=29, snr_db=25.0, truth={},
                     grid={"f_min_ghz": 4.3, "f_max_ghz": 4.8, "n_f": 201,
                           "v_min": 0, "v_max": 5, "n_v": 6})
    full = synth_two_tone(spec, _sweep(pts))
    part = synth_two_tone(spec, _sweep(pts[:3]))
    assert np.array_equal(full.grid[:3], part.grid)


class TestGateMap:
    GRID = {"f_min_ghz": 5.30, "f_max_ghz": 5.58, "n_f": 1401,
            "v_min": 0.0, "v_max": 2.0, "n_v": 3}

    def _map(self, points):
        spec = SynthSpec(kind="gate_map", seed=1, snr_db=None, truth={},
                         grid=dict(self.GRID))
        return synth_gate_map(spec, _sweep(points))

    def test_dispersive_row_dip_at_shifted_cavity(self):
        m = self._map([_dispersive_point(0.0, 4500.0, 5.4531)])
        f_dip = m.fast_values[np.argmin(m.grid[0])]
        assert f_dip == pytest.approx(5.4531, abs=2e-4)

    def test_pinch_off_row_dip_at_bare_cavity(self):
        pt = SweepPoint(vg=0.0, f_q_mhz=float("nan"), chi_mhz=float("nan"),
                        f_c_ghz=5.443, f_plus_ghz=float("nan"),
                        f_minus_ghz=float("nan"))
        m = self._map([pt])
        f_dip = m.fast_values[np.argmin(m.grid[0])]
        assert f_dip == pytest.approx(5.443, abs=2e-4)

    def test_hybridized_row_has_both_branches(self):
        pt = SweepPoint(vg=0.0, f_q_mhz=5443.0, chi_mhz=float("nan"),
                        f_c_ghz=float("nan"), f_plus_ghz=5.543,
                        f_minus_ghz=5.343)
        m = self._map([pt])
        row, f = m.grid[0], m.fast_values
        upper = f > 5.443
        assert f[upper][np.argmin(row[upper])] == pytest.approx(5.543, abs=2e-4)
        assert f[~upper][np.argmin(row[~upper])] == pytest.approx(5.343, abs=2e-4)
        # on resonance the branches share the dip weight equally
        assert np.min(row[upper]) == pytest.approx(np.min(row[~upper]), rel=0.02)


def test_gate_map_tracks_real_sweep():
    model = nanowire_profile(seed=3, v_min=-2.0, v_max=10.0, n=25,
                             v_pinch=0.0, max_value=20000.0, maps_to="ej")
    system = DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0, kappa_mhz=1.2,
                              gamma_q_mhz=0.3)
    sweep = gate_sweep(model, QubitParams(ec=190.0, ej=9500.0), system)
    spec = SynthSpec(kind="gate_map", seed=2, snr_db=None, truth={},
                     grid={"f_min_ghz": 5.30, "f_max_ghz": 5.58, "n_f": 2801,
                           "v_min": -2.0, "v_max": 10.0, "n_v": 25})
    m = synth_gate_map(spec, sweep)
    df = m.fast_values[1] - m.fast_values[0]
    for i, pt in enumerate(sweep.points):
        if pt.regime != "dispersive":
            continue
        f_dip = m.fast_values[np.argmin(m.grid[i])]
        assert abs(f_dip - pt.f_c_ghz) <= df


class TestTwoTone:
    GRID = {"f_min_ghz": 3.9, "f_max_ghz": 4.4, "n_f": 2001,
            "v_min": 0.0, "v_max": 1.0, "n_v": 2}

    def _map(self, truth, points=None):
        spec = SynthSpec(kind="two_tone_map", seed=1, snr_db=None,
                         truth=truth, grid=dict(self.GRID))
        if points is None:
            points = [_dispersive_point(v, 4200.0, 5.444) for v in (0.0, 1.0)]
        return synth_two_tone(spec, _sweep(points))

    def test_dip_at_qubit_frequency(self):
        m = self._map({})
        assert m.fast_values[np.argmin(m.grid[0])] == pytest.approx(4.2, abs=1e-3)

    def test_two_photon_dip_at_half_anharmonicity(self):
        m = self._map({"two_photon": True, "alpha_mhz": -200.0, "depth": 0.5})
        row, f = m.grid[0], m.fast_values
        lower = f < 4.15
        f2 = f[lower][np.argmin(row[lower])]
        assert f2 == pytest.approx(4.2 - 0.1, abs=1e-3)
        # half depth by default
        assert np.min(row[lower]) == pytest.approx(0.75, abs=0.01)

    def test_two_photon_requires_alpha(self):
        with pytest.raises(ConfigError, match="alpha_mhz"):
            self._map({"two_photon": True})

    def test_pinched_off_row_is_flat(self):
        pt = SweepPoint(vg=0.0, f_q_mhz=float("nan"), chi_mhz=float("nan"),
                        f_c_ghz=5.443, f_plus_ghz=float("nan"),
                        f_minus_ghz=float("nan"))
        m = self._map({}, points=[pt, _dispersive_point(1.0, 4200.0, 5.444)])
        assert np.all(m.grid[0] == 1.0)


def test_two_tone_background_removed_by_median_subtraction():
    pts = [_dispersive_point(float(v), 4000.0 + 60.0 * v, 5.444)
           for v in range(7)]
    grid = {"f_min_ghz": 3.9, "f_max_ghz": 4.5, "n_f": 1201,
            "v_min": 0.0, "v_max": 6.0, "n_v": 7}
    with_bg = synth_two_tone(
        SynthSpec(kind="two_tone_map", seed=1, snr_db=None,
                  truth={"background_amp": 0.05, "background_period_ghz": 0.13},
                  grid=grid),
        _sweep(pts))
    without_bg = synth_two_tone(
        SynthSpec(kind="two_tone_map", seed=1, snr_db=None, truth={}, grid=grid),
        _sweep(pts))
    # the shared ripple dominates the raw rows away from the dips
    assert np.ptp(with_bg.grid[0][with_bg.fast_values > 4.1]) > 0.05
    # a background common to all rows drops out of the median exactly
    assert np.allclose(subtract_background(with_bg.grid),
                       subtract_background(without_bg.grid), atol=1e-12)
    row0 = subtract_background(with_bg.grid)[0]
    assert np.min(row0) == pytest.approx(-0.5, abs=0.01)


class TestPowerMap:
    def _system(self, gamma_q=50.0):
        return DispersiveSystem(
            f_bare_ghz=5.443, g_mhz=100.0,
            qubit=QubitSpectrum(levels=[0.0, 4400.0, 8590.0]),
            kappa_mhz=1.2, gamma_q_mhz=gamma_q,
        )

    def _map(self, system, snr_db=None):
        spec = SynthSpec(kind="power_map", seed=17, snr_db=snr_db, truth={},
                         grid={"f_min_ghz": 5.425, "f_max_ghz": 5.470,
                               "n_f": 901, "p_min_dbm": -150.0,
                               "p_max_dbm": -90.0, "n_p": 25})
        return synth_power_map(spec, system)

    def test_dip_migrates_dressed_to_bare(self):
        system = self._system()
        m = self._map(system)
        chi_ghz = dispersive_shift_two_level(100.0, system.delta_mhz) / 1e3
        f_low = m.fast_values[np.argmin(m.grid[0])]
        f_high = m.fast_values[np.argmin(m.grid[-1])]
        assert f_low == pytest.approx(5.443 + chi_ghz, abs=2e-4)
        assert f_high == pytest.approx(5.443, abs=2e-4)
        # monotone walk between the two endpoints
        dips = m.fast_values[np.argmin(m.grid, axis=1)]
        assert np.all(np.diff(dips) <= 1e-12)

    def test_low_power_line_broader(self):
        m = self._map(self._system(gamma_q=50.0))
        half = 1.0 - 0.4  # half of the default 0.8 depth
        widths = np.sum(m.grid < half, axis=1)
        assert widths[0] > widths[-1]

    def test_rows_are_drawn_at_power_dependence(self):
        # seed 167 gives a system where chi / 1e3 * w and w * chi / 1e3 land
        # on different sides of a rounding boundary once added to f_bare, at
        # row 8; each row must be the reflection model at power_dependence's
        # centre, with the crossover-weighted linewidth, to the last bit
        rng = np.random.default_rng(167)
        f01 = rng.uniform(3000.0, 4000.0)
        system = DispersiveSystem(
            f_bare_ghz=rng.uniform(5.40, 5.48), g_mhz=rng.uniform(40.0, 100.0),
            qubit=QubitSpectrum(levels=[0.0, f01, 2.0 * f01 - 200.0]),
            kappa_mhz=1.2, gamma_q_mhz=0.3,
        )
        f_bare, chi = system.f_bare_ghz, dispersive_shift_two_level(system.g_mhz, system.delta_mhz)
        spec = SynthSpec(kind="power_map", seed=3, snr_db=None, truth={},
                         grid={"f_min_ghz": f_bare + chi / 1e3 - 0.01, "f_max_ghz": f_bare + 0.01,
                               "n_f": 401, "p_min_dbm": -150.0, "p_max_dbm": -105.0, "n_p": 46})
        powers, f = spec.axis("p"), spec.axis("f")
        w = crossover_weight(system, powers)
        assert (f_bare + chi / 1e3 * w)[8] != (f_bare + w * chi / 1e3)[8]
        fwhms = system.kappa_mhz + w * system.induced_loss_mhz(system.delta_mhz)
        rows = []
        for center, fwhm in zip(power_dependence(system, powers), fwhms):
            ql = center * 1e3 / fwhm
            rows.append(np.abs(reflection_model(f, 1.0, ql, 2.0 * ql / 0.8, 0.0, center)))
        assert np.array(rows).tobytes() == synth_power_map(spec, system).grid.tobytes()

    def test_needs_attached_qubit(self):
        system = DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0)
        with pytest.raises(ConfigError, match="qubit"):
            self._map(system)


def test_map2d_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        Map2D("V", np.arange(3.0), "f", np.arange(4.0), np.zeros((3, 5)))


# a base truth per kind on which every truth key with a default changes the
# data: background_period_ghz needs a background, alpha_mhz the two-photon dip
LIVE_TRUTH = {"reflection_trace": REFL_TRUTH,
              "two_tone_map": {"two_photon": True, "alpha_mhz": -200.0, "background_amp": 0.05}}


def _live_data(kind, truth):
    """The noiseless data of a spec of kind with the given truth."""
    system = DispersiveSystem(f_bare_ghz=5.443, g_mhz=100.0, kappa_mhz=1.2, gamma_q_mhz=0.3,
                              qubit=QubitSpectrum(levels=[0.0, 4400.0, 8590.0]))
    sweep = SweepResult([_dispersive_point(v, 4200.0, 5.444) for v in (0.0, 1.0)], system)
    v = {"v_min": 0.0, "v_max": 1.0, "n_v": 2}
    grid, make = {
        "reflection_trace": (REFL_GRID, synth_reflection),
        "power_map": ({"f_min_ghz": 5.425, "f_max_ghz": 5.470, "n_f": 201, "p_min_dbm": -150.0,
                       "p_max_dbm": -90.0, "n_p": 13}, lambda s: synth_power_map(s, system)),
        "gate_map": ({"f_min_ghz": 5.40, "f_max_ghz": 5.48, "n_f": 201, **v},
                     lambda s: synth_gate_map(s, sweep)),
        "two_tone_map": ({"f_min_ghz": 3.9, "f_max_ghz": 4.4, "n_f": 501, **v},
                         lambda s: synth_two_tone(s, sweep)),
    }[kind]
    data = make(SynthSpec(kind=kind, seed=1, snr_db=None, truth=truth, grid=grid))
    return data.grid if isinstance(data, Map2D) else data.values


@pytest.mark.parametrize("kind, key", [
    (kind, key) for kind, (_, table) in SYNTH_KINDS.items()
    for key, default in table.items() if default is not None])
def test_every_truth_default_is_read(kind, key):
    # a key that no generator reads would be recorded in the sidecar and
    # leave the data as it is
    base = LIVE_TRUTH.get(kind, {})
    old = {**SYNTH_KINDS[kind][1], **base}[key]
    new = (not old) if isinstance(old, bool) else old + 0.3
    assert not np.array_equal(_live_data(kind, base), _live_data(kind, {**base, key: new}))
