"""Qubit spectra and cavity eigenmode tests.

Frozen numbers in this file are solver outputs pinned once (same
machine, default truncation) and guard against regressions, not against
physics; asymptotic and symmetry checks cover the physics.
"""

import importlib.machinery
import importlib.util
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqedkit import (
    CavityGeometry,
    QubitParams,
    QubitSpectrum,
    gatemon_levels,
    infer_transmission,
    spectra,
    te_mode_frequency,
    transmon_levels,
)
from cqedkit.errors import NoSolutionError, TruncationError
from cqedkit.spectra import DEFAULT_GRID_N

EC = 190.0

# frozen: transmon_levels(QubitParams(ec=190, ej=190*ratio)) at defaults
TRANSMON_ORACLE = {
    30: (2738.601282773942, 2503.6926993234724, -234.90858345046945),
    50: (3598.9645956202194, 3380.6122200673935, -218.35237555282583),
    100: (5176.575752057575, 4968.431843697981, -208.1439083595942),
}

# frozen: gatemon_levels, EC=190, gap=45600, channels (0.85, 0.3, 0.1)
GATEMON_F01 = 4553.090090119571
GATEMON_F12 = 4445.996586901048
GATEMON_ALPHA = -107.09350321852253

TE101_70_5_30 = 5.436074616612465  # frozen te_mode_frequency output, GHz


@pytest.mark.parametrize("ratio", sorted(TRANSMON_ORACLE))
def test_transmon_frozen_spectrum(ratio):
    s = transmon_levels(QubitParams(ec=EC, ej=EC * ratio))
    f01, f12, alpha = TRANSMON_ORACLE[ratio]
    assert s.f01 == pytest.approx(f01, rel=1e-9)
    assert s.f12 == pytest.approx(f12, rel=1e-9)
    assert s.alpha == pytest.approx(alpha, rel=1e-9)


@pytest.mark.parametrize("ratio", [30, 50, 100])
def test_transmon_asymptotic_f01(ratio):
    # plasma-frequency expansion: f01 ~ sqrt(8 EJ EC) - EC
    s = transmon_levels(QubitParams(ec=EC, ej=EC * ratio))
    approx = math.sqrt(8.0 * EC * EC * ratio) - EC
    assert abs(s.f01 - approx) / s.f01 < 0.01


def test_transmon_charge_dispersion_small():
    # deep transmon: ng moves f01 by far less than the anharmonicity
    a = transmon_levels(QubitParams(ec=EC, ej=50 * EC, ng=0.0))
    b = transmon_levels(QubitParams(ec=EC, ej=50 * EC, ng=0.5))
    assert abs(a.f01 - b.f01) < 0.1


def test_transmon_alpha_near_minus_ec():
    s = transmon_levels(QubitParams(ec=EC, ej=50 * EC))
    assert -1.3 * EC < s.alpha < -0.9 * EC


def test_transmon_truncation_check_fires():
    with pytest.raises(TruncationError):
        transmon_levels(QubitParams(ec=EC, ej=1.9e10))


def test_transmon_check_can_be_disabled():
    s = transmon_levels(QubitParams(ec=EC, ej=1.9e10), check=False)
    assert np.all(np.isfinite(s.levels))


def test_gatemon_frozen_spectrum():
    p = QubitParams(ec=EC, gap=45600.0, transmissions=(0.85, 0.3, 0.1))
    s = gatemon_levels(p)
    assert s.f01 == pytest.approx(GATEMON_F01, rel=1e-9)
    assert s.f12 == pytest.approx(GATEMON_F12, rel=1e-9)
    assert s.alpha == pytest.approx(GATEMON_ALPHA, rel=1e-9)


def test_gatemon_free_rotor_limit():
    # T = 0 leaves the flat potential: levels at 4 EC k^2, so the first
    # gap is 4 EC and the next pair is degenerate
    s = gatemon_levels(QubitParams(ec=EC, gap=45600.0, transmissions=(0.0,)))
    assert s.f01 == pytest.approx(4.0 * EC, rel=1e-8)
    assert s.f12 == pytest.approx(0.0, abs=1e-6)


def test_gatemon_alpha_band():
    # anharmonicity runs from ~ -EC at low T toward -EC/4 at full
    # transparency once the junction is deep in its transmon regime
    lo = gatemon_levels(QubitParams(ec=EC, gap=1.52e8, transmissions=(0.01,)))
    hi = gatemon_levels(QubitParams(ec=EC, gap=240 * EC, transmissions=(1.0,)))
    assert lo.alpha == pytest.approx(-192.09665217995644, rel=1e-9)
    assert hi.alpha == pytest.approx(-48.78680259041721, rel=1e-9)
    assert abs(lo.alpha - (-EC)) / EC < 0.02
    assert abs(hi.alpha - (-EC / 4.0)) / (EC / 4.0) < 0.10


def test_gatemon_alpha_monotone_in_transmission():
    alphas = [
        gatemon_levels(QubitParams(ec=EC, gap=50 * EC, transmissions=(t,))).alpha
        for t in np.linspace(0.05, 1.0, 21)
    ]
    assert all(b > a for a, b in zip(alphas, alphas[1:]))


def test_gatemon_truncation_check_fires():
    with pytest.raises(TruncationError):
        gatemon_levels(QubitParams(ec=0.01, gap=45600.0, transmissions=(0.99,)),
                       grid_n=101)


def _modulo_hamiltonian(ec, gap, transmissions, ng, grid_n):
    # the charge-basis matrix as first written: complex, indexed c[(k - k') mod N]
    phi = 2.0 * np.pi * np.arange(grid_n) / grid_n
    u = np.zeros(grid_n)
    for t in transmissions:
        u -= gap * np.sqrt(1.0 - t * np.sin(phi / 2.0) ** 2)
    c = np.fft.fft(u) / grid_n
    half = (grid_n - 1) // 2
    k = np.arange(-half, half + 1)
    h = np.diag(4.0 * ec * (k - ng) ** 2).astype(complex)
    h += c[(k[:, None] - k[None, :]) % grid_n]
    return h


GATEMON_DEVICES = [(EC, 45600.0, (t,)) for t in (0.05, 0.5, 0.95, 1.0)] + [
    (EC, 45600.0, (0.85, 0.3, 0.1)),  # configs/gatemon.yaml
    (EC, 45600.0, (1.0, 0.5, 0.05)),
]


@pytest.mark.parametrize("ng", [0.0, 0.23, 0.5])
@pytest.mark.parametrize("device", GATEMON_DEVICES)
def test_gatemon_check_f01_matches_complex_full_solve(device, ng):
    from scipy.linalg import eigvalsh

    grid_n = 2 * DEFAULT_GRID_N + 1
    full = eigvalsh(_modulo_hamiltonian(*device, ng, grid_n))
    f01 = spectra._gatemon_f01(*device, ng, grid_n)
    assert abs(f01 - (full[1] - full[0])) < 1e-6


@pytest.mark.parametrize("ng", [0.0, 0.23, 0.5])
@pytest.mark.parametrize("device", GATEMON_DEVICES)
def test_gatemon_toeplitz_build_is_bit_identical(device, ng, monkeypatch):
    built = []
    eigvalsh = spectra._eigvalsh

    def capture(h, *args, **kwargs):
        built.append(h.copy())
        return eigvalsh(h, *args, **kwargs)

    monkeypatch.setattr(spectra, "_eigvalsh", capture)
    vals = spectra._gatemon_eigvals(*device, ng, DEFAULT_GRID_N)
    want = _modulo_hamiltonian(*device, ng, DEFAULT_GRID_N)
    assert np.array_equal(built[0], want)
    # same bits, signed zeros included, so the levels are the same bits too
    assert np.array_equal(built[0].view(np.uint64), want.view(np.uint64))
    assert np.array_equal(vals, eigvalsh(want))


def _seeded_devices(count, seed=2024):
    """(ec, gap, transmissions, grid_n): 1-3 channels, T in (0, 1], EC 150-300 MHz."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        channels = rng.uniform(1e-3, 1.0, size=int(rng.integers(1, 4)))
        if i % 4 == 0:
            channels[0] = 1.0  # an open channel, where the potential has a kink
        yield (float(rng.uniform(150.0, 300.0)), float(rng.uniform(40e3, 70e3)),
               tuple(channels), (101, 201, 301)[i % 3])


def _whole_refined_f01(ec, gap, transmissions, ng, grid_n):
    # the refined real-symmetric matrix solved whole, as the ng != 0 path does
    from scipy.linalg import eigvalsh, toeplitz

    c, charging = spectra._gatemon_terms(ec, gap, transmissions, ng, grid_n)
    h = toeplitz(c.real) + np.diag(charging)
    e0, e1 = eigvalsh(h, subset_by_index=[0, 1])
    return e1 - e0


def test_gatemon_check_parity_blocks_match_whole_matrix():
    worst = 0.0
    for ec, gap, channels, grid_n in _seeded_devices(108):
        refined = 2 * grid_n + 1
        split = spectra._gatemon_f01(ec, gap, channels, 0.0, refined)
        worst = max(worst, abs(split - _whole_refined_f01(ec, gap, channels, 0.0, refined)))
    assert worst < 1e-7


@pytest.mark.parametrize("ng,sizes", [(0.0, [(201, 201), (202, 202)]),
                                      (0.23, [(403, 403)]), (0.5, [(403, 403)])])
def test_gatemon_check_splits_only_at_zero_offset_charge(ng, sizes, monkeypatch):
    shapes = []
    eigvalsh = spectra._eigvalsh

    def capture(h, *args, **kwargs):
        shapes.append(h.shape)
        return eigvalsh(h, *args, **kwargs)

    monkeypatch.setattr(spectra, "_eigvalsh", capture)
    spectra._gatemon_f01(EC, 45600.0, (0.85, 0.3, 0.1), ng, 2 * DEFAULT_GRID_N + 1)
    assert shapes == sizes


# The solvers call LAPACK through scipy's compiled wrappers; scipy.linalg's
# own functions are the oracles, and the levels must be the same bits.

def _oracle_devices(count, seed=1517):
    """(ec, gap, transmissions, ng, grid_n): 1-3 channels, each ng on both grids."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        channels = tuple(rng.uniform(1e-3, 1.0, size=int(rng.integers(1, 4))))
        yield (float(rng.uniform(150.0, 300.0)), float(rng.uniform(40e3, 70e3)), channels,
               (0.0, 0.23, 0.5)[i % 3], (201, 403)[(i // 3) % 2])


def _same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_gatemon_solves_match_scipy_eigvalsh_bit_for_bit(monkeypatch):
    from scipy.linalg import eigvalsh

    solves = []
    ours = spectra._eigvalsh

    def capture(h, subset_by_index=None):
        solves.append((h.copy(), subset_by_index))
        return ours(h, subset_by_index)

    monkeypatch.setattr(spectra, "_eigvalsh", capture)
    for ec, gap, channels, ng, grid_n in _oracle_devices(12):
        solves.clear()
        gatemon_levels(QubitParams(ec=ec, gap=gap, transmissions=channels, ng=ng),
                       grid_n=grid_n, check=False)
        spectra._gatemon_f01(ec, gap, channels, ng, grid_n)
        # the complex primary solve, then one or two real parity blocks
        assert solves[0][0].dtype == complex and solves[0][1] is None
        assert len(solves) == (3 if ng == 0.0 else 2)
        for h, subset in solves:
            if subset is None:
                want = eigvalsh(h)
            else:
                assert h.dtype == float and subset == (0, 1)
                want = eigvalsh(h, subset_by_index=[0, 1])
            assert _same_bits(ours(h, subset), want)


@pytest.mark.parametrize("ng", [0.0, 0.23, 0.5])
def test_transmon_solve_matches_scipy_tridiagonal_bit_for_bit(ng):
    from scipy.linalg import eigvalsh_tridiagonal

    for n_cut in (10, 17, 25, 33, 40):
        for ratio in (1.0, 30.0, 100.0):
            n = np.arange(-n_cut, n_cut + 1)
            want = eigvalsh_tridiagonal(4.0 * EC * (n - ng) ** 2, np.full(2 * n_cut, -EC * ratio / 2.0))
            assert _same_bits(spectra._transmon_eigvals(EC, EC * ratio, ng, n_cut), want)


def test_wrappers_give_the_same_bits_before_and_after_scipy_linalg(tmp_path):
    # a fresh interpreter, so the wrappers load before scipy.linalg does
    probe = """
import sys
import numpy as np
from cqedkit import spectra
args = (190.0, 45600.0, (0.85, 0.3, 0.1), 0.0, 403)
def solve():
    return (spectra._gatemon_eigvals(*args), np.array([spectra._gatemon_f01(*args)]),
            spectra._transmon_eigvals(190.0, 9500.0, 0.23, 30))
before = solve()
assert "scipy.linalg" not in sys.modules and spectra.FLAPACK in sys.modules
import scipy.linalg
spectra._flapack.cache_clear()
after = solve()
assert spectra._flapack() is scipy.linalg.lapack._flapack
assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64)) for a, b in zip(before, after))
print("same")
"""
    env = dict(os.environ)
    src = str(Path(spectra.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["same"]


def test_non_finite_hamiltonian_raises_value_error():
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        spectra._eigvalsh(np.full((3, 3), np.nan))
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        transmon_levels(QubitParams(ec=EC, ej=math.inf))
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        gatemon_levels(QubitParams(ec=math.nan, gap=45600.0, transmissions=(0.5,)))


@pytest.mark.parametrize("routine", ["zheevr", "dsyevr", "dstevd"])
def test_lapack_info_raises_linalg_error(routine, fail_lapack):
    fail_lapack(routine)
    with pytest.raises(np.linalg.LinAlgError, match=f"{routine} failed with info = 1"):
        if routine == "dstevd":
            transmon_levels(QubitParams(ec=EC, ej=50 * EC))
        else:
            gatemon_levels(QubitParams(ec=EC, gap=45600.0, transmissions=(0.5,)))


@pytest.fixture
def uncached_flapack():
    spectra._flapack.cache_clear()
    yield
    spectra._flapack.cache_clear()


@pytest.mark.parametrize("installed", [False, True], ids=["no-scipy", "no-flapack"])
def test_missing_flapack_raises_import_error(installed, tmp_path, monkeypatch, uncached_flapack):
    linalg = tmp_path / "scipy" / "linalg"
    linalg.mkdir(parents=True)
    spec = None
    if installed:
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations.append(str(linalg.parent))
    monkeypatch.delitem(sys.modules, spectra.FLAPACK, raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    with pytest.raises(ImportError, match="scipy.linalg._flapack") as info:
        spectra._flapack()
    assert info.value.name == spectra.FLAPACK


@pytest.mark.parametrize("wrapper", spectra.LAPACK_WRAPPERS)
def test_missing_wrapper_raises_import_error(wrapper, monkeypatch, uncached_flapack):
    real = spectra._flapack()
    module = types.ModuleType(spectra.FLAPACK)
    for name in spectra.LAPACK_WRAPPERS:
        if name != wrapper:
            setattr(module, name, getattr(real, name))
    monkeypatch.setitem(sys.modules, spectra.FLAPACK, module)
    spectra._flapack.cache_clear()
    with pytest.raises(ImportError, match=f"lacks {wrapper}$"):
        spectra._flapack()


def test_gatemon_grid_must_be_odd():
    p = QubitParams(ec=EC, gap=45600.0, transmissions=(0.9,))
    with pytest.raises(ValueError):
        gatemon_levels(p, grid_n=200)
    with pytest.raises(ValueError):
        gatemon_levels(p, grid_n=99)


def test_variant_mismatch_rejected():
    ej_params = QubitParams(ec=EC, ej=9500.0)
    ch_params = QubitParams(ec=EC, gap=45600.0, transmissions=(0.9,))
    with pytest.raises(ValueError):
        gatemon_levels(ej_params)
    with pytest.raises(ValueError):
        transmon_levels(ch_params)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(ec=EC),  # neither variant
        dict(ec=EC, ej=100.0, gap=45600.0, transmissions=(0.5,)),  # both
        dict(ec=-1.0, ej=100.0),
        dict(ec=EC, ej=-5.0),
        dict(ec=EC, gap=45600.0, transmissions=(1.5,)),
        dict(ec=EC, gap=45600.0, transmissions=()),
        dict(ec=EC, gap=45600.0),  # transmissions missing
    ],
)
def test_qubit_params_validation(kwargs):
    with pytest.raises(ValueError):
        QubitParams(**kwargs)


def test_spectrum_identities():
    s = QubitSpectrum(levels=[0.0, 4000.0, 7800.0])
    assert s.f02 == s.f01 + s.f12  # exact by construction
    assert s.alpha == s.f12 - s.f01
    d = s.to_dict()
    assert d["units"] == "MHz"
    assert d["f02"] == d["f01"] + d["f12"]


def test_spectrum_needs_three_levels():
    with pytest.raises(ValueError):
        QubitSpectrum(levels=[0.0, 1.0])


def test_infer_transmission_round_trip():
    t = infer_transmission(-172.0, EC, 45600.0)
    assert t == pytest.approx(0.44161010923054, rel=1e-9)
    s = gatemon_levels(QubitParams(ec=EC, gap=45600.0, transmissions=(t,)))
    assert abs(s.alpha - (-172.0)) < 1e-6


@pytest.mark.parametrize("alpha", [-700.0, -400.0, -100.0])
def test_infer_transmission_inverts_attainable_targets(alpha):
    t = infer_transmission(alpha, EC, 45600.0)
    assert 0.0 < t <= 1.0
    p = QubitParams(ec=EC, gap=45600.0, transmissions=(t,))
    assert gatemon_levels(p, check=False).alpha == pytest.approx(alpha, abs=1e-5)


@pytest.mark.parametrize("alpha", [-172.0, -700.0, -400.0, -100.0])
def test_infer_transmission_agrees_with_brentq(alpha, monkeypatch):
    from scipy.optimize import brentq

    evals = []

    def counted(p, **kwargs):
        evals.append(p.transmissions)
        return gatemon_levels(p, **kwargs)

    def alpha_at(t):
        p = QubitParams(ec=EC, gap=45600.0, transmissions=(t,))
        return spectra.gatemon_levels(p, check=False).alpha

    monkeypatch.setattr(spectra, "gatemon_levels", counted)
    t = infer_transmission(alpha, EC, 45600.0)
    ours = len(evals)
    evals.clear()
    # the oracle: scipy's Brent on the same bracket, after the same two
    # end-point solves that bound the attainable interval
    assert alpha_at(1e-3) <= alpha <= alpha_at(1.0)
    want = brentq(lambda x: alpha_at(x) - alpha, 1e-3, 1.0, xtol=1e-12, rtol=1e-15)
    assert abs(t - want) < 1e-10
    assert ours <= 1.5 * len(evals)


def test_infer_transmission_out_of_band():
    with pytest.raises(NoSolutionError) as info:
        infer_transmission(-10.0, EC, 45600.0)
    hi, lo = info.value.attainable
    assert lo < hi < -10.0


def test_te101_frozen_value():
    geom = CavityGeometry(length_a=70e-3, width_b=5e-3, height_d=30e-3)
    assert te_mode_frequency(geom) == pytest.approx(TE101_70_5_30, rel=1e-12)


def test_te_mode_ordering():
    geom = lambda m, n, p: CavityGeometry(70e-3, 5e-3, 30e-3, m=m, n=n, p=p)
    f101 = te_mode_frequency(geom(1, 0, 1))
    assert f101 < te_mode_frequency(geom(1, 0, 2))
    assert f101 < te_mode_frequency(geom(2, 0, 1))


@given(
    a=st.floats(min_value=1e-3, max_value=1.0),
    b=st.floats(min_value=1e-3, max_value=1.0),
    d=st.floats(min_value=1e-3, max_value=1.0),
    scale=st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=50, deadline=None)
def test_te_mode_scale_invariance(a, b, d, scale):
    # all lengths scaled by s divide the eigenfrequency by s
    f1 = te_mode_frequency(CavityGeometry(a, b, d))
    f2 = te_mode_frequency(CavityGeometry(a * scale, b * scale, d * scale))
    assert f2 == pytest.approx(f1 / scale, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(length_a=0.0, width_b=5e-3, height_d=30e-3),
        dict(length_a=70e-3, width_b=5e-3, height_d=30e-3, m=0, n=0, p=1),
        dict(length_a=70e-3, width_b=5e-3, height_d=30e-3, m=-1),
    ],
)
def test_cavity_geometry_validation(kwargs):
    with pytest.raises(ValueError):
        CavityGeometry(**kwargs)
