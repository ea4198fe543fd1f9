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


def test_transmon_truncation_message_is_pinned():
    with pytest.raises(TruncationError) as info:
        transmon_levels(QubitParams(ec=EC, ej=1e5, ng=0.23), n_cut=10)
    assert str(info.value) == "f01 moved 0.6252 MHz when n_cut doubled from 10; increase n_cut"


def test_gatemon_truncation_message_stops_at_the_solve_rounding():
    # the refined matrix's charging reaches 4 * 100 GHz * 801^2 = 2.6e11 MHz,
    # so the solves round f01 by about 6e-5 MHz; the 1e-5 MHz digit, which
    # two LAPACK routines gave as 0.01255 and 0.01257, is not printed
    with pytest.raises(TruncationError) as info:
        gatemon_levels(QubitParams(ec=1e5, gap=45600.0, transmissions=(1.0,)), grid_n=801)
    assert str(info.value) == ("f01 moved 0.0126 MHz under grid refinement from 801; "
                               "increase grid_n")


@pytest.mark.parametrize("norm, printed", [
    (1e5, "0.01257"), (2.6e11, "0.0126"), (2.6e13, "0.01"), (1e20, "0.01")])
def test_truncation_message_digits_follow_the_norm(norm, printed):
    # 4 significant digits at most, none below eps * norm, and at least one
    with pytest.raises(TruncationError) as info:
        spectra._check_f01([0.0, 1.0], 1.0 - 0.012571, norm, "on test", "n_cut")
    assert str(info.value) == f"f01 moved {printed} MHz on test; increase n_cut"


def test_transmon_check_f01_matches_the_full_doubled_solve(monkeypatch):
    # the check bisects for the two lowest levels of the doubled matrix and
    # solves it no further; the full dstevd solve of that matrix is its oracle
    real_check, real_lapack = spectra._check_f01, spectra._flapack()
    refined, calls = [], []

    def check(vals, f01, *rest):
        refined.append(f01)
        real_check(vals, f01, *rest)

    def counted(routine):
        def call(*args, **kwargs):
            calls.append(routine)
            return getattr(real_lapack, routine)(*args, **kwargs)
        return call

    monkeypatch.setattr(spectra, "_check_f01", check)
    monkeypatch.setattr(spectra, "_flapack", lambda: types.SimpleNamespace(
        **{w: counted(w) for w in spectra.LAPACK_WRAPPERS}))
    rng = np.random.default_rng(20)
    for n_cut in (10, 30, 75):
        for ng in (0.0, 0.23, 0.5):
            for ratio in (1e-3, 1e-2, 0.3, 1.0, 30.0, 1e3):
                ec = 10.0 ** rng.uniform(0.0, 3.5)
                refined.clear()
                calls.clear()
                try:
                    transmon_levels(QubitParams(ec=ec, ej=ratio * ec, ng=ng), n_cut=n_cut)
                except TruncationError:
                    pass  # EJ/EC = 1e3 outgrows n_cut = 10
                assert calls == ["dstevd", "dstebz"]
                full = spectra._transmon_eigvals(ec, ratio * ec, ng, 2 * n_cut)
                n = np.arange(-2 * n_cut, 2 * n_cut + 1)
                scale = np.abs(4.0 * ec * (n - ng) ** 2).max()
                assert refined == [pytest.approx(full[1] - full[0], rel=0.0, abs=1e-12 * scale)]


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


def _refined_f01(ec, gap, transmissions, ng, grid_n):
    """The refinement check as gatemon_levels runs it for a grid_n grid:
    on the 2*grid_n+1 grid, seeded with the primary levels."""
    levels = spectra._gatemon_eigvals(ec, gap, transmissions, ng, grid_n)
    return spectra._gatemon_f01(ec, gap, transmissions, ng, 2 * grid_n + 1, levels)


@pytest.mark.parametrize("ng", [0.0, 0.23, 0.5])
@pytest.mark.parametrize("device", GATEMON_DEVICES)
def test_gatemon_check_f01_matches_complex_full_solve(device, ng):
    from scipy.linalg import eigvalsh

    full = eigvalsh(_modulo_hamiltonian(*device, ng, 2 * DEFAULT_GRID_N + 1))
    f01 = _refined_f01(*device, ng, DEFAULT_GRID_N)
    assert abs(f01 - (full[1] - full[0])) < 1e-6


def _capture_dense_solves(monkeypatch):
    """A copy of every matrix handed to np.linalg.eigvalsh, which still runs."""
    built, eigvalsh = [], np.linalg.eigvalsh

    def capture(h, *args, **kwargs):
        built.append(h.copy())
        return eigvalsh(h, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", capture)
    return built


@pytest.mark.parametrize("ng", [0.0, 0.23, 0.5])
@pytest.mark.parametrize("device", GATEMON_DEVICES)
def test_gatemon_toeplitz_build_is_bit_identical(device, ng, monkeypatch):
    eigvalsh = np.linalg.eigvalsh
    built = _capture_dense_solves(monkeypatch)
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
    # the refined real-symmetric matrix solved whole by a dense solver
    from scipy.linalg import eigvalsh, toeplitz

    c, charging = spectra._gatemon_terms(ec, gap, transmissions, ng, grid_n)
    h = toeplitz(c.real) + np.diag(charging)
    e0, e1 = eigvalsh(h, subset_by_index=[0, 1])
    return e1 - e0


def test_gatemon_check_parity_blocks_match_whole_matrix():
    worst = 0.0
    for ec, gap, channels, grid_n in _seeded_devices(108):
        split = _refined_f01(ec, gap, channels, 0.0, grid_n)
        worst = max(worst, abs(split - _whole_refined_f01(ec, gap, channels, 0.0, 2 * grid_n + 1)))
    assert worst < 1e-7


def _spy(monkeypatch, name):
    """The positional arguments of every call to spectra.<name>, which still runs."""
    calls, real = [], getattr(spectra, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectra, name, spy)
    return calls


@pytest.mark.parametrize("ng,sizes", [(0.0, [(202, 202), (201, 201)]),
                                      (0.23, [(403, 403)] * 2), (0.5, [(403, 403)] * 2)])
def test_gatemon_check_splits_only_at_zero_offset_charge(ng, sizes, monkeypatch):
    # at ng = 0 the even and odd blocks go to inverse iteration; at ng != 0
    # the whole matrix does, then the matrix with its ground level lifted.
    # The check hands nothing to a dense solver
    device = (EC, 45600.0, (0.85, 0.3, 0.1), ng)
    levels = spectra._gatemon_eigvals(*device, DEFAULT_GRID_N)
    blocks = _spy(monkeypatch, "_lowest_level")
    solves = _capture_dense_solves(monkeypatch)
    spectra._gatemon_f01(*device, 2 * DEFAULT_GRID_N + 1, levels)
    assert [args[0].shape for args in blocks] == sizes
    assert solves == []


def test_seeded_check_factors_each_block_once(monkeypatch):
    # seeded with the primary levels, the check factors the even block, the
    # odd block and the lifted even block that proves their order; at
    # ng != 0 it factors the whole matrix and the lifted one
    shifts = _spy(monkeypatch, "_factor")
    for ng, factorizations in ((0.0, 3), (0.23, 2), (0.5, 2)):
        shifts.clear()
        gatemon_levels(QubitParams(ec=EC, gap=45600.0, transmissions=(0.85, 0.3, 0.1), ng=ng))
        assert len(shifts) == factorizations


def _sliced_parity_blocks(ec, gap, transmissions, grid_n):
    # the even and odd blocks cut out of the whole refined matrix, the way
    # the check formed them before it built them from c directly
    c, charging = spectra._gatemon_terms(ec, gap, transmissions, 0.0, grid_n)
    h = spectra._toeplitz(c.real, c.real)
    h[np.diag_indices(grid_n)] += charging
    m = (grid_n - 1) // 2
    odd = h[m + 1:, m + 1:] - h[m + 1:, m - 1::-1]
    even = h[m:, m:] + h[m:, m::-1]
    even[0, :] /= np.sqrt(2.0)
    even[:, 0] /= np.sqrt(2.0)
    return even, odd


def test_gatemon_check_factors_the_sliced_parity_blocks_bit_for_bit(monkeypatch):
    blocks = _spy(monkeypatch, "_lowest_level")
    for ec, gap, channels, grid_n in _seeded_devices(24, seed=1701):
        blocks.clear()
        _refined_f01(ec, gap, channels, 0.0, grid_n)
        got = [args[0] for args in blocks]
        want = _sliced_parity_blocks(ec, gap, channels, 2 * grid_n + 1)
        assert len(got) == 2 and all(_same_bits(g, w) for g, w in zip(got, want))


def _check_devices(count, seed=1702):
    """(ec, gap, transmissions, grid_n) down to EC = 5 kHz, where an open
    channel needs more than a 101-point grid and the check fails."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        channels = rng.uniform(1e-3, 1.0, size=int(rng.integers(1, 4)))
        if i % 3 == 0:
            channels[0] = 1.0
        ec = float(np.exp(rng.uniform(np.log(5e-3), np.log(300.0))))
        yield ec, float(rng.uniform(40e3, 70e3)), tuple(channels), (101, 101, 201)[i % 3]


def test_gatemon_check_fails_on_the_same_devices_as_dense_solves(monkeypatch):
    # the oracle: scipy's dense eigvalsh on each parity block at ng = 0, as
    # the check solved them before, and on the whole matrix at ng != 0; the
    # pass/fail decision and f01 must follow it
    from scipy.linalg import eigvalsh

    found = []
    check = spectra._gatemon_f01

    def record(*args):
        found.append((args[-1], check(*args)))  # (primary levels, refined f01)
        return found[-1][1]

    monkeypatch.setattr(spectra, "_gatemon_f01", record)
    for ng in (0.0, 0.23, 0.5):
        failed = worst = 0
        for ec, gap, channels, grid_n in _check_devices(300):
            try:
                gatemon_levels(QubitParams(ec=ec, gap=gap, transmissions=channels, ng=ng),
                               grid_n=grid_n)
                raised = False
            except TruncationError:
                raised = True
            levels, f01 = found.pop()
            if ng == 0.0:
                blocks = _sliced_parity_blocks(ec, gap, channels, 2 * grid_n + 1)
                low = np.sort(np.concatenate([eigvalsh(b, subset_by_index=[0, 1])
                                              for b in blocks]))
                want = low[1] - low[0]
            else:
                want = _whole_refined_f01(ec, gap, channels, ng, 2 * grid_n + 1)
            assert raised == (abs((levels[1] - levels[0]) - want) >= spectra.F01_CONVERGENCE_MHZ)
            failed += raised
            worst = max(worst, abs(f01 - want))
        assert worst < 1e-7, ng
        assert 10 <= failed <= 290, ng  # both outcomes are exercised


def _weakly_coupled(diagonal, rng):
    noise = rng.normal(scale=0.02, size=(len(diagonal), len(diagonal)))
    return np.diag(diagonal) + (noise + noise.T) / 2.0


def _row_sum_bound(blocks):
    # Gershgorin: the largest absolute row sum bounds every level
    return max(np.abs(b).sum(axis=1).max() for b in blocks)


@pytest.mark.parametrize("ground_first", [True, False], ids=["even-ground", "odd-ground"])
def test_check_finds_a_second_level_below_the_other_blocks_lowest(ground_first, monkeypatch):
    # the ground level's block holds its second level near 1, below the
    # other block's lowest near 2: f01 is the gap within that block
    from scipy.linalg import eigvalsh

    rng = np.random.default_rng(1703)
    ground = _weakly_coupled(np.concatenate(([0.0, 1.0], 3.0 + np.arange(40.0))), rng)
    other = _weakly_coupled(2.0 * np.arange(1.0, 41.0), rng)
    assert eigvalsh(ground)[1] < eigvalsh(other)[0]
    blocks = [ground, other] if ground_first else [other, ground]
    solved = _spy(monkeypatch, "_lowest_level")
    f01 = spectra._union_f01(blocks, [b.diagonal().min() for b in blocks], _row_sum_bound(blocks))
    assert abs(f01 - (eigvalsh(ground)[1] - eigvalsh(ground)[0])) < 1e-12
    assert len(solved) == 3  # both blocks, then the ground block's second level


def test_check_takes_the_other_blocks_lowest_once_the_order_is_proved(monkeypatch):
    from scipy.linalg import eigvalsh

    rng = np.random.default_rng(1704)
    ground = _weakly_coupled(np.concatenate(([0.0], 3.0 + np.arange(40.0))), rng)
    other = _weakly_coupled(2.0 * np.arange(1.0, 41.0), rng)
    solved = _spy(monkeypatch, "_lowest_level")
    f01 = spectra._union_f01([ground, other], [0.0, 2.0], _row_sum_bound([ground, other]))
    assert abs(f01 - (eigvalsh(other)[0] - eigvalsh(ground)[0])) < 1e-12
    assert len(solved) == 2  # one factorization proved the order


def _searched(ec, gap, transmissions, ng, grid_n):
    """The blocks and the bound on their levels that the check on a
    ``grid_n`` grid hands to its two-level search, which is not run."""
    calls = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(spectra, "_union_f01", lambda *args: calls.append(args))
        spectra._gatemon_f01(ec, gap, transmissions, ng, grid_n, None)
    (blocks, _, bound), = calls
    return blocks, bound


def test_check_bound_lies_above_every_level_of_every_block():
    # the check lifts the ground level past charging.max() + 3*sum|c|, an
    # O(n) Gershgorin bound on every row of the matrix and of its parity
    # blocks; the oracle is scipy's dense eigvalsh top level of each block
    from scipy.linalg import eigvalsh

    for ng, count in ((0.0, 2), (0.23, 1), (0.5, 1)):
        for ec, gap, channels, grid_n in _check_devices(300):
            blocks, bound = _searched(ec, gap, channels, ng, 2 * grid_n + 1)
            assert len(blocks) == count
            for b in blocks:
                assert eigvalsh(b, subset_by_index=[len(b) - 1] * 2)[0] <= bound, (ng, ec)


@pytest.mark.parametrize("ng,transmissions", [(0.23, (0.85, 0.3, 0.1)), (0.5, (1e-4,)),
                                               (0.5, (1e-5,)), (0.5, (1e-6,)), (0.5, (1e-7,))],
                         ids=["ng0.23", "ng0.5-T1e-4", "ng0.5-T1e-5", "ng0.5-T1e-6", "ng0.5-T1e-7"])
def test_one_block_check_does_not_lean_on_the_second_seed(ng, transmissions, monkeypatch):
    # a second seed below (e0 + e1)/2 must not leave the lifted ground level
    # the lowest, and one far above must not miss the second level. At
    # ng = 0.5 the matrix is symmetric under k -> 1 - k up to rounding and
    # the second level's vector antisymmetric, orthogonal to a uniform start
    from scipy.linalg import eigvalsh

    (h,), bound = _searched(EC, 45600.0, transmissions, ng, 2 * DEFAULT_GRID_N + 1)
    e0, e1 = eigvalsh(h, subset_by_index=[0, 1])
    seeds = [e0 + f * (e1 - e0) for f in (-0.5, 0.1, 0.49)]
    seeds += [e1 + d for d in np.linspace(0.0, 25.0 * EC, 51)]
    shifts = _spy(monkeypatch, "_factor")
    for seed in seeds:
        shifts.clear()
        f01 = spectra._union_f01([h], [e0, seed], bound)
        assert abs(f01 - (e1 - e0)) < 1e-7, seed - e1
        assert len(shifts) < spectra._SHIFT_TRIES


@pytest.mark.parametrize("ng", [0.5, 0.5 - 1e-9], ids=["half", "near-half"])
@pytest.mark.parametrize("t", [1e-4, 1e-5, 1e-6, 1e-7, 3e-8])
def test_one_block_check_parts_near_degenerate_levels(t, ng, monkeypatch):
    # near ng = 0.5 only the potential splits the charge states 0 and 1:
    # by 1.1 MHz at T = 1e-4, by 0.34 kHz at T = 3e-8, far less than the
    # first shift's margin below the ground level (0.03 MHz)
    device = (EC, 45600.0, (t,), ng)
    shifts = _spy(monkeypatch, "_factor")
    f01 = _refined_f01(*device, DEFAULT_GRID_N)
    assert abs(f01 - _whole_refined_f01(*device, 2 * DEFAULT_GRID_N + 1)) < 1e-7
    assert len(shifts) < spectra._SHIFT_TRIES


@pytest.mark.parametrize("offset", [1e5, -1e5], ids=["far-above", "far-below"])
def test_inverse_iteration_converges_from_a_distant_seed(offset, monkeypatch):
    from scipy.linalg import eigvalsh

    c, charging = spectra._gatemon_terms(EC, 45600.0, (0.85, 0.3, 0.1), 0.0,
                                         2 * DEFAULT_GRID_N + 1)
    shifts = _spy(monkeypatch, "_factor")
    for b in spectra._parity_blocks(c.real, charging):
        want = eigvalsh(b, subset_by_index=[0, 0])[0]
        shifts.clear()
        level, vector = spectra._lowest_level(b, want + offset)
        assert abs(level - want) < 1e-7
        assert np.linalg.norm(b @ vector - level * vector) < 1e-6
        # the shift that converged lies below the level: far above the
        # shift dropped to it, far below it moved up to it
        first, last = shifts[0][1], shifts[-1][1]
        assert (last < want < first) if offset > 0 else (first < last < want)
        assert len(shifts) < spectra._SHIFT_TRIES


# The primary gatemon solve is numpy's and the transmon solve calls LAPACK
# through scipy's compiled wrappers; scipy.linalg's own functions are the
# oracles, and the levels must be the same bits.

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

    ours = np.linalg.eigvalsh
    solves = _capture_dense_solves(monkeypatch)
    for ec, gap, channels, ng, grid_n in _oracle_devices(12):
        solves.clear()
        s = gatemon_levels(QubitParams(ec=ec, gap=gap, transmissions=channels, ng=ng),
                           grid_n=grid_n)
        # the complex primary solve only: the check goes by inverse iteration
        # at every ng and hands nothing to a dense solver
        assert len(solves) == 1 and solves[0].dtype == complex
        want = eigvalsh(solves[0])
        assert _same_bits(ours(solves[0]), want)
        assert _same_bits(s.levels, want[:spectra.N_LEVELS])


@pytest.mark.parametrize("ng", [0.0, 0.23, 0.5])
def test_transmon_solve_matches_scipy_tridiagonal_bit_for_bit(ng):
    from scipy.linalg import eigvalsh_tridiagonal

    for n_cut in (10, 17, 25, 33, 40):
        for ratio in (1.0, 30.0, 100.0):
            n = np.arange(-n_cut, n_cut + 1)
            want = eigvalsh_tridiagonal(4.0 * EC * (n - ng) ** 2, np.full(2 * n_cut, -EC * ratio / 2.0))
            assert _same_bits(spectra._transmon_eigvals(EC, EC * ratio, ng, n_cut), want)


# a fresh interpreter's solves, at ng = 0 and 0.23, before scipy.linalg loads
_SOLVES_BEFORE_SCIPY_LINALG = """
import sys
import numpy as np
from cqedkit import spectra
def solve():
    found = [spectra._transmon_eigvals(190.0, 9500.0, 0.23, 30)]
    for ng in (0.0, 0.23):
        args = (190.0, 45600.0, (0.85, 0.3, 0.1), ng)
        levels = spectra._gatemon_eigvals(*args, 201)
        found += [levels, np.array([spectra._gatemon_f01(*args, 403, levels)])]
    return found
def same(before, after):
    return all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
               for a, b in zip(before, after))
before = solve()
assert "scipy.linalg" not in sys.modules and spectra.FLAPACK not in sys.modules
assert spectra._flapack.cache_info().currsize == 1
"""


def _fresh_interpreter(probe, cwd):
    env = dict(os.environ)
    src = str(Path(spectra.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=cwd,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_wrappers_give_the_same_bits_before_and_after_scipy_linalg(tmp_path):
    # the wrappers load before scipy.linalg does, and stay out of
    # sys.modules; once the package is in, they are taken from it
    probe = _SOLVES_BEFORE_SCIPY_LINALG + """
import scipy.linalg
spectra._flapack.cache_clear()
after = solve()
assert spectra._flapack() is scipy.linalg.lapack._flapack
print("same" if same(before, after) else "differ")
"""
    assert _fresh_interpreter(probe, tmp_path) == ["same"]


def test_scipy_linalg_binds_its_wrappers_after_cqedkit_loads_them(tmp_path):
    # a module cqedkit left in sys.modules would be found there by the
    # package's own import, which then never binds it as an attribute
    probe = _SOLVES_BEFORE_SCIPY_LINALG + """
import scipy.linalg
assert scipy.linalg._flapack is sys.modules[spectra.FLAPACK]
assert scipy.linalg._flapack.dpotrf is spectra._flapack().dpotrf
print("same" if same(before, solve()) else "differ")
"""
    assert _fresh_interpreter(probe, tmp_path) == ["same"]


def test_non_finite_hamiltonian_raises_value_error():
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        spectra._gatemon_eigvals(EC, 45600.0, (0.5,), math.nan, 101)
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        transmon_levels(QubitParams(ec=EC, ej=math.inf))
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        gatemon_levels(QubitParams(ec=math.nan, gap=45600.0, transmissions=(0.5,)))


@pytest.mark.parametrize("routine,ng", [("dstevd", 0.0), ("dstebz", 0.0), ("dpotrf", 0.0),
                                        ("dpotrs", 0.0), ("dpotrf", 0.23), ("dpotrs", 0.23)],
                         ids=["dstevd", "dstebz", "dpotrf", "dpotrs",
                              "dpotrf-offset-charge", "dpotrs-offset-charge"])
def test_lapack_info_raises_linalg_error(routine, ng, fail_lapack):
    # the transmon check runs dstebz, the gatemon check dpotrf and dpotrs at
    # every ng; a dpotrf that never factors lowers the shift a bounded number
    # of times, then raises
    fail_lapack(routine)
    with pytest.raises(np.linalg.LinAlgError, match=f"{routine} failed with info = 1"):
        if routine.startswith("dst"):
            transmon_levels(QubitParams(ec=EC, ej=50 * EC))
        else:
            gatemon_levels(QubitParams(ec=EC, gap=45600.0, transmissions=(0.5,), ng=ng))


def test_an_argument_dpotrf_refuses_raises_at_once(fail_lapack):
    # info < 0 is an illegal argument, not a level at or below the shift
    fail_lapack("dpotrf", info=-4)
    with pytest.raises(np.linalg.LinAlgError, match="dpotrf failed with info = -4"):
        gatemon_levels(QubitParams(ec=EC, gap=45600.0, transmissions=(0.5,)))


def test_inverse_iteration_gives_up_after_its_shift_budget(monkeypatch):
    # a vector tolerance of 0 is never met, so every shift is spent
    monkeypatch.setattr(spectra, "_VECTOR_TOL", 0.0)
    b = np.diag(np.arange(1.0, 21.0)) + 0.1
    with pytest.raises(np.linalg.LinAlgError, match="inverse iteration did not converge"):
        spectra._lowest_level(b, 1.0)


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


def test_transmon_n_cut_floor():
    with pytest.raises(ValueError, match="n_cut must be at least 10"):
        transmon_levels(QubitParams(ec=EC, ej=9500.0), n_cut=9)


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
        dict(ec=EC, gap=-1.0, transmissions=(0.5,)),
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
    assert gatemon_levels(p).alpha == pytest.approx(alpha, abs=1e-5)


@pytest.mark.parametrize("alpha", [-172.0, -700.0, -400.0, -100.0])
def test_infer_transmission_agrees_with_brentq(alpha, monkeypatch):
    from scipy.optimize import brentq

    evals = []

    def counted(p):
        evals.append(p.transmissions)
        return gatemon_levels(p)

    def alpha_at(t):
        p = QubitParams(ec=EC, gap=45600.0, transmissions=(t,))
        return spectra.gatemon_levels(p).alpha

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


def test_infer_transmission_does_not_move_with_the_blas_thread_count(tmp_path):
    # alpha(T) jitters by about 1e-9 MHz with the BLAS thread count, which
    # moves the root by about 1e-11, inside the root finder's 1e-10 xtol
    probe = ("from cqedkit import infer_transmission\n"
             "print(repr(infer_transmission(-172.0, 190.0, 45600.0)))")
    src = str(Path(spectra.__file__).resolve().parents[1])
    found = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        found.append(float(done.stdout))
    assert abs(found[0] - found[1]) < 1e-10
    assert found[0] == pytest.approx(0.44161010923054, rel=1e-9)


def test_infer_transmission_out_of_band():
    with pytest.raises(NoSolutionError) as info:
        infer_transmission(-10.0, EC, 45600.0)
    hi, lo = info.value.attainable
    assert lo < hi < -10.0


def test_infer_transmission_of_an_end_point_is_that_end():
    # the root finder starts on an exact zero and returns that end as is
    alpha = gatemon_levels(QubitParams(ec=EC, gap=45600.0, transmissions=(1.0,))).alpha
    assert infer_transmission(alpha, EC, 45600.0) == 1.0


def test_illinois_step_off_the_bracket_bisects():
    # f(1) = 1e-300 is so small that the secant step lands on x = 1 itself,
    # an end of the bracket, so the step bisects instead
    seen = []

    def f(x):
        seen.append(x)
        return x - 1.0 + 1e-300

    root = spectra._illinois_root(f, 0.0, -1.0, 1.0, 1e-300, xtol=1e-10)
    assert seen[0] == 0.5
    assert root == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("length", [1e-303, 1e-323], ids=["square-overflows", "ratio-overflows"])
def test_te_mode_frequency_refuses_to_overflow(length):
    with pytest.raises(ValueError, match=r"TE\(1,0,1\) frequency overflows"):
        te_mode_frequency(CavityGeometry(length, 5e-3, 30e-3))


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
