"""Qubit spectra and rectangular-cavity eigenmodes.

Two junction models share the same charging term 4*EC*(n - ng)^2:

* transmon: cosine Josephson potential, solved in the charge basis as the
  usual tridiagonal Cooper-pair-box Hamiltonian,
* gate-tunable junction ("gatemon"): channel potential
  U(phi) = -gap * sum_i sqrt(1 - T_i * sin^2(phi/2)) on the periodic phase
  interval [0, 2pi), solved spectrally by Fourier transform of U into the
  charge basis.

All energies are frequencies in MHz (E/h). Cavity frequencies are GHz.

The primary gatemon solve is numpy's ``eigvalsh``. The routines numpy
lacks come from scipy's compiled f2py LAPACK wrappers
(``scipy.linalg._flapack``): ``dstevd`` for the transmon, called as
scipy.linalg's ``eigvalsh_tridiagonal`` calls it, so the levels are the
same bits, ``dstebz`` for the transmon refinement check, which bisects
for the two lowest levels of the doubled matrix, and ``dpotrf``/``dpotrs``
for the inverse iteration of the gatemon check at every ng. The wrapper
module is loaded from scipy's install directory on the first solve,
without running any scipy package ``__init__``: code that never solves a
spectrum, such as the fit verbs, loads no scipy at all, and code that does
skips importing ``scipy.linalg`` and the numpy submodules it pulls in.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NoSolutionError, TruncationError

SPEED_OF_LIGHT = 299792458.0  # m/s

DEFAULT_N_CUT = 30    # charge cutoff, matrix dimension 2*n_cut + 1
DEFAULT_GRID_N = 201  # phase-grid points, odd
F01_CONVERGENCE_MHZ = 0.01  # refinement check threshold
N_LEVELS = 6  # eigenenergies kept in a QubitSpectrum


@dataclass
class QubitParams:
    """Junction and charging parameters, energies in MHz.

    Exactly one variant must be populated: ``ej`` for a tunnel junction,
    or ``gap`` plus ``transmissions`` for a few-channel semiconductor one.
    """

    ec: float
    ej: float | None = None
    gap: float | None = None
    transmissions: tuple[float, ...] | None = None
    ng: float = 0.0

    def __post_init__(self):
        if self.ec <= 0:
            raise ValueError(f"ec must be positive, got {self.ec}")
        has_ej = self.ej is not None
        has_channels = self.gap is not None or self.transmissions is not None
        if has_ej == has_channels:
            raise ValueError("populate exactly one of ej or (gap, transmissions)")
        if has_ej and self.ej < 0:
            raise ValueError(f"ej must be non-negative, got {self.ej}")
        if has_channels:
            if self.gap is None or self.transmissions is None:
                raise ValueError("gap and transmissions must be given together")
            if self.gap < 0:
                raise ValueError(f"gap must be non-negative, got {self.gap}")
            self.transmissions = tuple(float(t) for t in self.transmissions)
            if not self.transmissions:
                raise ValueError("transmissions must hold at least one channel")
            for t in self.transmissions:
                if not 0.0 <= t <= 1.0:
                    raise ValueError(f"transmission {t} outside [0, 1]")

    @property
    def is_transmon(self) -> bool:
        return self.ej is not None


@dataclass
class QubitSpectrum:
    """Lowest eigenenergies (MHz) of a qubit Hamiltonian, sorted ascending."""

    levels: np.ndarray

    def __post_init__(self):
        self.levels = np.asarray(self.levels, dtype=float)
        if self.levels.ndim != 1 or self.levels.size < 3:
            raise ValueError("need at least three levels")

    @property
    def f01(self) -> float:
        return float(self.levels[1] - self.levels[0])

    @property
    def f12(self) -> float:
        return float(self.levels[2] - self.levels[1])

    @property
    def f02(self) -> float:
        # defined as the sum so f02 == f01 + f12 holds exactly
        return self.f01 + self.f12

    @property
    def alpha(self) -> float:
        return self.f12 - self.f01

    def to_dict(self) -> dict:
        return {
            "units": "MHz",
            "levels": [float(e) for e in self.levels],
            "f01": self.f01,
            "f12": self.f12,
            "f02": self.f02,
            "alpha": self.alpha,
        }


@dataclass
class CavityGeometry:
    """Rectangular box dimensions (meters) and a TE mode-index triple."""

    length_a: float
    width_b: float
    height_d: float
    m: int = 1
    n: int = 0
    p: int = 1

    def __post_init__(self):
        for name in ("length_a", "width_b", "height_d"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        idx = (self.m, self.n, self.p)
        if any(int(i) != i or i < 0 for i in idx):
            raise ValueError(f"mode indices must be non-negative integers, got {idx}")
        if sum(i == 0 for i in idx) > 1:
            raise ValueError(f"invalid TE triple (m, n, p) = {idx}: at most one index may be zero")


FLAPACK = "scipy.linalg._flapack"
LAPACK_WRAPPERS = ("dstevd", "dstebz", "dpotrf", "dpotrs")


@functools.cache
def _flapack():
    """scipy's f2py LAPACK wrappers, loaded once.

    Taken from sys.modules when scipy.linalg is already imported, else
    loaded from the ``linalg`` directory of scipy's install by an
    ExtensionFileLoader, which runs none of scipy's package ``__init__``
    files. Raises ImportError naming the module or a missing wrapper.
    """
    module = sys.modules.get(FLAPACK)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        spec = None
        if scipy is not None:
            linalg = os.path.join(scipy.submodule_search_locations[0], "linalg")
            extensions = (importlib.machinery.ExtensionFileLoader,
                          importlib.machinery.EXTENSION_SUFFIXES)
            spec = importlib.machinery.FileFinder(linalg, extensions).find_spec(FLAPACK)
        if spec is None:
            raise ImportError(f"cqedkit needs scipy's LAPACK wrappers {FLAPACK}, "
                              "which this scipy install does not have", name=FLAPACK)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        # the extension registers itself; a later `import scipy.linalg` that
        # found it in sys.modules would not bind it on the package
        sys.modules.pop(FLAPACK, None)
    missing = [w for w in LAPACK_WRAPPERS if not hasattr(module, w)]
    if missing:
        raise ImportError(f"{FLAPACK} lacks {', '.join(missing)}", name=FLAPACK)
    return module


def _check_info(info: int, routine: str) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info = {info}")


def _toeplitz(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The Toeplitz matrix with first column c and first row r (r[0] is
    ignored), built as scipy.linalg.toeplitz builds it: one strided view of
    a single vector, copied once."""
    vals = np.concatenate((c[::-1], r[1:]))
    step = vals.strides[0]
    return as_strided(vals[len(c) - 1:], shape=(len(c), len(r)), strides=(-step, step)).copy()


def _hankel(v: np.ndarray, n: int) -> np.ndarray:
    """A read-only n x n view of v with [a, b] = v[a + b]."""
    step = v.strides[0]
    return as_strided(v, shape=(n, n), strides=(step, step), writeable=False)


def _transmon_matrix(ec: float, ej: float, ng: float, n_cut: int):
    """The diagonal and off-diagonal of the tridiagonal charge-basis matrix."""
    n = np.arange(-n_cut, n_cut + 1)
    diag = np.asarray_chkfinite(4.0 * ec * (n - ng) ** 2)
    return diag, np.asarray_chkfinite(np.full(2 * n_cut, -ej / 2.0))


def _transmon_eigvals(ec: float, ej: float, ng: float, n_cut: int) -> np.ndarray:
    # LAPACK dstevd, which scipy.linalg.eigvalsh_tridiagonal picks for all levels
    vals, _, info = _flapack().dstevd(*_transmon_matrix(ec, ej, ng, n_cut), compute_v=0)
    _check_info(info, "dstevd")
    return vals


def _transmon_f01(ec: float, ej: float, ng: float, n_cut: int) -> float:
    """f01 from the two lowest levels alone, by LAPACK dstebz bisection
    (RANGE = 'I', IL = 1, IU = 2, sorted) to its default tolerance, eps
    times the matrix's 1-norm: within about 1e-14 of max |diag| of the
    full dstevd solve."""
    _, vals, _, _, info = _flapack().dstebz(*_transmon_matrix(ec, ej, ng, n_cut),
                                            2, 0.0, 0.0, 1, 2, 0.0, "E")
    _check_info(info, "dstebz")
    return float(vals[1] - vals[0])


def check_truncation(key: str, value: int) -> None:
    """Raise ValueError unless value is a usable ``n_cut`` (at least 10) or
    ``grid_n`` (odd, at least 101), as key says."""
    if key == "n_cut" and value < 10:
        raise ValueError(f"n_cut must be at least 10, got {value}")
    if key == "grid_n" and (value < 101 or value % 2 == 0):
        raise ValueError(f"grid_n must be odd and at least 101, got {value}")


def transmon_levels(params: QubitParams, n_cut: int = DEFAULT_N_CUT) -> QubitSpectrum:
    """Diagonalize H = 4*EC*(n-ng)^2 - (EJ/2)*sum(|n><n+1| + h.c.).

    Parameters
    ----------
    params : QubitParams, EJ variant.
    n_cut : charge cutoff; the matrix dimension is 2*n_cut + 1.

    The refinement check re-solves with 2*n_cut and requires f01 to move
    by less than 0.01 MHz, raising TruncationError otherwise. The re-solve
    bisects for the two lowest levels of the doubled matrix.
    """
    if not params.is_transmon:
        raise ValueError("transmon_levels needs the EJ variant of QubitParams")
    check_truncation("n_cut", n_cut)
    vals = _transmon_eigvals(params.ec, params.ej, params.ng, n_cut)
    norm = 4.0 * params.ec * (2 * n_cut + abs(params.ng)) ** 2 + params.ej
    _check_f01(vals, _transmon_f01(params.ec, params.ej, params.ng, 2 * n_cut), norm,
               f"when n_cut doubled from {n_cut}", "n_cut")
    return QubitSpectrum(vals[:N_LEVELS])


def _check_f01(vals, f01_refined: float, norm: float, refinement: str, knob: str) -> None:
    """The refinement check: f01 must move by less than 0.01 MHz.

    ``norm`` bounds the refined matrix's norm. The solves round f01 by
    about eps * norm, so the message gives the drift to that decimal place
    and to at most 4 significant digits."""
    drift = abs((vals[1] - vals[0]) - f01_refined)
    if drift >= F01_CONVERGENCE_MHZ:
        resolved = math.ceil(math.log10(np.finfo(float).eps * norm))
        digits = min(max(math.floor(math.log10(drift)) - resolved + 1, 1), 4)
        raise TruncationError(
            f"f01 moved {drift:.{digits}g} MHz {refinement}; increase {knob}")


def _gatemon_terms(
    ec: float, gap: float, transmissions, ng: float, grid_n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fourier coefficients c of the channel potential and the charging diagonal."""
    # channel potential sampled on the periodic grid phi_j = 2*pi*j/N
    phi = 2.0 * np.pi * np.arange(grid_n) / grid_n
    u = np.zeros(grid_n)
    for t in transmissions:
        u -= gap * np.sqrt(1.0 - t * np.sin(phi / 2.0) ** 2)
    # Fourier coefficients of U give the charge-basis matrix elements
    # <k|U|k'> = c[(k - k') mod N]; spectrally exact for the sampled U
    c = np.fft.fft(u) / grid_n
    half = (grid_n - 1) // 2
    k = np.arange(-half, half + 1)
    return c, 4.0 * ec * (k - ng) ** 2


def _gatemon_eigvals(
    ec: float, gap: float, transmissions, ng: float, grid_n: int
) -> np.ndarray:
    c, charging = _gatemon_terms(ec, gap, transmissions, ng, grid_n)
    h = _toeplitz(c, c[-np.arange(grid_n) % grid_n])
    h[np.diag_indices(grid_n)] += charging
    return np.linalg.eigvalsh(np.asarray_chkfinite(h))


# the first shift sits this fraction of max |b_ii| below the seed: far above
# a Cholesky factorization's rounding (~n * eps * ||b||), far below level spacings
_SHIFT_MARGIN = 1e-9
_SHIFT_TRIES = 64       # factorizations one level may take
_SOLVES_PER_SHIFT = 8   # inverse-iteration solves on one factorization
_VECTOR_TOL = 1e-10     # "the vector stops changing": 2-norm step of a unit vector


def _factor(a: np.ndarray, shift: float):
    """Cholesky factor of a - shift*I by LAPACK dpotrf, and its info; info > 0
    means some eigenvalue of a lies at or below shift. a must be symmetric
    and C-contiguous, so a.T is a Fortran-ordered copy-free view; it is
    overwritten."""
    a.reshape(-1)[::len(a) + 1] -= shift
    factor, info = _flapack().dpotrf(a.T, lower=1, clean=0, overwrite_a=1)
    if info < 0:
        _check_info(info, "dpotrf")
    return factor, info


def _lowest_level(b: np.ndarray, seed: float, x=None) -> tuple[float, np.ndarray]:
    """The lowest eigenvalue of the real-symmetric b and its unit vector,
    iterated from the unit vector ``x`` (uniform unless a ramp is given).

    The shift starts a small margin below ``seed``. While b - shift*I does
    not factor, some level lies at or below the shift, and the shift drops
    geometrically. Once it factors, every level lies above it, and inverse
    iteration converges to the lowest level's vector; the level is the
    Rayleigh quotient. A shift whose vector has not settled after a few
    solves, being far below the level or farther from it than the next
    level is, moves up to 1/64 of its distance under the Rayleigh quotient
    reached, which lies above the level, and is factored again. Raises
    LinAlgError after _SHIFT_TRIES factorizations.
    """
    lapack = _flapack()
    margin = _SHIFT_MARGIN * np.abs(b.diagonal()).max()
    top, step = seed, margin
    if x is None:
        x = np.full(len(b), len(b) ** -0.5)
    for _ in range(_SHIFT_TRIES):
        shift = top - step
        factor, info = _factor(b.copy(), shift)
        if info:
            step *= 4.0
            continue
        for _ in range(_SOLVES_PER_SHIFT):
            y, info = lapack.dpotrs(factor, x, lower=1)
            _check_info(info, "dpotrs")
            y /= np.sqrt(y @ y)
            x, moved = y, np.linalg.norm(y - x)
            if moved < _VECTOR_TOL:
                return float(x @ b @ x), x
        # the quotient lies above the level but far closer to it than the shift
        top = float(x @ b @ x)
        step = (top - shift) / 64.0
    raise np.linalg.LinAlgError(f"LAPACK dpotrf failed with info = {info}" if info
                                else "inverse iteration did not converge")


def _parity_blocks(cr: np.ndarray, charging: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd blocks of h[k, k'] = cr[|k - k'|] + charging[k] delta
    in the bases (|k> +/- |-k>)/sqrt2, k >= 0, formed without h: each is a
    Toeplitz part cr[|a - b|] plus (even) or minus (odd) a Hankel part
    cr[a + b] or cr[a + b + 2], summed as h's own elements would be."""
    m = (len(cr) - 1) // 2
    t = _toeplitz(cr[:m + 1], cr[:m + 1])
    t[np.diag_indices(m + 1)] += charging[m:]
    odd = t[1:, 1:] - _hankel(cr[2:], m)
    folded = cr.copy()
    folded[0] = t[0, 0]  # h[0, 0] carries its charging term into both halves
    t += _hankel(folded, m + 1)
    t[0, :] /= np.sqrt(2.0)  # |0> is its own mirror image
    t[:, 0] /= np.sqrt(2.0)
    return t, odd


def _union_f01(blocks, levels, bound: float) -> float:
    """The gap between the two lowest levels of the union of the
    real-symmetric blocks' spectra, block i's lowest level found from
    ``levels[i]``; ``bound`` lies above every level of every block."""
    (e0, v, block), *others = sorted(
        ((*_lowest_level(b, s), b) for b, s in zip(blocks, levels)), key=lambda found: found[0])
    # lifting e0 along v past every level leaves the block's second level
    # its lowest; whatever v is, interlacing keeps the lifted lowest level
    # at or below it, so a Cholesky factorization of the lifted block at
    # another block's lowest level proves that level the union's second
    lifted = block + (bound - e0) * np.outer(v, v)
    upper = [found[0] for found in others]
    if upper and not _factor(lifted.copy(), upper[0])[1]:
        return float(upper[0] - e0)
    # near ng = 0.5 the second level's vector is almost antisymmetric under
    # k -> 1 - k, so orthogonal to a uniform start; a ramp is neither
    ramp = np.arange(1.0, len(block) + 1.0)
    e1, _ = _lowest_level(lifted, levels[1], ramp / np.linalg.norm(ramp))
    return float(min([e1, *upper]) - e0)


def _gatemon_f01(ec: float, gap: float, transmissions, ng: float, grid_n: int,
                 levels) -> float:
    """f01 of the real-symmetric form of the matrix on a ``grid_n`` grid
    (U is even in phi, so c is real up to rounding), its levels found by
    inverse iteration seeded with the primary ``levels``: at ng = 0 in its
    parity blocks, else in the whole matrix."""
    c, charging = _gatemon_terms(ec, gap, transmissions, ng, grid_n)
    c = c.real
    if ng == 0.0:
        blocks = _parity_blocks(c, charging)
    else:
        blocks = [_toeplitz(c, c)]
        blocks[0][np.diag_indices(grid_n)] += charging
    # Gershgorin: no row of the matrix or of its parity blocks sums past this
    return _union_f01(blocks, levels, charging.max() + 3.0 * np.abs(c).sum())


def gatemon_levels(params: QubitParams, grid_n: int = DEFAULT_GRID_N) -> QubitSpectrum:
    """Diagonalize 4*EC*(n-ng)^2 - gap*sum_i sqrt(1 - T_i sin^2(phi/2)).

    The potential is 2pi-periodic, so the problem is set up in the charge
    basis with the potential entering through its discrete Fourier
    transform on a ``grid_n``-point phase grid (odd, >= 101).

    With all T_i = 0 the potential is flat and the free-rotor spectrum
    (degenerate pairs at 4*EC*k^2 plus a constant) is returned as is.

    The refinement check re-solves on a 2*grid_n+1 grid and requires f01
    to move by less than 0.01 MHz, raising TruncationError otherwise. The
    re-solve finds the two lowest levels of the refined matrix's
    real-symmetric form by inverse iteration on Cholesky factors, seeded
    with the primary levels. At ng = 0 the matrix commutes with the charge
    reflection k -> -k (U(phi) and 4*EC*k^2 are even), so it splits into
    blocks in the bases (|k> +/- |-k>)/sqrt2, which hold every level
    exactly; at ng != 0 the whole matrix is the one block. Each block's
    lowest level is found, the ground level is lifted past a Gershgorin
    bound, and one more factorization proves the other block's lowest
    level the second, or the lifted block's lowest level is found. The
    refined f01 agrees with a dense solve to about 1e-8 MHz, the rounding
    of any dense solver at this size.
    """
    if params.is_transmon:
        raise ValueError("gatemon_levels needs the (gap, transmissions) variant")
    check_truncation("grid_n", grid_n)
    args = (params.ec, params.gap, params.transmissions, params.ng)
    vals = _gatemon_eigvals(*args, grid_n)
    # the refined grid reaches charge grid_n, and |U| <= gap per channel
    norm = (4.0 * params.ec * (grid_n + abs(params.ng)) ** 2
            + params.gap * len(params.transmissions))
    _check_f01(vals, _gatemon_f01(*args, 2 * grid_n + 1, vals), norm,
               f"under grid refinement from {grid_n}", "grid_n")
    return QubitSpectrum(vals[:N_LEVELS])


def infer_transmission(
    alpha: float,
    ec: float,
    gap: float,
    ng: float = 0.0,
) -> float:
    """Invert the single-channel anharmonicity curve alpha(T).

    Root-find on the exact diagonalization, so the result reproduces
    ``alpha`` when fed back through gatemon_levels. The nominal band for a
    junction deep in its transmon regime is (-EC, -EC/4); the attainable
    interval at the given gap is computed numerically and a target outside
    it raises NoSolutionError carrying that interval.

    Returns the channel transmission T in (0, 1].
    """
    t_min = 1e-3  # low end of the transmission bracket

    def alpha_at(t: float) -> float:
        p = QubitParams(ec=ec, gap=gap, transmissions=(t,), ng=ng)
        return gatemon_levels(p).alpha

    alpha_hi = alpha_at(1.0)      # least negative end
    alpha_lo = alpha_at(t_min)    # most negative end
    if not (alpha_lo <= alpha <= alpha_hi):
        raise NoSolutionError(
            f"alpha = {alpha:.6g} MHz outside the attainable interval "
            f"[{alpha_lo:.6g}, {alpha_hi:.6g}] MHz for gap = {gap:.6g} MHz "
            f"(T swept over [{t_min:g}, 1])",
            attainable=(alpha_hi, alpha_lo),
        )
    # alpha(T) jitters by about 1e-9 MHz with the BLAS thread count, which
    # moves the root by about 1e-11; a finer xtol only chases that jitter
    t = _illinois_root(lambda x: alpha_at(x) - alpha,
                       t_min, alpha_lo - alpha, 1.0, alpha_hi - alpha, xtol=1e-10)
    return float(t)


def _illinois_root(f, x0, f0, x1, f1, xtol):
    """Root of f between x0 and x1, where f(x0) = f0 and f(x1) = f1 differ
    in sign, by regula falsi with the Illinois rule (an end kept twice
    running has its value halved); a step off the bracket bisects. Stops at
    f = 0 or at a step shorter than xtol."""
    while f0 and f1:
        x = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not min(x0, x1) < x < max(x0, x1):
            x = 0.5 * (x0 + x1)
        fx = f(x)
        if abs(x - x1) < xtol:
            return x
        if (fx > 0.0) != (f1 > 0.0):
            x0, f0 = x1, f1
        else:
            f0 *= 0.5
        x1, f1 = x, fx
    return x0 if f0 == 0.0 else x1


def te_mode_frequency(geom: CavityGeometry) -> float:
    """Analytic TE(m,n,p) eigenfrequency of a rectangular cavity, in GHz.

    Raises ValueError when a dimension is so small that the frequency
    overflows a float."""
    try:
        root = np.sqrt(
            (geom.m / geom.length_a) ** 2
            + (geom.n / geom.width_b) ** 2
            + (geom.p / geom.height_d) ** 2
        )
    except OverflowError:
        root = np.inf
    if not np.isfinite(root):
        raise ValueError(f"TE({geom.m},{geom.n},{geom.p}) frequency overflows for a "
                         f"{geom.length_a:g} x {geom.width_b:g} x {geom.height_d:g} m box")
    return SPEED_OF_LIGHT / 2.0 * root / 1e9
