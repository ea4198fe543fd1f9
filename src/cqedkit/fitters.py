"""Fitters for reflection traces, Lorentzian dips, and decaying Rabi
oscillations, plus two-tone map background removal.

The reflection model, with probe frequency f and resonance f_r (GHz):

    S21(f) = A * [1 - (2*Ql / |Qc*cos(theta)|) * exp(i*theta)
                      / (1 + 2i*Ql*(f - f_r)/f_r)]

A is a complex scale, theta the impedance-mismatch rotation, and the
internal quality factor follows from 1/Qi = 1/Ql - 1/Qc. An optional cable
delay multiplies the response by exp(2i*pi*f*tau). Complex data is fit
jointly on real and imaginary parts (2N residuals).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    FitInitError,
    InputDataError,
    NoDipError,
    NoResonanceError,
    NotConvergedError,
)
from . import lm
from .io import LORENTZIAN_PARAM_NAMES, RABI_PARAM_NAMES, REFLECTION_PARAM_NAMES
from .lm import FitResult, lm_minimize


@dataclass
class ComplexTrace:
    """Frequency-ordered complex reflection samples."""

    freqs_ghz: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.freqs_ghz = np.asarray(self.freqs_ghz, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.freqs_ghz.ndim != 1 or self.freqs_ghz.shape != self.values.shape:
            raise InputDataError("freqs and values must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(self.freqs_ghz)) and np.all(np.isfinite(self.values))):
            raise InputDataError("trace contains non-finite samples")
        if not np.all(np.diff(self.freqs_ghz) > 0):
            raise InputDataError("frequencies must be strictly increasing")

    def __len__(self) -> int:
        return self.freqs_ghz.size


@dataclass
class ResonatorFit:
    """Reflection fit output with the derived internal quality factor."""

    ql: float
    qc: float
    qi: float
    f_r_ghz: float
    theta: float
    a: complex
    errors: dict
    residual_rms: float
    fit: FitResult
    tau_ns: float | None = None

    def to_dict(self) -> dict:
        """Plain floats, NaN included; writers map NaN to null."""
        params = {
            "a_re": float(self.a.real),
            "a_im": float(self.a.imag),
            "ql": self.ql,
            "qc": self.qc,
            "theta": self.theta,
            "f_r_ghz": self.f_r_ghz,
        }
        if self.tau_ns is not None:
            params["tau_ns"] = self.tau_ns
        return {
            "params": params,
            "errors": dict(self.errors),
            "derived": {"qi": self.qi, "residual_rms": self.residual_rms},
            "chi2": float(self.fit.chi2),
            "converged": bool(self.fit.converged),
            "iterations": int(self.fit.iterations),
        }


def _reflection_response(f, ql, qc, theta, f_r_ghz):
    """The bracket of the reflection model, without A and the cable delay."""
    depth = 2.0 * ql / np.abs(qc * np.cos(theta))
    return 1.0 - depth * np.exp(1j * theta) / (1.0 + 2j * ql * (f - f_r_ghz) / f_r_ghz)


def reflection_model(f_ghz, a, ql, qc, theta, f_r_ghz, tau_ns=0.0):
    """Forward-evaluate the reflection model at the given frequencies."""
    f = np.asarray(f_ghz, dtype=float)
    resp = _reflection_response(f, ql, qc, theta, f_r_ghz)
    if tau_ns:
        resp = resp * np.exp(2j * np.pi * f * tau_ns)
    return a * resp


# Columns of the batched forward-difference call (lm.numeric_jacobian):
# column 0 is x, column i + 1 steps parameter i of REFLECTION_PARAM_NAMES
# (then tau_ns). A step changes only the factors that read its parameter.
_RESPONSE_COLS = np.array([0, 3, 4, 5, 6])  # x and the ql, qc, theta, f_r steps
_RESPONSE_OF = np.array([0, 0, 0, 1, 2, 3, 4, 0])  # column -> row of the response stack
_DELAY_COLS = np.array([0, 7])  # x and the tau step
_DELAY_OF = np.array([0, 0, 0, 0, 0, 0, 0, 1])


def _reflection_residuals(f, z, delay: bool, f_mid: float):
    """Residual of the reflection fit at one point, and its batched form
    for lm.numeric_jacobian, whose rows have the bits of single calls.
    Both take fit_reflection's internal parameters: A rotated to the
    window center and, with delay, tau_ns last."""
    winding = 2j * np.pi * (f - f_mid)

    def residuals(x):
        model = complex(x[0], x[1]) * _reflection_response(f, *x[2:6])
        if delay:
            model = model * np.exp(winding * x[6])
        diff = model - z
        return np.concatenate([diff.real, diff.imag])

    def batched(xs):
        k = xs.shape[1]
        a = np.empty(xs[0].shape, dtype=complex)
        a.real, a.imag = xs[0], xs[1]
        resp = _reflection_response(f, *xs[2:6, _RESPONSE_COLS])
        model = a * resp[_RESPONSE_OF[:k]]
        if delay:
            model *= np.exp(winding * xs[6, _DELAY_COLS])[_DELAY_OF]
        diff = model - z
        return np.concatenate([diff.real, diff.imag], axis=-1)

    return residuals, batched


def _forward_jacobian(batched):
    """lm_minimize ``jac=`` taking every forward difference in one call."""

    def jac(x, *args):
        return lm.numeric_jacobian(batched, x, args=args)

    return jac


def derive_qi(ql: float, qc: float) -> float:
    """Internal quality factor from 1/Qi = 1/Ql - 1/Qc."""
    if ql <= 0 or qc <= 0:
        raise ValueError("quality factors must be positive")
    if ql >= qc:
        raise ValueError(
            f"Ql = {ql:g} >= Qc = {qc:g} leaves no internal loss budget"
        )
    return 1.0 / (1.0 / ql - 1.0 / qc)


def _moving_mean(y: np.ndarray) -> np.ndarray:
    """Five-point moving mean."""
    width = min(5, y.size)
    if width <= 1:
        return np.asarray(y, dtype=float)
    kernel = np.ones(width)
    # normalize by the true overlap so the edges are not biased toward zero
    num = np.convolve(y, kernel, mode="same")
    den = np.convolve(np.ones(y.size), kernel, mode="same")
    return num / den


def _median(a: np.ndarray) -> float:
    """np.median of a non-empty 1-D float array, bit for bit: the middle
    one or two values of a partition, averaged by np.mean as np.median
    does, or the NaN that sorts last. np.median imports numpy.ma for its
    NaN check on its first call, which each fresh fit-verb process would
    pay for."""
    n = a.size
    lo, hi = (n - 1) // 2, n // 2
    part = np.partition(a, [hi, -1] if n % 2 else [lo, hi, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(np.mean(part[lo : hi + 1]))


def _noise_rms(values: np.ndarray) -> float:
    # median |successive difference| of white noise is 1.1774 (complex) or
    # 0.9539 (real) times the per-sample rms
    if values.size < 3:
        return 0.0
    ratio = 1.1774 if np.iscomplexobj(values) else 0.9539
    return _median(np.abs(np.diff(values))) / ratio


def _baseline(z: np.ndarray):
    """Edge width, edge-mean baseline A and complex noise rms of a trace."""
    edge = max(3, z.size // 20)
    a0 = complex(np.mean(np.concatenate([z[:edge], z[-edge:]])))
    return edge, a0, _noise_rms(z)


def _kasa_circle(z: np.ndarray):
    """Algebraic least-squares circle through complex samples: center, radius."""
    x, y = z.real, z.imag
    with np.errstate(over="ignore"):
        rhs = x * x + y * y
    # samples near the float limit square to inf, and lstsq on them never
    # returns; a finite rhs keeps |x| and |y| far inside the float range
    if not np.isfinite(rhs).all():
        raise np.linalg.LinAlgError("degenerate circle")
    m = np.column_stack([2.0 * x, 2.0 * y, np.ones_like(x)])
    sol, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    cx, cy, c = sol
    r2 = c + cx * cx + cy * cy
    if r2 <= 0:
        raise np.linalg.LinAlgError("degenerate circle")
    return complex(cx, cy), math.sqrt(r2)


def _dip_extent(f, profile, peak_idx):
    """Full width of `profile` at half its peak value around peak_idx."""
    half = profile[peak_idx] / 2.0
    lo = peak_idx
    while lo > 0 and profile[lo] > half:
        lo -= 1
    hi = peak_idx
    while hi < profile.size - 1 and profile[hi] > half:
        hi += 1
    if lo == peak_idx or hi == peak_idx:
        return (f[-1] - f[0]) / 4.0
    return f[hi] - f[lo]


def initial_guess_reflection(
    trace: ComplexTrace, delay: bool = False, tau_ns: float | None = None
) -> dict:
    """Starting point for fit_reflection.

    Kasa circle fit for the dip diameter, baseline from the trace edges,
    resonance at the point farthest from the baseline, Ql from the width of
    |S21 - A|^2. Falls back to plain |S21| dip heuristics when the circle
    is degenerate (radius below the noise). Always returns finite values.

    With delay=True the cable delay is seeded from the edge phase slope
    and divided out before the other parameters are read off; tau_ns
    overrides that seed when given.
    """
    f = trace.freqs_ghz
    z = trace.values
    n = len(trace)

    tau0 = None
    if delay:
        if tau_ns is not None:
            tau0 = float(tau_ns)
        else:
            # seed the delay from the median per-point phase increment over
            # the window edges, where the resonance phase has died off
            dphi = np.angle(z[1:] * np.conj(z[:-1]))
            df = np.diff(f)
            q = max(3, n // 4)
            sel = np.r_[0:q, n - 1 - q : n - 1]
            tau0 = _median((dphi / df)[sel]) / (2.0 * np.pi)
        z = z * np.exp(-2j * np.pi * f * tau0)

    baseline = _baseline(z)
    return _guess_reflection(f, z, baseline, _moving_mean(np.abs(z - baseline[1])), tau0)


def _guess_reflection(f, z, baseline, dist, tau0) -> dict:
    """initial_guess_reflection on a trace with the delay divided out,
    from its _baseline and the moving mean of |z - A| about that baseline.
    tau0 is the delay seed, None for a fit without delay."""
    n = z.size
    edge, a0, noise = baseline
    if a0 == 0:
        a0 = complex(np.mean(np.abs(z)) + 1e-12)
        dist = _moving_mean(np.abs(z - a0))

    idx = int(np.argmax(dist))
    f_r0 = float(f[idx])
    span = f[-1] - f[0]

    try:
        _, radius = _kasa_circle(z)
        degenerate = radius < max(3.0 * noise, 1e-12)
    except np.linalg.LinAlgError:
        radius, degenerate = 0.0, True

    if not degenerate:
        # resonance point relative to the baseline fixes theta and the
        # diameter fixes the Ql/Qc ratio
        z_res = complex(np.mean(z[max(0, idx - 1) : idx + 2]))
        theta0 = float(np.angle((a0 - z_res) / a0))
        prof = dist**2
        width = _dip_extent(f, prof, idx)
        ql0 = f_r0 / max(width, span / n)
        d0 = 2.0 * radius / abs(a0)
        qc0 = 2.0 * ql0 / max(d0 * math.cos(theta0), 1e-6)
    else:
        # scalar fallback: work on |S21| alone
        mag = _moving_mean(np.abs(z))
        base = _median(np.concatenate([mag[:edge], mag[-edge:]]))
        idx = int(np.argmin(mag))
        f_r0 = float(f[idx])
        depth_rel = max((base - mag[idx]) / max(base, 1e-12), 1e-3)
        prof = np.clip(base - mag, 0.0, None)
        width = _dip_extent(f, prof, idx)
        ql0 = f_r0 / max(width, span / n)
        qc0 = 2.0 * ql0 / depth_rel
        theta0 = 0.0

    ql0 = float(np.clip(ql0, 10.0, 1e9))
    qc0 = float(np.clip(qc0, 10.0, 1e9))
    theta0 = float(np.clip(theta0, -1.5, 1.5))
    guess = {
        "a_re": a0.real,
        "a_im": a0.imag,
        "ql": ql0,
        "qc": qc0,
        "theta": theta0,
        "f_r_ghz": f_r0,
    }
    if tau0 is not None:
        guess["tau_ns"] = tau0
    return guess


def fit_reflection(trace: ComplexTrace, delay: bool = False) -> ResonatorFit:
    """Fit the complex reflection model to a trace.

    Raises NoResonanceError when the complex excursion from the baseline
    is below three times the estimated noise floor, NotConvergedError when
    the optimizer gives up. A fit landing at Qc <= Ql warns and reports Qi
    as NaN.
    """
    if len(trace) < 50:
        raise InputDataError(f"need at least 50 points, got {len(trace)}")
    z = trace.values
    baseline = _baseline(z)
    _, a0, noise = baseline
    # distance from the off-resonant point sees the resonance circle
    # diameter even when an overcoupled |S21| dip wraps past the origin
    dist = _moving_mean(np.abs(z - a0))
    depth = float(np.max(dist))
    if depth < max(3.0 * noise, 1e-9 * max(abs(a0), 1e-12)):
        raise NoResonanceError(
            f"complex dip excursion {depth:.3g} below 3x noise floor {noise:.3g}"
        )

    names = list(REFLECTION_PARAM_NAMES) + (["tau_ns"] if delay else [])
    if delay:
        init = initial_guess_reflection(trace, delay=True)
    else:
        init = _guess_reflection(trace.freqs_ghz, z, baseline, dist, None)

    # optimize the delay against the window center: the absolute-frequency
    # winding exp(2i*pi*f*tau) is nearly degenerate with arg(a) over a
    # narrow window and stalls the optimizer; arg(a) absorbs the center
    # rotation during the fit and is restored afterwards
    f_mid = float(0.5 * (trace.freqs_ghz[0] + trace.freqs_ghz[-1]))

    def to_internal(guess):
        x0 = [guess[k] for k in names]
        if delay:
            a_rot = complex(guess["a_re"], guess["a_im"]) * np.exp(
                2j * np.pi * f_mid * guess["tau_ns"]
            )
            x0[0], x0[1] = a_rot.real, a_rot.imag
        return x0

    residuals, batched = _reflection_residuals(trace.freqs_ghz, z, delay, f_mid)
    jac = _forward_jacobian(batched)
    result = lm_minimize(residuals, to_internal(init), names=names, jac=jac)
    if delay and not result.converged:
        # the edge-slope delay seed can sit a fraction of a turn off when
        # the resonance phase tails reach the window edges; rescan tau in
        # quarter-turn steps and rebuild the full guess at each trial
        span = float(trace.freqs_ghz[-1] - trace.freqs_ghz[0])
        for m in (1, -1, 2, -2, 3, -3):
            alt = initial_guess_reflection(
                trace, delay=True, tau_ns=init["tau_ns"] + m / (4.0 * span)
            )
            result = lm_minimize(residuals, to_internal(alt), names=names, jac=jac)
            if result.converged:
                break
    if not result.converged:
        raise NotConvergedError(f"reflection fit did not converge: {result.message}")
    ql, qc = result.param("ql"), result.param("qc")
    if ql <= 0 or qc <= 0:
        raise NotConvergedError(
            f"fit landed on nonphysical quality factors (Ql={ql:.3g}, Qc={qc:.3g})"
        )

    a_hat = complex(result.param("a_re"), result.param("a_im"))
    covariance = result.covariance
    if delay:
        # undo the center-frequency rotation; a and its covariance rows
        # pick up the tau dependence, the other parameters are untouched
        tau_hat = result.param("tau_ns")
        a_hat = a_hat * np.exp(-2j * np.pi * f_mid * tau_hat)
        jac = np.eye(len(names))
        c, s = math.cos(2 * np.pi * f_mid * tau_hat), math.sin(2 * np.pi * f_mid * tau_hat)
        jac[0, :2] = (c, s)
        jac[1, :2] = (-s, c)
        jac[0, 6] = 2 * np.pi * f_mid * a_hat.imag
        jac[1, 6] = -2 * np.pi * f_mid * a_hat.real
        covariance = jac @ covariance @ jac.T

    errors = {n: result.error(n) for n in names}
    errors["a_re"] = math.sqrt(max(covariance[0, 0], 0.0))
    errors["a_im"] = math.sqrt(max(covariance[1, 1], 0.0))
    if qc > ql:
        qi = derive_qi(ql, qc)
        # first-order propagation through 1/Qi = 1/Ql - 1/Qc
        grad = np.zeros(len(names))
        grad[names.index("ql")] = (qi / ql) ** 2
        grad[names.index("qc")] = -((qi / qc) ** 2)
        qi_var = float(grad @ covariance @ grad)
        errors["qi"] = math.sqrt(qi_var) if qi_var > 0 else 0.0
    else:
        warnings.warn(
            f"nonphysical Qi: fitted Qc = {qc:.4g} <= Ql = {ql:.4g}", stacklevel=2
        )
        qi = math.nan
        errors["qi"] = math.nan

    return ResonatorFit(
        ql=ql,
        qc=qc,
        qi=qi,
        f_r_ghz=result.param("f_r_ghz"),
        theta=result.param("theta"),
        a=a_hat,
        errors=errors,
        residual_rms=math.sqrt(result.chi2 / (2 * len(trace))),
        tau_ns=result.param("tau_ns") if delay else None,
        fit=result,
    )


def _samples(x, y, names: str, min_points: int):
    """1-D float samples of equal length, at least min_points, all finite."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise InputDataError(f"{names} must be 1-D arrays of equal length")
    if x.size < min_points:
        raise InputDataError(f"need at least {min_points} points, got {x.size}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InputDataError("input contains non-finite samples")
    return x, y


def lorentzian_model(f, f0, fwhm, depth, offset):
    """Lorentzian dip: offset - depth at f0, rising to offset far away."""
    hw2 = (fwhm / 2.0) ** 2
    return offset - depth * hw2 / ((np.asarray(f, float) - f0) ** 2 + hw2)


def lorentzian_jacobian(x, f, _y):
    f0, fwhm, depth, _offset = x
    f = np.asarray(f, dtype=float)
    hw = fwhm / 2.0
    hw2 = hw * hw
    df = f - f0
    df2 = df**2
    d = df2 + hw2
    d2 = d**2
    j = np.empty((f.size, 4))
    j[:, 0] = -depth * hw2 * 2.0 * df / d2
    j[:, 1] = -depth * hw * df2 / d2
    j[:, 2] = -hw2 / d
    j[:, 3] = 1.0
    return j


def _fold(result: FitResult, idx: list[int]) -> None:
    """Negate params[idx] and their covariance rows and columns (D cov D)."""
    result.params[idx] *= -1
    result.covariance[idx] *= -1
    result.covariance[:, idx] *= -1


def fit_lorentzian(freqs, mags) -> FitResult:
    """Fit a Lorentzian dip to (frequency, magnitude) samples.

    Units follow the input axis. With two comparable dips present the
    deeper one after smoothing seeds the init and the fit locks onto it.
    """
    f, y = _samples(freqs, mags, "freqs and mags", 20)

    smooth = _moving_mean(y)
    edge = max(3, f.size // 20)
    offset0 = _median(np.concatenate([smooth[:edge], smooth[-edge:]]))
    idx = int(np.argmin(smooth))
    depth0 = offset0 - float(smooth[idx])
    noise = _noise_rms(y)
    scale = max(abs(offset0), np.ptp(y), 1e-12)
    if depth0 < max(3.0 * noise, 1e-9 * scale):
        raise NoDipError(f"no dip above noise floor (depth {depth0:.3g})")
    prof = np.clip(offset0 - smooth, 0.0, None)
    fwhm0 = _dip_extent(f, prof, idx)

    def residuals(x, fv, yv):
        return lorentzian_model(fv, *x) - yv

    result = lm_minimize(
        residuals,
        [float(f[idx]), fwhm0, depth0, offset0],
        args=(f, y),
        names=list(LORENTZIAN_PARAM_NAMES),
        jac=lorentzian_jacobian,
    )
    if not result.converged:
        raise NotConvergedError(f"Lorentzian fit did not converge: {result.message}")
    # fwhm enters squared, so normalize the sign convention
    if result.params[1] < 0:
        _fold(result, [1])
    return result


def rabi_model(t, amp, t_r, omega, phase, slope, offset):
    t = np.asarray(t, dtype=float)
    return amp * np.exp(-t / t_r) * np.cos(omega * t + phase) + slope * t + offset


def _rabi_residuals(x, t, y):
    # rabi_model broadcasts, so this is also the batched form
    return rabi_model(t, *x) - y


def fit_rabi(t_ns, y) -> FitResult:
    """Fit a decaying cosine with a linear background to a Rabi trace.

    The oscillation frequency is seeded from the discrete Fourier peak of
    the detrended data; absence of a peak above the spectral noise raises
    FitInitError. A fit with less than half an oscillation across the
    trace (omega * span < pi) raises NotConvergedError. Time units follow
    the input axis (ns in the file formats), omega is rad per time unit.
    """
    t, y = _samples(t_ns, y, "t and y", 16)
    steps = np.diff(t)
    if not np.all(steps > 0):
        raise InputDataError("time axis must be increasing")
    dt = _median(steps)

    slope0, offset0 = np.polyfit(t, y, 1)
    resid = y - (slope0 * t + offset0)
    spec = np.fft.rfft(resid)
    power = np.abs(spec) ** 2
    body = power[1:]
    kb = int(np.argmax(body))
    k = 1 + kb
    # noise floor from the other bins, leakage neighbors excluded; the
    # largest of n white-noise bins sits near mean*ln(n), so demand a peak
    # well above that before trusting the seed
    mask = np.ones(body.size, dtype=bool)
    mask[max(kb - 1, 0) : kb + 2] = False
    others = body[mask]
    floor = _median(others) / math.log(2.0) if others.size else 0.0
    threshold = (math.log(max(body.size, 2)) + 5.0) * floor
    amp_scale = max(float(np.ptp(y)), abs(_median(y)), 1e-300)
    if (
        power[k] <= 0
        or power[k] < threshold
        or 2.0 * np.abs(spec[k]) / t.size < 1e-8 * amp_scale
    ):
        raise FitInitError("no oscillation peak above the spectral noise")

    n = t.size
    omega0 = 2.0 * np.pi * k / (n * dt)
    amp0 = 2.0 * np.abs(spec[k]) / n
    phase0 = float(np.angle(spec[k]))
    half = n // 2
    e1 = float(np.sqrt(np.mean(resid[:half] ** 2)))
    e2 = float(np.sqrt(np.mean(resid[half:] ** 2)))
    span = t[-1] - t[0]
    if e1 > e2 > 0:
        t_r0 = (np.mean(t[half:]) - np.mean(t[:half])) / np.log(e1 / e2)
        t_r0 = float(np.clip(t_r0, dt, 10.0 * span))
    else:
        t_r0 = span

    result = lm_minimize(
        _rabi_residuals,
        [amp0, t_r0, omega0, phase0, slope0, offset0],
        args=(t, y),
        names=list(RABI_PARAM_NAMES),
        jac=_forward_jacobian(_rabi_residuals),
    )
    if not result.converged:
        raise NotConvergedError(f"Rabi fit did not converge: {result.message}")
    # cos(-w t - B) = cos(w t + B): fold the sign degeneracy away
    if result.params[2] < 0:
        _fold(result, [2, 3])
    if result.params[1] <= 0:
        raise NotConvergedError(
            f"fit landed on a non-positive decay time T_R = {result.params[1]:.3g}"
        )
    # the spectral seed proposes at least one period across the trace
    if result.params[2] * span < np.pi:
        raise NotConvergedError(
            f"fit collapsed to omega = {result.params[2]:.3g}, under half an oscillation")
    return result


def subtract_background(grid, axis: int = 0):
    """Remove the per-column median taken along the gate axis of a 2D map.

    ``axis`` is the gate axis (default 0, gate points as rows). For every
    fixed drive frequency the median over gate points is subtracted, so
    slowly varying frequency-dependent background drops out while sparse
    features survive.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 2:
        raise InputDataError("background subtraction needs a 2-D grid")
    return g - np.median(g, axis=axis, keepdims=True)
