"""Monte-Carlo benchmark of the reflection fitter.

Draws random resonator parameters, synthesizes noisy traces at a chosen
SNR, refits them, and prints recovery-error percentiles plus the median
time of one fit_reflection call, timed apart from the synthesis. A fit
raising FitError counts as a failure; any other exception ends the run
with a non-zero exit.

Run: python3 scripts/fitter_benchmark.py [--n 200] [--snr 30]
"""

import argparse
import statistics
import time

import numpy as np

from cqedkit import FitError, SynthSpec, fit_reflection, synth_reflection


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=200, help="number of traces")
    ap.add_argument("--snr", type=float, default=30.0, help="trace SNR in dB")
    ap.add_argument("--seed", type=int, default=0, help="parameter-draw seed")
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    cases = []
    t0 = time.perf_counter()
    for i in range(args.n):
        qc = 10.0 ** rng.uniform(np.log10(5e3), np.log10(1e5))
        qi = qc * 10.0 ** rng.uniform(np.log10(0.3), np.log10(30.0))
        ql = 1.0 / (1.0 / qi + 1.0 / qc)
        f_r = rng.uniform(4.0, 8.0)
        theta = rng.uniform(-0.4, 0.4)
        fwhm = f_r / ql
        spec = SynthSpec(
            kind="reflection_trace",
            seed=args.seed * 100003 + i,
            snr_db=args.snr,
            truth={"a_re": 1.0, "a_im": 0.0, "ql": ql, "qc": qc,
                   "theta": theta, "f_r_ghz": f_r},
            grid={"f_min_ghz": f_r - 10 * fwhm, "f_max_ghz": f_r + 10 * fwhm,
                  "n_f": 401},
        )
        cases.append((synth_reflection(spec), ql, qc, f_r))
    synth_s = time.perf_counter() - t0

    errs = {"ql": [], "qc": [], "f_r": []}
    fit_ms = []
    failures = 0
    for i, (trace, ql, qc, f_r) in enumerate(cases):
        t = time.perf_counter()
        try:
            fit = fit_reflection(trace)
        except FitError as exc:
            failures += 1
            print(f"  trace {i}: {type(exc).__name__}: {exc}")
            continue
        finally:
            fit_ms.append(1e3 * (time.perf_counter() - t))
        errs["ql"].append(abs(fit.ql - ql) / ql)
        errs["qc"].append(abs(fit.qc - qc) / qc)
        errs["f_r"].append(abs(fit.f_r_ghz - f_r) / f_r)

    print(f"{args.n - failures}/{args.n} converged; "
          f"median {statistics.median(fit_ms) if fit_ms else 0.0:.3f} ms per fit "
          f"(synthesis {synth_s:.2f} s, not timed per fit)")
    for name, vals in errs.items():
        v = np.asarray(vals)
        if v.size == 0:
            continue
        print(f"  {name}: median {np.median(v):.2e}  "
              f"p95 {np.percentile(v, 95):.2e}  max {v.max():.2e}")


if __name__ == "__main__":
    main()
