"""In-memory span tracer for the traced benchmark run.

Spans are recorded around calls into cqedkit's public functions by
replacing each function at the module attribute its caller looks up (for
example ``cqedkit.coupling.gatemon_levels``, which is what ``gate_sweep``
calls). Nothing under ``src/`` is edited; ``uninstall`` puts every
original back.

A span is (name, start, end, parent). Self time is a span's duration minus
the durations of its direct children; the process is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import statistics
import time
from array import array

FITTERS = ("fit_reflection", "fit_lorentzian", "fit_rabi")
SYNTH_GENERATORS = (
    "synth_reflection", "synth_rabi", "synth_power_map", "synth_gate_map", "synth_two_tone"
)
IO_FUNCS = (
    "write_map_csv", "read_map_csv", "write_complex_trace", "read_complex_trace", "write_json"
)
FAILURE_NAMES = ("NoResonanceError", "NotConvergedError", "NoDipError", "FitInitError", "other")
CLI_VERBS = (
    "fit-resonator", "fit-lorentzian", "fit-rabi", "simulate-qubit",
    "simulate-cavity", "sweep-gate", "synth", "pipeline",
)

# (layer, functions, modules whose namespace callers look them up in): the
# CLI imports most functions into its own namespace, gate_sweep calls the
# solvers through coupling's
_LAYERS = (
    ("spectra", ("gatemon_levels", "transmon_levels"), ("coupling", "cli")),
    ("coupling", ("gate_sweep",), ("coupling", "cli")),
    ("lm", ("numeric_jacobian",), ("lm",)),
    ("fitters", FITTERS, ("fitters", "cli")),
    ("synth", SYNTH_GENERATORS, ("synth", "cli")),
    ("io", IO_FUNCS, ("io",)),
    ("config", ("load_config",), ("config",)),
    ("svgplot", ("line_plot", "heatmap"), ("svgplot",)),
)
# (module, attribute, span name)
WRAP_POINTS = [(f"cqedkit.{home}", func, f"{layer}.{func}")
               for layer, funcs, homes in _LAYERS for func in funcs for home in homes]
# lm_minimize is wrapped separately: its residual and jac arguments get
# spans of their own
LM_POINT = ("cqedkit.fitters", "lm_minimize")


class Tracer:
    """Records spans and counts in memory; writes them out on request."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.lm_iterations = 0
        self.lm_converged = 0
        self.failures = {k: 0 for k in FAILURE_NAMES}
        self.io_bytes = {k: 0 for k in IO_FUNCS}
        self.synth_rows = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, on_result=None, on_error=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self._close(idx)
                if on_error is not None:
                    on_error(exc)
                raise
            self._close(idx)
            if on_result is not None:
                on_result(out, args, kwargs)
            return out

        return wrapper

    def timed_call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named ``name`` (used for cli.main)."""
        return self.span(name, fn)(*args, **kwargs)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        for mod_name, attr, span_name in WRAP_POINTS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.span(span_name, orig, *self._hooks(span_name)))
        mod = importlib.import_module(LM_POINT[0])
        orig = getattr(mod, LM_POINT[1])
        self._saved.append((mod, LM_POINT[1], orig))
        setattr(mod, LM_POINT[1], self._wrap_lm(orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _hooks(self, span_name: str):
        layer, func = span_name.split(".", 1)
        if layer == "fitters":
            def on_error(exc):
                key = type(exc).__name__
                self.failures[key if key in self.failures else "other"] += 1
            return None, on_error
        if layer == "io" and func in self.io_bytes:
            reads = func.startswith("read_")

            def on_result(out, args, kwargs):
                path = args[0] if reads else out
                self.io_bytes[func] += os.path.getsize(path)
            return on_result, None
        if layer == "synth" and func in ("synth_power_map", "synth_gate_map", "synth_two_tone"):
            def on_result(out, args, kwargs):
                self.synth_rows += out.grid.shape[0]
            return on_result, None
        return None, None

    def _wrap_lm(self, lm_minimize):
        @functools.wraps(lm_minimize)
        def wrapper(fn, x0, args=(), names=None, jac=None, **kwargs):
            fn = self.span("lm.residual", fn)
            if jac is not None:
                jac = self.span("lm.jac", jac)
            idx = self._open("lm.lm_minimize")
            try:
                result = lm_minimize(fn, x0, args=args, names=names, jac=jac, **kwargs)
            finally:
                self._close(idx)
            self.lm_iterations += result.iterations
            self.lm_converged += bool(result.converged)
            return result

        return wrapper

    # -- analysis ----------------------------------------------------------

    def _by_name(self):
        groups: dict[str, list[int]] = {}
        for idx, nid in enumerate(self.name_id):
            groups.setdefault(self.names[nid], []).append(idx)
        return groups

    def _self_times(self):
        n = len(self.start)
        child = [0.0] * n
        for idx in range(n):
            p = self.parent[idx]
            if p >= 0:
                child[p] += self.end[idx] - self.start[idx]
        return [self.end[i] - self.start[i] - child[i] for i in range(n)]

    def _has_ancestor(self, idx: int, nid: int) -> bool:
        p = self.parent[idx]
        while p >= 0:
            if self.name_id[p] == nid:
                return True
            p = self.parent[p]
        return False

    def layer_metrics(self) -> dict:
        """Per-layer metrics derived from the recorded spans and counts."""
        groups = self._by_name()
        selfs = self._self_times()

        def dur(i):
            return self.end[i] - self.start[i]

        def calls(name):
            return len(groups.get(name, ()))

        def busy(name):
            return sum(dur(i) for i in groups.get(name, ()))

        def self_s(name):
            return sum(selfs[i] for i in groups.get(name, ()))

        def ms_p50(name):
            d = [dur(i) for i in groups.get(name, ())]
            return 1e3 * statistics.median(d) if d else 0.0

        def within(names, ancestor):
            nid = self._ids.get(ancestor)
            if nid is None:
                return 0.0
            return sum(dur(i) for n in names for i in groups.get(n, ())
                       if self._has_ancestor(i, nid))

        m: dict[str, float] = {}
        for f in ("gatemon_levels", "transmon_levels"):
            name = f"spectra.{f}"
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.busy_s"] = busy(name)
            m[f"{name}.ms_p50"] = ms_p50(name)
        spectra_names = ("spectra.gatemon_levels", "spectra.transmon_levels")
        for key in ("calls", "busy_s", "self_s"):
            fn = {"calls": calls, "busy_s": busy, "self_s": self_s}[key]
            m[f"coupling.gate_sweep.{key}"] = fn("coupling.gate_sweep")
            m[f"lm.lm_minimize.{key}"] = fn("lm.lm_minimize")
        sweep_busy = busy("coupling.gate_sweep")
        m["spectra.share_of_gate_sweep"] = (
            within(spectra_names, "coupling.gate_sweep") / sweep_busy if sweep_busy else 0.0
        )

        jac_names = ("lm.numeric_jacobian", "lm.jac")
        lm_calls = calls("lm.lm_minimize")
        lm_id = self._ids.get("lm.lm_minimize")
        m["lm.jacobian_s"] = sum(busy(n) for n in jac_names)
        m["lm.residual_s"] = sum(
            dur(i) for i in groups.get("lm.residual", ())
            if lm_id is not None and self.parent[i] >= 0 and self.name_id[self.parent[i]] == lm_id
        )
        m["lm.residual_evals_per_call"] = calls("lm.residual") / lm_calls if lm_calls else 0.0
        m["lm.iterations_per_call"] = self.lm_iterations / lm_calls if lm_calls else 0.0
        m["lm.converged_ratio"] = self.lm_converged / lm_calls if lm_calls else 0.0
        refl_busy = busy("fitters.fit_reflection")
        m["lm.jacobian_share_of_fit_reflection"] = (
            within(jac_names, "fitters.fit_reflection") / refl_busy if refl_busy else 0.0
        )

        fit_calls = 0
        for f in FITTERS:
            name = f"fitters.{f}"
            fit_calls += calls(name)
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.busy_s"] = busy(name)
            m[f"{name}.self_s"] = self_s(name)
        # lm calls made on behalf of a fitter, over fits attempted; above 1
        # means delay rescans
        lm_in_fits = sum(
            1 for i in groups.get("lm.lm_minimize", ())
            if any(self._has_ancestor(i, self._ids[f"fitters.{f}"])
                   for f in FITTERS if f"fitters.{f}" in self._ids)
        )
        m["fitters.lm_calls_per_fit"] = lm_in_fits / fit_calls if fit_calls else 0.0
        for key, count in self.failures.items():
            m[f"fitters.failures.{key}"] = count

        map_busy = 0.0
        for g in SYNTH_GENERATORS:
            name = f"synth.{g}"
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.busy_s"] = busy(name)
            if g in ("synth_power_map", "synth_gate_map", "synth_two_tone"):
                map_busy += busy(name)
        m["synth.rows_per_s"] = self.synth_rows / map_busy if map_busy else 0.0

        for f in IO_FUNCS:
            name = f"io.{f}"
            b = busy(name)
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.busy_s"] = b
            # bytes from file sizes on disk, so this rate is computed, not
            # a measured device throughput
            m[f"{name}.mb_per_s"] = self.io_bytes[f] / 1e6 / b if b else 0.0

        m["config.load_config.calls"] = calls("config.load_config")
        m["config.load_config.busy_s"] = busy("config.load_config")
        svg = ("svgplot.line_plot", "svgplot.heatmap")
        m["svgplot.calls"] = sum(calls(n) for n in svg)
        m["svgplot.busy_s"] = sum(busy(n) for n in svg)

        for verb in CLI_VERBS:
            d = [dur(i) for i in groups.get(f"cli.{verb}", ())]
            m[f"cli.{verb}.main_s"] = statistics.median(d) if d else 0.0
        return m

    def cli_main_median_s(self) -> float:
        """Median duration of the in-process cli.main calls, over every verb."""
        d = [self.end[i] - self.start[i] for i, nid in enumerate(self.name_id)
             if self.names[nid].startswith("cli.")]
        return statistics.median(d) if d else 0.0

    def dump(self, path) -> None:
        """Write every span and count as gzipped JSON."""
        spans = {
            "names": self.names,
            "name_id": list(self.name_id),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
        }
        payload = {
            "spans": spans,
            "counts": {
                "lm_iterations": self.lm_iterations,
                "lm_converged": self.lm_converged,
                "failures": self.failures,
                "io_bytes": self.io_bytes,
                "synth_rows": self.synth_rows,
            },
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)
