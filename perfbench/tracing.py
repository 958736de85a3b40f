"""Spans around the program's public functions, installed from outside.

``Tracer.install`` replaces each target function by a wrapper in every
``zenopath`` module namespace that binds it, so a span covers the call
whichever name the caller looks up (``zenopath.cli.ensemble_stats`` and
``zenopath.diffusive.ensemble_stats`` are the same span).  ``uninstall``
puts the originals back.  A target missing from the program is reported as
absent and the benchmark keeps running.

A span records name, start, end and the index of its parent span.  Spans
are kept in memory; the self time of a span is its duration minus the
durations of its children, so over one pass the self times sum to the
duration of the root span.
"""

import contextlib
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name).  Span names use "kernels" for
# ``zenopath._kernels`` because a metric name must start with a letter.
TARGETS = [
    ("zenopath.cli", "main", "cli.main"),
    ("zenopath.cli", "build_parser", "cli.build_parser"),
    ("zenopath.cli", "_write_table", "cli.write_table"),
    ("zenopath.cli", "_write_sidecar", "cli.write_sidecar"),
    ("zenopath.diffusive", "ensemble_stats", "diffusive.ensemble_stats"),
    ("zenopath.diffusive", "sample_trajectory", "diffusive.sample_trajectory"),
    ("zenopath.diffusive", "WienerStream.increments", "diffusive.WienerStream.increments"),
    ("zenopath.diffusive", "integrate_mlp", "diffusive.integrate_mlp"),
    ("zenopath._kernels", "diffusive_walk", "kernels.diffusive_walk"),
    ("zenopath._kernels", "mlp_rk4", "kernels.mlp_rk4"),
    ("zenopath._kernels", "zeno_walk", "kernels.zeno_walk"),
    ("zenopath._kernels", "phase_rk4", "kernels.phase_rk4"),
    ("zenopath.measurement", "mc_zeno_trajectory", "measurement.mc_zeno_trajectory"),
    ("zenopath.phase", "integrate_phase_path", "phase.integrate_phase_path"),
    ("zenopath.phase", "critical_points", "phase.critical_points"),
    ("zenopath.phase", "p_theta_curve", "phase.p_theta_curve"),
    ("zenopath.action", "final_state_density", "action.final_state_density"),
    ("zenopath.action", "zeno_frequencies", "action.zeno_frequencies"),
    ("zenopath.action", "transition_time_sub_zeno", "action.transition_time_sub_zeno"),
    ("zenopath.action", "action_quadrature", "action.action_quadrature"),
    ("zenopath.action", "action_closed_form", "action.action_closed_form"),
]

KERNELS = ("diffusive_walk", "mlp_rk4", "zeno_walk", "phase_rk4")
ROOT = "pass"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, ok, steps, bytes_out]
        self._stack = []
        self._restore = []  # (namespace, attribute, original)
        self.absent = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, True, 0, 0])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, func):
        kernel = name.startswith("kernels.")

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span[4] = False
                raise
            finally:
                self._close(span)
            if kernel:
                out = result[0] if isinstance(result, tuple) else result
                if isinstance(out, np.ndarray):
                    span[5] = out.shape[0] - 1
                    span[6] = out.nbytes
            elif name == "cli.build_parser":
                result.parse_args = self.wrap("cli.parse_args", result.parse_args)
            return result

        traced.__wrapped__ = func
        return traced

    @contextlib.contextmanager
    def root(self):
        """The span that covers one pass."""
        span = self._open(ROOT)
        try:
            yield
        finally:
            self._close(span)

    # -- installing ----------------------------------------------------------

    def install(self):
        """Wrap every target; return the span names found absent."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "zenopath" or n.startswith("zenopath."))]
        self.absent = []
        for module_name, attr, span_name in TARGETS:
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.absent.append(span_name)
                continue
            wrapper = self.wrap(span_name, original)
            if path:  # a method: patch the class, which every caller shares
                self._patch(owner, leaf, wrapper, original)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper, original)
        return list(self.absent)

    def _patch(self, namespace, key, wrapper, original):
        setattr(namespace, key, wrapper)
        self._restore.append((namespace, key, original))

    def uninstall(self):
        for namespace, key, original in reversed(self._restore):
            setattr(namespace, key, original)
        self._restore = []

    def take(self):
        """Return and forget the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


def span_totals(spans):
    """Per span name: total time, self time, calls, failed calls, steps, bytes."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "failed": 0,
                                  "steps": 0, "bytes_out": 0})
    for i, (name, start, end, parent, ok, steps, nbytes) in enumerate(spans):
        t = totals[name]
        t["s"] += end - start
        t["self_s"] += end - start - child_time[i]
        t["calls"] += 1
        t["failed"] += not ok
        t["steps"] += steps
        t["bytes_out"] += nbytes
    return totals


def layer_metrics(totals, bytes_written: int) -> dict:
    """The per-layer metrics of one traced pass (name -> (value, unit)).

    A span never entered reads 0; ``Tracer.absent`` says which targets are
    missing from the program altogether.
    """
    def get(name, key):
        return totals[name][key] if name in totals else 0

    m = {}
    cli_spans = ("cli.main", "cli.build_parser", "cli.parse_args",
                 "cli.write_table", "cli.write_sidecar")
    m["cli.resolve_s"] = (get("cli.build_parser", "s") + get("cli.parse_args", "s"), "s")
    m["cli.self_s"] = (sum(get(n, "self_s") for n in cli_spans), "s")
    write_s = get("cli.write_table", "s") + get("cli.write_sidecar", "s")
    m["cli.bytes_written"] = (bytes_written, "count")
    m["cli.write_mb_per_s"] = (bytes_written / write_s / 1e6 if write_s else 0.0, "MB/s")

    m["diffusive.ensemble_stats.self_s"] = (get("diffusive.ensemble_stats", "self_s"), "s")
    m["diffusive.sample_trajectory.self_s"] = (get("diffusive.sample_trajectory", "self_s"), "s")
    m["diffusive.sample_trajectory.calls"] = (get("diffusive.sample_trajectory", "calls"), "count")
    m["diffusive.WienerStream.increments_s"] = (get("diffusive.WienerStream.increments", "s"), "s")
    m["diffusive.integrate_mlp.self_s"] = (get("diffusive.integrate_mlp", "self_s"), "s")

    for k in KERNELS:
        name = f"kernels.{k}"
        s, steps = get(name, "s"), get(name, "steps")
        m[f"{name}.s"] = (s, "s")
        m[f"{name}.steps"] = (steps, "count")
        m[f"{name}.steps_per_s"] = (steps / s if s else 0.0, "1/s")
        m[f"{name}.bytes_out"] = (get(name, "bytes_out"), "B")

    m["measurement.mc_zeno_trajectory.self_s"] = (
        get("measurement.mc_zeno_trajectory", "self_s"), "s")

    m["phase.integrate_phase_path.self_s"] = (get("phase.integrate_phase_path", "self_s"), "s")
    calls = get("phase.p_theta_curve", "calls")
    m["phase.p_theta_curve.calls"] = (calls, "count")
    m["phase.p_theta_curve.s"] = (get("phase.p_theta_curve", "s"), "s")
    useful = calls - get("phase.p_theta_curve", "failed")
    m["phase.p_theta_curve.useful_ratio"] = (useful / calls if calls else 0.0, "ratio")

    m["action.final_state_density.s"] = (get("action.final_state_density", "s"), "s")
    m["action.zeno_frequencies.s"] = (get("action.zeno_frequencies", "s"), "s")
    m["action.zeno_frequencies.calls"] = (get("action.zeno_frequencies", "calls"), "count")
    m["action.transition_time_sub_zeno.s"] = (get("action.transition_time_sub_zeno", "s"), "s")
    m["action.action_quadrature.s"] = (get("action.action_quadrature", "s"), "s")

    m["trace.uncovered_s"] = (get(ROOT, "self_s"), "s")
    return m
