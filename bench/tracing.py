"""Span tracer for the benchmark's traced run.

The tracer rebinds the public functions named in ``LAYER_FUNCTIONS`` in
every loaded ``turbghost`` module that holds them (the defining module,
the consumer modules that imported the name, and the package
re-exports), so calls between layers are seen without changing the
program.  Each call records a span (id, name, start, end, parent id, run
id) in memory; ``write_csv`` writes them out when the run ends.
``uninstall`` restores every original binding.

The untraced run never constructs a ``Tracer``; it uses ``NullTracer``,
whose ``span`` does nothing, and installs no wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import statistics
import sys
import threading
import time

# Public functions whose calls are timed, as "<module>.<function>" under
# the turbghost package.
LAYER_FUNCTIONS = (
    "campaign.run_campaign",
    "scan.simulate_scan",
    "scan.expected_scan_rates",
    "engine.synthesize_image",
    "engine.monte_carlo_g2",
    "engine.quadrature_g2",
    "engine.fit_kernel_sigma",
    "engine.klyshko_amplitude_quadrature",
    "fitting.fit_scan",
    "fitting.initial_guess",
    "fitting.fit_alpha",
    "model.fringe_visibility",
    "screens.screen_rng",
    "screens.mutual_coherence",
    "screens.sample_powerlaw_screen",
    "screens.sample_tilt_screen",
    "screens.estimate_structure_function",
    "config.load_config_dict",
    "config.config_hash",
)

# quadrature_g2's default refinement tolerance, the bar its
# standard_errors are compared against when the caller passes none.
QUADRATURE_REFINE_TOL = 1e-4


class NullTracer:
    """Stand-in used by the untraced run: no wrappers, no spans."""

    active = False

    @contextlib.contextmanager
    def span(self, name):
        yield


class Tracer:
    active = True

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, run_id)
        self.run_id = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []
        # Counts taken from return values at the same boundary.
        self.fit_nfev = 0
        self.fit_converged = 0
        self.quadrature_unconverged = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.run_id))

    def _observe(self, name, args, kwargs, result):
        if name == "fitting.fit_scan":
            self.fit_nfev += int(result.n_evaluations)
            self.fit_converged += bool(result.converged)
        elif name == "engine.quadrature_g2":
            tol = kwargs.get("refine_tol", args[6] if len(args) > 6 else QUADRATURE_REFINE_TOL)
            if float(result.standard_errors.max()) >= tol:
                self.quadrature_unconverged += 1

    def _wrap(self, name, fn):
        span = self.span
        observe = self._observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with span(name):
                result = fn(*args, **kwargs)
            observe(name, args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "turbghost" or key.startswith("turbghost.")]
        for qualified in LAYER_FUNCTIONS:
            module_name, attr = qualified.split(".")
            original = getattr(importlib.import_module(f"turbghost.{module_name}"), attr)
            traced = self._wrap(qualified, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._restore.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def write_csv(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,name,start_s,end_s,parent,run_id\n")
            for sid, name, start, end, parent, run_id in self.spans:
                fh.write(f"{sid},{name},{start!r},{end!r},{'' if parent is None else parent},{run_id}\n")


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_stats(spans):
    """Per-name calls, busy seconds and self seconds over a list of spans.

    Self time is busy time minus the time of the span's direct children.
    """
    child_time = {}
    for _sid, _name, start, end, parent, _run in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    stats = {}
    for sid, name, start, end, _parent, _run in spans:
        entry = stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += (end - start) - child_time.get(sid, 0.0)
    return stats


def per_layer_metrics(tracer, traced_passes, untraced_walls, extra):
    """Per-layer metrics averaged over the traced passes.

    ``traced_passes`` is a list of (run_id, wall_s); ``extra`` holds
    metrics measured outside the spans (CLI import probes, in-process
    ``cli.main`` timings).  A function the workload never calls reports 0.
    """
    n = len(traced_passes)
    pass_ids = {run_id for run_id, _ in traced_passes}
    spans = [s for s in tracer.spans if s[5] in pass_ids]
    stats = layer_stats(spans)

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0] / n

    def busy(name):
        return stats.get(name, (0, 0.0, 0.0))[1] / n

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2] / n

    by_id = {s[0]: s for s in spans}
    coherence_in_quadrature = sum(
        1 for s in spans
        if s[1] == "screens.mutual_coherence" and s[4] in by_id
        and by_id[s[4]][1] == "engine.quadrature_g2"
    )
    fit_calls = stats.get("fitting.fit_scan", (0,))[0]
    quad_calls = stats.get("engine.quadrature_g2", (0,))[0]
    unattributed = []
    for run_id, wall in traced_passes:
        roots = [(s[2], s[3]) for s in spans if s[5] == run_id and s[4] is None]
        unattributed.append(wall - _union_length(roots))
    traced_wall = statistics.median(w for _, w in traced_passes)

    metrics = {
        "campaign.run_campaign.self_s": (self_s("campaign.run_campaign"), "s"),
        "scan.simulate_scan.calls": (calls("scan.simulate_scan"), "count"),
        "scan.simulate_scan.self_s": (self_s("scan.simulate_scan"), "s"),
        "scan.expected_scan_rates.busy_s": (busy("scan.expected_scan_rates"), "s"),
        "engine.synthesize_image.busy_s": (busy("engine.synthesize_image"), "s"),
        "fitting.fit_scan.calls": (calls("fitting.fit_scan"), "count"),
        "fitting.fit_scan.self_s": (self_s("fitting.fit_scan"), "s"),
        "fitting.initial_guess.busy_s": (busy("fitting.initial_guess"), "s"),
        "fitting.fit_scan.nfev_mean": (tracer.fit_nfev / fit_calls if fit_calls else 0.0, "count"),
        "fitting.fit_scan.converged_ratio": (tracer.fit_converged / fit_calls if fit_calls else 0.0, "ratio"),
        "fitting.fit_alpha.busy_s": (busy("fitting.fit_alpha"), "s"),
        "model.fringe_visibility.calls": (calls("model.fringe_visibility"), "count"),
        "model.fringe_visibility.busy_s": (busy("model.fringe_visibility"), "s"),
        "engine.monte_carlo_g2.calls": (calls("engine.monte_carlo_g2"), "count"),
        "engine.monte_carlo_g2.self_s": (self_s("engine.monte_carlo_g2"), "s"),
        "screens.screen_rng.calls": (calls("screens.screen_rng"), "count"),
        "screens.screen_rng.busy_s": (busy("screens.screen_rng"), "s"),
        "engine.quadrature_g2.calls": (calls("engine.quadrature_g2"), "count"),
        "engine.quadrature_g2.self_s": (self_s("engine.quadrature_g2"), "s"),
        "screens.mutual_coherence.calls": (calls("screens.mutual_coherence"), "count"),
        "engine.quadrature_g2.passes_per_call": (
            coherence_in_quadrature / quad_calls if quad_calls else 0.0, "count"),
        "engine.quadrature_g2.unconverged_ratio": (
            tracer.quadrature_unconverged / quad_calls if quad_calls else 0.0, "ratio"),
        "engine.fit_kernel_sigma.busy_s": (busy("engine.fit_kernel_sigma"), "s"),
        "screens.sample_powerlaw_screen.calls": (calls("screens.sample_powerlaw_screen"), "count"),
        "screens.sample_powerlaw_screen.busy_s": (busy("screens.sample_powerlaw_screen"), "s"),
        "screens.sample_tilt_screen.busy_s": (busy("screens.sample_tilt_screen"), "s"),
        "screens.estimate_structure_function.busy_s": (busy("screens.estimate_structure_function"), "s"),
        "engine.klyshko_amplitude_quadrature.calls": (calls("engine.klyshko_amplitude_quadrature"), "count"),
        "engine.klyshko_amplitude_quadrature.busy_s": (busy("engine.klyshko_amplitude_quadrature"), "s"),
        "config.load_config_dict.busy_s": (busy("config.load_config_dict"), "s"),
        "config.config_hash.busy_s": (busy("config.config_hash"), "s"),
        **{f"cli.main.{sub}.busy_s": (busy(f"cli.main.{sub}"), "s")
           for sub in ("analytic", "simulate", "fit", "campaign")},
        "trace.overhead_ratio": (traced_wall / statistics.median(untraced_walls), "ratio"),
        "trace.unattributed_s": (statistics.fmean(unattributed), "s"),
        "trace.traced_passes": (float(n), "count"),
        # Measured only by the cli workload's import probes (passed in ``extra``).
        "cli.import_s": (0.0, "s"),
        "cli.import.numpy_s": (0.0, "s"),
        "cli.import.scipy_optimize_s": (0.0, "s"),
        "cli.import.scipy_special_s": (0.0, "s"),
    }
    metrics.update(extra)
    return metrics
