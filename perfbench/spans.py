"""In-memory span tracer for radarnet's public functions.

Tracing rebinds the module globals the pipeline calls through (for
example ``radarnet.experiment.solve``) to wrappers that record one span
per call: name, start, end, parent span and operation id.  Spans stay
in memory until the run ends.  Nothing inside ``src/`` changes; a target
whose name no longer exists is reported as missing and left untraced.
"""

from __future__ import annotations

import gzip
import importlib
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span name).  Each radarnet module imports the
# functions it calls by name, so every call site is reached through one
# of these globals.
TARGETS = (
    ("radarnet.experiment", "run_experiment", "experiment.run_experiment"),
    ("radarnet.experiment", "calibrate_scenario", "experiment.calibrate_scenario"),
    ("radarnet.experiment", "generate_trajectory", "scene.generate_trajectory"),
    ("radarnet.experiment", "synthesize_measurements", "scene.synthesize_measurements"),
    ("radarnet.experiment", "run_tracker", "tracking.run_tracker"),
    ("radarnet.experiment", "transform_track", "tracking.transform_track"),
    ("radarnet.experiment", "track_level_fusion", "tracking.track_level_fusion"),
    ("radarnet.experiment", "calibrate_pair", "calibration.calibrate_pair"),
    ("radarnet.experiment", "solve", "fusion.solve"),
    ("radarnet.fusion", "solve", "fusion.solve"),
    ("radarnet.fusion", "posterior_covariance_grid", "fusion.posterior_covariance_grid"),
    ("radarnet.tracking", "ekf_predict", "tracking.ekf_predict"),
    ("radarnet.tracking", "ekf_update", "tracking.ekf_update"),
    ("radarnet.tracking", "measure", "geometry.measure"),
    ("radarnet.tracking", "measurement_jacobian", "geometry.measurement_jacobian"),
    ("radarnet.scene", "measure", "geometry.measure"),
)

LAYERS = ("fusion", "tracking", "geometry", "scene", "calibration", "experiment")

# Iteration cap of the LM solver; read from the program when it still
# defines it, so a changed cap is counted against its own value.
DEFAULT_ITERATION_CAP = 100
DEFAULT_GRID_POINTS_PER_DIM = 15


def _count_solve(tracer, args, kwargs, result):
    tracer.iterations.append(result.iterations)
    tracer.counts["fusion.converged"] += bool(result.converged)


def _count_grid(tracer, args, kwargs, result):
    points = kwargs.get("points_per_dim", args[5] if len(args) > 5 else DEFAULT_GRID_POINTS_PER_DIM)
    tracer.counts["fusion.grid_points"] += points**4


def _count_tracker(tracer, args, kwargs, result):
    tracer.counts["tracking.node_frames"] += len(args[0] if args else kwargs["frames"])


def _count_detections(tracer, args, kwargs, result):
    for frame in result:
        tracer.counts["scene.node_frames"] += len(frame.per_node)
        tracer.counts["scene.detections"] += sum(det is not None for det in frame.per_node)


def _count_pair(tracer, args, kwargs, result):
    tracer.pair_k.append(result.num_frames)


HOOKS = {
    "fusion.solve": _count_solve,
    "fusion.posterior_covariance_grid": _count_grid,
    "tracking.run_tracker": _count_tracker,
    "scene.synthesize_measurements": _count_detections,
    "calibration.calibrate_pair": _count_pair,
}


class Tracer:
    """Records spans of wrapped calls; `installed()` rebinds the targets and restores them on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.records: list = []  # (name, start, end, parent index, op id)
        self.op_id = -1
        self.counts: Counter = Counter()
        self.iterations: list[int] = []
        self.pair_k: list[int] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn, name, hook):
        records = self.records
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(records)
            records.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records[index] = (name, start, end, parent, self.op_id)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        self.missing = []
        for module_name, attr, name in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, HOOKS.get(name)))
            self._saved.append((module, attr, fn))
        try:
            yield self
        finally:
            while self._saved:
                module, attr, fn = self._saved.pop()
                setattr(module, attr, fn)

    def span_table(self):
        """Per span name: call count, inclusive durations, self time."""
        child_time = [0.0] * len(self.records)
        for name, start, end, parent, _ in self.records:
            if parent >= 0:
                child_time[parent] += end - start
        table = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": []})
        for index, (name, start, end, _, _) in enumerate(self.records):
            row = table[name]
            row["calls"] += 1
            row["durations"].append(end - start)
            row["self_s"] += (end - start) - child_time[index]
        return table

    def write(self, path) -> None:
        """Spans as gzipped CSV: name,start_s,end_s,parent,op (start relative to the first span)."""
        origin = self.records[0][1] if self.records else 0.0
        with gzip.open(path, "wt") as out:
            out.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.records:
                out.write(f"{name},{start - origin:.9f},{end - origin:.9f},{parent},{op}\n")


def tail(values):
    """(value, percentile, samples beyond) at the highest percentile with >= 10 samples beyond it.

    Below 21 samples no percentile at or above the median has ten
    samples beyond it; the upper median is returned instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    index = max(n - 11, n // 2)
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def _percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q / 100.0 * len(ordered)) - 1))]


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float, overhead: float,
                  iteration_cap: int):
    """Per-layer figures of one traced pass, as {name: (value, unit)}.

    `untraced_s` and `traced_s` are the wall times of the two passes;
    `overhead` is the traced pass over the untraced one, minus one.
    """
    table = tracer.span_table()

    def calls(name):
        return table[name]["calls"] if name in table else 0

    def self_s(name):
        return table[name]["self_s"] if name in table else 0.0

    solve_us = [d * 1e6 for d in table["fusion.solve"]["durations"]] if "fusion.solve" in table else []
    iterations = tracer.iterations
    solves = len(iterations)
    node_frames = tracer.counts["tracking.node_frames"]
    predicts = calls("tracking.ekf_predict")
    tracker_total = sum(table["tracking.run_tracker"]["durations"]) if "tracking.run_tracker" in table else 0.0
    share = defaultdict(float)
    for name, row in table.items():
        share[name.split(".", 1)[0]] += row["self_s"]

    m = {
        "fusion.solve.calls": (calls("fusion.solve"), "count"),
        "fusion.solve.self_s": (self_s("fusion.solve"), "s"),
        "fusion.solve.us_p50": (statistics.median(solve_us) if solve_us else 0.0, "us"),
        "fusion.solve.us_tail": (tail(solve_us)[0], "us"),
        "fusion.lm_iterations.total": (sum(iterations), "count"),
        "fusion.lm_iterations.p50": (_percentile(iterations, 50), "count"),
        "fusion.lm_iterations.p99": (_percentile(iterations, 99), "count"),
        "fusion.lm_iterations.max": (max(iterations, default=0), "count"),
        "fusion.iteration_cap_hits": (sum(i >= iteration_cap for i in iterations), "count"),
        "fusion.converged_ratio": (_ratio(tracer.counts["fusion.converged"], solves), "ratio"),
        "fusion.posterior_covariance_grid.calls": (calls("fusion.posterior_covariance_grid"), "count"),
        "fusion.posterior_covariance_grid.self_s": (self_s("fusion.posterior_covariance_grid"), "s"),
        "fusion.grid_points": (tracer.counts["fusion.grid_points"], "count"),
        "tracking.run_tracker.calls": (calls("tracking.run_tracker"), "count"),
        "tracking.run_tracker.self_s": (self_s("tracking.run_tracker"), "s"),
        "tracking.node_frames": (node_frames, "count"),
        "tracking.us_per_node_frame": (_ratio(tracker_total * 1e6, node_frames), "us"),
        "tracking.ekf_predict.calls": (predicts, "count"),
        "tracking.ekf_predict.self_s": (self_s("tracking.ekf_predict"), "s"),
        "tracking.ekf_update.calls": (calls("tracking.ekf_update"), "count"),
        "tracking.ekf_update.self_s": (self_s("tracking.ekf_update"), "s"),
        "tracking.update_ratio": (_ratio(calls("tracking.ekf_update"), predicts), "ratio"),
        "tracking.transform_track.self_s": (self_s("tracking.transform_track"), "s"),
        "tracking.track_level_fusion.self_s": (self_s("tracking.track_level_fusion"), "s"),
        "geometry.measure.calls": (calls("geometry.measure"), "count"),
        "geometry.measure.self_s": (self_s("geometry.measure"), "s"),
        "geometry.measurement_jacobian.calls": (calls("geometry.measurement_jacobian"), "count"),
        "geometry.measurement_jacobian.self_s": (self_s("geometry.measurement_jacobian"), "s"),
        "scene.generate_trajectory.calls": (calls("scene.generate_trajectory"), "count"),
        "scene.generate_trajectory.self_s": (self_s("scene.generate_trajectory"), "s"),
        "scene.synthesize_measurements.calls": (calls("scene.synthesize_measurements"), "count"),
        "scene.synthesize_measurements.self_s": (self_s("scene.synthesize_measurements"), "s"),
        "scene.detection_ratio": (
            _ratio(tracer.counts["scene.detections"], tracer.counts["scene.node_frames"]), "ratio"),
        "calibration.calibrate_pair.calls": (calls("calibration.calibrate_pair"), "count"),
        "calibration.calibrate_pair.self_s": (self_s("calibration.calibrate_pair"), "s"),
        "calibration.pairs_K_mean": (_ratio(sum(tracer.pair_k), len(tracer.pair_k)), "count"),
        "experiment.run_experiment.self_s": (self_s("experiment.run_experiment"), "s"),
        "experiment.calibrate_scenario.self_s": (self_s("experiment.calibrate_scenario"), "s"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.spans": (len(tracer.records), "count"),
        "trace.missing_targets": (len(tracer.missing), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = (_ratio(share[layer], traced_s), "ratio")
    return m


def _ratio(numerator, denominator):
    """numerator/denominator, or 0 when the base is 0 (the base is reported beside it)."""
    return numerator / denominator if denominator else 0.0
