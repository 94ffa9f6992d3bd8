"""The benchmark's workloads: inputs from a seed, one timed operation, output checks.

Each workload holds one pass of inputs, built from the seed alone.
``execute(j)`` runs operation j, times only the call into radarnet and
returns the elapsed seconds plus a record of the outputs, whose
``errors`` list holds every failed output check.  ``summary`` turns the
records of the first pass into accuracy figures, and ``run_checks``
applies the acceptance bands that need more than one operation.

radarnet functions are looked up on their module at call time, so the
tracer's rebinding of those names is seen here.
"""

from __future__ import annotations

import json
import math
import statistics
import tempfile
import time
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np

import radarnet.experiment as experiment
import radarnet.fusion as fusion
from radarnet.fusion import FusionObservation, ObservationEntry, PriorConfig
from radarnet.geometry import Pose2D
from radarnet.scene import Detection, NoiseConfig, builtin_scenario

BUILTINS = tuple(product("ABC", ("random", "straight")))

# Criterion 04: at least 95% of calibrations reach trajectory RMSE < 1 m.
CALIB_RMSE_BAND_M = 1.0
CALIB_BAND_FRACTION = 0.95
# A run fails the band only on strong evidence (one-sided binomial test).
BAND_TEST_P = 1e-3

# Criterion 07 on the on-baseline C frames: ML velocity RMSE > 5 m/s,
# Bayes < 1 m/s.  The criterion uses 500 frames; below 100 the RMSE is
# too noisy for the band.
DEGENERATE_ML_MIN_MPS = 5.0
DEGENERATE_BAYES_MAX_MPS = 1.0
DEGENERATE_MIN_FRAMES = 100

RUN_OUTPUT_FILES = (
    "scenario.json",
    "tracks/node0.csv",
    "tracks/node1_in_ref.csv",
    "tracks/track_fusion.csv",
    "calibration/result.json",
    "fusion/truth.csv",
    "fusion/measurements.csv",
    "fusion/oneshot.csv",
    "fusion/per_frame.csv",
    "report/report.json",
)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([abs(seed), int(seed < 0), stream])


def _builtin_configs(seed: int, stream: int, n: int, frames: int | None):
    """n built-in scenarios, cycling through BUILTINS, each with its own seed."""
    seeds = _rng(seed, stream).integers(0, 2**31 - 1, n)
    configs = []
    for j in range(n):
        scenario, kind = BUILTINS[j % len(BUILTINS)]
        config = builtin_scenario(scenario, kind, seed=int(seeds[j]))
        configs.append(replace(config, num_frames=frames) if frames else config)
    return configs


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def binomial_tail(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(k, n + 1))


def calibration_band_check(rmses: list[float]) -> tuple[bool, str]:
    """Criterion 04's band, tested on the run's calibrations."""
    misses = sum(r >= CALIB_RMSE_BAND_M for r in rmses)
    p_value = binomial_tail(misses, len(rmses), 1.0 - CALIB_BAND_FRACTION)
    detail = (f"{misses}/{len(rmses)} calibrations with RMSE >= {CALIB_RMSE_BAND_M} m; "
              f"P(>= that many | 95% band holds) = {p_value:.3g}")
    return p_value >= BAND_TEST_P, detail


class Workload:
    name = ""
    default_ops = 1
    # Inputs the traced run covers (each once untraced, once traced);
    # None for the whole pass.
    traced_ops = None

    def __init__(self, seed: int, ops: int | None, frames: int | None, out_dir: Path):
        self.size = ops or self.default_ops
        self.traced_size = min(self.size, self.traced_ops or self.size)

    def execute(self, j: int) -> tuple[float, dict]:
        raise NotImplementedError

    def summary(self, records: list[dict]) -> dict:
        raise NotImplementedError

    def run_checks(self, records: list[dict]) -> list[tuple[str, bool, str]]:
        return []


class Pipeline(Workload):
    """Full ``run_experiment`` (mode both, outputs written) over the six built-ins."""

    name = "pipeline"
    default_ops = 12
    # One of each built-in, so a traced run stays well inside its time limit.
    traced_ops = len(BUILTINS)

    def __init__(self, seed, ops, frames, out_dir):
        super().__init__(seed, ops, frames, out_dir)
        self.configs = _builtin_configs(seed, 1, self.size, frames)
        self.tmp_root = out_dir / "tmp"
        self.tmp_root.mkdir(parents=True, exist_ok=True)

    def execute(self, j):
        with tempfile.TemporaryDirectory(dir=self.tmp_root) as out:
            options = experiment.PipelineOptions(out_dir=out)
            start = time.perf_counter()
            report = experiment.run_experiment(self.configs[j], options)
            elapsed = time.perf_counter() - start
            return elapsed, self._inspect(report, Path(report.out_dir), options)

    def _inspect(self, report, run_dir: Path, options) -> dict:
        errors = []
        cal = report.calibration
        numbers = list(cal.values()) + list(report.nonconverged_fraction.values())
        numbers += [v for bench in report.rmse.values() for v in bench.values()]
        if not _finite(numbers):
            errors.append("report has a non-finite field")
        if not 0 < report.frames_evaluated <= report.frames_total:
            errors.append(f"frames_evaluated {report.frames_evaluated} out of range")
        if cal["rmse"] != math.sqrt(cal["j_min"] / cal["K"]):
            errors.append("calibration rmse != sqrt(j_min/K) (criterion 03)")
        missing = [f for f in RUN_OUTPUT_FILES if not (run_dir / f).is_file()]
        if missing:
            errors.append(f"missing outputs: {', '.join(missing)}")
            return {"errors": errors}
        written = json.loads((run_dir / "report" / "report.json").read_text())
        if written != json.loads(json.dumps(report.to_dict())):
            errors.append("report.json differs from the returned report")

        # The report must be recomputable from the per-frame CSV.
        header, *rows = [line.split(",") for line in
                         (run_dir / "fusion" / "per_frame.csv").read_text().split()]
        col = {name: i for i, name in enumerate(header)}
        pos_sq = [
            (float(r[col["oneshot_bayes_x"]]) - float(r[col["truth_x"]])) ** 2
            + (float(r[col["oneshot_bayes_y"]]) - float(r[col["truth_y"]])) ** 2
            for r in rows if r[col["in_rmse_set"]] == "1"
        ]
        recomputed = math.sqrt(np.mean(pos_sq)) if pos_sq else math.nan
        if not math.isclose(recomputed, report.position_rmse_bayes, rel_tol=1e-12):
            errors.append("Bayes position RMSE not recomputable from per_frame.csv")

        header, *rows = [line.split(",") for line in
                         (run_dir / "fusion" / "oneshot.csv").read_text().split()]
        col = {name: i for i, name in enumerate(header)}
        nonconverged = {mode: 0 for mode in options.modes}
        solves = {mode: 0 for mode in options.modes}
        for r in rows:
            solves[r[col["mode"]]] += 1
            nonconverged[r[col["mode"]]] += r[col["converged"]] == "0"
        for mode in options.modes:
            if solves[mode] == 0 or nonconverged[mode] / solves[mode] != report.nonconverged_fraction[mode]:
                errors.append(f"oneshot.csv {mode} convergence disagrees with the report")

        cal_rmse = cal["rmse"]
        return {
            "errors": errors,
            "fingerprint": (report.position_rmse_bayes, report.velocity_rmse_bayes, cal_rmse,
                            sum(nonconverged.values())),
            "frames": report.frames_evaluated,
            "pos_rmse_bayes": report.position_rmse_bayes,
            "vel_rmse_bayes": report.velocity_rmse_bayes,
            "calib_rmse": cal_rmse,
            "nonconverged": sum(nonconverged.values()),
            "solves": sum(solves.values()),
            "exit4": max(report.nonconverged_fraction.values()) > options.max_nonconverged_fraction,
            "output_bytes": sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file()),
        }

    def summary(self, records):
        frames = sum(r["frames"] for r in records)
        return {
            "nonconverged_frac": sum(r["nonconverged"] for r in records) / sum(r["solves"] for r in records),
            "pos_rmse_bayes_m": math.sqrt(sum(r["frames"] * r["pos_rmse_bayes"] ** 2 for r in records) / frames),
            "vel_rmse_bayes_mps": math.sqrt(sum(r["frames"] * r["vel_rmse_bayes"] ** 2 for r in records) / frames),
            "calib_rmse_m": statistics.median(r["calib_rmse"] for r in records),
            "exit4_ops": sum(r["exit4"] for r in records),
            "output_bytes": sum(r["output_bytes"] for r in records),
        }

    def run_checks(self, records):
        ok, detail = calibration_band_check([r["calib_rmse"] for r in records])
        return [("criterion_04_calibration_band", ok, detail)]


class Calibration(Workload):
    """``experiment.calibrate_scenario`` over the six built-ins: scene, tracking, calibration."""

    name = "calibration"
    default_ops = 24

    def __init__(self, seed, ops, frames, out_dir):
        super().__init__(seed, ops, frames, out_dir)
        self.configs = _builtin_configs(seed, 2, self.size, frames)
        # The options criterion 04 calibrates with.
        self.options = experiment.PipelineOptions(write_outputs=False)

    def execute(self, j):
        config = self.configs[j]
        start = time.perf_counter()
        results = experiment.calibrate_scenario(config, self.options)
        elapsed = time.perf_counter() - start
        errors = []
        if len(results) != len(config.nodes) - 1:
            errors.append(f"{len(results)} calibration results for {len(config.nodes)} nodes")
            return elapsed, {"errors": errors}
        res = results[0]
        if not _finite([res.p21.real, res.p21.imag, res.phi21, res.j_min, res.rmse]):
            errors.append("non-finite calibration result")
        if res.num_frames < 2:
            errors.append(f"calibration used K={res.num_frames} pairs")
        if res.rmse != math.sqrt(res.j_min / res.num_frames):
            errors.append("rmse != sqrt(j_min/K) (criterion 03)")
        node = config.nodes[1]
        return elapsed, {
            "errors": errors,
            "fingerprint": (res.p21.real, res.p21.imag, res.phi21, res.j_min, res.rmse, res.num_frames),
            "calib_rmse": res.rmse,
            "pos_error": abs(res.p21 - complex(node.x, node.y)),
            "K": res.num_frames,
        }

    def summary(self, records):
        return {
            "calib_rmse_m": statistics.median(r["calib_rmse"] for r in records),
            "calib_pos_error_m": statistics.median(r["pos_error"] for r in records),
            "calib_under_1m_frac": sum(r["calib_rmse"] < CALIB_RMSE_BAND_M for r in records) / len(records),
            "pairs_K_mean": statistics.mean(r["K"] for r in records),
        }

    def run_checks(self, records):
        ok, detail = calibration_band_check([r["calib_rmse"] for r in records])
        return [("criterion_04_calibration_band", ok, detail)]


# -- oneshot inputs -------------------------------------------------------
#
# Generated here from closed-form range, pi*sin(theta) and Doppler
# formulas, so a change to radarnet's measurement model cannot change
# them.  Node poses are (x, y, phi) of the built-in geometries; noise is
# the table resolution of each modality.

SIGMA_R = 0.035
SIGMA_OMEGA = math.pi / 4.0
SIGMA_V = 0.1807
NOISE = NoiseConfig(sigma_r=SIGMA_R, sigma_omega=SIGMA_OMEGA, sigma_v=SIGMA_V)
FOV_HALF_ANGLE = math.radians(60.0)
NODES = {
    "A": ((0.0, 0.0, 0.0), (3.5, math.sqrt(49.0 - 3.5**2), math.radians(150.0))),
    "B": ((0.0, 0.0, 0.0), (7.0 / math.sqrt(2.0), 7.0 / math.sqrt(2.0), math.pi / 2.0)),
    "C": ((0.0, 0.0, 0.0), (0.0, 7.0, math.pi)),
}
# Criterion 07's velocity prior for on-baseline C targets; the default
# prior elsewhere.
DEGENERATE_PRIOR = PriorConfig(sigma_vx=1.5, sigma_vy=1.5)
DEFAULT_PRIOR = PriorConfig()


def _line_of_sight(node, x, y):
    px, py, phi = node
    dx, dy = x - px, y - py
    along = dx * math.cos(phi) + dy * math.sin(phi)
    across = -dx * math.sin(phi) + dy * math.cos(phi)
    return dx, dy, along, across


def _detect(node, state, rng) -> Detection:
    x, y, vx, vy = state
    dx, dy, along, _ = _line_of_sight(node, x, y)
    r = math.hypot(dx, dy)
    draws = rng.standard_normal(3)
    omega = math.pi * along / r + SIGMA_OMEGA * draws[1]
    return Detection(
        r + SIGMA_R * draws[0],
        min(math.pi, max(-math.pi, omega)),
        (vx * dx + vy * dy) / r + SIGMA_V * draws[2],
    )


def _common_fov_state(rng, nodes):
    """Uniform target inside both nodes' field of view (the acceptance tests' region)."""
    while True:
        x, y = rng.uniform(0.0, 4.0), rng.uniform(1.5, 5.5)
        if all(abs(math.atan2(*_line_of_sight(n, x, y)[2:])) < FOV_HALF_ANGLE - 0.1 for n in nodes):
            vx, vy = rng.uniform(-1.75, 1.75, 2)
            return (x, y, float(vx), float(vy))


class Oneshot(Workload):
    """Single-frame ML and Bayes ``solve``; one frame in ten adds the grid posterior."""

    name = "oneshot"
    default_ops = 800

    def __init__(self, seed, ops, frames, out_dir):
        super().__init__(seed, ops, frames, out_dir)
        rng = _rng(seed, 3)
        self.inputs = []
        for k in range(self.size):
            degenerate = k % 2 == 0
            if degenerate:
                # Criterion 07: on the C baseline, walking along it at 1 m/s.
                nodes = NODES["C"]
                state = (0.0, float(rng.uniform(2.0, 5.0)), 0.0, 1.0 if rng.random() < 0.5 else -1.0)
            else:
                nodes = NODES["A" if rng.random() < 0.5 else "B"]
                state = _common_fov_state(rng, nodes)
            obs = FusionObservation(tuple(
                ObservationEntry(Pose2D(*node), _detect(node, state, rng)) for node in nodes
            ))
            prior = DEGENERATE_PRIOR if degenerate else DEFAULT_PRIOR
            # One frame in ten, alternating degenerate and well-conditioned.
            grid = k % 20 in (0, 11)
            self.inputs.append((obs, state, prior, degenerate, grid))

    def execute(self, j):
        obs, state, prior, degenerate, grid = self.inputs[j]
        start = time.perf_counter()
        ml = fusion.solve(obs, NOISE, mode="ml")
        bayes = fusion.solve(obs, NOISE, mode="bayes", prior=prior)
        cov = fusion.posterior_covariance_grid(obs, NOISE, prior, bayes) if grid else None
        elapsed = time.perf_counter() - start

        errors = []
        if not _finite([ml.objective_value, bayes.objective_value]):
            errors.append("non-finite objective value")
        if cov is not None:
            scale = float(np.max(np.abs(cov))) if np.all(np.isfinite(cov)) else math.nan
            if not math.isfinite(scale) or scale == 0.0:
                errors.append("grid covariance is non-finite or zero")
            elif (np.max(np.abs(cov - cov.T)) > 1e-12 * scale or np.any(np.diag(cov) <= 0.0)
                  or np.linalg.eigvalsh(cov)[0] < -1e-9 * scale):
                errors.append("grid covariance is not symmetric positive semidefinite")
        x, y, vx, vy = state
        b, m = bayes.state, ml.state
        return elapsed, {
            "errors": errors,
            "fingerprint": (m.x, m.y, m.vx, m.vy, b.x, b.y, b.vx, b.vy, ml.iterations,
                            bayes.iterations, ml.converged, bayes.converged,
                            None if cov is None else tuple(np.diag(cov))),
            "degenerate": degenerate,
            "pos_sq": (b.x - x) ** 2 + (b.y - y) ** 2,
            "vel_sq": (b.vx - vx) ** 2 + (b.vy - vy) ** 2,
            "ml_vel_sq": (m.vx - vx) ** 2 + (m.vy - vy) ** 2,
            "iterations": ml.iterations + bayes.iterations,
            "nonconverged": (not ml.converged) + (not bayes.converged),
            "solves": 2,
        }

    def summary(self, records):
        degenerate = [r for r in records if r["degenerate"]]
        return {
            "nonconverged_frac": sum(r["nonconverged"] for r in records) / sum(r["solves"] for r in records),
            "pos_rmse_bayes_m": math.sqrt(statistics.mean(r["pos_sq"] for r in records)),
            "vel_rmse_bayes_mps": math.sqrt(statistics.mean(r["vel_sq"] for r in records)),
            "lm_iterations_total": sum(r["iterations"] for r in records),
            "degenerate_frames": len(degenerate),
            "degenerate_vel_rmse_ml_mps": math.sqrt(statistics.mean(r["ml_vel_sq"] for r in degenerate)) if degenerate else 0.0,
            "degenerate_vel_rmse_bayes_mps": math.sqrt(statistics.mean(r["vel_sq"] for r in degenerate)) if degenerate else 0.0,
        }

    def run_checks(self, records):
        s = self.summary(records)
        if s["degenerate_frames"] < DEGENERATE_MIN_FRAMES:
            return []
        ok = (s["degenerate_vel_rmse_ml_mps"] > DEGENERATE_ML_MIN_MPS
              and s["degenerate_vel_rmse_bayes_mps"] < DEGENERATE_BAYES_MAX_MPS)
        detail = (f"on-baseline C velocity RMSE over {s['degenerate_frames']} frames: "
                  f"ML {s['degenerate_vel_rmse_ml_mps']:.2f} m/s (> {DEGENERATE_ML_MIN_MPS}), "
                  f"Bayes {s['degenerate_vel_rmse_bayes_mps']:.3f} m/s (< {DEGENERATE_BAYES_MAX_MPS})")
        return [("criterion_07_degeneracy", ok, detail)]


WORKLOADS = {w.name: w for w in (Pipeline, Calibration, Oneshot)}
