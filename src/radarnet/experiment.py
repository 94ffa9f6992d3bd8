"""End-to-end experiment pipeline: simulate, track, calibrate, fuse, report.

The runner follows the cross-trajectory protocol: the network is
self-calibrated on one trajectory kind and evaluated (per-frame
one-shot fusion against truth and against track-level fusion) on the
other.  Every stage is deterministic in the scenario seed, and reports
are recomputable from the emitted per-frame CSV.

Output layout, fixed so tools and tests can rely on it:

    <out>/<scenario>/<seed>/
        scenario.json
        tracks/node0.csv, node<i>_in_ref.csv, track_fusion.csv
        calibration/result.json, result_node<i>.json (node i >= 2)
        fusion/oneshot.csv, fusion/per_frame.csv
        report/report.json
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .calibration import (
    CalibrationResult,
    calibrate_pair,
    result_path,
    result_to_dict,
    save_result,
)
from .fusion import FusionEstimates, PriorConfig, solve_frames
# Not called here since fusion runs batched; kept as experiment.solve,
# one of the names perfbench/spans.py traces.
from .fusion import solve  # noqa: F401
from .geometry import Pose2D, angle_difference
from .scene import (
    ScenarioConfig,
    Simulation,
    counterpart_trajectory,
    export_measurements_csv,
    export_truth_csv,
    load_scenario,
    save_scenario,
    scenario_to_dict,
    simulate,
    write_csv,
)
# Not called here since the pipeline simulates through `simulate`; kept
# as experiment.generate_trajectory and experiment.synthesize_measurements,
# names perfbench/spans.py traces.
from .scene import generate_trajectory, synthesize_measurements  # noqa: F401
from .tracking import (
    EkfConfig,
    Track,
    export_track_csv,
    run_tracker,
    track_csv_states,
    track_level_fusion,
    transform_track,
)

# Seed offset separating the calibration-stage simulation from the
# evaluation stage of the same scenario seed.
CALIBRATION_SEED_OFFSET = 7919

_MODES = ("ml", "bayes", "both")
_BENCHMARKS = ("truth", "trackfusion")


class PipelineError(RuntimeError):
    """A pipeline stage is missing the inputs it needs."""


@dataclass
class PipelineOptions:
    """Knobs for the experiment runner (all declared defaults)."""

    mode: str = "both"
    benchmark: str = "truth"
    out_dir: Path | str = "out"
    write_outputs: bool = True
    cross_trajectory: bool = True
    burn_in_frames: int = 10
    ekf: EkfConfig = field(default_factory=lambda: EkfConfig(process_noise_accel=0.4))
    prior: PriorConfig = field(default_factory=PriorConfig)
    pair_skip: int | None = None
    pair_gap: int = 5
    pair_settle: int = 10
    max_nonconverged_fraction: float = 0.05

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.benchmark not in _BENCHMARKS:
            raise ValueError(f"benchmark must be one of {_BENCHMARKS}, got {self.benchmark!r}")

    @property
    def modes(self) -> tuple[str, ...]:
        return ("ml", "bayes") if self.mode == "both" else (self.mode,)


@dataclass
class ExperimentReport:
    scenario: str
    seed: int
    benchmark: str
    calibration: dict
    rmse: dict
    frames_evaluated: int
    frames_total: int
    nonconverged_fraction: dict
    per_frame_output_path: str
    out_dir: str

    @property
    def position_rmse_bayes(self) -> float | None:
        return self._headline("position_bayes")

    @property
    def velocity_rmse_bayes(self) -> float | None:
        return self._headline("velocity_bayes")

    @property
    def position_rmse_ml(self) -> float | None:
        return self._headline("position_ml")

    @property
    def velocity_rmse_ml(self) -> float | None:
        return self._headline("velocity_ml")

    def _headline(self, key: str) -> float | None:
        return self.rmse[self.benchmark].get(key)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "benchmark": self.benchmark,
            "calibration": self.calibration,
            "rmse": self.rmse,
            "position_rmse_bayes": self.position_rmse_bayes,
            "velocity_rmse_bayes": self.velocity_rmse_bayes,
            "position_rmse_ml": self.position_rmse_ml,
            "velocity_rmse_ml": self.velocity_rmse_ml,
            "frames_evaluated": self.frames_evaluated,
            "frames_total": self.frames_total,
            "nonconverged_fraction": self.nonconverged_fraction,
            "per_frame_output_path": self.per_frame_output_path,
            "out_dir": self.out_dir,
        }


def paired_positions(
    track1: Track, track2: Track, skip: int = 50, gap: int = 5, settle: int = 10
) -> tuple[np.ndarray, np.ndarray]:
    """Select frame-synchronized position pairs fit for calibration.

    Only frames where BOTH tracks were measurement-updated count
    (coasted predictions are not position estimates); the first `skip`
    pairs are dropped (filter convergence transient), and `settle`
    pairs are dropped after any detection gap longer than `gap` frames
    (re-acquisition transient).
    """
    frames, rows1, rows2 = np.intersect1d(
        track1.frame_index, track2.frame_index, assume_unique=True, return_indices=True
    )
    both = track1.updated[rows1] & track2.updated[rows2]
    frames, rows1, rows2 = frames[both], rows1[both], rows2[both]
    # A pair after a gap longer than `gap` frames starts a cooldown of
    # `settle` pairs (itself included); a later gap restarts it.
    steps = np.arange(len(frames))
    starts = np.zeros(len(frames), dtype=bool)
    starts[1:] = np.diff(frames) > gap
    last_start = np.maximum.accumulate(np.where(starts, steps, -len(frames) - abs(settle)))
    good = np.flatnonzero(steps - last_start >= settle)[skip:]
    if len(good) < 2:
        raise PipelineError("fewer than 2 usable track pairs for calibration")
    return track1.positions()[rows1[good]], track2.positions()[rows2[good]]


def simulate_scenario(config: ScenarioConfig):
    """Ground-truth trajectory and per-frame detections of a scenario.

    The TargetState and MeasurementFrame list views of `scene.simulate`.
    """
    sim = simulate(config)
    return sim.target_states(), sim.measurement_frames()


def _run_trackers(config: ScenarioConfig, sim: Simulation, options: PipelineOptions) -> list[Track]:
    return [
        run_tracker(sim, i, node, options.ekf, config.noise, config.frame_duration)
        for i, node in enumerate(config.nodes)
    ]


def calibrate_scenario(
    config: ScenarioConfig, options: PipelineOptions | None = None
) -> list[CalibrationResult]:
    """Self-calibration stage: one pairwise result per non-reference node."""
    options = options or PipelineOptions()
    calib_config = calibration_stage_config(config, options)
    sim = simulate(calib_config)
    tracks = _run_trackers(calib_config, sim, options)
    # Short sequences cannot afford the full 50-frame transient skip.
    skip = options.pair_skip
    if skip is None:
        skip = min(50, config.num_frames // 5)
    results = []
    for i in range(1, len(tracks)):
        try:
            z1, z2 = paired_positions(
                tracks[0], tracks[i], skip, options.pair_gap, options.pair_settle
            )
        except PipelineError as exc:
            raise PipelineError(
                f"{exc} of node {i} against node 0: {_update_summary(tracks, sim, options.ekf)}"
            ) from None
        results.append(calibrate_pair(z1, z2))
    return results


def _update_summary(tracks: list[Track], sim: Simulation, ekf: EkfConfig) -> str:
    """Each node's EKF-updated and detected frame counts, and the EKF tuning
    that decides how many detections update a track."""
    updated = [int(np.count_nonzero(track.updated)) for track in tracks]
    detected = np.count_nonzero(sim.seen, axis=0).tolist()
    counts = ", ".join(f"node {i} {u}/{d}" for i, (u, d) in enumerate(zip(updated, detected)))
    message = (
        f"EKF-updated/detected frames {counts}; gate_threshold={ekf.gate_threshold}, "
        f"process_noise_accel={ekf.process_noise_accel}"
    )
    if ekf.gate_threshold is not None and any(2 * u < d for u, d in zip(updated, detected)):
        message += (
            "; with a gate set, a node's track took under half its detections: a gate "
            "that starves a low-noise filter is a tuning error (raise process_noise_accel "
            "or the gate)"
        )
    return message


def calibration_stage_config(
    config: ScenarioConfig, options: PipelineOptions
) -> ScenarioConfig:
    """The calibration-stage scenario: counterpart trajectory, offset seed."""
    if options.cross_trajectory:
        trajectory = config.calibration_trajectory or counterpart_trajectory(
            config.trajectory, config.num_frames, config.frame_duration
        )
    else:
        trajectory = config.trajectory
    return replace(
        config,
        trajectory=trajectory,
        calibration_trajectory=None,
        rng_seed=config.rng_seed + CALIBRATION_SEED_OFFSET,
    )


def _estimated_poses(calibrations: list[CalibrationResult]) -> list[Pose2D]:
    poses = [Pose2D(0.0, 0.0, 0.0)]
    poses.extend(
        Pose2D(res.p21.real, res.p21.imag, res.phi21) for res in calibrations
    )
    return poses


def run_experiment(
    config: ScenarioConfig | str | Path, options: PipelineOptions | None = None
) -> ExperimentReport:
    """Full pipeline: calibrate, evaluate, fuse per frame, report RMSEs.

    RMSEs are reported against ground truth and against the track-level
    fusion benchmark over the identical frame set: frames past the
    burn-in where every node detected the target.
    """
    if not isinstance(config, ScenarioConfig):
        config = load_scenario(config)
    options = options or PipelineOptions()

    calibrations = calibrate_scenario(config, options)
    node2_true = config.nodes[1]
    cal = calibrations[0]
    calibration_summary = dict(result_to_dict(cal))
    calibration_summary["pos_error_m"] = abs(cal.p21 - complex(node2_true.x, node2_true.y))
    calibration_summary["angle_error_deg"] = abs(
        math.degrees(angle_difference(cal.phi21, node2_true.phi))
    )

    sim = simulate(config)
    tracks = _run_trackers(config, sim, options)
    transformed = [tracks[0]]
    transformed.extend(
        transform_track(tracks[i], calibrations[i - 1].p21, calibrations[i - 1].phi21)
        for i in range(1, len(tracks))
    )
    fused = transformed[0]
    for other in transformed[1:]:
        fused = track_level_fusion(fused, other)
    # The fused track holds exactly the frames every node's track holds.
    fused_rows = np.flatnonzero(sim.seen.all(axis=1)[fused.frame_index])
    eval_frames = fused.frame_index[fused_rows].tolist()
    if not eval_frames:
        raise PipelineError("no frames with detections from every node")
    # solve_frames' frame array: every frame's estimated node poses and detections.
    detections = sim.detections[eval_frames]
    poses = np.array([(pose.x, pose.y, pose.phi) for pose in _estimated_poses(calibrations)])
    frames = np.concatenate((np.broadcast_to(poses, detections.shape), detections), axis=-1)
    estimates = {
        mode: solve_frames(
            frames,
            config.noise,
            mode=mode,
            prior=options.prior if mode == "bayes" else None,
        )
        for mode in options.modes
    }

    in_rmse = np.array(eval_frames) >= options.burn_in_frames
    rmse_frames = [k for k in eval_frames if k >= options.burn_in_frames]
    references = {
        "truth": sim.truth[rmse_frames],
        "track_fusion": fused.states[fused_rows[in_rmse]],
    }
    rmse = {"truth": {}, "track_fusion": {}}
    for mode in options.modes:
        states = estimates[mode].states[in_rmse]
        for bench_key, reference in references.items():
            # np.float_power squares with the C library's pow, as Python's
            # `**` does; numpy's `**` multiplies, which can round differently.
            sq = np.float_power(states - reference, 2)
            rmse[bench_key][f"position_{mode}"] = math.sqrt(np.mean(sq[:, 0] + sq[:, 1]))
            rmse[bench_key][f"velocity_{mode}"] = math.sqrt(np.mean(sq[:, 2] + sq[:, 3]))

    nonconverged = {mode: np.mean(~estimates[mode].converged) for mode in options.modes}

    benchmark_key = "truth" if options.benchmark == "truth" else "track_fusion"
    run_dir = Path(options.out_dir) / config.name / str(config.rng_seed)
    per_frame_path = run_dir / "fusion" / "per_frame.csv"
    report = ExperimentReport(
        scenario=config.name,
        seed=config.rng_seed,
        benchmark=benchmark_key,
        calibration=calibration_summary,
        rmse=rmse,
        frames_evaluated=len(rmse_frames),
        frames_total=config.num_frames,
        nonconverged_fraction={k: float(v) for k, v in nonconverged.items()},
        per_frame_output_path=str(per_frame_path),
        out_dir=str(run_dir),
    )

    if options.write_outputs:
        _write_run_outputs(
            run_dir, config, options, sim, transformed, fused,
            estimates, eval_frames, rmse_frames, calibrations, report,
        )
    return report


def _write_run_outputs(
    run_dir: Path,
    config: ScenarioConfig,
    options: PipelineOptions,
    sim: Simulation,
    transformed: list[Track],
    fused: Track,
    estimates: dict[str, FusionEstimates],
    eval_frames: list[int],
    rmse_frames: list[int],
    calibrations: list[CalibrationResult],
    report: ExperimentReport,
) -> None:
    for sub in ("tracks", "calibration", "fusion", "report"):
        (run_dir / sub).mkdir(parents=True, exist_ok=True)
    save_scenario(config, run_dir / "scenario.json")
    # Truth, track and one-shot floats are formatted once and written
    # twice: to their own file and to per_frame.csv.
    truth_cells = [list(map(str, row)) for row in sim.truth.tolist()]
    export_truth_csv(truth_cells, run_dir / "fusion" / "truth.csv")
    export_measurements_csv(sim, run_dir / "fusion" / "measurements.csv")
    track_paths = [run_dir / "tracks" / "node0.csv"]
    track_paths += [run_dir / "tracks" / f"node{i}_in_ref.csv" for i in range(1, len(transformed))]
    track_paths.append(run_dir / "tracks" / "track_fusion.csv")
    for track, path in zip([*transformed, fused], track_paths):
        export_track_csv(track, path)
    track_cells = [track_csv_states(path) for path in track_paths]
    for node, result in enumerate(calibrations, start=1):
        save_result(result, result_path(run_dir / "calibration", node))

    upper = np.triu_indices(4)  # c11, c12, ..., c44
    oneshot_rows = []
    oneshot_cells = {}  # per mode, per evaluated frame: x, y, vx, vy, converged, cond
    for mode in options.modes:
        est = estimates[mode]
        cells = oneshot_cells[mode] = [
            [*map(str, state), int(converged), str(cond)]
            for state, converged, cond in zip(
                est.states.tolist(), est.converged.tolist(), est.conditioning.tolist()
            )
        ]
        covariances = est.covariances[:, upper[0], upper[1]].tolist()
        oneshot_rows += [[k, mode, *c, *cov] for k, c, cov in zip(eval_frames, cells, covariances)]
    write_csv(
        run_dir / "fusion" / "oneshot.csv",
        "frame,mode,x,y,vx,vy,converged,cond,c11,c12,c13,c14,c22,c23,c24,c33,c34,c44",
        oneshot_rows,
    )

    rmse_set = set(rmse_frames)
    modes = [mode for mode in ("bayes", "ml") if mode in options.modes]
    header = ["frame"]
    prefixes = ["truth", "ekf1", *(f"ekf{i + 1}_in_1" for i in range(1, len(transformed)))]
    for prefix in prefixes + ["track_fusion"]:
        header += [f"{prefix}_{q}" for q in ("x", "y", "vx", "vy")]
    for mode in modes:
        header += [f"oneshot_{mode}_{q}" for q in ("x", "y", "vx", "vy")]
        header += [f"oneshot_{mode}_converged", f"oneshot_{mode}_cond"]
    header.append("in_rmse_set")
    rows = []
    for t, k in enumerate(eval_frames):
        row = [k, *truth_cells[k], *(cells[k] for cells in track_cells)]
        for mode in modes:
            row += oneshot_cells[mode][t]
        row.append(int(k in rmse_set))
        rows.append(row)
    write_csv(run_dir / "fusion" / "per_frame.csv", ",".join(header), rows)

    (run_dir / "report" / "report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    )


# -- Monte Carlo ---------------------------------------------------------

def _mc_trial(args) -> tuple[int, dict | None, str | None]:
    config_dict, options, trial = args
    from .scene import scenario_from_dict

    config = scenario_from_dict(config_dict)
    config = replace(config, rng_seed=config.rng_seed + trial)
    try:
        report = run_experiment(config, options)
    except Exception as exc:  # noqa: BLE001 - recorded, not silenced
        return trial, None, f"{type(exc).__name__}: {exc}"
    return trial, report.to_dict(), None


def run_monte_carlo(
    config: ScenarioConfig | str | Path,
    trials: int,
    options: PipelineOptions | None = None,
    jobs: int = 1,
) -> dict:
    """Repeat run_experiment at seeds seed+0 .. seed+trials-1 and aggregate.

    Failed trials are recorded and excluded from the aggregates.  The
    aggregate is independent of `jobs` (results are ordered by trial).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if not isinstance(config, ScenarioConfig):
        config = load_scenario(config)
    options = options or PipelineOptions()
    mc_options = replace(options, write_outputs=False)
    config_dict = scenario_to_dict(config)
    tasks = [(config_dict, mc_options, t) for t in range(trials)]
    if jobs > 1:
        # Imported here: concurrent.futures.process pulls in multiprocessing,
        # which every other use of the package would pay for at import.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = sorted(pool.map(_mc_trial, tasks), key=lambda r: r[0])
    else:
        results = [_mc_trial(task) for task in tasks]

    reports = [r[1] for r in results if r[1] is not None]
    failures = [
        {"trial": r[0], "seed": config.rng_seed + r[0], "error": r[2]}
        for r in results
        if r[1] is None
    ]

    def collect(path: tuple[str, ...]) -> list[float]:
        values = []
        for rep in reports:
            node = rep
            for key in path:
                node = node.get(key) if isinstance(node, dict) else None
                if node is None:
                    break
            if node is not None:
                values.append(float(node))
        return values

    metric_paths = {
        "calibration_rmse": ("calibration", "rmse"),
        "calibration_pos_error_m": ("calibration", "pos_error_m"),
        "calibration_angle_error_deg": ("calibration", "angle_error_deg"),
    }
    for bench in ("truth", "track_fusion"):
        for mode in options.modes:
            metric_paths[f"position_rmse_{mode}_vs_{bench}"] = ("rmse", bench, f"position_{mode}")
            metric_paths[f"velocity_rmse_{mode}_vs_{bench}"] = ("rmse", bench, f"velocity_{mode}")

    aggregates = {}
    for name, path in metric_paths.items():
        values = collect(path)
        if values:
            aggregates[name] = {
                "mean": float(np.mean(values)),
                "std": float(np.std(values)),
                "min": float(np.min(values)),
                "max": float(np.max(values)),
            }

    summary = {
        "scenario": config.name,
        "base_seed": config.rng_seed,
        "trials": trials,
        "completed": len(reports),
        "failed": len(failures),
        "failures": failures,
        "aggregates": aggregates,
        "reports": reports,
    }
    if options.write_outputs:
        mc_dir = Path(options.out_dir) / config.name / f"mc_seed{config.rng_seed}_t{trials}"
        mc_dir.mkdir(parents=True, exist_ok=True)
        (mc_dir / "aggregate.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        summary["out_path"] = str(mc_dir / "aggregate.json")
    return summary


# -- Plot data ------------------------------------------------------------

_PLOT_QUANTITIES = ("x", "y", "vx", "vy")


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [l for l in path.read_text().strip().split("\n") if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [l.split(",") for l in lines[1:]]


def emit_plot_data(
    run: ExperimentReport | str | Path, out_dir: str | Path | None = None
) -> dict[str, Path]:
    """Tidy per-quantity CSVs for plotting, from a completed run.

    `run` is an ExperimentReport or its output directory.  Writes
    plot_<q>.csv for q in (x, y, vx, vy) with columns
    frame,truth,ekf1,ekf2_in_1,track_fusion,oneshot_bayes,oneshot_ml,
    plus overlay.csv with the calibrated track overlay.
    """
    run_dir = Path(run.out_dir if isinstance(run, ExperimentReport) else run)
    out_dir = Path(out_dir) if out_dir is not None else run_dir / "plots"
    per_frame = run_dir / "fusion" / "per_frame.csv"
    if not per_frame.exists():
        raise PipelineError(f"missing per-frame fusion output: {per_frame} (run the 'run' stage)")
    header, rows = _read_csv(per_frame)
    index = {name: i for i, name in enumerate(header)}
    for mode in ("bayes", "ml"):
        if f"oneshot_{mode}_x" not in index:
            raise PipelineError(
                f"per-frame output lacks one-shot {mode} columns; rerun with mode=both"
            )
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    for q in _PLOT_QUANTITIES:
        columns = [index[name] for name in (
            "frame", f"truth_{q}", f"ekf1_{q}", f"ekf2_in_1_{q}", f"track_fusion_{q}",
            f"oneshot_bayes_{q}", f"oneshot_ml_{q}",
        )]
        path = out_dir / f"plot_{q}.csv"
        write_csv(path, "frame,truth,ekf1,ekf2_in_1,track_fusion,oneshot_bayes,oneshot_ml",
                  ([row[i] for i in columns] for row in rows))
        written[q] = path

    columns = [index[name] for name in ("frame", "ekf1_x", "ekf1_y", "ekf2_in_1_x", "ekf2_in_1_y")]
    overlay = out_dir / "overlay.csv"
    write_csv(overlay, "frame,ekf1_x,ekf1_y,ekf2_in_1_x,ekf2_in_1_y",
              ([row[i] for i in columns] for row in rows))
    written["overlay"] = overlay
    return written
