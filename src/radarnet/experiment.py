"""End-to-end experiment pipeline: simulate, track, calibrate, fuse, report.

The runner follows the cross-trajectory protocol: the network is
self-calibrated on one trajectory kind and evaluated (per-frame
one-shot fusion against truth and against track-level fusion) on the
other.  Every stage is deterministic in the scenario seed, and reports
are recomputable from the emitted per-frame CSV.

Output layout, fixed so tools and tests can rely on it:

    <out>/<scenario>/<trajectory kind>/<seed>/
        scenario.json
        tracks/node0.csv, node<i>_in_ref.csv, track_fusion.csv
        calibration/result.json, result_node<i>.json (node i >= 2)
        fusion/oneshot.csv, fusion/per_frame.csv
        report/report.json
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .calibration import (
    CalibrationResult,
    calibrate_pair,
    result_path,
    result_to_dict,
    save_result,
)
from .fusion import FusionEstimates, PriorConfig, frame_table, solve_frames
# Not called here since fusion runs batched; kept as experiment.solve,
# one of the names perfbench/spans.py traces.
from .fusion import solve  # noqa: F401
from .geometry import Pose2D, angle_difference
from .scene import (
    ScenarioConfig,
    Simulation,
    counterpart_trajectory,
    csv_lines,
    export_measurements_csv,
    export_truth_csv,
    float_cells,
    save_scenario,
    simulate,
    write_csv,
    write_json,
    write_lines,
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
    track_level_fusion,
    transform_track,
)

# Seed offset separating the calibration-stage simulation from the
# evaluation stage of the same scenario seed.
CALIBRATION_SEED_OFFSET = 7919
# Frames before this index are filter warm-up and stay out of the RMSEs.
BURN_IN_FRAMES = 10
# Every node's EKF tuning, and the Bayes-mode prior of the one-shot fusion.
PIPELINE_EKF = EkfConfig(process_noise_accel=0.4)
PIPELINE_PRIOR = PriorConfig()

MODES = ("ml", "bayes", "both")
BENCHMARKS = ("truth", "trackfusion")


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
    max_nonconverged_fraction: float = 0.05

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.benchmark not in BENCHMARKS:
            raise ValueError(f"benchmark must be one of {BENCHMARKS}, got {self.benchmark!r}")

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
        """Every field, plus the four headline RMSEs.  The nested dicts are the
        report's own (`vars`, not the deep copy of `asdict`)."""
        headlines = ("position_rmse_bayes", "velocity_rmse_bayes", "position_rmse_ml",
                     "velocity_rmse_ml")
        return {**vars(self), **{name: getattr(self, name) for name in headlines}}


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


def run_directory(out_dir: Path | str, config: ScenarioConfig) -> Path:
    """`<out_dir>/<scenario>/<trajectory kind>`, which holds one directory
    per seed: runs of both trajectory kinds at one seed do not collide."""
    return Path(out_dir) / config.name / config.trajectory.kind


def _run_trackers(
    config: ScenarioConfig, sim: Simulation, stage: str, seed: str | None = None
) -> list[Track]:
    """Every node's EKF track, or a PipelineError naming the `stage`, the
    seed (`seed`, else the config's) and the tracker's reason (a node
    with no start, or a numerical failure)."""
    try:
        return [run_tracker(sim, i, PIPELINE_EKF, config.noise, config.frame_duration)
                for i in range(len(config.nodes))]
    except ValueError as exc:  # np.linalg.LinAlgError included
        raise PipelineError(f"{stage} stage: {exc} ({seed or f'seed {config.rng_seed}'})") from exc


def calibrate_scenario(
    config: ScenarioConfig, options: PipelineOptions | None = None
) -> list[CalibrationResult]:
    """Self-calibration stage: one pairwise result per non-reference node."""
    options = options or PipelineOptions()
    calib_config = calibration_stage_config(config, options)
    # Errors name the user's seed, not the offset one this stage simulates at.
    seed = (f"seed {config.rng_seed}; the calibration stage simulates at seed "
            f"{config.rng_seed} + {CALIBRATION_SEED_OFFSET}")
    sim = simulate(calib_config)
    tracks = _run_trackers(calib_config, sim, "calibration", seed)
    # Short sequences cannot afford the full 50-frame transient skip.
    skip = min(50, config.num_frames // 5)
    results = []
    for i in range(1, len(tracks)):
        try:
            z1, z2 = paired_positions(tracks[0], tracks[i], skip)
        except PipelineError as exc:
            raise PipelineError(
                f"{exc} of node {i} against node 0: {_update_summary(tracks, sim)} ({seed})"
            ) from None
        results.append(calibrate_pair(z1, z2))
    return results


def _update_summary(tracks: list[Track], sim: Simulation) -> str:
    """Each node's EKF-updated and detected frame counts."""
    updated = [int(np.count_nonzero(track.updated)) for track in tracks]
    detected = np.count_nonzero(sim.seen, axis=0).tolist()
    counts = ", ".join(f"node {i} {u}/{d}" for i, (u, d) in enumerate(zip(updated, detected)))
    return f"EKF-updated/detected frames {counts}"


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


def estimated_poses(calibrations: list[CalibrationResult]) -> list[Pose2D]:
    """Every node's pose: node 0 at the origin, then each calibrated node's."""
    poses = [Pose2D(0.0, 0.0, 0.0)]
    poses.extend(
        Pose2D(res.p21.real, res.p21.imag, res.phi21) for res in calibrations
    )
    return poses


def fuse_frames(
    config: ScenarioConfig, sim: Simulation, poses, frames, options: PipelineOptions
) -> dict[str, FusionEstimates]:
    """One-shot fusion of the simulation's `frames` (indices) at the node
    `poses`, one batch per mode of `options`; the prior applies in Bayes
    mode only, and the candidate starts are filtered by the scenario's
    field of view.  A node that did not detect a frame takes no part in
    it.  A solver failure is a PipelineError naming the fusion stage and
    the seed."""
    table = frame_table(poses, sim.detections[frames])
    try:
        return {mode: solve_frames(table, config.noise, mode,
                                   PIPELINE_PRIOR if mode == "bayes" else None,
                                   fov_half_angle=config.fov_half_angle)
                for mode in options.modes}
    except ValueError as exc:
        raise PipelineError(f"fusion stage: {exc} (seed {config.rng_seed})") from exc


def run_experiment(
    config: ScenarioConfig, options: PipelineOptions | None = None
) -> ExperimentReport:
    """Full pipeline: calibrate, evaluate, fuse per frame, report RMSEs.

    RMSEs are reported against ground truth and against the track-level
    fusion benchmark over the identical frame set: frames past the
    burn-in where every node detected the target; a PipelineError when
    there is none.
    """
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
    tracks = _run_trackers(config, sim, "evaluation")
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
    eval_frames = fused.frame_index[fused_rows]
    in_rmse = eval_frames >= BURN_IN_FRAMES
    if not in_rmse.any():
        raise PipelineError(f"evaluation stage: no frame past the {BURN_IN_FRAMES}-frame burn-in "
                            f"has detections from every node, {len(eval_frames)} frames before "
                            f"it do (seed {config.rng_seed})")
    estimates = fuse_frames(config, sim, estimated_poses(calibrations), eval_frames, options)

    rmse_frames = eval_frames[in_rmse]
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
    run_dir = run_directory(options.out_dir, config) / str(config.rng_seed)
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
            estimates, eval_frames, in_rmse, calibrations, report,
        )
    return report


def _pick(cells: list[str], width: int, rows) -> tuple[str, ...]:
    """The x, y, vx, vy cells (the first four) of each of `rows`, flat,
    from the flat `cells` of `width` cells per row."""
    index = (width * np.asarray(rows)[:, None] + np.arange(4)).ravel().tolist()
    return itemgetter(*index)(cells)


def _flags(mask: np.ndarray) -> list[str]:
    """A boolean array's cells, "1" or "0"."""
    return np.where(mask, "1", "0").tolist()


def _write_run_outputs(
    run_dir: Path,
    config: ScenarioConfig,
    options: PipelineOptions,
    sim: Simulation,
    transformed: list[Track],
    fused: Track,
    estimates: dict[str, FusionEstimates],
    eval_frames: np.ndarray,
    in_rmse: np.ndarray,
    calibrations: list[CalibrationResult],
    report: ExperimentReport,
) -> None:
    for sub in ("tracks", "calibration", "fusion", "report"):
        (run_dir / sub).mkdir(parents=True, exist_ok=True)
    save_scenario(config, run_dir / "scenario.json")
    # Every float is formatted once, in bulk: truth, track and one-shot
    # cells go to their own files and again, picked by frame, to
    # per_frame.csv.
    truth_cells = export_truth_csv(sim.truth, run_dir / "fusion" / "truth.csv")
    export_measurements_csv(sim, run_dir / "fusion" / "measurements.csv")
    track_paths = [run_dir / "tracks" / "node0.csv"]
    track_paths += [run_dir / "tracks" / f"node{i}_in_ref.csv" for i in range(1, len(transformed))]
    track_paths.append(run_dir / "tracks" / "track_fusion.csv")
    # Per track, the x, y, vx, vy cells of each evaluated frame.
    track_cells = [
        _pick(export_track_csv(track, path), 8, np.searchsorted(track.frame_index, eval_frames))
        for track, path in zip([*transformed, fused], track_paths)
    ]
    for node, result in enumerate(calibrations, start=1):
        save_result(result, result_path(run_dir / "calibration", node))

    frame_cells = list(map(str, eval_frames.tolist()))
    upper = np.triu_indices(4)  # c11, c12, ..., c44
    oneshot_lines = []
    oneshot_cells = {}  # per mode: the x, y, vx, vy, converged and cond cells
    for mode in options.modes:
        est = estimates[mode]
        cells = oneshot_cells[mode] = (
            float_cells(est.states), _flags(est.converged), float_cells(est.conditioning)
        )
        states, converged, cond = map(iter, cells)
        oneshot_lines.append(csv_lines(
            frame_cells, repeat(mode), *[states] * 4, converged, cond,
            *[iter(float_cells(est.covariances[:, upper[0], upper[1]]))] * 10,
        ))
    write_lines(
        run_dir / "fusion" / "oneshot.csv",
        "frame,mode,x,y,vx,vy,converged,cond,c11,c12,c13,c14,c22,c23,c24,c33,c34,c44",
        chain.from_iterable(oneshot_lines),
    )

    modes = [mode for mode in ("bayes", "ml") if mode in options.modes]
    prefixes = ["truth", "ekf1", *(f"ekf{i + 1}_in_1" for i in range(1, len(transformed))),
                "track_fusion", *(f"oneshot_{mode}" for mode in modes)]
    # Per source, its flat x, y, vx, vy cells, then a one-shot mode's flag cells.
    sources = [(_pick(truth_cells, 4, eval_frames),), *zip(track_cells),
               *map(oneshot_cells.get, modes)]
    columns = [("frame", frame_cells)]
    for prefix, (states, *flags) in zip(prefixes, sources):
        # The four state columns share one iterator over the flat cells.
        columns += zip([f"{prefix}_{q}" for q in ("x", "y", "vx", "vy")], [iter(states)] * 4)
        columns += zip([f"{prefix}_converged", f"{prefix}_cond"], flags)
    columns.append(("in_rmse_set", _flags(in_rmse)))
    header, cells = zip(*columns)
    write_lines(run_dir / "fusion" / "per_frame.csv", ",".join(header), csv_lines(*cells))

    write_json(run_dir / "report" / "report.json", report.to_dict())


# -- Monte Carlo ---------------------------------------------------------

def _mc_trial(args) -> tuple[int, dict | None, str | None]:
    config, options, trial = args
    config = replace(config, rng_seed=config.rng_seed + trial)
    try:
        report = run_experiment(config, options)
    except Exception as exc:  # noqa: BLE001 - recorded, not silenced
        return trial, None, f"{type(exc).__name__}: {exc}"
    return trial, report.to_dict(), None


# The Monte Carlo aggregate's statistics of each metric.
_STATISTICS = {"mean": np.mean, "std": np.std, "min": np.min, "max": np.max}


def run_monte_carlo(
    config: ScenarioConfig,
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
    options = options or PipelineOptions()
    mc_options = replace(options, write_outputs=False)
    tasks = [(config, mc_options, t) for t in range(trials)]
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

    # Every completed trial's report holds every metric.
    metrics = {
        f"calibration_{key}": [rep["calibration"][key] for rep in reports]
        for key in ("rmse", "pos_error_m", "angle_error_deg")
    }
    for bench in ("truth", "track_fusion"):
        for mode in options.modes:
            for quantity in ("position", "velocity"):
                metrics[f"{quantity}_rmse_{mode}_vs_{bench}"] = [
                    rep["rmse"][bench][f"{quantity}_{mode}"] for rep in reports
                ]
    aggregates = {
        name: {stat: float(reduce(values)) for stat, reduce in _STATISTICS.items()}
        for name, values in metrics.items() if values
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
        mc_dir = run_directory(options.out_dir, config) / f"mc_seed{config.rng_seed}_t{trials}"
        mc_dir.mkdir(parents=True, exist_ok=True)
        write_json(mc_dir / "aggregate.json", summary)
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

    `run` is an ExperimentReport or its output directory.  The sources
    are per_frame.csv's, in its order: every <source>_x column names one
    (truth, ekf1, ekf<i>_in_1 per further node, track_fusion,
    oneshot_bayes, oneshot_ml).  Writes plot_<q>.csv for q in (x, y, vx,
    vy) with columns frame plus one per source, and overlay.csv with the
    x and y columns of the ekf sources, the calibrated track overlay.
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
    sources = [name[:-2] for name in header if name.endswith("_x")]
    overlay = [f"{source}_{q}" for source in sources if source.startswith("ekf") for q in "xy"]
    out_dir.mkdir(parents=True, exist_ok=True)

    def write_table(name: str, labels: list[str], names: list[str]) -> Path:
        columns = [index["frame"], *(index[n] for n in names)]
        path = out_dir / name
        write_csv(path, ",".join(["frame", *labels]), ([row[i] for i in columns] for row in rows))
        return path

    written = {q: write_table(f"plot_{q}.csv", sources, [f"{s}_{q}" for s in sources])
               for q in _PLOT_QUANTITIES}
    written["overlay"] = write_table("overlay.csv", overlay, overlay)
    return written
