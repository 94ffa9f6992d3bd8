"""Command-line experiment runner.

Verbs:
    simulate    generate a scenario's truth and measurement CSVs
    calibrate   run the self-calibration stage and save the result
    fuse        one-shot fusion over a simulated scenario's frames
    run         full pipeline (calibrate, track, fuse, report)
    mc          Monte Carlo repetition of `run` over consecutive seeds
    emit-plots  tidy per-quantity plot CSVs from a finished run

Exit codes: 0 success, 2 configuration error, 3 degenerate
calibration, 4 solver non-convergence above the allowed fraction.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .calibration import DegenerateTrackError, load_result, result_path, save_result
from .experiment import (
    PipelineError,
    PipelineOptions,
    calibrate_scenario,
    calibration_stage_config,
    emit_plot_data,
    run_experiment,
    run_monte_carlo,
)
from .fusion import solve_frames
from .geometry import Pose2D
from .scene import (
    ConfigError,
    builtin_scenario,
    export_measurements_csv,
    export_truth_csv,
    load_scenario,
    save_scenario,
    simulate,
    with_seed,
    write_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_NONCONVERGED = 4


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="scenario config JSON")
    parser.add_argument("--builtin", choices=["A", "B", "C"], help="built-in scenario")
    parser.add_argument(
        "--trajectory", choices=["straight", "random"], default="random",
        help="evaluation trajectory kind for --builtin (default random)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")


def _add_pipeline_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=["ml", "bayes", "both"], default="both")
    parser.add_argument("--benchmark", choices=["truth", "trackfusion"], default="truth")
    parser.add_argument(
        "--same-trajectory", action="store_true",
        help="calibrate on the evaluation trajectory kind instead of the counterpart",
    )
    parser.add_argument(
        "--max-nonconverged", type=float, default=0.05,
        help="exit 4 when a mode's non-convergence fraction exceeds this",
    )


def _resolve_scenario(args):
    if args.config is not None and args.builtin is not None:
        raise ConfigError("give either --config or --builtin, not both")
    if args.config is not None:
        config = load_scenario(args.config)
        return with_seed(config, args.seed) if args.seed != 0 else config
    if args.builtin is not None:
        return builtin_scenario(args.builtin, args.trajectory, seed=args.seed)
    raise ConfigError("missing scenario: pass --config PATH or --builtin {A,B,C}")


def _options(args) -> PipelineOptions:
    # NaN would never exceed the limit, so exit 4 could not fire.
    if not math.isfinite(args.max_nonconverged):
        raise ConfigError(f"--max-nonconverged must be finite, got {args.max_nonconverged}")
    return PipelineOptions(
        mode=args.mode,
        benchmark=args.benchmark,
        out_dir=args.out,
        cross_trajectory=not args.same_trajectory,
        max_nonconverged_fraction=args.max_nonconverged,
    )


def cmd_simulate(args) -> int:
    config = _resolve_scenario(args)
    out = args.out / config.name / str(config.rng_seed) / "sim"
    out.mkdir(parents=True, exist_ok=True)
    sim = simulate(config)
    save_scenario(config, out / "scenario.json")
    export_truth_csv(sim.truth.tolist(), out / "truth.csv")
    export_measurements_csv(sim, out / "measurements.csv")
    detections = int(sim.seen.sum())
    print(f"simulated {config.name}: {config.num_frames} frames, {detections} detections -> {out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    config = _resolve_scenario(args)
    options = _options(args)
    results = calibrate_scenario(config, options)
    out = args.out / config.name / str(config.rng_seed) / "calibration"
    out.mkdir(parents=True, exist_ok=True)
    for i, res in enumerate(results, start=1):
        save_result(res, result_path(out, i))
        print(
            f"node {i} pose: ({res.p21.real:.3f} m, {res.p21.imag:.3f} m, "
            f"{math.degrees(res.phi21):.2f} deg)  rmse={res.rmse:.4f} m  K={res.num_frames}"
        )
    stage = calibration_stage_config(config, options)
    print(f"calibrated on {stage.trajectory.kind} trajectory -> {out}")
    return EXIT_OK


def _calibrated_poses(path: Path, num_nodes: int) -> list[Pose2D]:
    """Node poses from the calibration files `calibrate` writes next to `path`."""
    poses = [Pose2D(0.0, 0.0, 0.0)]
    for node in range(1, num_nodes):
        node_path = path if node == 1 else result_path(path.parent, node)
        if not node_path.is_file():
            raise ConfigError(
                f"missing calibration for node {node}: {node_path} "
                f"(a {num_nodes}-node scenario needs one file per non-reference node)"
            )
        res = load_result(node_path)
        poses.append(Pose2D(res.p21.real, res.p21.imag, res.phi21))
    return poses


def cmd_fuse(args) -> int:
    config = _resolve_scenario(args)
    options = _options(args)
    sim = simulate(config)
    if args.calibration is not None:
        poses = _calibrated_poses(args.calibration, len(config.nodes))
    else:
        poses = list(config.nodes)
    out = args.out / config.name / str(config.rng_seed) / "fusion"
    out.mkdir(parents=True, exist_ok=True)
    # Frames seen by at least two nodes, solved as one (F, N, 6) frame
    # table per set of detecting nodes.
    frame_indices = np.flatnonzero(sim.seen.sum(axis=1) >= 2)
    seen = sim.seen[frame_indices]
    pose_table = np.array([(pose.x, pose.y, pose.phi) for pose in poses])
    cells = {mode: [None] * len(frame_indices) for mode in options.modes}
    for nodes in np.unique(seen, axis=0):
        rows = np.flatnonzero((seen == nodes).all(axis=1))
        detections = sim.detections[frame_indices[rows]][:, nodes]
        table = np.concatenate(
            (np.broadcast_to(pose_table[nodes], detections.shape), detections), axis=-1
        )
        for mode in options.modes:
            est = solve_frames(table, config.noise, mode=mode,
                               prior=options.prior if mode == "bayes" else None)
            for t, state, converged, cond in zip(rows.tolist(), est.states.tolist(),
                                                 est.converged.tolist(), est.conditioning.tolist()):
                cells[mode][t] = [mode, *state, int(converged), cond]
    rows = [[k, *cells[mode][t]] for t, k in enumerate(frame_indices.tolist())
            for mode in options.modes]
    path = out / "oneshot_only.csv"
    write_csv(path, "frame,mode,x,y,vx,vy,converged,cond", rows)
    print(f"fused {len(rows)} frame-mode estimates -> {path}")
    return EXIT_OK


def cmd_run(args) -> int:
    config = _resolve_scenario(args)
    options = _options(args)
    report = run_experiment(config, options)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    worst = max(report.nonconverged_fraction.values())
    if worst > options.max_nonconverged_fraction:
        print(
            f"warning: non-convergence fraction {worst:.3f} exceeds "
            f"{options.max_nonconverged_fraction:.3f}",
            file=sys.stderr,
        )
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_mc(args) -> int:
    for flag, value in (("--trials", args.trials), ("--jobs", args.jobs)):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    config = _resolve_scenario(args)
    options = _options(args)
    summary = run_monte_carlo(config, args.trials, options, jobs=args.jobs)
    compact = {k: v for k, v in summary.items() if k != "reports"}
    print(json.dumps(compact, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_emit_plots(args) -> int:
    written = emit_plot_data(args.run_dir, args.plots_out)
    for name, path in written.items():
        print(f"{name}: {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radarnet",
        description="Self-calibrating multi-radar simulation and one-shot fusion experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate truth and measurement CSVs")
    _add_scenario_args(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_cal = sub.add_parser("calibrate", help="pairwise self-calibration stage")
    _add_scenario_args(p_cal)
    _add_pipeline_args(p_cal)
    p_cal.set_defaults(func=cmd_calibrate)

    p_fuse = sub.add_parser("fuse", help="one-shot fusion over simulated frames")
    _add_scenario_args(p_fuse)
    _add_pipeline_args(p_fuse)
    p_fuse.add_argument("--calibration", type=Path, help="calibration result JSON (default: true poses)")
    p_fuse.set_defaults(func=cmd_fuse)

    p_run = sub.add_parser("run", help="full pipeline with report")
    _add_scenario_args(p_run)
    _add_pipeline_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_mc = sub.add_parser("mc", help="Monte Carlo over consecutive seeds")
    _add_scenario_args(p_mc)
    _add_pipeline_args(p_mc)
    p_mc.add_argument("--trials", type=int, default=10)
    p_mc.add_argument("--jobs", type=int, default=1)
    p_mc.set_defaults(func=cmd_mc)

    p_plots = sub.add_parser("emit-plots", help="tidy plot CSVs from a finished run")
    p_plots.add_argument("--run-dir", type=Path, required=True, help="out/<scenario>/<seed> directory")
    p_plots.add_argument("--plots-out", type=Path, default=None, help="destination (default <run-dir>/plots)")
    p_plots.set_defaults(func=cmd_emit_plots)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateTrackError as exc:
        print(f"degenerate calibration: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
