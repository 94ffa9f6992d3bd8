"""Command-line experiment runner.

Verbs:
    simulate    generate a scenario's truth and measurement CSVs
    calibrate   run the self-calibration stage and save the result
    fuse        one-shot fusion over a simulated scenario's frames
    run         full pipeline (calibrate, track, fuse, report)
    mc          Monte Carlo repetition of `run` over consecutive seeds
    emit-plots  tidy per-quantity plot CSVs from a finished run

Exit codes: 0 success, 2 configuration or pipeline error (a Monte
Carlo run with no completed trial among them) or a file that cannot be
read or written (an --out under a regular file, say), 3 degenerate
calibration, 4 solver non-convergence above the allowed fraction.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .calibration import DegenerateTrackError, load_result, result_path, save_result
from .experiment import (
    BENCHMARKS,
    MODES,
    PipelineError,
    PipelineOptions,
    calibrate_scenario,
    calibration_stage_config,
    emit_plot_data,
    estimated_poses,
    fuse_frames,
    run_directory,
    run_experiment,
    run_monte_carlo,
)
from .geometry import Pose2D
from .scene import (
    BUILTIN_NODES,
    TRAJECTORY_KINDS,
    ConfigError,
    builtin_scenario,
    export_measurements_csv,
    export_truth_csv,
    json_text,
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
    parser.add_argument("--builtin", choices=sorted(BUILTIN_NODES), help="built-in scenario")
    parser.add_argument(
        "--trajectory", choices=TRAJECTORY_KINDS, default="random",
        help="evaluation trajectory kind for --builtin (default random)",
    )
    parser.add_argument("--seed", type=int, help="base RNG seed (default: the config's, or 0)")
    parser.add_argument("--out", type=Path, default=PipelineOptions.out_dir,
                        help="output directory")


def _add_pipeline_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=MODES, default=PipelineOptions.mode)
    parser.add_argument("--benchmark", choices=BENCHMARKS, default=PipelineOptions.benchmark)
    parser.add_argument(
        "--same-trajectory", action="store_true",
        help="calibrate on the evaluation trajectory kind instead of the counterpart",
    )
    parser.add_argument(
        "--max-nonconverged", type=float, default=PipelineOptions.max_nonconverged_fraction,
        help="exit 4 when a mode's non-convergence fraction exceeds this",
    )


def _resolve_scenario(args):
    if args.config is not None and args.builtin is not None:
        raise ConfigError("give either --config or --builtin, not both")
    if args.config is not None:
        config = load_scenario(args.config)
        return config if args.seed is None else with_seed(config, args.seed)
    if args.builtin is not None:
        return builtin_scenario(args.builtin, args.trajectory, seed=args.seed or 0)
    raise ConfigError("missing scenario: pass --config PATH or --builtin {A,B,C}")


def _options(args) -> PipelineOptions:
    # A fraction; NaN, which no fraction exceeds (so exit 4 could not
    # fire), fails the test too.
    if not 0.0 <= args.max_nonconverged <= 1.0:
        raise ConfigError("--max-nonconverged must be finite and in [0, 1], "
                          f"got {args.max_nonconverged}")
    return PipelineOptions(
        mode=args.mode,
        benchmark=args.benchmark,
        out_dir=args.out,
        cross_trajectory=not args.same_trajectory,
        max_nonconverged_fraction=args.max_nonconverged,
    )


def cmd_simulate(args) -> int:
    config = _resolve_scenario(args)
    out = run_directory(args.out, config) / str(config.rng_seed) / "sim"
    out.mkdir(parents=True, exist_ok=True)
    sim = simulate(config)
    save_scenario(config, out / "scenario.json")
    export_truth_csv(sim.truth, out / "truth.csv")
    export_measurements_csv(sim, out / "measurements.csv")
    detections = int(sim.seen.sum())
    print(f"simulated {config.name}: {config.num_frames} frames, {detections} detections -> {out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    config = _resolve_scenario(args)
    options = _options(args)
    results = calibrate_scenario(config, options)
    out = run_directory(args.out, config) / str(config.rng_seed) / "calibration"
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
    results = []
    for node in range(1, num_nodes):
        node_path = path if node == 1 else result_path(path.parent, node)
        if not node_path.is_file():
            raise ConfigError(
                f"missing calibration for node {node}: {node_path} "
                f"(a {num_nodes}-node scenario needs one file per non-reference node)"
            )
        results.append(load_result(node_path))
    return estimated_poses(results)


def cmd_fuse(args) -> int:
    config = _resolve_scenario(args)
    options = _options(args)
    sim = simulate(config)
    poses = (config.nodes if args.calibration is None
             else _calibrated_poses(args.calibration, len(config.nodes)))
    # Frames seen by at least two nodes; each is fused from the nodes that saw it.
    frames = np.flatnonzero(np.count_nonzero(sim.seen, axis=1) >= 2)
    if not len(frames):
        raise PipelineError(f"no frame that two or more nodes detected in {len(sim)} frames "
                            f"(seed {config.rng_seed})")
    out = run_directory(args.out, config) / str(config.rng_seed) / "fusion"
    out.mkdir(parents=True, exist_ok=True)
    estimates = fuse_frames(config, sim, poses, frames, options)
    rows = [[k, mode, *est.states[t].tolist(), int(est.converged[t]), float(est.conditioning[t])]
            for t, k in enumerate(frames.tolist()) for mode, est in estimates.items()]
    path = out / "oneshot_only.csv"
    write_csv(path, "frame,mode,x,y,vx,vy,converged,cond", rows)
    print(f"fused {len(rows)} frame-mode estimates -> {path}")
    return EXIT_OK


def cmd_run(args) -> int:
    config = _resolve_scenario(args)
    options = _options(args)
    report = run_experiment(config, options)
    print(json_text(report.to_dict()))
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
    print(json_text(compact))
    if not summary["completed"]:
        print(f"pipeline error: none of {args.trials} trials completed", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def cmd_emit_plots(args) -> int:
    written = emit_plot_data(args.run_dir, args.plots_out)
    for name, path in written.items():
        print(f"{name}: {path}")
    return EXIT_OK


# The verbs that take a scenario: name, handler, help, and whether the
# verb also takes the pipeline flags.
_SCENARIO_VERBS = (
    ("simulate", cmd_simulate, "generate truth and measurement CSVs", False),
    ("calibrate", cmd_calibrate, "pairwise self-calibration stage", True),
    ("fuse", cmd_fuse, "one-shot fusion over simulated frames", True),
    ("run", cmd_run, "full pipeline with report", True),
    ("mc", cmd_mc, "Monte Carlo over consecutive seeds", True),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radarnet",
        description="Self-calibrating multi-radar simulation and one-shot fusion experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verbs = {}
    for name, func, help_text, pipeline in _SCENARIO_VERBS:
        verbs[name] = verb = sub.add_parser(name, help=help_text)
        _add_scenario_args(verb)
        if pipeline:
            _add_pipeline_args(verb)
        verb.set_defaults(func=func)
    verbs["fuse"].add_argument("--calibration", type=Path,
                               help="calibration result JSON (default: true poses)")
    verbs["mc"].add_argument("--trials", type=int, default=10)
    verbs["mc"].add_argument("--jobs", type=int, default=1)

    p_plots = sub.add_parser("emit-plots", help="tidy plot CSVs from a finished run")
    p_plots.add_argument("--run-dir", type=Path, required=True,
                         help="out/<scenario>/<kind>/<seed> directory")
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
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
