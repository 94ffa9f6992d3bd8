"""Print SHA-256 fingerprints of the one-shot solver's and the CLI's outputs.

A change meant to keep every output bit for bit prints the same lines
before and after.  Five kinds of item, one line each:

  solve_frames   the 36 batched solves over A/B/C x straight/random x
                 seeds 7-9 x ML/Bayes, at the true poses, on the frames
                 two or more nodes detected, over every FusionEstimates
                 field; each table is solved ML then Bayes, then again,
                 after the other tables, Bayes then ML ("bayes-first"),
                 so that each mode is fingerprinted both as the table's
                 first solve and as its second, which shares the first's
                 start stage;
  one-frame      `solve` (ML and Bayes), `laplace_covariance`,
                 `ml_objective`, `bayes_objective` and the closed-form
                 initializers on every 25th frame both nodes detected,
                 per built-in at seed 7; then ("bayes-first") `solve`
                 Bayes then ML on each frame;
  grid           `posterior_covariance_grid` at the Bayes estimate on
                 the same frames, made between the one-frame calls as
                 the real-time path makes it, so that a change to the
                 grid alone moves only these lines;
  measure        `measure` and `measurement_jacobian` from every node
                 at every 25th truth state, per built-in at seed 7;
  cli            every file under --out, stdout, stderr and exit code
                 after each of `simulate`, `calibrate`, `fuse`,
                 `fuse --calibration`, `run`, `emit-plots` and
                 `mc --trials 2` on each built-in at seed 7, run one
                 after another in one temporary directory with a
                 relative --out.

Stdlib plus numpy and radarnet, from the sources of this checkout or,
with --rev, of that git revision's src/ (extracted with `git archive`
into a temporary directory); runs from any directory.

    python3 tools/fingerprint.py
    python3 tools/fingerprint.py --rev REV

A byte-identity check of the working tree against its last commit:

    diff <(python3 tools/fingerprint.py --rev HEAD) <(python3 tools/fingerprint.py)

A change that moves floats, even by an ulp, changes every line whose
outputs it reaches; `tools/drift.py --rev REV` then sizes the move.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from itertools import chain, product
from pathlib import Path

import numpy as np

from revision import revision_src

ROOT = Path(__file__).resolve().parent.parent

SCENARIOS = list(product("ABC", ("straight", "random")))
FIELDS = ("states", "covariances", "objective_values", "iterations", "converged",
          "conditioning", "mode", "prior_centers")


def _digest(*values) -> str:
    """SHA-256 over `values`: arrays by dtype, shape and bytes, other
    values by their repr."""
    h = hashlib.sha256()
    for value in values:
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
        h.update(b"|")
    return h.hexdigest()


def solve_frames_items():
    from radarnet.experiment import PIPELINE_PRIOR
    from radarnet.fusion import frame_table, solve_frames
    from radarnet.scene import builtin_scenario, simulate

    tables = []
    for (name, kind), seed in product(SCENARIOS, (7, 8, 9)):
        config = builtin_scenario(name, kind, seed=seed)
        sim = simulate(config)
        table = frame_table(config.nodes, sim.detections[sim.seen.sum(axis=1) >= 2])
        tables.append((f"{name} {kind} seed={seed}", table, config.noise))
    # One order, then the other, so that a table's first solve follows
    # another table's.
    for order, modes in (("", ("ml", "bayes")), ("bayes-first ", ("bayes", "ml"))):
        for label, table, noise in tables:
            for mode in modes:
                est = solve_frames(table, noise, mode, PIPELINE_PRIOR if mode == "bayes" else None)
                yield f"solve_frames {order}{label} {mode}", _digest(
                    *(getattr(est, field) for field in FIELDS))


def _estimate_values(est):
    return (est.state, est.covariance, est.objective_value, est.iterations, est.converged,
            est.conditioning, est.mode, est.prior_center)


def one_frame_items():
    from radarnet.experiment import PIPELINE_PRIOR
    from radarnet.fusion import (
        FusionObservation,
        ObservationEntry,
        bayes_objective,
        initial_position_estimate,
        initial_velocity_estimate,
        laplace_covariance,
        ml_objective,
        posterior_covariance_grid,
        solve,
    )
    from radarnet.scene import Detection, builtin_scenario, simulate

    for name, kind in SCENARIOS:
        config = builtin_scenario(name, kind, seed=7)
        sim = simulate(config)
        observations = [
            FusionObservation(tuple(
                ObservationEntry(node, Detection(*det))
                for node, det in zip(config.nodes, sim.detections[k].tolist())
            ))
            for k in np.flatnonzero(sim.seen.all(axis=1))[::25].tolist()
        ]
        values, grids = [], []
        for obs in observations:
            ml = solve(obs, config.noise, mode="ml")
            bayes = solve(obs, config.noise, mode="bayes", prior=PIPELINE_PRIOR)
            grids.append(posterior_covariance_grid(obs, config.noise, PIPELINE_PRIOR, bayes))
            values += [*_estimate_values(ml), *_estimate_values(bayes),
                       laplace_covariance(obs, config.noise, PIPELINE_PRIOR, bayes.state),
                       *ml_objective(bayes.state, obs, config.noise),
                       *bayes_objective(bayes.state, obs, config.noise, PIPELINE_PRIOR,
                                        bayes.prior_center),
                       initial_position_estimate(obs), initial_velocity_estimate(obs)]
        yield f"one-frame {name} {kind} seed=7", _digest(*values)
        yield f"grid {name} {kind} seed=7", _digest(*grids)
        values = []
        for obs in observations:
            bayes = solve(obs, config.noise, mode="bayes", prior=PIPELINE_PRIOR)
            ml = solve(obs, config.noise, mode="ml")
            values += [*_estimate_values(bayes), *_estimate_values(ml)]
        yield f"one-frame bayes-first {name} {kind} seed=7", _digest(*values)


def measure_items():
    from radarnet.geometry import TargetState, measure, measurement_jacobian
    from radarnet.scene import builtin_scenario, simulate

    for name, kind in SCENARIOS:
        config = builtin_scenario(name, kind, seed=7)
        values = []
        for row in simulate(config).truth[::25].tolist():
            state = TargetState(*row)
            for node in config.nodes:
                values += [*vars(measure(node, state)).values(), measurement_jacobian(node, state)]
        yield f"measure {name} {kind} seed=7", _digest(*values)


def _tree(out: Path) -> list:
    """Every file under `out` as its relative path and bytes, in path order."""
    return [(path.relative_to(out).as_posix(), path.read_bytes())
            for path in sorted(out.rglob("*")) if path.is_file()]


def cli_items(src: Path):
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as work:
        for name, kind in SCENARIOS:
            out = f"out_{name}_{kind}"
            scenario = ["--builtin", name, "--trajectory", kind, "--seed", "7", "--out", out]
            run_dir = f"{out}/{name}/{kind}/7"
            verbs = {
                "simulate": ["simulate", *scenario],
                "calibrate": ["calibrate", *scenario],
                "fuse": ["fuse", *scenario],
                "fuse --calibration": ["fuse", *scenario, "--calibration",
                                       f"{run_dir}/calibration/result.json"],
                "run": ["run", *scenario],
                "emit-plots": ["emit-plots", "--run-dir", run_dir],
                "mc --trials 2": ["mc", *scenario, "--trials", "2"],
            }
            for verb, argv in verbs.items():
                done = subprocess.run([sys.executable, "-m", "radarnet", *argv], cwd=work,
                                      env=env, capture_output=True)
                yield f"cli {verb} {name} {kind} seed=7", _digest(
                    done.returncode, done.stdout, done.stderr, _tree(Path(work) / out))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", help="git revision whose src/ to fingerprint")
    args = parser.parse_args(argv)
    with nullcontext(ROOT / "src") if args.rev is None else revision_src(args.rev) as src:
        sys.path.insert(0, str(src))
        for label, digest in chain(solve_frames_items(), one_frame_items(), measure_items(),
                                   cli_items(src)):
            print(f"{digest}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
