"""Time the one-shot solver layer by layer, and the EKF per node-frame.

Figures, each from every item's best round of --rounds (a frame's or a
table's ML and Bayes from the round of their least sum):

  solve ml, solve bayes,  µs per `solve` call on one frame (F = 1), timed
  pair                    as the real-time path runs it: ML, then Bayes on
                          the same frame, the ML call following another
                          frame's solve (so it finds no shared start stage)
                          and the Bayes call following the ML call; pair is
                          the two calls of one frame together.  The median
                          over the inputs;
  grid                    µs per `posterior_covariance_grid` call on a
                          Bayes estimate, median over the grid inputs;
  start stage, score      µs per call of a kernel of the LM's 2-D pass on
  starts, evaluate,       one frame (F = 1) at its closed-form start
  normal equations,       position: `_start_stage` with its memo cleared
  curvature, step         (the work a Bayes solve skips after the ML solve
  matrix, damped solve,   of its frame), the objective of the frame's
  lm loop
                          three candidate starts on its model repeated
                          once per candidate, as `_solve_group` scores
                          them (one-frame work that stays on arrays),
                          `_Frames.evaluate` at the position
                          (the best velocity v* solved for, then the
                          objective at it), `_normal_equations` (the
                          Jacobian, J'J and J'r), `_Frames.curvature`,
                          `_step_matrices` (J'J + S and J'J reduced to the
                          position by the Schur complement, and the
                          definiteness test between them),
                          `_damped_steps` (the 2x2 system step matrix +
                          lam I at `_LAMBDA_INIT`, solved in closed form),
                          and `_levenberg_marquardt`, the whole LM loop
                          with its bookkeeping, from the start
                          `_solve_group` picks for the frame (the start
                          stage, the start scoring and the covariance tail
                          left out).
                          Each the mean of _KERNEL_CALLS calls on the ML
                          model then as many on the Bayes model; the
                          median over the inputs.  A kernel a tree lacks
                          (one whose LM is not this 2-D one lacks all but
                          the start stage) prints blank, and so does every
                          pass row that contains it;
  accepted pass,          µs per LM pass of either kind, as the sum of the
  rejected pass           kernels it runs, taken per input, then the median
                          over the inputs: damped solve, evaluate, normal
                          equations and step matrix for a pass that
                          accepts its step, damped solve and evaluate for
                          one that rejects it.  The LM's own bookkeeping
                          (step lengths, the accept and stop tests, the
                          damping update, compaction) is left out, and
                          shows in lm loop;
  solve_frames ...        ms per batched `solve_frames` call on one
                          built-in's frame table (the frames two or more
                          nodes detected, true poses), ML then Bayes as
                          for one frame, and the sum of those pairs;
  run_tracker             µs per node-frame of the EKF, the calibration
                          stage: `run_tracker` with the pipeline's EKF
                          settings on every node of one built-in's
                          calibration-stage simulation at seed 7
                          (`experiment.calibration_stage_config`), over
                          its nodes times its frames; the median over
                          the six built-ins.

Every figure is a timing or a sum of printed kernel timings, so a change
to one kernel moves only the rows that contain it.  The inputs are
every 10th frame that both nodes of a built-in detected, for each of
the six built-ins at seed 7 (every 20th of them also runs the grid),
plus 40 frames along C straight's degenerate baseline (frames
265-344), where the LM stalls.

Stdlib plus numpy and radarnet, from the sources of this checkout or,
with --rev, of that git revision's src/ (extracted with `git archive`)
as well.  Each round starts a fresh worker process per tree: a
process's memory layout can make it a few per cent faster or slower
for its whole life, which alternating turns cannot cancel, so each
round draws a new layout and such a difference shows in the per-round
min-max instead of in every round alike.  The items are cut into
blocks of 8, the tables and then the trackers into blocks of two,
each such block run _TABLE_REPEATS times per round; a round runs each
block on every worker in turn, one worker at a time, alternating which
goes first from block to block, so that both trees run under the same
drift of the machine's speed.  A round keeps each table's pair of
least sum over its repeats, and each tracker input its least time,
since one slow moment of the machine would otherwise move a whole
8-19 ms table or 6 ms tracker input; in a block of two tables each ML
call still follows the other table's solve.  The ratio column is this
tree's figure over REV's; the min-max that follows is that of the same
ratio taken from each round's timings alone.  Runs from any directory.

    python3 tools/solve_timing.py
    python3 tools/solve_timing.py --rev HEAD

The machine's speed drifts, so compare two trees within one run only,
by the ratio column; a change whose per-round min-max spans 1 is
unresolved.  A fresh worker's speed is a draw a few per cent either
side of its tree's (an unchanged tree reads per-round ratios of about
0.93-1.08), and the rows of one round move together; so an unchanged
tree's row misses 1 when every round falls on one side, by chance with
probability 2 x 0.5^R over R rounds: about 0.4% at the default 9, 6%
at 5.  A single narrow miss in one run is noise; a miss that comes
back in the same row is not.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from contextlib import nullcontext
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from revision import revision_src

ROOT = Path(__file__).resolve().parent.parent

SCENARIOS = list(product("ABC", ("straight", "random")))

# Items a worker times before the other takes its turn.
_BLOCK = 8
# Times a round runs each block of two tables, the best pair kept: an
# unchanged tree then reads every table within 10% per round.
_TABLE_REPEATS = 9
# Calls per kernel and model in one kernel timing.
_KERNEL_CALLS = 20

KERNELS = ("start stage", "score starts", "evaluate", "normal equations", "curvature",
           "step matrix", "damped solve", "lm loop")
# The kernels each kind of LM pass runs.
PASSES = {
    "accepted pass": ("damped solve", "evaluate", "normal equations", "step matrix"),
    "rejected pass": ("damped solve", "evaluate"),
}


def _inputs():
    """The single-frame inputs as FusionObservations, with whether each runs
    the grid, the six built-ins' frame tables, and their calibration-stage
    configs and simulations."""
    from radarnet.experiment import PipelineOptions, calibration_stage_config
    from radarnet.fusion import FusionObservation, ObservationEntry, frame_table
    from radarnet.scene import Detection, builtin_scenario, simulate

    frames, tables, trackers = [], {}, {}
    for name, kind in SCENARIOS:
        config = builtin_scenario(name, kind, seed=7)
        calibration = calibration_stage_config(config, PipelineOptions())
        trackers[f"{name} {kind}"] = (calibration, simulate(calibration))
        sim = simulate(config)
        tables[f"{name} {kind}"] = (frame_table(config.nodes,
                                                sim.detections[sim.seen.sum(axis=1) >= 2]),
                                    config.noise)
        both = np.flatnonzero(sim.seen.all(axis=1))
        picked = both[::10].tolist()
        if (name, kind) == ("C", "straight"):
            picked += [k for k in range(265, 345) if sim.seen[k].all()][::2]
        for count, k in enumerate(picked):
            obs = FusionObservation(tuple(
                ObservationEntry(node, Detection(*det))
                for node, det in zip(config.nodes, sim.detections[k].tolist())))
            frames.append((obs, config.noise, count % 20 == 0))
    return frames, tables, trackers


def _seconds(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def _kernel_calls(obs, noise, prior) -> list:
    """Each of KERNELS as a list of zero-argument calls, one on the
    one-frame ML and one on the Bayes model of `obs` at its closed-form
    start position, or None where this tree's radarnet cannot run it."""
    from radarnet import fusion

    table = fusion._table(obs)
    start = fusion.initial_position_estimate(obs)[None]
    center = np.zeros((1, 4))
    center[0, :2] = start[0]

    def start_stage():
        fusion._last_start_stage = None
        fusion._start_stage(table, fusion.FOV_HALF_ANGLE)

    def attempt(build):
        """`build()`'s call list, once each call has run, or None where a
        name or a shape this tree does not have stops it."""
        try:
            calls = build()
            for call in calls:
                call()
            return calls
        except (AttributeError, TypeError, ValueError, IndexError):
            return None

    models = [fusion._Frames.build(obs, noise), fusion._Frames.build(obs, noise, prior, center)]

    def score_starts():
        starts = fusion._start_table(fusion._columns(table), fusion.FOV_HALF_ANGLE)[0]
        return [partial(model.take([0] * fusion._MAX_STARTS).objective, starts.reshape(-1, 2))
                for model in models]

    def lm_loop():
        """The LM from the best-scoring kept start, as `_solve_group` picks it."""
        starts, keep = fusion._start_table(fusion._columns(table), fusion.FOV_HALF_ANGLE)
        calls = []
        for model, call in zip(models, score):
            values = call()
            values[~keep[0]] = np.inf
            best = int(values.argmin())
            calls.append(partial(fusion._levenberg_marquardt, model, starts[0, best:best + 1],
                                 values[best:best + 1]))
        return calls

    def damped_arguments(gradient):
        """The damping at `_LAMBDA_INIT` and J'r's position half as this
        tree's `_damped_steps` takes them: floats where the LM loop runs on
        `_entries`, else (1,) and (1, 2) arrays from J'r (1, 4)."""
        if isinstance(gradient, np.ndarray):
            return np.full(1, fusion._LAMBDA_INIT), gradient[:, :2]
        return fusion._LAMBDA_INIT, gradient

    score = attempt(score_starts)
    evaluate = attempt(lambda: [partial(model.evaluate, start) for model in models])
    kernels = [[start_stage] * len(models), score, evaluate]
    if evaluate is None:
        return kernels + [None] * (len(KERNELS) - len(kernels))
    terms = [call()[1] for call in evaluate]
    normal = [fusion._normal_equations(model, t) for model, t in zip(models, terms)]
    step = attempt(lambda: [partial(fusion._step_matrices, model, t, hessian)
                            for model, t, (hessian, _) in zip(models, terms, normal)])
    damped = None if step is None else attempt(
        lambda: [partial(fusion._damped_steps, call(), *damped_arguments(gradient))
                 for call, (_, gradient) in zip(step, normal)])
    return kernels + [
        [partial(fusion._normal_equations, model, t) for model, t in zip(models, terms)],
        [partial(model.curvature, t) for model, t in zip(models, terms)],
        step,
        damped,
        None if score is None else attempt(lm_loop),
    ]


def _kernel_seconds(obs, noise, prior) -> list[float]:
    """Seconds per call of each of KERNELS (`_kernel_calls`), each the mean of
    _KERNEL_CALLS calls per model; NaN for a kernel this tree lacks."""
    seconds = []
    for kernel in _kernel_calls(obs, noise, prior):
        if kernel is None:
            seconds.append(math.nan)
            continue
        begin = time.perf_counter()
        for call in kernel:
            for _ in range(_KERNEL_CALLS):
                call()
        seconds.append((time.perf_counter() - begin) / (_KERNEL_CALLS * len(kernel)))
    return seconds


def worker() -> None:
    """Serve timings of this process's radarnet over stdin and stdout.

    The first line written is the items' kinds, each a kind and a label.
    Then each line read is a JSON list of item indices, answered by one
    line with each item's timings in seconds, in the list's order: ML and
    Bayes for a frame or a table, one call for a grid input, each of
    KERNELS for a kernel input (NaN for one this tree lacks), and the
    seconds per node-frame of a tracker input.
    """
    from radarnet import fusion
    from radarnet.experiment import PIPELINE_EKF
    from radarnet.experiment import PIPELINE_PRIOR as prior
    from radarnet.tracking import run_tracker

    frames, tables, trackers = _inputs()
    calls, kinds = [], []
    for obs, noise, _ in frames:
        calls.append(lambda obs=obs, noise=noise: (
            _seconds(lambda: fusion.solve(obs, noise, mode="ml")),
            _seconds(lambda: fusion.solve(obs, noise, mode="bayes", prior=prior))))
        kinds.append(("frame", ""))
    for obs, noise, with_grid in frames:
        if with_grid:
            bayes = fusion.solve(obs, noise, mode="bayes", prior=prior)
            calls.append(lambda obs=obs, noise=noise, bayes=bayes: (
                _seconds(lambda: fusion.posterior_covariance_grid(obs, noise, prior, bayes)),))
            kinds.append(("grid", ""))
    for obs, noise, _ in frames:
        calls.append(lambda obs=obs, noise=noise: _kernel_seconds(obs, noise, prior))
        kinds.append(("kernels", ""))
    for label, (table, noise) in tables.items():
        calls.append(lambda table=table, noise=noise: (
            _seconds(lambda: fusion.solve_frames(table, noise, "ml")),
            _seconds(lambda: fusion.solve_frames(table, noise, "bayes", prior))))
        kinds.append(("table", label))
    for label, (config, sim) in trackers.items():
        nodes = range(len(config.nodes))
        calls.append(lambda config=config, sim=sim, nodes=nodes: (_seconds(lambda: [
            run_tracker(sim, i, PIPELINE_EKF, config.noise, config.frame_duration) for i in nodes
        ]) / (len(nodes) * len(sim)),))
        kinds.append(("tracker", label))
    print(json.dumps(kinds), flush=True)
    for line in sys.stdin:
        print(json.dumps([calls[k]() for k in json.loads(line)]), flush=True)


class _Worker:
    """A `worker` process importing radarnet from `src`."""

    def __init__(self, src: Path):
        code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
                f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
                "import solve_timing; solve_timing.worker()")
        self.process = subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)
        self.kinds = self._read()

    def _read(self):
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"timing worker exited with code {self.process.wait()}")
        return json.loads(line)

    def time(self, block: list[int]) -> list[list[float]]:
        self.process.stdin.write(json.dumps(block) + "\n")
        self.process.stdin.flush()
        return self._read()

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait()


def _round(trees: dict[str, Path]) -> tuple[list, dict[str, list[list[float]]]]:
    """The items' kinds and one round's timings per tree, from a fresh
    worker per tree."""
    workers = {}
    try:
        for label, tree in trees.items():
            workers[label] = _Worker(tree)
        kinds = workers["this tree"].kinds
        if any(w.kinds != kinds for w in workers.values()):
            raise RuntimeError("the trees simulate different inputs")
        # The tables, then the trackers, are the items timed in repeated blocks.
        tables = [kind for kind, _ in kinds].index("table")
        blocks = [list(range(k, min(k + _BLOCK, tables))) for k in range(0, tables, _BLOCK)]
        blocks += [list(range(k, min(k + 2, len(kinds))))
                   for k in range(tables, len(kinds), 2) for _ in range(_TABLE_REPEATS)]
        timings = {label: [None] * len(kinds) for label in trees}
        for b, block in enumerate(blocks):
            order = list(trees) if b % 2 == 0 else list(trees)[::-1]
            for label in order:
                best = timings[label]
                for k, t in zip(block, workers[label].time(block)):
                    best[k] = t if best[k] is None else min(best[k], t, key=sum)
        return kinds, timings
    finally:
        for w in workers.values():
            w.close()


def figures(kinds, timings) -> dict[str, float]:
    """Every figure from each item's timings in seconds, in µs (ms for
    solve_frames, µs per node-frame for run_tracker)."""
    def of(kind):
        return np.array([t for (k, _), t in zip(kinds, timings) if k == kind])

    ml, bayes = 1e6 * of("frame").T
    result = {
        "solve ml (us)": np.median(ml),
        "solve bayes (us)": np.median(bayes),
        "pair (us)": np.median(ml + bayes),
        "grid (us)": 1e6 * np.median(of("grid")),
    }
    kernels = dict(zip(KERNELS, 1e6 * of("kernels").T))
    for name, column in kernels.items():
        result[f"{name} (us)"] = np.median(column)
    for name, parts in PASSES.items():
        result[f"{name} (us)"] = np.median(sum(kernels[part] for part in parts))
    pairs = 0.0
    for (kind, label), t in zip(kinds, timings):
        if kind == "table":
            result[f"solve_frames {label} ml (ms)"] = 1e3 * t[0]
            result[f"solve_frames {label} bayes (ms)"] = 1e3 * t[1]
            pairs += 1e3 * (t[0] + t[1])
    result["solve_frames pairs (ms)"] = pairs
    result["run_tracker (us per node-frame)"] = 1e6 * np.median(of("tracker"))
    return {name: float(value) for name, value in result.items()}


def _best(rounds: list[list[list[float]]]) -> list[list[float]]:
    """Each item's least timings over the rounds, a frame's or a table's ML
    and Bayes, a kernel input's kernels or a tracker input's time, taken
    from the round of their least sum (NaN for a kernel a tree lacks in
    every round)."""
    return [min(timings, key=np.nansum) for timings in zip(*rounds)]


def _cell(value: float, spec: str) -> str:
    """`value` formatted by `spec`, or blank where it is NaN."""
    return " " * len(format(0.0, spec)) if math.isnan(value) else format(value, spec)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", help="git revision whose src/ to time against this checkout's")
    parser.add_argument("--rounds", type=int, default=9, help="timings of every item, the best kept")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    with nullcontext() if args.rev is None else revision_src(args.rev) as src:
        trees = {"this tree": ROOT / "src"}
        if src is not None:
            trees = {args.rev: src, **trees}
        rounds = {label: [] for label in trees}
        for _ in range(args.rounds):
            kinds, timings = _round(trees)
            for label in trees:
                rounds[label].append(timings[label])
    labels = list(trees)
    best = {label: figures(kinds, _best(rounds[label])) for label in labels}
    width = max(len(name) for name in best[labels[0]])
    header = f"{'figure':<{width}}" + "".join(f"{label:>12}" for label in labels)
    print(header + ("       ratio  min-max" if len(labels) == 2 else ""))
    per_round = {label: [figures(kinds, r) for r in rounds[label]] for label in labels}
    for name in best[labels[0]]:
        line = f"{name:<{width}}" + "".join(_cell(best[label][name], "12.2f") for label in labels)
        if len(labels) == 2:
            ratios = [mine[name] / theirs[name]
                      for theirs, mine in zip(*(per_round[label] for label in labels))]
            if not math.isnan(sum(ratios)):
                line += (f"{best[labels[1]][name] / best[labels[0]][name]:12.3f}"
                         f"  {min(ratios):.3f}-{max(ratios):.3f}")
        print(line.rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
