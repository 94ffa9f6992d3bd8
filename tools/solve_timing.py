"""Time the one-shot solver layer by layer.

Figures, each the median over --rounds fresh processes per tree:

  solve ml, solve bayes   µs per `solve` call on one frame (F = 1),
                          the median over the inputs of each input's
                          best of --repeat timings;
  fixed, accepted pass,   a least-squares fit of those per-solve times,
  rejected pass           both modes pooled, on each solve's number of
                          LM passes that accepted and that rejected
                          their step: µs per solve outside the passes,
                          and µs per pass of either kind;
  grid                    µs per `posterior_covariance_grid` call on a
                          Bayes estimate, median over the grid inputs;
  solve_frames ...        ms per batched `solve_frames` call on one
                          built-in's frame table (the frames two or
                          more nodes detected, true poses), best of
                          --repeat.

The inputs are every 10th frame that both nodes of a built-in detected,
for each of the six built-ins at seed 7 (every 20th of them also runs
the grid), plus 40 frames along C straight's degenerate baseline
(frames 265-344), where the LM stalls.  The pass counts come from a
separate untimed run that counts `_Frames.evaluate` calls (one per pass
after the two for the starts) and `_Frames.jacobian` calls (one per
accepting pass after the one at the start).

Stdlib plus numpy and radarnet, from the sources of this checkout or,
with --rev, of that git revision's src/ (extracted with `git archive`);
with --rev both trees are timed, alternating which goes first, each
round in fresh processes, and the table shows both.  The ratio column
is the median over rounds of this tree's figure over REV's, each taken
from the two processes of one round, which run back to back, so the
machine's drift between rounds stays out of it; the min-max of those
per-round ratios follows.  Runs from any directory.

    python3 tools/solve_timing.py
    python3 tools/solve_timing.py --rev HEAD

The machine's speed drifts, so compare two trees within one run only,
by the ratio column; a change whose per-round min-max spans 1 is
unresolved.
Each timing process runs with glibc's MALLOC_MMAP_THRESHOLD_ and
MALLOC_TRIM_THRESHOLD_ fixed at 1e8 bytes, so that a buffer's pages do
not depend on the heap's history and the grid figure compares code.
The figure therefore leaves out the page faults a default process pays
on each grid call's large buffers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from itertools import product
from pathlib import Path

import numpy as np

from revision import revision_src

ROOT = Path(__file__).resolve().parent.parent

SCENARIOS = list(product("ABC", ("straight", "random")))

# Thresholds above every buffer the solver allocates: no allocation is
# mmapped, and freed memory stays in the heap.
_MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "100000000", "MALLOC_TRIM_THRESHOLD_": "100000000"}


def _best(call, repeat: int) -> float:
    """The least of `repeat` wall times of `call()`, in seconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def _inputs():
    """The single-frame inputs as FusionObservations, with whether each runs
    the grid, and the six built-ins' frame tables."""
    from radarnet.fusion import FusionObservation, ObservationEntry, frame_table
    from radarnet.scene import Detection, builtin_scenario, simulate

    frames, tables = [], {}
    for name, kind in SCENARIOS:
        config = builtin_scenario(name, kind, seed=7)
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
    return frames, tables


def _pass_counts(frames, prior):
    """Each solve's accepted and rejected LM passes, ML and Bayes per frame."""
    from radarnet import fusion

    counts = {"evaluate": 0, "jacobian": 0}
    originals = {name: getattr(fusion._Frames, name) for name in counts}

    def counting(name):
        def method(self, *args):
            counts[name] += 1
            return originals[name](self, *args)
        return method

    rows = []
    try:
        for name in counts:
            setattr(fusion._Frames, name, counting(name))
        for obs, noise, _ in frames:
            for mode, prior_ in (("ml", None), ("bayes", prior)):
                counts.update(evaluate=0, jacobian=0)
                fusion.solve(obs, noise, mode=mode, prior=prior_)
                passes, accepted = counts["evaluate"] - 2, counts["jacobian"] - 1
                rows.append((accepted, passes - accepted))
    finally:
        for name, method in originals.items():
            setattr(fusion._Frames, name, method)
    return rows


def measure(repeat: int) -> dict[str, float]:
    """Every figure of this process's radarnet, in µs (ms for solve_frames)."""
    from radarnet import fusion
    from radarnet.experiment import PIPELINE_PRIOR as prior

    frames, tables = _inputs()
    counts = _pass_counts(frames, prior)
    times = {"ml": [], "bayes": []}
    pooled, grid = [], []
    for obs, noise, with_grid in frames:
        for mode, prior_ in (("ml", None), ("bayes", prior)):
            seconds = _best(lambda: fusion.solve(obs, noise, mode=mode, prior=prior_), repeat)
            times[mode].append(seconds * 1e6)
            pooled.append(seconds * 1e6)
        if with_grid:
            bayes = fusion.solve(obs, noise, mode="bayes", prior=prior)
            grid.append(1e6 * _best(
                lambda: fusion.posterior_covariance_grid(obs, noise, prior, bayes), repeat))
    design = np.column_stack([np.ones(len(counts)), np.array(counts, dtype=float)])
    fixed, accepted, rejected = np.linalg.lstsq(design, np.array(pooled), rcond=None)[0]
    figures = {
        "solve ml (us)": statistics.median(times["ml"]),
        "solve bayes (us)": statistics.median(times["bayes"]),
        "fixed (us)": fixed,
        "accepted pass (us)": accepted,
        "rejected pass (us)": rejected,
        "grid (us)": statistics.median(grid),
    }
    for label, (table, noise) in tables.items():
        for mode, prior_ in (("ml", None), ("bayes", prior)):
            figures[f"solve_frames {label} {mode} (ms)"] = 1e3 * _best(
                lambda: fusion.solve_frames(table, noise, mode, prior_), repeat)
    return {name: float(value) for name, value in figures.items()}


def _run(src: Path, repeat: int) -> dict[str, float]:
    """`measure` in a fresh process importing radarnet from `src`, with
    the fixed malloc thresholds."""
    code = (f"import sys, json; sys.path.insert(0, {str(src)!r}); "
            f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
            f"import solve_timing; print(json.dumps(solve_timing.measure({repeat})))")
    done = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True, env={**os.environ, **_MALLOC_ENV})
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", help="git revision whose src/ to time against this checkout's")
    parser.add_argument("--rounds", type=int, default=5, help="fresh processes per tree")
    parser.add_argument("--repeat", type=int, default=3, help="timings per input, best kept")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.repeat < 1:
        parser.error("--rounds and --repeat must be >= 1")
    with nullcontext() if args.rev is None else revision_src(args.rev) as src:
        trees = {"this tree": ROOT / "src"}
        if src is not None:
            trees = {args.rev: src, **trees}
        results = {label: [] for label in trees}
        for round_ in range(args.rounds):
            order = list(trees) if round_ % 2 == 0 else list(trees)[::-1]
            for label in order:
                results[label].append(_run(trees[label], args.repeat))
    labels = list(trees)
    medians = {label: {name: statistics.median(run[name] for run in runs)
                       for name in runs[0]} for label, runs in results.items()}
    width = max(len(name) for name in medians[labels[0]])
    header = f"{'figure':<{width}}" + "".join(f"{label:>12}" for label in labels)
    print(header + ("       ratio  min-max" if len(labels) == 2 else ""))
    for name in medians[labels[0]]:
        line = f"{name:<{width}}" + "".join(f"{medians[label][name]:12.2f}" for label in labels)
        if len(labels) == 2:
            # Per round: this tree's figure over REV's, from back-to-back processes.
            ratios = [mine[name] / theirs[name] for theirs, mine in zip(*results.values())]
            line += f"{statistics.median(ratios):12.3f}  {min(ratios):.3f}-{max(ratios):.3f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
