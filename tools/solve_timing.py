"""Time the one-shot solver layer by layer.

Figures, each from every item's best round of --rounds (a frame's or a
table's ML and Bayes from the round of their least sum):

  solve ml, solve bayes,  µs per `solve` call on one frame (F = 1), timed
  pair                    as the real-time path runs it: ML, then Bayes on
                          the same frame, the ML call following another
                          frame's solve (so it finds no shared start stage)
                          and the Bayes call following the ML call; pair is
                          the two calls of one frame together.  The median
                          over the inputs;
  fixed ml, fixed bayes,  a least-squares fit of the per-solve times on
  accepted pass,          each solve's number of LM passes that accepted
  rejected pass           and that rejected their step, one intercept per
                          mode: µs per solve outside the passes, and µs per
                          pass of either kind;
  grid                    µs per `posterior_covariance_grid` call on a
                          Bayes estimate, median over the grid inputs;
  evaluate, normal        µs per `_Frames.evaluate`, `_normal_equations`
  equations, curvature    (the Jacobian and J'J, J'r) and
                          `_Frames.curvature` call on one frame (F = 1)
                          at its closed-form start, each the mean of
                          _KERNEL_CALLS calls on the ML model then as many
                          on the Bayes model; the median over the inputs;
  solve_frames ...        ms per batched `solve_frames` call on one
                          built-in's frame table (the frames two or more
                          nodes detected, true poses), ML then Bayes as
                          for one frame, and the sum of those pairs.

The inputs are every 10th frame that both nodes of a built-in detected,
for each of the six built-ins at seed 7 (every 20th of them also runs
the grid), plus 40 frames along C straight's degenerate baseline
(frames 265-344), where the LM stalls.  The pass counts come from a
separate untimed run that counts `_Frames.evaluate` calls (one per pass
after the two for the starts) and `_Frames.jacobian` calls (one per
accepting pass after the one at the start).

Stdlib plus numpy and radarnet, from the sources of this checkout or,
with --rev, of that git revision's src/ (extracted with `git archive`)
as well.  Each tree is timed in one long-lived worker process.  The
items are cut into blocks of 8, the tables into blocks of two, each
table block run _TABLE_REPEATS times per round; a round runs each
block on every worker in turn, one worker at a time, alternating which
goes first from block to block, so that both trees run under the same
drift of the machine's speed.  A round keeps each table's pair of
least sum over its repeats, since one slow moment of the machine would
otherwise move a whole 8-19 ms table; in a block of two tables each
ML call still follows the other table's solve.  The ratio column is
this tree's figure over REV's; the min-max that follows is that of the
same ratio taken from each round's timings alone.  Runs from any
directory.

    python3 tools/solve_timing.py
    python3 tools/solve_timing.py --rev HEAD

The machine's speed drifts, so compare two trees within one run only,
by the ratio column; a change whose per-round min-max spans 1 is
unresolved.
Each worker runs with glibc's MALLOC_MMAP_THRESHOLD_ and
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
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from revision import revision_src

ROOT = Path(__file__).resolve().parent.parent

SCENARIOS = list(product("ABC", ("straight", "random")))

# Thresholds above every buffer the solver allocates: no allocation is
# mmapped, and freed memory stays in the heap.
_MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "100000000", "MALLOC_TRIM_THRESHOLD_": "100000000"}

# Items a worker times before the other takes its turn.
_BLOCK = 8
# Times a round runs each block of two tables, the best pair kept: an
# unchanged tree then reads every table within 10% per round.
_TABLE_REPEATS = 9
# Calls per kernel and model in one kernel timing.
_KERNEL_CALLS = 20


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


def _seconds(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def _kernel_seconds(obs, noise, prior) -> list[float]:
    """Seconds per `_Frames.evaluate`, `_normal_equations` and
    `_Frames.curvature` call on the one-frame ML and Bayes models of `obs`
    at its closed-form start, each the mean of _KERNEL_CALLS calls per model."""
    from radarnet import fusion

    start = np.concatenate((fusion.initial_position_estimate(obs),
                            fusion.initial_velocity_estimate(obs)))[None]
    center = np.zeros((1, 4))
    center[0, :2] = start[0, :2]
    calls = [[], [], []]
    for model in (fusion._Frames.build(obs, noise), fusion._Frames.build(obs, noise, prior, center)):
        terms = model.evaluate(start)[1]
        calls[0].append((model.evaluate, start))
        calls[1].append((partial(fusion._normal_equations, model), terms))
        calls[2].append((model.curvature, terms))
    seconds = []
    for kernel in calls:
        begin = time.perf_counter()
        for call, arg in kernel:
            for _ in range(_KERNEL_CALLS):
                call(arg)
        seconds.append((time.perf_counter() - begin) / (_KERNEL_CALLS * len(kernel)))
    return seconds


def worker() -> None:
    """Serve timings of this process's radarnet over stdin and stdout.

    The first line written describes the items: each one's kind and label,
    and the pass counts.  Then each line read is a JSON list of item
    indices, answered by one line with each item's timings in seconds, in
    the list's order: ML and Bayes for a frame or a table, one call for a
    grid input, and the three kernels for a kernel input.
    """
    from radarnet import fusion
    from radarnet.experiment import PIPELINE_PRIOR as prior

    frames, tables = _inputs()
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
    print(json.dumps({"kinds": kinds, "passes": _pass_counts(frames, prior)}), flush=True)
    for line in sys.stdin:
        print(json.dumps([calls[k]() for k in json.loads(line)]), flush=True)


class _Worker:
    """A `worker` process importing radarnet from `src`, with the fixed
    malloc thresholds."""

    def __init__(self, src: Path):
        code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
                f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
                "import solve_timing; solve_timing.worker()")
        self.process = subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True,
                                        env={**os.environ, **_MALLOC_ENV})
        self.items = self._read()

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


def figures(items, timings) -> dict[str, float]:
    """Every figure from each item's timings in seconds, in µs (ms for
    solve_frames)."""
    frames = [t for (kind, _), t in zip(items["kinds"], timings) if kind == "frame"]
    ml, bayes = (1e6 * np.array([t[k] for t in frames]) for k in range(2))
    result = {
        "solve ml (us)": np.median(ml),
        "solve bayes (us)": np.median(bayes),
        "pair (us)": np.median(ml + bayes),
    }
    passes = np.array(items["passes"], dtype=float)
    is_ml = np.arange(len(passes)) % 2 == 0
    design = np.column_stack([is_ml, ~is_ml, passes])
    solved = np.column_stack([ml, bayes]).ravel()
    fit = np.linalg.lstsq(design, solved, rcond=None)[0]
    for name, value in zip(("fixed ml", "fixed bayes", "accepted pass", "rejected pass"), fit):
        result[f"{name} (us)"] = value
    result["grid (us)"] = 1e6 * statistics.median(
        t[0] for (kind, _), t in zip(items["kinds"], timings) if kind == "grid")
    kernels = np.array([t for (kind, _), t in zip(items["kinds"], timings) if kind == "kernels"])
    for name, column in zip(("evaluate", "normal equations", "curvature"), kernels.T):
        result[f"{name} (us)"] = 1e6 * np.median(column)
    pairs = 0.0
    for (kind, label), t in zip(items["kinds"], timings):
        if kind == "table":
            result[f"solve_frames {label} ml (ms)"] = 1e3 * t[0]
            result[f"solve_frames {label} bayes (ms)"] = 1e3 * t[1]
            pairs += 1e3 * (t[0] + t[1])
    result["solve_frames pairs (ms)"] = pairs
    return {name: float(value) for name, value in result.items()}


def _best(rounds: list[list[list[float]]]) -> list[list[float]]:
    """Each item's least timings over the rounds, a frame's or a table's ML
    and Bayes taken from the round of their least sum."""
    return [min(timings, key=sum) for timings in zip(*rounds)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", help="git revision whose src/ to time against this checkout's")
    parser.add_argument("--rounds", type=int, default=5, help="timings of every item, the best kept")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    with nullcontext() if args.rev is None else revision_src(args.rev) as src:
        trees = {"this tree": ROOT / "src"}
        if src is not None:
            trees = {args.rev: src, **trees}
        workers = {}
        try:
            for label, tree in trees.items():
                workers[label] = _Worker(tree)
            items = {label: w.items for label, w in workers.items()}
            count = len(items["this tree"]["kinds"])
            if any(i["kinds"] != items["this tree"]["kinds"] for i in items.values()):
                raise RuntimeError("the trees simulate different inputs")
            kinds = [kind for kind, _ in items["this tree"]["kinds"]]
            tables = kinds.index("table")
            blocks = [list(range(k, min(k + _BLOCK, tables))) for k in range(0, tables, _BLOCK)]
            blocks += [list(range(k, min(k + 2, count)))
                       for k in range(tables, count, 2) for _ in range(_TABLE_REPEATS)]
            rounds = {label: [] for label in trees}
            for _ in range(args.rounds):
                timings = {label: [None] * count for label in trees}
                for b, block in enumerate(blocks):
                    order = list(trees) if b % 2 == 0 else list(trees)[::-1]
                    for label in order:
                        best = timings[label]
                        for k, t in zip(block, workers[label].time(block)):
                            best[k] = t if best[k] is None else min(best[k], t, key=sum)
                for label in trees:
                    rounds[label].append(timings[label])
        finally:
            for w in workers.values():
                w.close()
    labels = list(trees)
    best = {label: figures(items[label], _best(rounds[label])) for label in labels}
    width = max(len(name) for name in best[labels[0]])
    header = f"{'figure':<{width}}" + "".join(f"{label:>12}" for label in labels)
    print(header + ("       ratio  min-max" if len(labels) == 2 else ""))
    per_round = {label: [figures(items[label], r) for r in rounds[label]] for label in labels}
    for name in best[labels[0]]:
        line = f"{name:<{width}}" + "".join(f"{best[label][name]:12.2f}" for label in labels)
        if len(labels) == 2:
            ratios = [mine[name] / theirs[name]
                      for theirs, mine in zip(*(per_round[label] for label in labels))]
            line += (f"{best[labels[1]][name] / best[labels[0]][name]:12.3f}"
                     f"  {min(ratios):.3f}-{max(ratios):.3f}")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
