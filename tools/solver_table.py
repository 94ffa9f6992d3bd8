"""Print the one-shot solver's table over the 18 built-in runs.

Each run is `experiment.run_experiment` on a built-in scenario (A, B, C
x straight, random x seeds 7-9), with estimated poses and no outputs
written, from the radarnet sources of this checkout.  Per run it prints,
for each mode over the run's evaluated frames, the fraction that did
not converge (nc), the fraction that stopped at the LM's pass cap (cap)
and the fraction whose velocity the solve flags unobservable (unobs);
then whether `radarnet run` would exit 4 at the default
--max-nonconverged, and the Bayes and ML position and velocity RMSEs
against truth.  A last line per mode gives the fractions over all 18
runs.  Stdlib plus numpy and radarnet; runs from any directory.

    python3 tools/solver_table.py
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from radarnet import experiment, fusion  # noqa: E402
from radarnet.scene import builtin_scenario  # noqa: E402

MODES = ("ml", "bayes")
COLUMNS = ("run", *(f"{figure}_{mode}" for figure in ("nc", "cap", "unobs") for mode in MODES),
           "exit4", "pos_bayes_m", "vel_bayes_mps", "pos_ml_m", "vel_ml_mps")


def _fractions(estimates) -> dict[str, float]:
    """The non-converged, capped and unobservable counts of one mode's
    estimates, and their number of frames."""
    capped = (estimates.iterations >= fusion._MAX_ITERATIONS) & ~estimates.converged
    return {"nc": int((~estimates.converged).sum()), "cap": int(capped.sum()),
            "unobs": int(estimates.unobservable.sum()), "frames": len(estimates)}


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    options = experiment.PipelineOptions(write_outputs=False)
    fuse_frames = experiment.fuse_frames
    fused = {}

    def recording(config, sim, poses, frames, options):
        fused.update(fuse_frames(config, sim, poses, frames, options))
        return fused

    experiment.fuse_frames = recording
    print(" | ".join(COLUMNS))
    exits = 0
    totals = {mode: dict.fromkeys(("nc", "cap", "unobs", "frames"), 0) for mode in MODES}
    try:
        for name in ("A", "B", "C"):
            for kind in ("straight", "random"):
                for seed in (7, 8, 9):
                    fused.clear()
                    config = builtin_scenario(name, kind, seed=seed)
                    report = experiment.run_experiment(config, options)
                    counts = {mode: _fractions(fused[mode]) for mode in MODES}
                    for mode in MODES:
                        for key, value in counts[mode].items():
                            totals[mode][key] += value
                    exit4 = (max(report.nonconverged_fraction.values())
                             > options.max_nonconverged_fraction)
                    exits += exit4
                    rmses = (report.position_rmse_bayes, report.velocity_rmse_bayes,
                             report.position_rmse_ml, report.velocity_rmse_ml)
                    cells = [f"{counts[mode][figure] / counts[mode]['frames']:.1%}"
                             for figure in ("nc", "cap", "unobs") for mode in MODES]
                    print(" | ".join([f"{name} {kind} {seed}", *cells, "yes" if exit4 else "no"]
                                     + [f"{x:.4f}" for x in rmses]))
    finally:
        experiment.fuse_frames = fuse_frames
    for mode in MODES:
        total = totals[mode]
        print(f"all runs {mode}: " + ", ".join(
            f"{figure} {total[figure]} of {total['frames']} ({total[figure] / total['frames']:.2%})"
            for figure in ("nc", "cap", "unobs")))
    print(f"runs that would exit 4: {exits} of 18")
    return 0


if __name__ == "__main__":
    sys.exit(main())
