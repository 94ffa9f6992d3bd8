"""Print the one-shot solver's table over the 18 built-in runs.

Each run is `experiment.run_experiment` on a built-in scenario (A, B, C
x straight, random x seeds 7-9), with estimated poses and no outputs
written, from the radarnet sources of this checkout.  Per run it prints
the ML and Bayes non-converged fractions, whether `radarnet run` would
exit 4 at the default --max-nonconverged, and the Bayes and ML position
and velocity RMSEs against truth.  Stdlib plus radarnet.

    python3 tools/solver_table.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from radarnet.experiment import PipelineOptions, run_experiment  # noqa: E402
from radarnet.scene import builtin_scenario  # noqa: E402

COLUMNS = ("run", "nc_ml", "nc_bayes", "exit4", "pos_bayes_m", "vel_bayes_mps", "pos_ml_m",
           "vel_ml_mps")


def main() -> int:
    options = PipelineOptions(write_outputs=False)
    print(" | ".join(COLUMNS))
    exits = 0
    for name in ("A", "B", "C"):
        for kind in ("straight", "random"):
            for seed in (7, 8, 9):
                report = run_experiment(builtin_scenario(name, kind, seed=seed), options)
                nonconverged = report.nonconverged_fraction
                exit4 = max(nonconverged.values()) > options.max_nonconverged_fraction
                exits += exit4
                rmses = (report.position_rmse_bayes, report.velocity_rmse_bayes,
                         report.position_rmse_ml, report.velocity_rmse_ml)
                print(" | ".join([f"{name} {kind} {seed}", f"{nonconverged['ml']:.1%}",
                                  f"{nonconverged['bayes']:.1%}", "yes" if exit4 else "no"]
                                 + [f"{x:.4f}" for x in rmses]))
    print(f"runs that would exit 4: {exits} of 18")
    return 0


if __name__ == "__main__":
    sys.exit(main())
