"""Print how far the pipeline's floats move against a git revision.

For a change that is not bit for bit, this sizes the move.  Each of the
18 built-in runs (A, B, C x straight, random x seeds 7-9) is
`experiment.run_experiment` with estimated poses and no outputs
written, once from the sources of this checkout and once from REV's
src/ (extracted with `git archive` into a temporary directory).  Per
run it prints one line against REV:

  det      the largest |delta| of the simulated detections, or how many
           triples one side sees and the other does not
  cal      the calibration's |delta| of node 1's position (m) and
           orientation (deg)
  ml bayes per mode: the frames whose LM iteration count changed, the
           converged flags that flipped, the frames converged on both
           sides whose state moved by more than 1e-6 m in position or
           1e-4 m/s in velocity (a change of basin, not of rounding), and
           the median and largest |delta state| (a frame's largest
           |delta| of x, y, vx, vy)
  rmse     the largest relative |delta| of the report's RMSEs
  nc       the ML and Bayes non-converged fractions, REV's -> this
           checkout's

and a last line with the largest of each over the 18 runs (for the
converged flips and the moved frames, their totals).  Each side
runs in its own Python process.  Stdlib plus numpy and radarnet; runs
from any directory.

    python3 tools/drift.py --rev REV
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path

import numpy as np

from revision import revision_src

ROOT = Path(__file__).resolve().parent.parent

RUNS = list(product("ABC", ("straight", "random"), (7, 8, 9)))
MODES = ("ml", "bayes")


def collect(src: str, out: str) -> None:
    """Run the 18 runs from the radarnet in `src` and save their arrays to `out`."""
    sys.path.insert(0, src)
    from radarnet import experiment
    from radarnet.scene import builtin_scenario, simulate

    options = experiment.PipelineOptions(write_outputs=False)
    fuse_frames = experiment.fuse_frames
    fused = {}

    def recording(config, sim, poses, frames, options):
        fused.update(frames=frames, estimates=fuse_frames(config, sim, poses, frames, options))
        return fused["estimates"]

    experiment.fuse_frames = recording
    arrays = {}
    for name, kind, seed in RUNS:
        config = builtin_scenario(name, kind, seed=seed)
        report = experiment.run_experiment(config, options)
        key = f"{name}_{kind}_{seed}"
        cal = report.calibration
        arrays[f"{key}.detections"] = simulate(config).detections
        arrays[f"{key}.calibration"] = np.array([cal["px"], cal["py"], cal["phi_deg"]])
        arrays[f"{key}.rmse"] = np.array([value for bench in sorted(report.rmse)
                                          for _, value in sorted(report.rmse[bench].items())])
        arrays[f"{key}.nonconverged"] = np.array(
            [report.nonconverged_fraction[mode] for mode in MODES])
        arrays[f"{key}.frames"] = fused["frames"]
        for mode in MODES:
            est = fused["estimates"][mode]
            arrays[f"{key}.{mode}.states"] = est.states
            arrays[f"{key}.{mode}.iterations"] = est.iterations
            arrays[f"{key}.{mode}.converged"] = est.converged
    np.savez(out, **arrays)


def _side(src: Path, out: Path) -> dict:
    """The arrays `collect` saves for the radarnet in `src`, from a fresh process."""
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--collect", str(src),
                    str(out)], check=True)
    with np.load(out) as data:
        return dict(data)


# A frame converged on both sides whose state moved by more than these
# (m, m/s) changed basin.
MOVE_TOLERANCES = (1e-6, 1e-4)


def _mode_drift(old: dict, new: dict, key: str, mode: str) -> tuple:
    """Iteration changes, converged flips, moved frames, median and largest
    |delta state|."""
    if old[f"{key}.frames"].tobytes() != new[f"{key}.frames"].tobytes():
        return None
    changed = int(np.count_nonzero(old[f"{key}.{mode}.iterations"]
                                   != new[f"{key}.{mode}.iterations"]))
    converged = old[f"{key}.{mode}.converged"], new[f"{key}.{mode}.converged"]
    flips = int(np.count_nonzero(converged[0] != converged[1]))
    delta = np.abs(new[f"{key}.{mode}.states"] - old[f"{key}.{mode}.states"])
    beyond = ((delta[:, :2] > MOVE_TOLERANCES[0]).any(axis=1)
              | (delta[:, 2:] > MOVE_TOLERANCES[1]).any(axis=1))
    moved = int(np.count_nonzero(beyond & converged[0] & converged[1]))
    delta = delta.max(axis=1)
    return changed, flips, moved, float(np.median(delta)), float(delta.max())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", help="git revision to compare against (required)")
    parser.add_argument("--collect", nargs=2, metavar=("SRC", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        collect(*args.collect)
        return 0
    if args.rev is None:
        parser.error("--rev is required")
    with tempfile.TemporaryDirectory() as work, revision_src(args.rev) as src:
        old = _side(src, Path(work) / "old.npz")
        new = _side(ROOT / "src", Path(work) / "new.npz")

    worst = {"det": 0.0, "cal_m": 0.0, "cal_deg": 0.0, "rmse": 0.0, "flips": 0, "moved": 0}
    for name, kind, seed in RUNS:
        key = f"{name}_{kind}_{seed}"
        fields = [f"{name} {kind} {seed}"]
        det_old, det_new = old[f"{key}.detections"], new[f"{key}.detections"]
        seen = ~np.isnan(det_old)
        if (seen != ~np.isnan(det_new)).any():
            fields.append(f"det mask differs in {np.count_nonzero(seen != ~np.isnan(det_new))}")
            worst["det"] = np.inf
        else:
            det = float(np.abs(det_new[seen] - det_old[seen]).max(initial=0.0))
            fields.append(f"det {det:.1e}")
            worst["det"] = max(worst["det"], det)
        cal = np.abs(new[f"{key}.calibration"] - old[f"{key}.calibration"])
        cal_m = float(np.hypot(cal[0], cal[1]))
        cal_deg = float(abs((cal[2] + 180.0) % 360.0 - 180.0))
        fields.append(f"cal {cal_m:.1e} m {cal_deg:.1e} deg")
        worst["cal_m"] = max(worst["cal_m"], cal_m)
        worst["cal_deg"] = max(worst["cal_deg"], cal_deg)
        for mode in MODES:
            drift = _mode_drift(old, new, key, mode)
            if drift is None:
                fields.append(f"{mode} frames differ")
                continue
            changed, flips, moved, median, largest = drift
            fields.append(f"{mode} it {changed} flip {flips} moved {moved} med {median:.1e} "
                          f"max {largest:.1e}")
            worst["flips"] += flips
            worst["moved"] += moved
        rmse_old, rmse_new = old[f"{key}.rmse"], new[f"{key}.rmse"]
        rmse = float((np.abs(rmse_new - rmse_old) / np.abs(rmse_old)).max())
        fields.append(f"rmse {rmse:.1e}")
        worst["rmse"] = max(worst["rmse"], rmse)
        nc_old, nc_new = old[f"{key}.nonconverged"], new[f"{key}.nonconverged"]
        fields.append("nc " + " ".join(f"{mode} {a:.3%}->{b:.3%}"
                                       for mode, a, b in zip(MODES, nc_old, nc_new)))
        print("  ".join(fields), flush=True)
    print(f"largest: det {worst['det']:.1e}  cal {worst['cal_m']:.1e} m "
          f"{worst['cal_deg']:.1e} deg  rmse {worst['rmse']:.1e}  "
          f"converged flips {worst['flips']}  moved {worst['moved']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
