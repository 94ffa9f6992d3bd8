"""The command-line tools under tools/ load, parse their options and
compute their figures, so that a tool cannot break unseen."""

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import code_lines  # noqa: E402
import solve_timing  # noqa: E402
import solver_table  # noqa: E402


def test_solve_timing_pass_rows_are_kernel_sums():
    """Each pass row is the median over inputs of the per-input sum of its
    kernels, not a sum of kernel medians, and nothing is fitted; the EKF
    row is the median of the tracker inputs."""
    kernels = np.array([
        # start stage, score starts, evaluate, normal equations, curvature,
        # step matrix, damped solve, lm loop
        [90.0, 40.0, 10.0, 5.0, 2.0, 6.0, 1.0, 150.0],
        [80.0, 60.0, 30.0, 1.0, 3.0, 2.0, 4.0, 250.0],
        [70.0, 50.0, 20.0, 9.0, 1.0, 4.0, 2.0, 200.0],
    ]) * 1e-6
    kinds = ([("frame", "")] * 3 + [("grid", "")] + [("kernels", "")] * 3
             + [("table", "A straight"), ("table", "C random")]
             + [("tracker", "A straight"), ("tracker", "B random"), ("tracker", "C random")])
    timings = ([[5e-4, 4e-4], [6e-4, 4e-4], [7e-4, 5e-4]] + [[9e-4]] + kernels.tolist()
               + [[0.010, 0.008], [0.020, 0.015]] + [[5.0e-6], [7.0e-6], [4.5e-6]])
    result = solve_timing.figures(kinds, timings)
    per_input = {"accepted pass": [22.0, 37.0, 35.0], "rejected pass": [11.0, 34.0, 22.0]}
    for name, sums in per_input.items():
        assert result[f"{name} (us)"] == pytest.approx(float(np.median(sums)))
    # Summing the kernel medians would read 20 + 5 + 4 + 2 = 31 µs.
    assert result["accepted pass (us)"] == pytest.approx(35.0)
    for name, column in zip(solve_timing.KERNELS, kernels.T):
        assert result[f"{name} (us)"] == pytest.approx(1e6 * float(np.median(column)))
    # The start scoring and the whole LM loop are rows of their own, in no pass.
    assert result["score starts (us)"] == pytest.approx(50.0)
    assert result["lm loop (us)"] == pytest.approx(200.0)
    assert result["pair (us)"] == pytest.approx(1000.0)
    assert result["grid (us)"] == pytest.approx(900.0)
    assert result["solve_frames pairs (ms)"] == pytest.approx(53.0)
    # The tracker inputs' seconds per node-frame, their median in µs.
    assert result["run_tracker (us per node-frame)"] == pytest.approx(5.0)
    assert set(result) == {
        "solve ml (us)", "solve bayes (us)", "pair (us)", "grid (us)",
        *(f"{name} (us)" for name in (*solve_timing.KERNELS, *solve_timing.PASSES)),
        *(f"solve_frames {table} {mode} (ms)"
          for table in ("A straight", "C random") for mode in ("ml", "bayes")),
        "solve_frames pairs (ms)", "run_tracker (us per node-frame)",
    }


def test_solve_timing_runs_every_kernel_on_this_tree():
    """Every kernel row times a call this tree can run; the start scoring
    objective of the frame's three candidates on the repeated models, and
    the LM loop `solve`'s from the start it picks."""
    from radarnet.experiment import PIPELINE_PRIOR
    from radarnet.fusion import FusionObservation, ObservationEntry, solve
    from radarnet.geometry import TargetState, measure
    from radarnet.scene import Detection, NoiseConfig, builtin_scenario

    target = TargetState(2.0, 3.0, 0.5, -0.5)
    entries = []
    for node in builtin_scenario("A").nodes:
        m = measure(node, target)
        entries.append(ObservationEntry(node, Detection(m.range, m.spatial_freq, m.radial_vel)))
    obs = FusionObservation(tuple(entries))
    calls = solve_timing._kernel_calls(obs, NoiseConfig(), PIPELINE_PRIOR)
    assert len(calls) == len(solve_timing.KERNELS) and None not in calls
    for call in calls[solve_timing.KERNELS.index("score starts")]:
        values = call()
        assert values.shape == (3,) and np.isfinite(values).all()
    lm_loop = calls[solve_timing.KERNELS.index("lm loop")]
    for call, (mode, prior) in zip(lm_loop, (("ml", None), ("bayes", PIPELINE_PRIOR))):
        est = solve(obs, NoiseConfig(), mode=mode, prior=prior)
        for _ in range(2):
            states, values, _, iterations, converged = call()
            assert states[0].tolist() == est.state.as_vector().tolist()
            assert (values[0], iterations[0], converged[0]) == (
                est.objective_value, est.iterations, est.converged)


def test_solver_table_observable_velocity_rmse_skips_flagged_and_burn_in_frames():
    truth = np.zeros((30, 4))
    frames = np.array([5, 12, 13, 20, 25])
    states = np.zeros((5, 4))
    states[:, 2] = [100.0, 3.0, 50.0, 4.0, 0.0]
    states[:, 3] = [0.0, 0.0, 0.0, 0.0, 12.0]
    estimates = SimpleNamespace(states=states,
                                unobservable=np.array([False, False, True, False, False]))
    rmse = solver_table._observable_velocity_rmse(SimpleNamespace(truth=truth), frames, estimates)
    # Frame 5 is in the burn-in and frame 13 flagged: frames 12, 20 and 25 remain.
    assert rmse == pytest.approx(np.sqrt((9.0 + 16.0 + 144.0) / 3))
    estimates.unobservable[:] = True
    assert np.isnan(solver_table._observable_velocity_rmse(SimpleNamespace(truth=truth), frames,
                                                          estimates))


def test_solver_table_all_runs_line_gives_lm_iteration_percentiles():
    # 200 frames: 100 of 3 iterations, 98 of 5, one of 40 and one of 100.
    iterations = np.array([3] * 100 + [5] * 98 + [40, 100])
    total = {"nc": 2, "cap": 1, "unobs": 0, "frames": 200}
    line = solver_table._all_runs_line("bayes", total, np.random.default_rng(1).permutation(
        iterations))
    # Nearest rank: p50 is the 100th smallest, p99 the 198th.
    assert line == ("all runs bayes: nc 2 of 200 (1.00%), cap 1 of 200 (0.50%), "
                    "unobs 0 of 200 (0.00%), lm iterations p50 3 p99 5 max 100")


def _has_git_metadata() -> bool:
    try:
        return subprocess.run(["git", "-C", str(TOOLS.parent), "rev-parse", "--verify", "HEAD"],
                              capture_output=True).returncode == 0
    except FileNotFoundError:
        return False


@pytest.mark.parametrize("argv", [
    [],
    pytest.param(["--rev", "HEAD"], marks=pytest.mark.skipif(
        not _has_git_metadata(), reason="the checkout has no git metadata")),
])
def test_code_lines_prints_every_module_and_a_total(argv, capsys):
    assert code_lines.main(argv) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    modules = sorted(path.stem for path in (TOOLS.parent / "src" / "radarnet").glob("*.py"))
    assert sorted(names[:-1]) == modules
    assert names[-1] == "total"


@pytest.mark.parametrize("tool", ["code_lines", "drift", "fingerprint", "solve_timing",
                                  "solver_table"])
def test_help_exits_zero(tool):
    done = subprocess.run([sys.executable, str(TOOLS / f"{tool}.py"), "--help"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")
