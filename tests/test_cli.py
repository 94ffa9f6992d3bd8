"""Command-line surface: verbs, flags, exit codes, determinism."""

import json

import pytest

from radarnet.cli import main
from radarnet.scene import builtin_scenario, save_scenario


@pytest.fixture()
def small_config(tmp_path):
    from dataclasses import replace

    config = replace(builtin_scenario("B", "random", seed=2), num_frames=240)
    path = tmp_path / "scenario.json"
    save_scenario(config, path)
    return path


@pytest.fixture()
def three_node_config(tmp_path):
    import math
    from dataclasses import replace

    from radarnet.geometry import Pose2D

    base = builtin_scenario("B", "random", seed=2)
    config = replace(
        base, num_frames=240, nodes=base.nodes + (Pose2D(4.0, 3.5, math.radians(125.0)),)
    )
    path = tmp_path / "scenario3.json"
    save_scenario(config, path)
    return path


class TestSimulate:
    def test_writes_sim_outputs(self, tmp_path, small_config, capsys):
        code = main(["simulate", "--config", str(small_config), "--out", str(tmp_path / "o")])
        assert code == 0
        sim = tmp_path / "o" / "B" / "2" / "sim"
        assert (sim / "truth.csv").exists()
        assert (sim / "measurements.csv").exists()
        assert (sim / "scenario.json").exists()
        assert "simulated B" in capsys.readouterr().out

    def test_builtin_flag(self, tmp_path, capsys):
        code = main(["simulate", "--builtin", "C", "--trajectory", "straight",
                     "--seed", "5", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "C" / "5" / "sim" / "measurements.csv").exists()


class TestExitCodes:
    def test_missing_scenario_is_config_error(self, capsys):
        assert main(["run"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_config_missing_keys_listed(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "nodes": []}))
        assert main(["run", "--config", str(path)]) == 2
        assert "trajectory" in capsys.readouterr().err

    @pytest.mark.parametrize("field, edit", [
        ("nodes[1].x", lambda d: d["nodes"][1].update(x="abc")),
        ("nodes", lambda d: d.update(nodes=5)),
        ("trajectory.start", lambda d: d["trajectory"].update(start=[0])),
    ])
    def test_malformed_config_field_is_config_error(self, tmp_path, small_config, capsys,
                                                    field, edit):
        d = json.loads(small_config.read_text())
        edit(d)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(d))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {field} " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("verb", ["simulate", "run"])
    @pytest.mark.parametrize("field, edit", [
        ("nodes[1].x", lambda d: d["nodes"][1].update(x=float("nan"))),
        ("max_range", lambda d: d.update(max_range=float("inf"))),
        ("trajectory.start", lambda d: d["trajectory"].update(start=[0.0, float("-inf")])),
    ])
    def test_non_finite_config_number_is_config_error(self, tmp_path, small_config, capsys,
                                                      verb, field, edit):
        d = json.loads(small_config.read_text())
        edit(d)
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(d))  # writes the NaN / Infinity tokens
        assert main([verb, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {field} " in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verb", ["calibrate", "fuse", "run", "mc"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_max_nonconverged_is_config_error(self, tmp_path, small_config, capsys,
                                                         verb, value):
        # NaN never exceeds a fraction, so it would switch exit 4 off.
        code = main([verb, "--config", str(small_config), "--out", str(tmp_path / "o"),
                     f"--max-nonconverged={value}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: --max-nonconverged must be finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_both_scenario_sources_rejected(self, tmp_path, small_config, capsys):
        assert main(["run", "--config", str(small_config), "--builtin", "A"]) == 2

    def test_degenerate_calibration(self, tmp_path, small_config, capsys, monkeypatch):
        # Zero-energy tracks make the relative orientation undefined;
        # the calibration module's error surfaces as exit code 3.
        from radarnet.calibration import DegenerateTrackError
        import radarnet.experiment

        def explode(*args, **kwargs):
            raise DegenerateTrackError("centered tracks have zero inner product")

        monkeypatch.setattr(radarnet.experiment, "calibrate_pair", explode)
        code = main(["run", "--config", str(small_config), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "degenerate" in capsys.readouterr().err

    def test_nonconvergence_exit_code(self, tmp_path, small_config, capsys):
        # An impossibly strict threshold forces the exit-4 path while
        # the report is still produced.
        code = main(["run", "--config", str(small_config), "--out", str(tmp_path / "o"),
                     "--max-nonconverged", "-1.0"])
        assert code == 4
        captured = capsys.readouterr()
        assert "non-convergence" in captured.err
        assert (tmp_path / "o" / "B" / "2" / "report" / "report.json").exists()


class TestCalibrateVerb:
    def test_writes_result(self, tmp_path, small_config, capsys):
        code = main(["calibrate", "--config", str(small_config), "--out", str(tmp_path / "o")])
        assert code == 0
        result = tmp_path / "o" / "B" / "2" / "calibration" / "result.json"
        assert result.exists()
        payload = json.loads(result.read_text())
        assert set(payload) == {"px", "py", "phi_deg", "j_min", "rmse", "K"}
        out = capsys.readouterr().out
        assert "calibrated on straight trajectory" in out


class TestFuseVerb:
    def test_true_pose_fusion(self, tmp_path, small_config, capsys):
        code = main(["fuse", "--config", str(small_config), "--out", str(tmp_path / "o"),
                     "--mode", "bayes"])
        assert code == 0
        path = tmp_path / "o" / "B" / "2" / "fusion" / "oneshot_only.csv"
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "frame,mode,x,y,vx,vy,converged,cond"
        assert len(lines) > 30

    def test_csv_bytes_match_inline_format(self, tmp_path):
        from dataclasses import replace

        from radarnet.experiment import PipelineOptions, simulate_scenario
        from radarnet.fusion import FusionObservation, ObservationEntry, solve_frames

        config = replace(builtin_scenario("C", "random", seed=4), num_frames=40)
        path = tmp_path / "short.json"
        save_scenario(config, path)
        assert main(["fuse", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

        # The file as cmd_fuse formatted it with its own f-strings.
        _, frames = simulate_scenario(config)
        kept = [f for f in frames if sum(det is not None for det in f.per_node) >= 2]
        observations = [
            FusionObservation(tuple(
                ObservationEntry(node, det)
                for node, det in zip(config.nodes, f.per_node) if det is not None
            ))
            for f in kept
        ]
        prior = PipelineOptions().prior
        estimates = [solve_frames(observations, config.noise, mode="ml"),
                     solve_frames(observations, config.noise, mode="bayes", prior=prior)]
        rows = ["frame,mode,x,y,vx,vy,converged,cond"]
        for k, frame in enumerate(kept):
            for mode, per_mode in zip(("ml", "bayes"), estimates):
                est = per_mode[k]
                rows.append(
                    f"{frame.frame_index},{mode},{est.state.x!r},{est.state.y!r},"
                    f"{est.state.vx!r},{est.state.vy!r},{int(est.converged)},{est.conditioning!r}"
                )
        written = tmp_path / "o" / "C" / "4" / "fusion" / "oneshot_only.csv"
        assert len(rows) > 40
        assert written.read_text() == "\n".join(rows) + "\n"

    def test_with_calibration_file(self, tmp_path, small_config):
        assert main(["calibrate", "--config", str(small_config), "--out", str(tmp_path / "o")]) == 0
        calib = tmp_path / "o" / "B" / "2" / "calibration" / "result.json"
        code = main(["fuse", "--config", str(small_config), "--out", str(tmp_path / "o2"),
                     "--calibration", str(calib), "--mode", "ml"])
        assert code == 0

    def test_three_node_calibration_files(self, tmp_path, three_node_config):
        # `calibrate` writes result.json for node 1 and result_node2.json
        # for node 2; `fuse` reads both.
        assert main(["calibrate", "--config", str(three_node_config),
                     "--out", str(tmp_path / "o")]) == 0
        calib = tmp_path / "o" / "B" / "2" / "calibration" / "result.json"
        assert (calib.parent / "result_node2.json").exists()
        code = main(["fuse", "--config", str(three_node_config), "--out", str(tmp_path / "o2"),
                     "--calibration", str(calib)])
        assert code == 0
        lines = (tmp_path / "o2" / "B" / "2" / "fusion" / "oneshot_only.csv").read_text().split()
        assert lines[0] == "frame,mode,x,y,vx,vy,converged,cond"
        assert len(lines) > 30

    def test_three_node_missing_calibration_file(self, tmp_path, three_node_config, capsys):
        assert main(["calibrate", "--config", str(three_node_config),
                     "--out", str(tmp_path / "o")]) == 0
        calib = tmp_path / "o" / "B" / "2" / "calibration" / "result.json"
        (calib.parent / "result_node2.json").unlink()
        code = main(["fuse", "--config", str(three_node_config), "--out", str(tmp_path / "o2"),
                     "--calibration", str(calib)])
        assert code == 2
        assert "result_node2.json" in capsys.readouterr().err

    def test_three_node_run_writes_calibration_fuse_reads(self, tmp_path, three_node_config):
        # `run` writes every node's calibration file, so `fuse --calibration`
        # can take the run's result.json.
        assert main(["run", "--config", str(three_node_config), "--out", str(tmp_path / "o")]) == 0
        calib = tmp_path / "o" / "B" / "2" / "calibration" / "result.json"
        assert (calib.parent / "result_node2.json").exists()
        code = main(["fuse", "--config", str(three_node_config), "--out", str(tmp_path / "o2"),
                     "--calibration", str(calib)])
        assert code == 0

    @pytest.mark.parametrize("name", ["A", "B", "C", "three-node"])
    def test_csv_bytes_match_object_loop(self, tmp_path, name):
        import math
        from dataclasses import replace

        from radarnet.experiment import PipelineOptions
        from radarnet.fusion import FusionObservation, ObservationEntry, solve_frames
        from radarnet.geometry import Pose2D
        from radarnet.scene import simulate, write_csv

        if name == "three-node":
            # Frames seen by nodes {0, 1}, by {1, 2} and by all three.
            base = builtin_scenario("A", "random", seed=7)
            config = replace(base, nodes=base.nodes + (Pose2D(5.0, 5.0, math.radians(200.0)),))
        else:
            config = builtin_scenario(name, "random", seed=7)
        path = tmp_path / "scenario.json"
        save_scenario(config, path)
        assert main(["fuse", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

        # The file as the object loop over MeasurementFrames wrote it.
        frame_indices = []
        observations = []
        node_sets = set()
        for frame in simulate(config).measurement_frames():
            entries = [ObservationEntry(config.nodes[i], det)
                       for i, det in enumerate(frame.per_node) if det is not None]
            if len(entries) < 2:
                continue
            node_sets.add(tuple(det is not None for det in frame.per_node))
            frame_indices.append(frame.frame_index)
            observations.append(FusionObservation(tuple(entries)))
        prior = PipelineOptions().prior
        estimates = [solve_frames(observations, config.noise, mode="ml"),
                     solve_frames(observations, config.noise, mode="bayes", prior=prior)]
        rows = []
        for k, frame_index in enumerate(frame_indices):
            for mode, per_mode in zip(("ml", "bayes"), estimates):
                est = per_mode[k]
                rows.append([frame_index, mode, est.state.x, est.state.y, est.state.vx,
                             est.state.vy, int(est.converged), est.conditioning])
        expected = tmp_path / "expected.csv"
        write_csv(expected, "frame,mode,x,y,vx,vy,converged,cond", rows)
        written = tmp_path / "o" / config.name / str(config.rng_seed) / "fusion" / "oneshot_only.csv"
        assert len(rows) > 100
        assert written.read_bytes() == expected.read_bytes()
        assert len(node_sets) == (3 if name == "three-node" else 1)


class TestRunVerb:
    def test_full_run_and_plots(self, tmp_path, small_config, capsys):
        out = tmp_path / "o"
        code = main(["run", "--config", str(small_config), "--out", str(out)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scenario"] == "B"
        run_dir = out / "B" / "2"
        assert (run_dir / "report" / "report.json").exists()
        code = main(["emit-plots", "--run-dir", str(run_dir)])
        assert code == 0
        assert (run_dir / "plots" / "plot_vx.csv").exists()

    def test_byte_identical_reruns(self, tmp_path, small_config):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(small_config), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(small_config), "--out", str(out_b)]) == 0
        for rel in ("report/report.json", "fusion/per_frame.csv", "fusion/oneshot.csv",
                    "tracks/node0.csv", "tracks/track_fusion.csv", "calibration/result.json"):
            a = (out_a / "B" / "2" / rel).read_bytes()
            b = (out_b / "B" / "2" / rel).read_bytes()
            if rel == "report/report.json":
                a = a.replace(str(out_a).encode(), b"OUT")
                b = b.replace(str(out_b).encode(), b"OUT")
            assert a == b, rel


class TestMcVerb:
    def test_mc_aggregate(self, tmp_path, small_config, capsys):
        code = main(["mc", "--config", str(small_config), "--trials", "2",
                     "--out", str(tmp_path / "o"), "--mode", "bayes"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["trials"] == 2 and summary["completed"] == 2
        assert "calibration_rmse" in summary["aggregates"]
        assert (tmp_path / "o" / "B" / "mc_seed2_t2" / "aggregate.json").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--trials", "0"), ("--trials", "-3"), ("--jobs", "0"), ("--jobs", "-1"),
    ])
    def test_count_below_one_is_config_error(self, tmp_path, small_config, capsys, flag, value):
        code = main(["mc", "--config", str(small_config), "--out", str(tmp_path / "o"),
                     flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: {flag} must be >= 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()


def test_cli_import_leaves_the_process_pool_unloaded():
    # The pool is imported by `run_monte_carlo` only when jobs > 1, so
    # every other command starts without multiprocessing.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import radarnet

    src = str(Path(radarnet.__file__).resolve().parents[1])
    code = "import sys, radarnet.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
