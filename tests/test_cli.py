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
