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
        sim = tmp_path / "o" / "B" / "random" / "2" / "sim"
        assert (sim / "truth.csv").exists()
        assert (sim / "measurements.csv").exists()
        assert (sim / "scenario.json").exists()
        assert "simulated B" in capsys.readouterr().out

    def test_builtin_flag(self, tmp_path, capsys):
        code = main(["simulate", "--builtin", "C", "--trajectory", "straight",
                     "--seed", "5", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "C" / "straight" / "5" / "sim" / "measurements.csv").exists()

    @pytest.mark.parametrize("seed", ["0", "3"])
    def test_explicit_seed_overrides_the_config_seed(self, tmp_path, small_config, seed):
        # The config holds seed 2; an explicit --seed 0 is a seed like any other.
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(small_config), "--out", str(out), "--seed", seed]) == 0
        assert [d.name for d in (out / "B" / "random").iterdir()] == [seed]
        scenario = out / "B" / "random" / seed / "sim" / "scenario.json"
        assert json.loads(scenario.read_text())["seed"] == int(seed)


class TestExitCodes:
    def test_missing_scenario_is_config_error(self, capsys):
        assert main(["run"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_binary_config_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00\x89PNG")
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config file {path} is not valid JSON")
        assert "Traceback" not in err

    def test_config_missing_keys_listed(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "nodes": []}))
        assert main(["run", "--config", str(path)]) == 2
        assert "trajectory" in capsys.readouterr().err

    @pytest.mark.parametrize("field, edit", [
        ("nodes[1].x", lambda d: d["nodes"][1].update(x="abc")),
        ("nodes", lambda d: d.update(nodes=5)),
        ("trajectory.start", lambda d: d["trajectory"].update(start=[0])),
        ("num_frames", lambda d: d.update(num_frames=240.9)),
        ("seed", lambda d: d.update(seed="7")),
        ("noise.sigma_r", lambda d: d.update(noise={"sigma_r": True})),
        pytest.param("seed", lambda d: d.update(seed=-1), id="seed-negative"),
        pytest.param("trajectory.start", lambda d: d["trajectory"].update(start=["1.0", True]),
                     id="trajectory.start-string-and-bool"),
        pytest.param("trajectory.start", lambda d: d["trajectory"].update(start=[1.0, True]),
                     id="trajectory.start-bool"),
        pytest.param("trajectory.start", lambda d: d["trajectory"].update(start="1.0, 2.0"),
                     id="trajectory.start-string"),
        pytest.param("name", lambda d: d.update(name="../escape"), id="name-parent-path"),
        pytest.param("name", lambda d: d.update(name=["x", 1]), id="name-list"),
        pytest.param("name", lambda d: d.update(name=""), id="name-empty"),
        pytest.param("name", lambda d: d.update(name=".."), id="name-dotdot"),
        pytest.param("name", lambda d: d.update(name="a\\b"), id="name-backslash"),
        pytest.param("node 0", lambda d: d["nodes"][0].update(x=1), id="node0-not-origin"),
        # A range or field of view that blinds every node, or a half-angle
        # past 90 degrees, where pi*sin(theta) folds the back onto the front.
        pytest.param("max_range", lambda d: d.update(max_range=0), id="range-zero"),
        pytest.param("max_range", lambda d: d.update(max_range=-5), id="range-negative"),
        pytest.param("fov_half_angle_deg", lambda d: d.update(fov_half_angle_deg=0),
                     id="fov-zero"),
        pytest.param("fov_half_angle_deg", lambda d: d.update(fov_half_angle_deg=120),
                     id="fov-120"),
        pytest.param("fov_half_angle_deg", lambda d: d.update(fov_half_angle_deg=400),
                     id="fov-400"),
        # A key the program does not read, misspelt or of another
        # trajectory kind, would otherwise load as its default.
        pytest.param("num_frame", lambda d: d.update(num_frame=50), id="unknown-top-level"),
        pytest.param("trajectory.speed_cpa", lambda d: d["trajectory"].update(speed_cpa=1.5),
                     id="unknown-trajectory"),
        pytest.param("trajectory.speed", lambda d: d["trajectory"].update(speed=1.5),
                     id="straight-key-on-random"),
        pytest.param("nodes[1].phi", lambda d: d["nodes"][1].update(phi=1.0), id="unknown-node"),
        pytest.param("noise.sigma_w", lambda d: d["noise"].update(sigma_w=0.1),
                     id="unknown-noise"),
        pytest.param("calibration_trajectory.speed_cap",
                     lambda d: d["calibration_trajectory"].update(speed_cap=0.5),
                     id="random-key-on-straight"),
        pytest.param("frame_duration", lambda d: d.update(frame_duration=0),
                     id="frame-duration-zero"),
        pytest.param("trajectory smoothness", lambda d: d["trajectory"].update(smoothness=0),
                     id="smoothness-zero"),
        pytest.param("trajectory section missing keys:", lambda d: d["trajectory"].pop("start"),
                     id="trajectory-without-start"),
        # Its square, the variance the filter and the solver use, overflows.
        pytest.param("NoiseConfig.sigma_r", lambda d: d.update(noise={"sigma_r": 1e155}),
                     id="sigma-r-square-overflows"),
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
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists() and not (tmp_path / "escape").exists()

    @pytest.mark.parametrize("source", [["--builtin", "A"], ["--config", None]])
    def test_negative_seed_is_config_error(self, tmp_path, small_config, capsys, source):
        source = [small_config if arg is None else arg for arg in source]
        code = main(["simulate", *map(str, source), "--seed", "-1", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "config error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("verb", ["fuse", "run"])
    @pytest.mark.parametrize("value", ["-0.5", "-1e-300", "1.0000001", "1.5"])
    def test_max_nonconverged_outside_unit_interval_is_config_error(self, tmp_path, capsys,
                                                                    verb, value):
        # A negative limit made every run exit 4, though no frame failed.
        code = main([verb, "--builtin", "B", "--seed", "1", "--out", str(tmp_path / "o"),
                     f"--max-nonconverged={value}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"config error: --max-nonconverged must be finite and in [0, 1], got {value}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_max_nonconverged_takes_both_ends(self, value):
        from radarnet.cli import _options, build_parser

        args = build_parser().parse_args(["run", "--builtin", "B", "--max-nonconverged", value])
        assert _options(args).max_nonconverged_fraction == float(value)

    def test_no_pipeline_flags_give_the_library_defaults(self):
        from dataclasses import replace
        from pathlib import Path

        from radarnet.cli import _options, build_parser
        from radarnet.experiment import PipelineOptions

        options = _options(build_parser().parse_args(["run", "--builtin", "B"]))
        default = PipelineOptions()
        assert Path(options.out_dir) == Path(default.out_dir)
        assert replace(options, out_dir=default.out_dir) == default

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

    @pytest.mark.parametrize("verb, message", [
        ("calibrate", "calibration stage: node 1 never detected the target"),
        ("run", "calibration stage: node 1 never detected the target"),
        ("mc", "none of 2 trials completed"),
    ])
    def test_node_that_never_detects_is_pipeline_error(self, tmp_path, verb, message, capsys):
        from dataclasses import replace

        from radarnet.geometry import Pose2D

        # Node 1 sits beyond the maximum range of every target position.
        base = builtin_scenario("B", "random", seed=2)
        config = replace(base, num_frames=60, nodes=(base.nodes[0], Pose2D(30.0, 30.0, 0.0)))
        path = tmp_path / "blind.json"
        save_scenario(config, path)
        argv = [verb, "--config", str(path), "--out", str(tmp_path / "o")]
        assert main(argv + (["--trials", "2"] if verb == "mc" else [])) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("pipeline error: ") and message in err

    @pytest.mark.parametrize("verb", ["run", "mc"])
    def test_no_frame_past_the_burn_in_is_pipeline_error(self, tmp_path, verb, capsys):
        # A 3.5 m/s walk crosses both fields of view within the 10-frame burn-in.
        config = {
            "name": "fast",
            "nodes": [{"x": 0, "y": 0, "phi_deg": 0}, {"x": 0, "y": 7, "phi_deg": 180}],
            "trajectory": {"kind": "straight", "start": [2.0, 3.5], "speed": 3.5,
                           "heading_deg": 0},
            "calibration_trajectory": {"kind": "random", "start": [0, 3.5], "speed_cap": 0.8},
        }
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(config))
        argv = [verb, "--config", str(path), "--out", str(tmp_path / "o")]
        assert main(argv + (["--trials", "2"] if verb == "mc" else [])) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and "NaN" not in captured.out
        assert captured.err.startswith("pipeline error: ") and captured.err.count("\n") == 1
        written = [path.read_text() for path in (tmp_path / "o").rglob("*.json")]
        assert not any("NaN" in text for text in written)
        if verb == "run":
            assert "no frame past the 10-frame burn-in" in captured.err
            assert not list((tmp_path / "o").rglob("report.json"))
            assert captured.err.rstrip("\n").endswith("(seed 0)")
        else:
            summary = json.loads(captured.out)
            assert summary["completed"] == 0 and summary["failed"] == 2
            assert all("burn-in" in failure["error"] for failure in summary["failures"])
            assert all(failure["error"].endswith(f"(seed {failure['seed']})")
                       for failure in summary["failures"])

    def test_fuse_without_two_detecting_nodes_is_pipeline_error(self, tmp_path, capsys):
        # Both nodes face +y, so node 1 at (0, 7) sees only what node 0 cannot.
        config = {
            "name": "facing",
            "nodes": [{"x": 0, "y": 0, "phi_deg": 0}, {"x": 0, "y": 7, "phi_deg": 0}],
            "trajectory": {"kind": "random", "start": [0, 3.5], "speed_cap": 0.8},
            "num_frames": 200,
        }
        path = tmp_path / "facing.json"
        path.write_text(json.dumps(config))
        assert main(["fuse", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == ("pipeline error: no frame that two or more nodes detected in 200 frames "
                       "(seed 0)\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verb", ["calibrate", "run"])
    def test_negative_first_range_starts_the_track_later(self, tmp_path, verb, capsys):
        # Built-in C's nodes.  At sigma_r 2 m and seed 6, the calibration
        # stage's first detection has a range of -0.92 m.
        config = {"name": "noisy",
                  "nodes": [{"x": 0, "y": 0, "phi_deg": 0}, {"x": 0, "y": 7, "phi_deg": 180}],
                  "trajectory": {"kind": "random", "start": [0, 3.5], "speed_cap": 0.8},
                  "noise": {"sigma_r": 2.0}}
        path = tmp_path / "noisy.json"
        path.write_text(json.dumps(config))
        argv = [verb, "--config", str(path), "--seed", "6", "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert "Traceback" not in capsys.readouterr().err

    @staticmethod
    def c_config(tmp_path, **setting):
        """Built-in C's nodes and random walk with one more setting, as a file."""
        config = {"name": "c", "trajectory": {"kind": "random", "start": [0, 3.5],
                                              "speed_cap": 0.8},
                  "nodes": [{"x": 0, "y": 0, "phi_deg": 0}, {"x": 0, "y": 7, "phi_deg": 180}],
                  **setting}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        return path

    def test_start_within_the_update_range_starts_the_track_later(self, tmp_path, capsys):
        # At sigma_r 4 m and seed 0, the calibration stage's first node-0
        # range is 0.247 m: a track started there would never update.
        path = self.c_config(tmp_path, noise={"sigma_r": 4.0})
        argv = ["calibrate", "--config", str(path), "--seed", "0", "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("verb, setting, stage", [
        # 1e10 s frames: the EKF's innovation covariance is singular.
        ("calibrate", {"frame_duration": 1e10}, "calibration"),
        ("run", {"frame_duration": 1e10}, "calibration"),
        # Every candidate start's objective overflows at sigma_r 1e-200.
        ("fuse", {"noise": {"sigma_r": 1e-200}}, "fusion"),
        ("run", {"noise": {"sigma_r": 1e-200}}, "fusion"),
        # The range circles' squares overflow at sigma_r 1e154.
        ("fuse", {"noise": {"sigma_r": 1e154}}, "fusion"),
    ])
    def test_numerical_failure_is_pipeline_error(self, tmp_path, verb, setting, stage, capsys):
        path = self.c_config(tmp_path, **setting)
        argv = [verb, "--config", str(path), "--seed", "0", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert err.startswith(f"pipeline error: {stage} stage: ")
        # The user's seed, not the calibration stage's offset one.
        assert "(seed 0" in err

    @pytest.mark.parametrize("verb", ["simulate", "run"])
    def test_unwritable_out_is_config_error(self, tmp_path, small_config, capsys, verb):
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = [verb, "--config", str(small_config), "--out", str(blocker / "x")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and str(blocker) in err
        assert "Traceback" not in err

    def test_nonconvergence_exit_code(self, tmp_path, small_config, capsys, monkeypatch):
        # The strictest threshold and an iteration cap of 3 force the exit-4
        # path (frames still iterating at the cap stop unconverged) while
        # the report is still produced.
        monkeypatch.setattr("radarnet.fusion._MAX_ITERATIONS", 3)
        code = main(["run", "--config", str(small_config), "--out", str(tmp_path / "o"),
                     "--max-nonconverged", "0"])
        assert code == 4
        captured = capsys.readouterr()
        assert "non-convergence" in captured.err
        assert (tmp_path / "o" / "B" / "random" / "2" / "report" / "report.json").exists()


class TestCalibrateVerb:
    def test_writes_result(self, tmp_path, small_config, capsys):
        code = main(["calibrate", "--config", str(small_config), "--out", str(tmp_path / "o")])
        assert code == 0
        result = tmp_path / "o" / "B" / "random" / "2" / "calibration" / "result.json"
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
        path = tmp_path / "o" / "B" / "random" / "2" / "fusion" / "oneshot_only.csv"
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "frame,mode,x,y,vx,vy,converged,cond"
        assert len(lines) > 30

    def test_csv_bytes_match_inline_format(self, tmp_path):
        from dataclasses import replace

        from radarnet.experiment import PIPELINE_PRIOR
        from radarnet.fusion import frame_table, solve_frames
        from radarnet.scene import simulate

        config = replace(builtin_scenario("C", "random", seed=4), num_frames=40)
        path = tmp_path / "short.json"
        save_scenario(config, path)
        assert main(["fuse", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

        # The file as cmd_fuse formatted it with its own f-strings.
        sim = simulate(config)
        kept = [f for f in sim.measurement_frames()
                if sum(det is not None for det in f.per_node) >= 2]
        # A node that missed a kept frame holds its NaN triple there.
        table = frame_table(config.nodes, sim.detections[[f.frame_index for f in kept]])
        estimates = [solve_frames(table, config.noise, mode="ml"),
                     solve_frames(table, config.noise, mode="bayes", prior=PIPELINE_PRIOR)]
        rows = ["frame,mode,x,y,vx,vy,converged,cond"]
        for k, frame in enumerate(kept):
            for mode, per_mode in zip(("ml", "bayes"), estimates):
                est = per_mode[k]
                rows.append(
                    f"{frame.frame_index},{mode},{est.state.x!r},{est.state.y!r},"
                    f"{est.state.vx!r},{est.state.vy!r},{int(est.converged)},{est.conditioning!r}"
                )
        written = tmp_path / "o" / "C" / "random" / "4" / "fusion" / "oneshot_only.csv"
        assert len(rows) > 40
        assert written.read_text() == "\n".join(rows) + "\n"

    def test_with_calibration_file(self, tmp_path, small_config):
        assert main(["calibrate", "--config", str(small_config), "--out", str(tmp_path / "o")]) == 0
        calib = tmp_path / "o" / "B" / "random" / "2" / "calibration" / "result.json"
        code = main(["fuse", "--config", str(small_config), "--out", str(tmp_path / "o2"),
                     "--calibration", str(calib), "--mode", "ml"])
        assert code == 0

    def test_three_node_calibration_files(self, tmp_path, three_node_config):
        # `calibrate` writes result.json for node 1 and result_node2.json
        # for node 2; `fuse` reads both.
        assert main(["calibrate", "--config", str(three_node_config),
                     "--out", str(tmp_path / "o")]) == 0
        calib = tmp_path / "o" / "B" / "random" / "2" / "calibration" / "result.json"
        assert (calib.parent / "result_node2.json").exists()
        code = main(["fuse", "--config", str(three_node_config), "--out", str(tmp_path / "o2"),
                     "--calibration", str(calib)])
        assert code == 0
        fused = tmp_path / "o2" / "B" / "random" / "2" / "fusion" / "oneshot_only.csv"
        lines = fused.read_text().split()
        assert lines[0] == "frame,mode,x,y,vx,vy,converged,cond"
        assert len(lines) > 30

    def test_three_node_missing_calibration_file(self, tmp_path, three_node_config, capsys):
        assert main(["calibrate", "--config", str(three_node_config),
                     "--out", str(tmp_path / "o")]) == 0
        calib = tmp_path / "o" / "B" / "random" / "2" / "calibration" / "result.json"
        (calib.parent / "result_node2.json").unlink()
        code = main(["fuse", "--config", str(three_node_config), "--out", str(tmp_path / "o2"),
                     "--calibration", str(calib)])
        assert code == 2
        assert "result_node2.json" in capsys.readouterr().err

    @pytest.mark.parametrize("text, field", [
        ('{"px": 4.9, "py"', "is not valid JSON"),
        ('{"px": 4.9, "phi_deg": 90.0, "j_min": 0.1, "rmse": 0.02, "K": 200}', "py must be"),
        ("[4.9, 4.9, 90.0]", "must be a JSON object"),
        ('{"px": NaN, "py": 4.9, "phi_deg": 90.0, "j_min": 0.1, "rmse": 0.02, "K": 200}',
         "px must be finite"),
        ('{"px": 4.9, "py": 4.9, "phi_deg": 90.0, "j_min": 0.1, "rmse": 0.02, "K": 2.5}',
         "K must be an integer"),
        ('{"px": "4.9", "py": 4.9, "phi_deg": 90.0, "j_min": 0.1, "rmse": 0.02, "K": 200}',
         "px must be a number"),
        ('{"px": 4.9, "py": true, "phi_deg": 90.0, "j_min": 0.1, "rmse": 0.02, "K": 200}',
         "py must be a number"),
        (b"\xff\xfe\x00\x89PNG", "is not valid JSON"),
    ], ids=["malformed", "missing-key", "not-object", "nan", "fractional-K", "string-number",
            "bool-number", "binary"])
    def test_bad_calibration_file_is_config_error(self, tmp_path, small_config, capsys,
                                                  text, field):
        calib = tmp_path / "result.json"
        calib.write_bytes(text if isinstance(text, bytes) else text.encode())
        code = main(["fuse", "--config", str(small_config), "--out", str(tmp_path / "o"),
                     "--calibration", str(calib)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: calibration file {calib}") and field in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_three_node_run_writes_calibration_fuse_reads(self, tmp_path, three_node_config):
        # `run` writes every node's calibration file, so `fuse --calibration`
        # can take the run's result.json.
        assert main(["run", "--config", str(three_node_config), "--out", str(tmp_path / "o")]) == 0
        calib = tmp_path / "o" / "B" / "random" / "2" / "calibration" / "result.json"
        assert (calib.parent / "result_node2.json").exists()
        code = main(["fuse", "--config", str(three_node_config), "--out", str(tmp_path / "o2"),
                     "--calibration", str(calib)])
        assert code == 0

    def test_csv_bytes_match_node_set_loop(self, tmp_path):
        import numpy as np

        from radarnet.experiment import PIPELINE_PRIOR, PipelineOptions
        from radarnet.fusion import solve_frames
        from radarnet.scene import load_scenario, simulate, write_csv

        # Three nodes in a row facing +y and a walk along them: frames
        # seen by one node, by two different pairs and by all three.
        path = tmp_path / "line3.json"
        path.write_text(json.dumps({
            "name": "line3",
            "nodes": [{"x": x, "y": 0.0, "phi_deg": 0.0} for x in (0.0, 4.0, 8.0)],
            "trajectory": {"kind": "straight", "start": [-4.0, 3.0], "speed": 0.25,
                           "heading_deg": 0.0},
            "calibration_trajectory": {"kind": "random", "start": [4.0, 4.0], "speed_cap": 0.8},
            "num_frames": 400,
            "seed": 3,
        }))
        assert main(["fuse", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

        # The file as written by solving one frame table per set of
        # detecting nodes.
        config = load_scenario(path)
        sim = simulate(config)
        options = PipelineOptions()
        frame_indices = np.flatnonzero(sim.seen.sum(axis=1) >= 2)
        seen = sim.seen[frame_indices]
        pose_table = np.array([(pose.x, pose.y, pose.phi) for pose in config.nodes])
        cells = {mode: [None] * len(frame_indices) for mode in options.modes}
        node_sets = np.unique(seen, axis=0)
        for nodes in node_sets:
            rows = np.flatnonzero((seen == nodes).all(axis=1))
            detections = sim.detections[frame_indices[rows]][:, nodes]
            table = np.concatenate(
                (np.broadcast_to(pose_table[nodes], detections.shape), detections), axis=-1
            )
            for mode in options.modes:
                est = solve_frames(table, config.noise, mode=mode,
                                   prior=PIPELINE_PRIOR if mode == "bayes" else None)
                for t, state, converged, cond in zip(
                    rows.tolist(), est.states.tolist(), est.converged.tolist(),
                    est.conditioning.tolist(),
                ):
                    cells[mode][t] = [mode, *state, int(converged), cond]
        rows = [[k, *cells[mode][t]] for t, k in enumerate(frame_indices.tolist())
                for mode in options.modes]
        expected = tmp_path / "expected.csv"
        write_csv(expected, "frame,mode,x,y,vx,vy,converged,cond", rows)
        written = tmp_path / "o" / "line3" / "straight" / "3" / "fusion" / "oneshot_only.csv"
        assert np.bincount(seen.sum(axis=1)).tolist() == [0, 0, 213, 64]
        assert len(node_sets) == 3
        assert written.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("name", ["A", "B", "C", "three-node"])
    def test_csv_bytes_match_object_loop(self, tmp_path, name):
        import math
        from dataclasses import replace

        from radarnet.experiment import PIPELINE_PRIOR
        from radarnet.fusion import FusionObservation, ObservationEntry, solve
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
        # Each frame solved on its own, the object path's reference.
        estimates = [[solve(obs, config.noise, mode="ml") for obs in observations],
                     [solve(obs, config.noise, mode="bayes", prior=PIPELINE_PRIOR)
                      for obs in observations]]
        rows = []
        for k, frame_index in enumerate(frame_indices):
            for mode, per_mode in zip(("ml", "bayes"), estimates):
                est = per_mode[k]
                rows.append([frame_index, mode, est.state.x, est.state.y, est.state.vx,
                             est.state.vy, int(est.converged), est.conditioning])
        expected = tmp_path / "expected.csv"
        write_csv(expected, "frame,mode,x,y,vx,vy,converged,cond", rows)
        run_dir = tmp_path / "o" / config.name / config.trajectory.kind / str(config.rng_seed)
        written = run_dir / "fusion" / "oneshot_only.csv"
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
        run_dir = out / "B" / "random" / "2"
        assert (run_dir / "report" / "report.json").exists()
        code = main(["emit-plots", "--run-dir", str(run_dir)])
        assert code == 0
        assert (run_dir / "plots" / "plot_vx.csv").exists()

    def test_plots_name_every_node(self, tmp_path, three_node_config):
        out = tmp_path / "o"
        assert main(["run", "--config", str(three_node_config), "--out", str(out)]) == 0
        run_dir = out / "B" / "random" / "2"
        assert main(["emit-plots", "--run-dir", str(run_dir)]) == 0
        plots = run_dir / "plots"
        assert (plots / "plot_x.csv").read_text().split("\n")[0] == (
            "frame,truth,ekf1,ekf2_in_1,ekf3_in_1,track_fusion,oneshot_bayes,oneshot_ml"
        )
        assert (plots / "overlay.csv").read_text().split("\n")[0] == (
            "frame,ekf1_x,ekf1_y,ekf2_in_1_x,ekf2_in_1_y,ekf3_in_1_x,ekf3_in_1_y"
        )

    def test_byte_identical_reruns(self, tmp_path, small_config):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(small_config), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(small_config), "--out", str(out_b)]) == 0
        for rel in ("report/report.json", "fusion/per_frame.csv", "fusion/oneshot.csv",
                    "tracks/node0.csv", "tracks/track_fusion.csv", "calibration/result.json"):
            a = (out_a / "B" / "random" / "2" / rel).read_bytes()
            b = (out_b / "B" / "random" / "2" / rel).read_bytes()
            if rel == "report/report.json":
                a = a.replace(str(out_a).encode(), b"OUT")
                b = b.replace(str(out_b).encode(), b"OUT")
            assert a == b, rel


    def test_trajectory_kinds_at_one_seed_keep_their_own_files(self, tmp_path):
        out = tmp_path / "o"
        for kind in ("straight", "random"):
            assert main(["run", "--builtin", "A", "--trajectory", kind, "--seed", "7",
                         "--out", str(out)]) == 0
        files = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
        per_run = ["calibration/result.json", "fusion/measurements.csv", "fusion/oneshot.csv",
                   "fusion/per_frame.csv", "fusion/truth.csv", "report/report.json",
                   "scenario.json", "tracks/node0.csv", "tracks/node1_in_ref.csv",
                   "tracks/track_fusion.csv"]
        assert files == [f"A/{kind}/7/{rel}" for kind in ("random", "straight") for rel in per_run]
        for kind in ("straight", "random"):
            scenario = json.loads((out / "A" / kind / "7" / "scenario.json").read_text())
            assert scenario["trajectory"]["kind"] == kind


class TestMcVerb:
    def test_mc_aggregate(self, tmp_path, small_config, capsys):
        code = main(["mc", "--config", str(small_config), "--trials", "2",
                     "--out", str(tmp_path / "o"), "--mode", "bayes"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["trials"] == 2 and summary["completed"] == 2
        assert "calibration_rmse" in summary["aggregates"]
        assert (tmp_path / "o" / "B" / "random" / "mc_seed2_t2" / "aggregate.json").exists()

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


def test_python_m_radarnet_runs_the_cli():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import radarnet

    src = str(Path(radarnet.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "radarnet", "--help"], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0
    assert out.stdout.startswith("usage: radarnet")
