"""Pipeline-level behavior: reports, outputs, Monte Carlo, plot data."""

import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from radarnet.experiment import (
    CALIBRATION_SEED_OFFSET,
    PipelineError,
    PipelineOptions,
    calibrate_scenario,
    calibration_stage_config,
    emit_plot_data,
    paired_positions,
    run_experiment,
    run_monte_carlo,
)
from radarnet.scene import NoiseConfig, builtin_scenario
from radarnet.tracking import Track, TrackPoint


def small_scenario(name="B", kind="random", seed=1, num_frames=120):
    return replace(builtin_scenario(name, kind, seed=seed), num_frames=num_frames)


def near_zero_noise(config):
    return replace(
        config, noise=NoiseConfig(sigma_r=1e-9, sigma_omega=1e-9, sigma_v=1e-9)
    )


@pytest.fixture(scope="module")
def b_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run_b")
    config = small_scenario()
    report = run_experiment(config, PipelineOptions(out_dir=out))
    return config, report, out


class TestCrossTrajectoryProtocol:
    def test_calibration_uses_counterpart_kind(self):
        config = builtin_scenario("A", "random", seed=0)
        stage = calibration_stage_config(config, PipelineOptions())
        assert config.trajectory.kind == "random"
        assert stage.trajectory.kind == "straight"
        assert stage.rng_seed == config.rng_seed + CALIBRATION_SEED_OFFSET

    def test_same_trajectory_override(self):
        config = builtin_scenario("A", "random", seed=0)
        stage = calibration_stage_config(config, PipelineOptions(cross_trajectory=False))
        assert stage.trajectory.kind == "random"


class TestPairedPositions:
    def test_drops_non_updated_and_transient(self):
        def point(k, updated=True):
            return TrackPoint(k, complex(k, 0), np.zeros(2), np.eye(4), updated)

        t1 = Track(frames=[point(k) for k in range(40)])
        t2 = Track(frames=[point(k, updated=(k < 10 or k > 20)) for k in range(40)])
        z1, z2 = paired_positions(t1, t2, skip=2, gap=5, settle=4)
        # Frames 10..20 are not updated in t2; 4 settle frames follow the
        # gap; 2 skip frames are removed from the front.
        expected = list(range(2, 10)) + list(range(25, 40))
        assert [int(z.real) for z in z1] == expected
        np.testing.assert_array_equal(z1, z2)

    def test_too_few_pairs(self):
        t = Track(frames=[TrackPoint(0, 0j, np.zeros(2), np.eye(4))])
        with pytest.raises(PipelineError):
            paired_positions(t, t, skip=0)

    def test_too_few_pairs_names_the_tuning(self):
        # A zero-noise filter with a tight gate rejects most detections,
        # so the calibration stage finds too few pairs.
        from radarnet.tracking import EkfConfig

        ekf = EkfConfig(process_noise_accel=0.0, gate_threshold=7.81)
        options = replace(PipelineOptions(write_outputs=False), ekf=ekf)
        with pytest.raises(PipelineError) as info:
            calibrate_scenario(builtin_scenario("A", "straight", seed=7), options)
        message = str(info.value)
        assert message.startswith("fewer than 2 usable track pairs for calibration of node 1")
        assert "gate_threshold=7.81" in message and "process_noise_accel=0.0" in message
        assert "tuning error" in message
        # Each node's EKF-updated and detected frame counts.
        counts = re.findall(r"node (\d) (\d+)/(\d+)", message)
        assert [node for node, _, _ in counts] == ["0", "1"]
        assert all(0 <= int(updated) <= int(detected) for _, updated, detected in counts)
        assert any(2 * int(updated) < int(detected) for _, updated, detected in counts)


class TestRunExperiment:
    def test_report_contents(self, b_run):
        config, report, out = b_run
        assert report.scenario == "B" and report.seed == 1
        assert set(report.rmse) == {"truth", "track_fusion"}
        for bench in report.rmse.values():
            assert set(bench) == {"position_ml", "velocity_ml", "position_bayes", "velocity_bayes"}
            assert all(v >= 0 for v in bench.values())
        assert report.calibration["K"] > 0
        assert report.position_rmse_bayes == report.rmse["truth"]["position_bayes"]
        assert 0 < report.frames_evaluated <= config.num_frames

    def test_output_layout(self, b_run):
        config, report, out = b_run
        run_dir = Path(report.out_dir)
        assert run_dir == out / "B" / "1"
        for rel in (
            "scenario.json",
            "tracks/node0.csv",
            "tracks/node1_in_ref.csv",
            "tracks/track_fusion.csv",
            "calibration/result.json",
            "fusion/oneshot.csv",
            "fusion/per_frame.csv",
            "report/report.json",
        ):
            assert (run_dir / rel).exists(), rel

    def test_oneshot_csv_schema(self, b_run):
        _, report, _ = b_run
        lines = (Path(report.out_dir) / "fusion" / "oneshot.csv").read_text().strip().split("\n")
        assert lines[0] == (
            "frame,mode,x,y,vx,vy,converged,cond,"
            "c11,c12,c13,c14,c22,c23,c24,c33,c34,c44"
        )
        modes = {line.split(",")[1] for line in lines[1:]}
        assert modes == {"ml", "bayes"}

    def test_report_rmse_recomputable_from_per_frame_csv(self, b_run):
        _, report, _ = b_run
        path = Path(report.per_frame_output_path)
        lines = [l for l in path.read_text().strip().split("\n")]
        header = lines[0].split(",")
        idx = {name: i for i, name in enumerate(header)}
        pos_sq, vel_sq = [], []
        for line in lines[1:]:
            row = line.split(",")
            if row[idx["in_rmse_set"]] != "1":
                continue
            dx = float(row[idx["oneshot_bayes_x"]]) - float(row[idx["truth_x"]])
            dy = float(row[idx["oneshot_bayes_y"]]) - float(row[idx["truth_y"]])
            dvx = float(row[idx["oneshot_bayes_vx"]]) - float(row[idx["truth_vx"]])
            dvy = float(row[idx["oneshot_bayes_vy"]]) - float(row[idx["truth_vy"]])
            pos_sq.append(dx * dx + dy * dy)
            vel_sq.append(dvx * dvx + dvy * dvy)
        assert math.sqrt(np.mean(pos_sq)) == pytest.approx(
            report.rmse["truth"]["position_bayes"], abs=1e-9
        )
        assert math.sqrt(np.mean(vel_sq)) == pytest.approx(
            report.rmse["truth"]["velocity_bayes"], abs=1e-9
        )

    def test_b_random_position_band(self):
        # Well-diversified geometry at table noise: decimeter-scale
        # one-shot position error, order of magnitude of the real runs.
        report = run_experiment(
            builtin_scenario("B", "random", seed=2),
            PipelineOptions(write_outputs=False, mode="bayes"),
        )
        assert 0.05 <= report.rmse["truth"]["position_bayes"] <= 0.5

    def test_c_random_ml_fails_bayes_bounded(self):
        # Facing nodes: instantaneous ML vector-velocity estimation
        # collapses near the baseline while the regularized solve stays
        # bounded.
        report = run_experiment(
            builtin_scenario("C", "random", seed=4),
            PipelineOptions(write_outputs=False),
        )
        assert report.rmse["truth"]["velocity_ml"] > 5.0
        assert report.rmse["truth"]["velocity_bayes"] < 1.0

    def test_zero_noise_pipeline_recovers_truth(self, tmp_path):
        config = near_zero_noise(small_scenario("B", "straight", seed=3, num_frames=80))
        report = run_experiment(config, PipelineOptions(out_dir=tmp_path))
        for bench in ("truth", "track_fusion"):
            for key, value in report.rmse[bench].items():
                assert value < 1e-3, (bench, key, value)

    def test_three_node_network(self, tmp_path):
        # A third node is calibrated pairwise against the reference and
        # contributes residual blocks to every one-shot solve.
        import math
        from radarnet.geometry import Pose2D

        base = small_scenario("C", "random", seed=8, num_frames=240)
        config = replace(
            base,
            nodes=base.nodes + (Pose2D(4.0, 3.5, math.radians(125.0)),),
        )
        report = run_experiment(config, PipelineOptions(out_dir=tmp_path, mode="bayes"))
        assert report.frames_evaluated > 50
        assert (Path(report.out_dir) / "tracks" / "node2_in_ref.csv").exists()
        assert report.rmse["truth"]["position_bayes"] < 1.0

    def test_third_node_helps_with_true_poses(self):
        # With exact poses, a third range/angle/Doppler block can only
        # add information: mean position error improves on the facing
        # pair's omega-limited cross-baseline estimate.
        import math
        from radarnet.geometry import Pose2D, TargetState
        from radarnet.scene import builtin_scenario
        from radarnet.fusion import FusionObservation, ObservationEntry, PriorConfig, solve
        from radarnet.geometry import measure
        from radarnet.scene import Detection

        rng = np.random.default_rng(77)
        nodes2 = builtin_scenario("C").nodes
        nodes3 = nodes2 + (Pose2D(4.0, 3.5, math.radians(125.0)),)
        noise = NoiseConfig()
        prior = PriorConfig()
        errs2, errs3 = [], []
        for k in range(150):
            target = TargetState(rng.uniform(-0.5, 0.5), rng.uniform(2.5, 4.5), 0.0, 1.0)
            dets = []
            for node in nodes3:
                m = measure(node, target)
                dets.append(Detection(
                    m.range + noise.sigma_r * rng.standard_normal(),
                    min(math.pi, max(-math.pi, m.spatial_freq + noise.sigma_omega * rng.standard_normal())),
                    m.radial_vel + noise.sigma_v * rng.standard_normal(),
                ))
            for nodes, dets_used, errs in (
                (nodes2, dets[:2], errs2), (nodes3, dets, errs3),
            ):
                obs = FusionObservation(tuple(
                    ObservationEntry(n, d) for n, d in zip(nodes, dets_used)
                ))
                est = solve(obs, noise, mode="bayes", prior=prior)
                errs.append(math.hypot(est.state.x - target.x, est.state.y - target.y))
        assert np.mean(errs3) < np.mean(errs2)

    def test_benchmark_selection(self):
        config = small_scenario(seed=4, num_frames=80)
        truth_report = run_experiment(config, PipelineOptions(write_outputs=False, benchmark="truth"))
        tf_report = run_experiment(config, PipelineOptions(write_outputs=False, benchmark="trackfusion"))
        assert truth_report.position_rmse_bayes == truth_report.rmse["truth"]["position_bayes"]
        assert tf_report.position_rmse_bayes == tf_report.rmse["track_fusion"]["position_bayes"]
        # Same underlying run, different headline.
        assert truth_report.rmse == tf_report.rmse


class TestDeterminism:
    def test_reports_and_csvs_identical(self, tmp_path):
        config = small_scenario(seed=9, num_frames=60)
        a = run_experiment(config, PipelineOptions(out_dir=tmp_path / "a"))
        b = run_experiment(config, PipelineOptions(out_dir=tmp_path / "b"))
        assert a.rmse == b.rmse
        for rel in ("fusion/per_frame.csv", "fusion/oneshot.csv", "tracks/node0.csv"):
            assert (Path(a.out_dir) / rel).read_bytes() == (Path(b.out_dir) / rel).read_bytes()
        report_a = json.loads((Path(a.out_dir) / "report" / "report.json").read_text())
        report_b = json.loads((Path(b.out_dir) / "report" / "report.json").read_text())
        report_a["out_dir"] = report_b["out_dir"] = ""
        report_a["per_frame_output_path"] = report_b["per_frame_output_path"] = ""
        assert report_a == report_b


class TestCsvRoundTrip:
    """Every float cell parses back to the in-memory value's exact bits."""

    def test_cells_round_trip(self, tmp_path, monkeypatch):
        import struct

        import radarnet.experiment as experiment
        from radarnet.experiment import simulate_scenario

        tracks, estimates = {}, {}

        def export_track_csv(track, path):
            tracks[Path(path).name] = track
            real_export_track_csv(track, path)

        def solve_frames(observations, noise, mode, prior=None):
            estimates[mode] = real_solve_frames(observations, noise, mode=mode, prior=prior)
            return estimates[mode]

        real_export_track_csv = experiment.export_track_csv
        real_solve_frames = experiment.solve_frames
        monkeypatch.setattr(experiment, "export_track_csv", export_track_csv)
        monkeypatch.setattr(experiment, "solve_frames", solve_frames)
        config = small_scenario(seed=3, num_frames=100)
        report = run_experiment(config, PipelineOptions(out_dir=tmp_path))
        run_dir = Path(report.out_dir)
        truth, frames = simulate_scenario(config)

        def bits(value):
            return struct.pack("<d", value)

        def check(cells, values):
            """Cells against (kind, value): f floats, i ints, b 0/1 flags, s strings."""
            assert len(cells) == len(values)
            for cell, (kind, value) in zip(cells, values):
                if kind == "f":
                    assert type(value) is float
                    assert bits(float(cell)) == bits(value), (cell, value)
                elif kind == "b":
                    assert cell in ("0", "1") and cell == str(int(value))
                else:
                    assert cell == str(value)

        def rows(rel):
            lines = (run_dir / rel).read_text().split("\n")
            assert lines.pop() == ""
            return [line.split(",") for line in lines if not line.startswith("#")][1:]

        def f(*values):
            return [("f", v) for v in values]

        truth_rows = rows("fusion/truth.csv")
        assert len(truth_rows) == len(truth)
        for k, (cells, t) in enumerate(zip(truth_rows, truth)):
            check(cells, [("i", k)] + f(t.x, t.y, t.vx, t.vy))

        detections = [(frame.frame_index, i, det) for frame in frames
                      for i, det in enumerate(frame.per_node) if det is not None]
        meas_rows = rows("fusion/measurements.csv")
        assert len(meas_rows) == len(detections)
        for cells, (k, i, det) in zip(meas_rows, detections):
            check(cells, [("i", k), ("i", i)] + f(det.range, det.spatial_freq, det.radial_vel))

        def point_values(p):
            return f(p.position.real, p.position.imag, *p.velocity.tolist())

        assert set(tracks) == {"node0.csv", "node1_in_ref.csv", "track_fusion.csv"}
        for name, track in tracks.items():
            track_rows = rows(f"tracks/{name}")
            assert len(track_rows) == len(track.frames)
            for cells, p in zip(track_rows, track.frames):
                check(cells, [("i", p.frame_index)] + point_values(p)
                      + f(*p.covariance.diagonal().tolist()))

        eval_frames = [int(cells[0]) for cells in rows("fusion/per_frame.csv")]
        by_frame = {mode: dict(zip(eval_frames, ests)) for mode, ests in estimates.items()}
        oneshot_rows = rows("fusion/oneshot.csv")
        assert len(oneshot_rows) == 2 * len(eval_frames)
        keys = [(mode, k) for mode in ("ml", "bayes") for k in eval_frames]
        for cells, (mode, k) in zip(oneshot_rows, keys):
            est = by_frame[mode][k]
            cov = (est.covariance[np.triu_indices(4)].tolist() if est.covariance is not None
                   else [math.nan] * 10)
            s = est.state
            check(cells, [("i", k), ("s", mode)] + f(s.x, s.y, s.vx, s.vy)
                  + [("b", est.converged)] + f(est.conditioning, *cov))

        track_by = [tracks[name].by_frame()
                    for name in ("node0.csv", "node1_in_ref.csv", "track_fusion.csv")]
        rmse_set = {k for k in eval_frames if k >= PipelineOptions().burn_in_frames}
        for cells in rows("fusion/per_frame.csv"):
            k = int(cells[0])
            t = truth[k]
            values = [("i", k)] + f(t.x, t.y, t.vx, t.vy)
            for by in track_by:
                values += point_values(by[k])
            for mode in ("bayes", "ml"):
                est = by_frame[mode][k]
                s = est.state
                values += f(s.x, s.y, s.vx, s.vy) + [("b", est.converged)] + f(est.conditioning)
            check(cells, values + [("b", k in rmse_set)])


    def test_truth_and_measurements_match_list_exports(self, tmp_path):
        from radarnet.experiment import simulate_scenario
        from radarnet.scene import export_measurements_csv, export_truth_csv

        config = builtin_scenario("B", "random", seed=7)
        truth, frames = simulate_scenario(config)
        assert any(det is None for frame in frames for det in frame.per_node)
        export_truth_csv(truth, tmp_path / "truth.csv")
        export_measurements_csv(frames, tmp_path / "measurements.csv")
        report = run_experiment(config, PipelineOptions(out_dir=tmp_path / "run"))
        for name in ("truth.csv", "measurements.csv"):
            written = (Path(report.out_dir) / "fusion" / name).read_bytes()
            assert written == (tmp_path / name).read_bytes(), name


class TestArrayFusion:
    """run_experiment feeds fusion arrays and reads arrays back."""

    def test_run_builds_no_observation_objects(self, tmp_path, monkeypatch):
        from radarnet.fusion import FusionObservation, ObservationEntry
        from radarnet.geometry import Pose2D
        from radarnet.scene import Detection

        calls = {}
        for cls in (Detection, ObservationEntry, FusionObservation):
            calls[cls.__name__] = 0

            def counted(self, *args, _name=cls.__name__, _original=cls.__init__, **kwargs):
                calls[_name] += 1
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        run_experiment(small_scenario(seed=7), PipelineOptions(out_dir=tmp_path))
        assert calls == {"Detection": 0, "ObservationEntry": 0, "FusionObservation": 0}
        FusionObservation((ObservationEntry(Pose2D(0.0, 0.0), Detection(1.0, 0.0, 0.0)),))
        assert calls == {"Detection": 1, "ObservationEntry": 1, "FusionObservation": 1}

    def test_per_frame_carries_every_track(self, tmp_path):
        import math
        from radarnet.geometry import Pose2D

        base = small_scenario("B", "random", seed=7, num_frames=240)
        config = replace(base, nodes=base.nodes + (Pose2D(4.0, 3.5, math.radians(125.0)),))
        report = run_experiment(config, PipelineOptions(out_dir=tmp_path))
        run_dir = Path(report.out_dir)
        per_frame = (run_dir / "fusion" / "per_frame.csv").read_text().splitlines()
        header, *rows = [line.split(",") for line in per_frame]
        prefixes = [name[:-2] for name in header if name.endswith("_x")]
        assert prefixes == ["truth", "ekf1", "ekf2_in_1", "ekf3_in_1", "track_fusion",
                            "oneshot_bayes", "oneshot_ml"]
        start = header.index("ekf3_in_1_x")
        assert header[start:start + 4] == [f"ekf3_in_1_{q}" for q in ("x", "y", "vx", "vy")]
        lines = (run_dir / "tracks" / "node2_in_ref.csv").read_text().splitlines()[2:]
        track = {cells[0]: cells[1:5] for cells in (line.split(",") for line in lines)}
        assert len(rows) > 50
        for row in rows:
            assert row[start:start + 4] == track[row[0]]


class TestMonteCarlo:
    def test_single_trial_matches_run_experiment(self):
        config = small_scenario(seed=11, num_frames=60)
        options = PipelineOptions(write_outputs=False, mode="bayes")
        summary = run_monte_carlo(config, trials=1, options=options)
        direct = run_experiment(config, options)
        assert summary["completed"] == 1 and summary["failed"] == 0
        assert summary["reports"][0]["rmse"] == direct.rmse

    def test_seeds_advance_per_trial(self):
        config = small_scenario(seed=20, num_frames=60)
        options = PipelineOptions(write_outputs=False, mode="bayes")
        summary = run_monte_carlo(config, trials=3, options=options)
        assert [r["seed"] for r in summary["reports"]] == [20, 21, 22]
        values = [r["rmse"]["truth"]["position_bayes"] for r in summary["reports"]]
        assert len(set(values)) == 3

    def test_calibration_error_shrinks_with_track_length(self):
        options = PipelineOptions(write_outputs=False)
        errors = {}
        for num_frames in (50, 600):
            vals = []
            for trial in range(8):
                config = replace(
                    builtin_scenario("C", "straight", seed=100 + trial),
                    num_frames=num_frames,
                )
                res = calibrate_scenario(config, options)[0]
                node2 = config.nodes[1]
                vals.append(abs(res.p21 - complex(node2.x, node2.y)))
            errors[num_frames] = np.mean(vals)
        assert errors[600] < errors[50]

    def test_no_failures_on_builtins(self):
        options = PipelineOptions(write_outputs=False, mode="bayes")
        for name in ("A", "B", "C"):
            config = replace(builtin_scenario(name, "random", seed=40), num_frames=90)
            summary = run_monte_carlo(config, trials=5, options=options)
            assert summary["failed"] == 0, summary["failures"]

    def test_jobs_do_not_change_aggregates(self):
        config = small_scenario(seed=13, num_frames=60)
        options = PipelineOptions(write_outputs=False, mode="bayes")
        serial = run_monte_carlo(config, trials=3, options=options, jobs=1)
        parallel = run_monte_carlo(config, trials=3, options=options, jobs=2)
        assert serial["aggregates"] == parallel["aggregates"]

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            run_monte_carlo(small_scenario(), trials=0)


class TestEmitPlotData:
    def test_schema_and_frames(self, b_run):
        _, report, _ = b_run
        written = emit_plot_data(report)
        assert set(written) == {"x", "y", "vx", "vy", "overlay"}
        lines = written["x"].read_text().strip().split("\n")
        assert lines[0] == "frame,truth,ekf1,ekf2_in_1,track_fusion,oneshot_bayes,oneshot_ml"
        source = Path(report.per_frame_output_path).read_text().strip().split("\n")
        source_frames = {line.split(",")[0] for line in source[1:]}
        emitted_frames = [line.split(",")[0] for line in lines[1:]]
        assert emitted_frames and set(emitted_frames) <= source_frames
        overlay_header = written["overlay"].read_text().split("\n")[0]
        assert overlay_header == "frame,ekf1_x,ekf1_y,ekf2_in_1_x,ekf2_in_1_y"

    def test_zero_noise_columns_match_truth(self, tmp_path):
        config = near_zero_noise(small_scenario("B", "straight", seed=6, num_frames=60))
        report = run_experiment(config, PipelineOptions(out_dir=tmp_path))
        written = emit_plot_data(report.out_dir)
        for q in ("x", "y", "vx", "vy"):
            lines = written[q].read_text().strip().split("\n")
            for line in lines[1 + 20 :]:  # skip filter burn-in rows
                cells = [float(v) for v in line.split(",")[1:]]
                truth = cells[0]
                for value in cells[1:]:
                    assert abs(value - truth) < 1e-3

    def test_missing_stage_errors(self, tmp_path):
        with pytest.raises(PipelineError, match="per-frame"):
            emit_plot_data(tmp_path)

    def test_missing_mode_errors(self, tmp_path):
        config = small_scenario(seed=7, num_frames=60)
        report = run_experiment(config, PipelineOptions(out_dir=tmp_path, mode="bayes"))
        with pytest.raises(PipelineError, match="ml"):
            emit_plot_data(report.out_dir)
