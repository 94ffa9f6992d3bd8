"""Pipeline-level behavior: reports, outputs, Monte Carlo, plot data."""

import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from radarnet import experiment
from radarnet.experiment import (
    BURN_IN_FRAMES,
    CALIBRATION_SEED_OFFSET,
    PipelineError,
    PipelineOptions,
    _run_trackers,
    calibrate_scenario,
    calibration_stage_config,
    emit_plot_data,
    fuse_frames,
    paired_positions,
    run_experiment,
    run_monte_carlo,
)
from radarnet.scene import NoiseConfig, Simulation, builtin_scenario, simulate
from radarnet.tracking import Track


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
        def track(updated):
            states = [(k, 0.0, 0.0, 0.0) for k in range(40)]
            return Track(frame_index=range(40), states=states,
                         covariances=np.broadcast_to(np.eye(4), (40, 4, 4)), updated=updated)

        t1 = track([True] * 40)
        t2 = track([k < 10 or k > 20 for k in range(40)])
        z1, z2 = paired_positions(t1, t2, skip=2, gap=5, settle=4)
        # Frames 10..20 are not updated in t2; 4 settle frames follow the
        # gap; 2 skip frames are removed from the front.
        expected = list(range(2, 10)) + list(range(25, 40))
        assert [int(z.real) for z in z1] == expected
        np.testing.assert_array_equal(z1, z2)

    def test_too_few_pairs(self):
        t = Track(frame_index=[0], states=np.zeros((1, 4)), covariances=np.eye(4), updated=[True])
        with pytest.raises(PipelineError):
            paired_positions(t, t, skip=0)

    def test_too_few_pairs_names_the_tuning(self, monkeypatch):
        # A zero-noise filter with a tight gate rejects most detections,
        # so the calibration stage finds too few pairs.
        from radarnet import experiment
        from radarnet.tracking import EkfConfig

        ekf = EkfConfig(process_noise_accel=0.0, gate_threshold=7.81)
        monkeypatch.setattr(experiment, "PIPELINE_EKF", ekf)
        with pytest.raises(PipelineError) as info:
            calibrate_scenario(builtin_scenario("A", "straight", seed=7))
        message = str(info.value)
        assert message.startswith("fewer than 2 usable track pairs for calibration of node 1")
        # Each node's EKF-updated and detected frame counts.
        counts = re.findall(r"node (\d) (\d+)/(\d+)", message)
        assert [node for node, _, _ in counts] == ["0", "1"]
        assert all(0 <= int(updated) <= int(detected) for _, updated, detected in counts)
        assert any(2 * int(updated) < int(detected) for _, updated, detected in counts)

    def test_blind_node_names_the_stage(self):
        # The calibration trajectory is the built-in one; the evaluation
        # trajectory runs 50 m out, beyond every node's maximum range.
        from radarnet.scene import TrajectorySpec

        config = replace(small_scenario("B", "random", seed=5, num_frames=60),
                         trajectory=TrajectorySpec("straight", start=(50.0, 50.0), speed=0.05))
        with pytest.raises(PipelineError, match=r"^evaluation stage: node 0 never detected"):
            run_experiment(config, PipelineOptions(write_outputs=False))

    def test_node_without_a_positive_range_counts_as_blind(self):
        # Its track would have no start: no detection places one.
        config = small_scenario("B", "random", seed=5, num_frames=60)
        sim = simulate(config)
        detections = sim.detections.copy()
        detections[:, 1, 0] = -np.abs(detections[:, 1, 0])
        with pytest.raises(PipelineError, match=r"^evaluation stage: node 1 never detected the "
                                                r"target at a range of at least 0\.5 m in 60 "
                                                r"frames"):
            _run_trackers(config, Simulation(sim.truth, detections), "evaluation")


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
        assert run_dir == out / "B" / "random" / "1"
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

    def test_c_random_ml_fails_bayes_bounded(self, monkeypatch):
        # Facing nodes: instantaneous ML vector-velocity estimation
        # collapses near the baseline, on the frames whose velocity ML
        # flags unobservable, while the regularized solve stays bounded.
        fused = {}

        def recording(config, sim, poses, frames, options):
            fused.update(frames=frames, estimates=fuse_frames(config, sim, poses, frames, options))
            return fused["estimates"]

        monkeypatch.setattr(experiment, "fuse_frames", recording)
        config = builtin_scenario("C", "random", seed=4)
        report = run_experiment(config, PipelineOptions(write_outputs=False))
        ml = fused["estimates"]["ml"]
        flagged = ml.unobservable
        assert np.count_nonzero(flagged) > 0
        error = ml.states[flagged, 2:] - simulate(config).truth[fused["frames"]][flagged, 2:]
        assert math.sqrt(np.mean((error * error).sum(axis=1))) > 5.0
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

        tracks, estimates = {}, {}

        def export_track_csv(track, path):
            tracks[Path(path).name] = track
            return real_export_track_csv(track, path)

        def solve_frames(table, noise, mode, prior=None, **options):
            estimates[mode] = real_solve_frames(table, noise, mode=mode, prior=prior, **options)
            return estimates[mode]

        real_export_track_csv = experiment.export_track_csv
        real_solve_frames = experiment.solve_frames
        monkeypatch.setattr(experiment, "export_track_csv", export_track_csv)
        monkeypatch.setattr(experiment, "solve_frames", solve_frames)
        config = small_scenario(seed=3, num_frames=100)
        report = run_experiment(config, PipelineOptions(out_dir=tmp_path))
        run_dir = Path(report.out_dir)
        sim = simulate(config)
        truth = sim.truth.tolist()

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
            check(cells, [("i", k)] + f(*t))

        detections = [(k, i, det) for k, (dets, seen) in enumerate(zip(
                           sim.detections.tolist(), sim.seen.tolist()))
                      for i, (det, v) in enumerate(zip(dets, seen)) if v]
        meas_rows = rows("fusion/measurements.csv")
        assert len(meas_rows) == len(detections)
        for cells, (k, i, det) in zip(meas_rows, detections):
            check(cells, [("i", k), ("i", i)] + f(*det))

        assert set(tracks) == {"node0.csv", "node1_in_ref.csv", "track_fusion.csv"}
        for name, track in tracks.items():
            track_rows = rows(f"tracks/{name}")
            assert len(track_rows) == len(track)
            for cells, k, state, cov in zip(track_rows, track.frame_index.tolist(),
                                             track.states.tolist(), track.covariances):
                check(cells, [("i", k)] + f(*state) + f(*cov.diagonal().tolist()))

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

        track_by = [dict(zip(tracks[name].frame_index.tolist(), tracks[name].states.tolist()))
                    for name in ("node0.csv", "node1_in_ref.csv", "track_fusion.csv")]
        rmse_set = {k for k in eval_frames if k >= BURN_IN_FRAMES}
        for cells in rows("fusion/per_frame.csv"):
            k = int(cells[0])
            values = [("i", k)] + f(*truth[k])
            for by in track_by:
                values += f(*by[k])
            for mode in ("bayes", "ml"):
                est = by_frame[mode][k]
                s = est.state
                values += f(s.x, s.y, s.vx, s.vy) + [("b", est.converged)] + f(est.conditioning)
            check(cells, values + [("b", k in rmse_set)])


    def test_truth_and_measurements_match_list_exports(self, tmp_path):
        from radarnet.scene import export_measurements_csv, export_truth_csv

        config = builtin_scenario("B", "random", seed=7)
        sim = simulate(config)
        assert not sim.seen.all()
        export_truth_csv(sim.truth.tolist(), tmp_path / "truth.csv")
        export_measurements_csv(sim, tmp_path / "measurements.csv")
        report = run_experiment(config, PipelineOptions(out_dir=tmp_path / "run"))
        for name in ("truth.csv", "measurements.csv"):
            written = (Path(report.out_dir) / "fusion" / name).read_bytes()
            assert written == (tmp_path / name).read_bytes(), name


# -- Frozen reference writer ---------------------------------------------
# The run-output writer as it stood before cells were formatted in bulk:
# one row list per line, each cell through `str`.  The real writer must
# write the same bytes.

def reference_write_csv(path, header, rows):
    lines = [header]
    lines.extend(",".join(map(str, row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def reference_export_track_csv(track, path):
    cells = [list(map(str, row)) for row in track.table().tolist()]
    reference_write_csv(path, f"# frame={track.frame}\nframe,x,y,vx,vy,p11,p22,p33,p44", (
        [k, *row] for k, row in zip(track.frame_index.tolist(), cells)
    ))
    return cells


def reference_write_run_outputs(run_dir, config, options, sim, transformed, fused,
                                estimates, eval_frames, in_rmse, calibrations, report):
    from radarnet.calibration import result_path, save_result
    from radarnet.scene import save_scenario

    for sub in ("tracks", "calibration", "fusion", "report"):
        (run_dir / sub).mkdir(parents=True, exist_ok=True)
    save_scenario(config, run_dir / "scenario.json")
    truth_cells = [list(map(str, row)) for row in sim.truth.tolist()]
    reference_write_csv(run_dir / "fusion" / "truth.csv", "frame,x,y,vx,vy",
                        ((k, *row) for k, row in enumerate(truth_cells)))
    k, node = np.nonzero(sim.seen)
    reference_write_csv(run_dir / "fusion" / "measurements.csv", "frame,node,range,omega,vr",
                        zip(k.tolist(), node.tolist(), *sim.detections[k, node].T.tolist()))
    track_paths = [run_dir / "tracks" / "node0.csv"]
    track_paths += [run_dir / "tracks" / f"node{i}_in_ref.csv" for i in range(1, len(transformed))]
    track_paths.append(run_dir / "tracks" / "track_fusion.csv")
    track_cells = []
    for track, path in zip([*transformed, fused], track_paths):
        cells = reference_export_track_csv(track, path)
        track_cells.append(dict(zip(track.frame_index.tolist(), (row[:4] for row in cells))))
    for node, result in enumerate(calibrations, start=1):
        save_result(result, result_path(run_dir / "calibration", node))

    upper = np.triu_indices(4)
    oneshot_rows = []
    oneshot_cells = {}
    for mode in options.modes:
        est = estimates[mode]
        cells = oneshot_cells[mode] = [
            [*map(str, state), int(converged), str(cond)]
            for state, converged, cond in zip(
                est.states.tolist(), est.converged.tolist(), est.conditioning.tolist()
            )
        ]
        covariances = est.covariances[:, upper[0], upper[1]].tolist()
        oneshot_rows += [[k, mode, *c, *cov] for k, c, cov in zip(eval_frames, cells, covariances)]
    reference_write_csv(
        run_dir / "fusion" / "oneshot.csv",
        "frame,mode,x,y,vx,vy,converged,cond,c11,c12,c13,c14,c22,c23,c24,c33,c34,c44",
        oneshot_rows,
    )

    rmse_set = {k for k, kept in zip(eval_frames.tolist(), in_rmse) if kept}
    modes = [mode for mode in ("bayes", "ml") if mode in options.modes]
    header = ["frame"]
    prefixes = ["truth", "ekf1", *(f"ekf{i + 1}_in_1" for i in range(1, len(transformed)))]
    for prefix in prefixes + ["track_fusion"]:
        header += [f"{prefix}_{q}" for q in ("x", "y", "vx", "vy")]
    for mode in modes:
        header += [f"oneshot_{mode}_{q}" for q in ("x", "y", "vx", "vy")]
        header += [f"oneshot_{mode}_converged", f"oneshot_{mode}_cond"]
    header.append("in_rmse_set")
    rows = []
    for t, k in enumerate(eval_frames):
        row = [k, *truth_cells[k]]
        for cells in track_cells:
            row += cells[k]
        for mode in modes:
            row += oneshot_cells[mode][t]
        row.append(int(k in rmse_set))
        rows.append(row)
    reference_write_csv(run_dir / "fusion" / "per_frame.csv", ",".join(header), rows)

    (run_dir / "report" / "report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    )


def three_node_config():
    from radarnet.geometry import Pose2D

    base = builtin_scenario("B", "random", seed=2)
    return replace(base, num_frames=240,
                   nodes=base.nodes + (Pose2D(4.0, 3.5, math.radians(125.0)),))


class TestRunOutputBytes:
    """The run outputs equal the frozen reference writer's byte for byte."""

    @pytest.mark.parametrize("config, mode", [
        (builtin_scenario("A", "random", seed=7), "ml"),
        (builtin_scenario("A", "random", seed=7), "bayes"),
        (builtin_scenario("A", "random", seed=7), "both"),
        (three_node_config(), "both"),
    ], ids=["A-ml", "A-bayes", "A-both", "3node-both"])
    def test_outputs_equal_reference_writer(self, tmp_path, monkeypatch, config, mode):
        import radarnet.experiment as experiment

        calls = []

        def write_run_outputs(run_dir, *args):
            calls.append(args)
            return real(run_dir, *args)

        real = experiment._write_run_outputs
        monkeypatch.setattr(experiment, "_write_run_outputs", write_run_outputs)
        report = run_experiment(config, PipelineOptions(out_dir=tmp_path / "real", mode=mode))
        assert len(calls) == 1
        reference_write_run_outputs(tmp_path / "reference", *calls[0])

        real_dir = Path(report.out_dir)
        real_files = sorted(p.relative_to(real_dir) for p in real_dir.rglob("*") if p.is_file())
        reference_files = sorted(p.relative_to(tmp_path / "reference")
                                 for p in (tmp_path / "reference").rglob("*") if p.is_file())
        assert real_files == reference_files
        names = {p.name for p in real_files}
        if len(config.nodes) == 3:
            assert {"node2_in_ref.csv", "result_node2.json"} <= names
            assert "ekf3_in_1_x" in (real_dir / "fusion" / "per_frame.csv").read_text()
        for rel in real_files:
            assert (real_dir / rel).read_bytes() == (tmp_path / "reference" / rel).read_bytes(), rel


# Frozen copies of the hand-written report serializer and of the Monte
# Carlo aggregation that looked every metric up along a key path,
# skipping reports that lack it; the JSON files must keep their bytes.

def reference_report_dict(report):
    return {
        "scenario": report.scenario,
        "seed": report.seed,
        "benchmark": report.benchmark,
        "calibration": report.calibration,
        "rmse": report.rmse,
        "position_rmse_bayes": report.position_rmse_bayes,
        "velocity_rmse_bayes": report.velocity_rmse_bayes,
        "position_rmse_ml": report.position_rmse_ml,
        "velocity_rmse_ml": report.velocity_rmse_ml,
        "frames_evaluated": report.frames_evaluated,
        "frames_total": report.frames_total,
        "nonconverged_fraction": report.nonconverged_fraction,
        "per_frame_output_path": report.per_frame_output_path,
        "out_dir": report.out_dir,
    }


def reference_aggregates(reports, modes):
    def collect(path):
        values = []
        for rep in reports:
            node = rep
            for key in path:
                node = node.get(key) if isinstance(node, dict) else None
                if node is None:
                    break
            if node is not None:
                values.append(float(node))
        return values

    metric_paths = {
        "calibration_rmse": ("calibration", "rmse"),
        "calibration_pos_error_m": ("calibration", "pos_error_m"),
        "calibration_angle_error_deg": ("calibration", "angle_error_deg"),
    }
    for bench in ("truth", "track_fusion"):
        for mode in modes:
            metric_paths[f"position_rmse_{mode}_vs_{bench}"] = ("rmse", bench, f"position_{mode}")
            metric_paths[f"velocity_rmse_{mode}_vs_{bench}"] = ("rmse", bench, f"velocity_{mode}")
    aggregates = {}
    for name, path in metric_paths.items():
        values = collect(path)
        if values:
            aggregates[name] = {
                "mean": float(np.mean(values)),
                "std": float(np.std(values)),
                "min": float(np.min(values)),
                "max": float(np.max(values)),
            }
    return aggregates


def reference_json(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def recorded(monkeypatch, name):
    """Make the pipeline record every value its function `name` returns."""
    import radarnet.experiment as experiment

    values = []
    real = getattr(experiment, name)

    def record(*args, **kwargs):
        values.append(real(*args, **kwargs))
        return values[-1]

    monkeypatch.setattr(experiment, name, record)
    return values


class TestJsonOutputBytes:
    """Every JSON file a run or a Monte Carlo run writes equals the frozen
    serializers' bytes."""

    @pytest.mark.parametrize("config, mode", [
        (builtin_scenario("A", "random", seed=7), "ml"),
        (builtin_scenario("A", "random", seed=7), "bayes"),
        (builtin_scenario("A", "random", seed=7), "both"),
        (three_node_config(), "both"),
    ], ids=["A-ml", "A-bayes", "A-both", "3node-both"])
    def test_run_json_equals_reference(self, tmp_path, monkeypatch, config, mode):
        from radarnet.calibration import result_path, result_to_dict
        from radarnet.scene import scenario_to_dict

        calibrations = recorded(monkeypatch, "calibrate_scenario")
        report = run_experiment(config, PipelineOptions(out_dir=tmp_path, mode=mode))
        assert len(calibrations) == 1
        run_dir = Path(report.out_dir)
        expected = {
            Path("scenario.json"): scenario_to_dict(config),
            Path("report") / "report.json": reference_report_dict(report),
        }
        for node, result in enumerate(calibrations[0], start=1):
            expected[result_path("calibration", node)] = result_to_dict(result)
        written = sorted(p.relative_to(run_dir) for p in run_dir.rglob("*.json"))
        assert written == sorted(expected)
        assert len(written) == len(config.nodes) + 1
        for rel, data in expected.items():
            assert (run_dir / rel).read_text() == reference_json(data), rel

    def test_monte_carlo_json_equals_reference(self, tmp_path, monkeypatch):
        config = small_scenario(seed=20, num_frames=90)
        reports = recorded(monkeypatch, "run_experiment")
        summary = run_monte_carlo(config, trials=3, options=PipelineOptions(out_dir=tmp_path))
        dicts = [reference_report_dict(report) for report in reports]
        expected = {
            "scenario": config.name,
            "base_seed": config.rng_seed,
            "trials": 3,
            "completed": 3,
            "failed": 0,
            "failures": [],
            "aggregates": reference_aggregates(dicts, ("ml", "bayes")),
            "reports": dicts,
        }
        assert [d["seed"] for d in dicts] == [20, 21, 22]
        written = list(tmp_path.rglob("*.json"))
        assert written == [Path(summary["out_path"])]
        assert written[0].read_text() == reference_json(expected)


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


    def test_solver_takes_the_scenarios_field_of_view(self, monkeypatch):
        import radarnet.experiment as experiment

        seen = []

        def solve_frames(table, noise, mode, prior=None, **options):
            seen.append((mode, options))
            return real_solve_frames(table, noise, mode, prior, **options)

        real_solve_frames = experiment.solve_frames
        monkeypatch.setattr(experiment, "solve_frames", solve_frames)
        config = replace(small_scenario(seed=7), fov_half_angle=math.radians(85.0))
        run_experiment(config, PipelineOptions(write_outputs=False))
        assert seen == [(mode, {"fov_half_angle": config.fov_half_angle})
                        for mode in ("ml", "bayes")]


class TestMonteCarlo:
    def test_single_trial_matches_run_experiment(self):
        config = small_scenario(seed=11, num_frames=60)
        options = PipelineOptions(write_outputs=False, mode="bayes")
        summary = run_monte_carlo(config, trials=1, options=options)
        direct = run_experiment(config, options)
        assert summary["completed"] == 1 and summary["failed"] == 0
        assert summary["reports"][0]["rmse"] == direct.rmse

    def test_trial_zero_is_run_experiment_at_a_radian_pose(self):
        # phi = 1.804 rad reads back as 1.8040000000000003 through the
        # config's degrees, so a trial that rebuilt its config from that
        # form would simulate and calibrate another scenario.
        from radarnet.geometry import Pose2D

        base = builtin_scenario("B", "random", seed=2)
        node = base.nodes[1]
        config = replace(base, num_frames=240,
                         nodes=(base.nodes[0], Pose2D(node.x, node.y, 1.804)))
        options = PipelineOptions(write_outputs=False)
        summary = run_monte_carlo(config, trials=1, options=options)
        assert summary["reports"] == [run_experiment(config, options).to_dict()]

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

    def test_jobs_validation(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_monte_carlo(small_scenario(), trials=1, jobs=0)

    @pytest.mark.parametrize("field", ["mode", "benchmark"])
    def test_options_validation(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be one of"):
            PipelineOptions(**{field: "fast"})


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
