"""Scenario generation: trajectories, noise synthesis, builtins, config I/O."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from radarnet.geometry import Pose2D
from radarnet.scene import (
    ConfigError,
    Detection,
    NoiseConfig,
    ScenarioConfig,
    TrajectorySpec,
    builtin_scenario,
    counterpart_trajectory,
    export_measurements_csv,
    export_truth_csv,
    generate_trajectory,
    is_visible,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    simulate,
    synthesize_measurements,
)
from radarnet.geometry import measure


def two_node_config(**overrides):
    defaults = dict(
        name="test",
        nodes=(Pose2D(0, 0, 0), Pose2D(0, 7, math.pi)),
        trajectory=TrajectorySpec("straight", start=(-1.0, 3.0), speed=0.05, heading=0.3),
        num_frames=60,
        rng_seed=5,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestTrajectory:
    def test_straight_euler_integration(self):
        spec = TrajectorySpec("straight", start=(0.0, 0.0), speed=1.0, heading=0.0)
        states = generate_trajectory(spec, 3, 0.15, seed=0)
        assert [(s.x, s.y) for s in states] == [(0.0, 0.0), (0.15, 0.0), (0.30, 0.0)]
        assert all((s.vx, s.vy) == (1.0, 0.0) for s in states)

    def test_random_respects_speed_cap(self):
        spec = TrajectorySpec("random", start=(0.0, 0.0), speed_cap=2.0)
        states = generate_trajectory(spec, 10_000, 0.15, seed=42)
        assert max(s.speed for s in states) <= 2.0 + 1e-12

    def test_deterministic_in_seed(self):
        spec = TrajectorySpec("random", start=(1.0, 2.0), speed_cap=1.0)
        a = generate_trajectory(spec, 500, 0.15, seed=9)
        b = generate_trajectory(spec, 500, 0.15, seed=9)
        assert a == b
        c = generate_trajectory(spec, 500, 0.15, seed=10)
        assert a != c

    def test_too_short_raises(self):
        spec = TrajectorySpec("straight", start=(0, 0), speed=1.0)
        with pytest.raises(ConfigError):
            generate_trajectory(spec, 1, 0.15, seed=0)

    def test_speed_limits_validated(self):
        with pytest.raises(ConfigError):
            TrajectorySpec("straight", start=(0, 0), speed=4.0)
        with pytest.raises(ConfigError):
            TrajectorySpec("random", start=(0, 0), speed_cap=0.0)
        with pytest.raises(ConfigError):
            TrajectorySpec("hover", start=(0, 0))


class TestSynthesize:
    def test_near_zero_noise_matches_ideal(self):
        tiny = NoiseConfig(sigma_r=1e-13, sigma_omega=1e-13, sigma_v=1e-13)
        config = two_node_config(noise=tiny)
        truth = generate_trajectory(
            config.trajectory, config.num_frames, config.frame_duration, config.rng_seed
        )
        frames = synthesize_measurements(truth, config)
        checked = 0
        for frame, target in zip(frames, truth):
            for node, det in zip(config.nodes, frame.per_node):
                if det is None:
                    continue
                ideal = measure(node, target)
                assert det.range == pytest.approx(ideal.range, abs=1e-9)
                assert det.spatial_freq == pytest.approx(ideal.spatial_freq, abs=1e-9)
                assert det.radial_vel == pytest.approx(ideal.radial_vel, abs=1e-9)
                checked += 1
        assert checked > 100

    def test_noise_statistics(self):
        # One static-ish target observed for many frames: residual mean is
        # within 3 sigma/sqrt(n) of zero and the residual std matches the
        # configured sigma within 2%.
        num = 50_000
        config = two_node_config(
            num_frames=num,
            trajectory=TrajectorySpec("straight", start=(-0.3, 3.0), speed=1e-4, heading=0.0),
            rng_seed=77,
        )
        truth = generate_trajectory(
            config.trajectory, num, config.frame_duration, config.rng_seed
        )
        frames = synthesize_measurements(truth, config)
        residuals = {"r": [], "w": [], "v": []}
        for frame, target in zip(frames, truth):
            for node, det in zip(config.nodes, frame.per_node):
                if det is None:
                    continue
                ideal = measure(node, target)
                residuals["r"].append(det.range - ideal.range)
                residuals["w"].append(det.spatial_freq - ideal.spatial_freq)
                residuals["v"].append(det.radial_vel - ideal.radial_vel)
        n = len(residuals["r"])
        assert n >= 100_000
        sigmas = {"r": config.noise.sigma_r, "w": config.noise.sigma_omega, "v": config.noise.sigma_v}
        for key, sigma in sigmas.items():
            sample = np.array(residuals[key])
            assert abs(sample.mean()) < 3 * sigma / math.sqrt(n)
            assert sample.std() == pytest.approx(sigma, rel=0.02)

    def test_out_of_range_target_absent(self):
        config = two_node_config(
            trajectory=TrajectorySpec("straight", start=(0.0, 25.0), speed=0.01, heading=0.0),
            num_frames=5,
        )
        truth = generate_trajectory(config.trajectory, 5, 0.15, config.rng_seed)
        frames = synthesize_measurements(truth, config)
        assert all(frame.per_node[0] is None for frame in frames)

    def test_visibility_iff_rule(self):
        config = two_node_config(
            trajectory=TrajectorySpec("random", start=(0.0, 3.5), speed_cap=3.0),
            num_frames=400,
            rng_seed=13,
        )
        truth = generate_trajectory(config.trajectory, 400, 0.15, config.rng_seed)
        frames = synthesize_measurements(truth, config)
        for frame, target in zip(frames, truth):
            for node, det in zip(config.nodes, frame.per_node):
                expected = is_visible(node, target, config.max_range, config.fov_half_angle)
                assert (det is not None) == expected

    def test_spatial_freq_clamped(self):
        config = two_node_config(noise=NoiseConfig(sigma_omega=3.0), num_frames=300, rng_seed=3)
        truth = generate_trajectory(config.trajectory, 300, 0.15, config.rng_seed)
        frames = synthesize_measurements(truth, config)
        values = [
            det.spatial_freq
            for frame in frames
            for det in frame.per_node
            if det is not None
        ]
        assert max(values) <= math.pi and min(values) >= -math.pi
        assert max(values) == math.pi or min(values) == -math.pi  # clamp engaged

    def test_determinism(self):
        config = two_node_config()
        truth = generate_trajectory(config.trajectory, config.num_frames, 0.15, config.rng_seed)
        assert synthesize_measurements(truth, config) == synthesize_measurements(truth, config)

    def test_length_mismatch_raises(self):
        config = two_node_config()
        truth = generate_trajectory(config.trajectory, config.num_frames, 0.15, config.rng_seed)
        with pytest.raises(ConfigError):
            synthesize_measurements(truth[:-1], config)


def reference_random_walk(spec, num_frames, dt, seed):
    """The random walk as written when it drew its noise one step at a
    time; returns the states and how many frames the speed cap clipped."""
    rng = np.random.default_rng([seed, 0])
    gamma = 1.0 / spec.smoothness
    spring = 0.25 * gamma * gamma
    sigma_axis = spec.speed_cap / 2.5
    kick = sigma_axis * math.sqrt(2.0 * gamma * dt)
    center = np.array(spec.start, dtype=float)
    pos = center.copy()
    vel = sigma_axis * rng.standard_normal(2)
    states, clipped = [], 0
    for _ in range(num_frames):
        speed = math.hypot(vel[0], vel[1])
        if speed > spec.speed_cap:
            vel *= spec.speed_cap / speed
            clipped += 1
        states.append((pos[0], pos[1], vel[0], vel[1]))
        pos = pos + vel * dt
        vel = (
            vel
            - (gamma * vel + spring * (pos - center)) * dt
            + kick * rng.standard_normal(2)
        )
    return states, clipped


def reference_measurements(truth, config):
    """Detections as written with one three-value draw per node-frame and
    the visibility rule inline; None where a node cannot see the target."""
    rng = np.random.default_rng([config.rng_seed, 1])
    noise = config.noise
    frames = []
    for target in truth:
        per_node = []
        for node in config.nodes:
            draws = rng.standard_normal(3)
            dx, dy = target.x - node.x, target.y - node.y
            r = math.hypot(dx, dy)
            c, s = math.cos(node.phi), math.sin(node.phi)
            angle = math.atan2(dx * c + dy * s, -dx * s + dy * c)
            if r == 0.0 or r > config.max_range or abs(angle) > config.fov_half_angle:
                per_node.append(None)
                continue
            ideal = measure(node, target)
            omega = ideal.spatial_freq + noise.sigma_omega * draws[1]
            per_node.append((
                ideal.range + noise.sigma_r * draws[0],
                min(math.pi, max(-math.pi, omega)),
                ideal.radial_vel + noise.sigma_v * draws[2],
            ))
        frames.append(per_node)
    return frames


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestSimulate:
    @pytest.mark.parametrize("kind", ["straight", "random"])
    def test_arrays_match_list_functions(self, kind):
        config = builtin_scenario("C", kind, seed=4)
        sim = simulate(config)
        truth = generate_trajectory(
            config.trajectory, config.num_frames, config.frame_duration, config.rng_seed
        )
        frames = synthesize_measurements(truth, config)
        assert len(sim) == config.num_frames
        assert sim.detections.shape == (config.num_frames, len(config.nodes), 3)
        assert bits(sim.truth) == bits([(s.x, s.y, s.vx, s.vy) for s in truth])
        assert sim.measurement_frames() == frames
        assert sim.seen.tolist() == [[det is not None for det in f.per_node] for f in frames]
        assert np.isnan(sim.detections[~sim.seen]).all()

    def test_a_partly_nan_triple_is_seen(self):
        # `seen` is the triples that are not all NaN, the rows solve_frames
        # takes as detecting: it rejects this one as not finite instead of
        # leaving the node out.
        from radarnet.fusion import frame_table, solve_frames
        from radarnet.scene import Simulation

        config = builtin_scenario("C", "random", seed=4)
        sim = simulate(config)
        k = int(np.flatnonzero(sim.seen.all(axis=1))[0])
        detections = sim.detections.copy()
        detections[k, 1, 2] = np.nan
        partly = Simulation(sim.truth, detections)
        assert partly.seen[k].all()
        assert (partly.seen == sim.seen).all()
        with pytest.raises(ValueError, match="must be finite, but for the all-NaN detection"):
            solve_frames(frame_table(config.nodes, partly.detections[[k]]), config.noise, "ml")


class TestRandomStreams:
    """The one-call noise draws give the per-step streams bit for bit."""

    @pytest.mark.parametrize("spec, seed", [
        (TrajectorySpec("random", start=(1.0, 3.2), speed_cap=0.6), 7),
        (TrajectorySpec("random", start=(0.8, 4.4), speed_cap=0.7, smoothness=2.5), 8),
        (TrajectorySpec("random", start=(0, 2), speed_cap=3.5, smoothness=0.5), 11),
    ])
    def test_random_walk_matches_per_step_draws(self, spec, seed):
        want, clipped = reference_random_walk(spec, 600, 0.15, seed)
        got = generate_trajectory(spec, 600, 0.15, seed)
        assert clipped > 0  # the speed cap engaged on this stream
        assert bits([(s.x, s.y, s.vx, s.vy) for s in got]) == bits(want)

    def test_detections_match_per_node_frame_draws(self):
        base = builtin_scenario("B", "random", seed=2)
        configs = [builtin_scenario(name, kind, seed=7)
                   for name in "ABC" for kind in ("straight", "random")]
        configs.append(replace(
            base, nodes=base.nodes + (Pose2D(4.0, 3.5, math.radians(125.0)),)
        ))
        misses = 0
        for config in configs:
            truth = generate_trajectory(
                config.trajectory, config.num_frames, config.frame_duration, config.rng_seed
            )
            got = synthesize_measurements(truth, config)
            want = reference_measurements(truth, config)
            assert [f.frame_index for f in got] == list(range(config.num_frames))
            for frame, expected in zip(got, want):
                assert [det is None for det in frame.per_node] == [e is None for e in expected]
                for det, e in zip(frame.per_node, expected):
                    if det is not None:
                        assert bits((det.range, det.spatial_freq, det.radial_vel)) == bits(e)
                misses += sum(e is None for e in expected)
        assert misses > 0  # some frames have a node that cannot see the target


class TestBuiltins:
    def test_config_c_node_pose(self):
        config = builtin_scenario("C")
        node2 = config.nodes[1]
        assert (node2.x, node2.y) == (0.0, 7.0)
        assert node2.phi == pytest.approx(math.pi)

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_straight_trajectory_visibility(self, name):
        config = builtin_scenario(name, "straight")
        truth = generate_trajectory(
            config.trajectory, config.num_frames, config.frame_duration, config.rng_seed
        )
        both = [
            all(is_visible(node, t, config.max_range, config.fov_half_angle) for node in config.nodes)
            for t in truth
        ]
        assert sum(both) / len(both) >= 0.95

    def test_a_b_share_noise_defaults(self):
        a = builtin_scenario("A")
        b = builtin_scenario("B")
        assert a.noise == b.noise
        assert a.frame_duration == b.frame_duration and a.num_frames == b.num_frames
        assert a.nodes != b.nodes

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError):
            builtin_scenario("D")
        with pytest.raises(ConfigError):
            builtin_scenario("A", "spiral")

    def test_counterpart_attached(self):
        config = builtin_scenario("B", "straight")
        assert config.calibration_trajectory is not None
        assert config.calibration_trajectory.kind == "random"
        flipped = builtin_scenario("B", "random")
        assert flipped.calibration_trajectory.kind == "straight"


class TestCounterpartDerivation:
    def test_straight_to_random_midpoint(self):
        spec = TrajectorySpec("straight", start=(0.0, 0.0), speed=0.1, heading=0.0)
        other = counterpart_trajectory(spec, 600, 0.15)
        assert other.kind == "random"
        assert other.start[0] == pytest.approx(0.5 * 0.1 * 600 * 0.15)

    def test_random_to_straight(self):
        spec = TrajectorySpec("random", start=(1.0, 3.0), speed_cap=1.0)
        other = counterpart_trajectory(spec, 600, 0.15)
        assert other.kind == "straight"
        assert 0.0 < other.speed <= 3.5


class TestConfigValidation:
    def test_reference_node_must_be_origin(self):
        with pytest.raises(ConfigError):
            two_node_config(nodes=(Pose2D(1, 0, 0), Pose2D(0, 7, math.pi)))
        # The heading's tolerance is +/- 1e-12 rad either side of 0, as
        # the position's is: 359.99999999999 deg wraps to just below 2 pi.
        d = scenario_to_dict(two_node_config())
        for phi_deg in (1e-11, -1e-11, 359.99999999999):
            d["nodes"][0]["phi_deg"] = phi_deg
            scenario_from_dict(d)
        d["nodes"][0]["phi_deg"] = 1e-9
        with pytest.raises(ConfigError, match="node 0 must be the origin pose"):
            scenario_from_dict(d)

    def test_needs_two_nodes(self):
        with pytest.raises(ConfigError):
            two_node_config(nodes=(Pose2D(0, 0, 0),))

    def test_num_frames_minimum(self):
        with pytest.raises(ConfigError):
            two_node_config(num_frames=1)

    def test_noise_positive(self):
        with pytest.raises(ConfigError):
            NoiseConfig(sigma_r=0.0)

    @pytest.mark.parametrize("name", ["sigma_r", "sigma_omega", "sigma_v"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_noise_finite(self, name, value):
        # An infinite sigma used to pass and then fail inside the EKF.
        with pytest.raises(ConfigError, match=f"^NoiseConfig.{name} must be finite and > 0$"):
            NoiseConfig(**{name: value})

    @pytest.mark.parametrize("overrides, message", [
        ({"max_range": 0.0}, "max_range must be > 0, got 0.0"),
        ({"max_range": math.nan}, "max_range must be > 0, got nan"),
        ({"fov_half_angle": 0.0}, "fov_half_angle_deg must be in (0, 90], got 0.0"),
        ({"fov_half_angle": math.radians(120.0)}, "fov_half_angle_deg must be in (0, 90], "),
    ])
    def test_range_and_field_of_view(self, overrides, message):
        with pytest.raises(ConfigError) as info:
            two_node_config(**overrides)
        assert str(info.value).startswith(message)

    def test_field_of_view_up_to_90_degrees(self):
        assert two_node_config(fov_half_angle=math.radians(90.0)).fov_half_angle == math.pi / 2


class TestConfigIO:
    def test_round_trip(self, tmp_path):
        config = builtin_scenario("B", "random", seed=123)
        path = tmp_path / "scenario.json"
        save_scenario(config, path)
        loaded = load_scenario(path)
        assert loaded.name == config.name
        assert loaded.rng_seed == 123
        assert loaded.num_frames == config.num_frames
        for got, want in zip(loaded.nodes, config.nodes):
            assert got.x == pytest.approx(want.x, abs=1e-12)
            assert got.y == pytest.approx(want.y, abs=1e-12)
            assert got.phi == pytest.approx(want.phi, abs=1e-12)
        assert loaded.trajectory.kind == config.trajectory.kind
        assert loaded.calibration_trajectory.kind == config.calibration_trajectory.kind
        assert loaded.noise == config.noise

    def test_absent_keys_take_the_dataclass_defaults(self):
        nodes = (Pose2D(0.0, 0.0, 0.0), Pose2D(0.0, 7.0, math.pi))
        d = {"name": "sparse", "nodes": [{"x": 0, "y": 0, "phi_deg": 0},
                                         {"x": 0, "y": 7, "phi_deg": 180}]}
        for kind in ("straight", "random"):
            d["trajectory"] = {"kind": kind, "start": [0, 3.5]}
            want = ScenarioConfig("sparse", nodes, TrajectorySpec(kind, (0.0, 3.5)))
            assert scenario_from_dict(d) == want

    @pytest.mark.parametrize("first, second", [
        ("nodes[1].x", "noise.sigma_r"),
        ("noise.sigma_r", "trajectory.speed_cap"),
        ("trajectory.speed_cap", "frame_duration"),
        ("frame_duration", "seed"),
        ("fov_half_angle_deg", "calibration_trajectory.speed"),
    ])
    def test_first_bad_field_is_named(self, first, second):
        # Fields are checked nodes, noise, trajectory, top-level numbers,
        # calibration trajectory: of two bad fields, the earlier is named.
        d = scenario_to_dict(builtin_scenario("B", "random", seed=2))
        for field in (first, second):
            section, _, key = field.rpartition(".")
            target = d
            for part in section.replace("[", ".").replace("]", "").split(".") if section else ():
                target = target[int(part)] if part.isdigit() else target[part]
            target[key] = "bad"
        with pytest.raises(ConfigError, match="^" + re.escape(first) + " "):
            scenario_from_dict(d)

    def test_missing_keys_listed(self):
        with pytest.raises(ConfigError, match="nodes.*trajectory|trajectory.*nodes"):
            scenario_from_dict({"name": "x"})

    def test_missing_node_fields_listed(self):
        d = scenario_to_dict(builtin_scenario("A"))
        del d["nodes"][1]["phi_deg"]
        with pytest.raises(ConfigError, match="phi_deg"):
            scenario_from_dict(d)

    @pytest.mark.parametrize("field, edit", [
        ("nodes[1].x", lambda d: d["nodes"][1].update(x="abc")),
        ("nodes", lambda d: d.update(nodes=5)),
        ("nodes[0]", lambda d: d["nodes"].__setitem__(0, 3)),
        ("trajectory.start", lambda d: d["trajectory"].update(start=[0])),
        ("trajectory", lambda d: d.update(trajectory=7)),
        ("calibration_trajectory.speed", lambda d: d["calibration_trajectory"].update(speed=[1])),
        ("noise.sigma_r", lambda d: d["noise"].update(sigma_r=None)),
        ("num_frames", lambda d: d.update(num_frames="many")),
        # Non-finite numbers (JSON NaN / Infinity) in any numeric field.
        pytest.param("nodes[1].x", lambda d: d["nodes"][1].update(x=math.nan), id="x-nan"),
        pytest.param("nodes[1].phi_deg", lambda d: d["nodes"][1].update(phi_deg=math.inf),
                     id="phi-inf"),
        pytest.param("max_range", lambda d: d.update(max_range=math.inf), id="range-inf"),
        pytest.param("fov_half_angle_deg", lambda d: d.update(fov_half_angle_deg=math.nan),
                     id="fov-nan"),
        pytest.param("frame_duration", lambda d: d.update(frame_duration=math.inf), id="dt-inf"),
        pytest.param("noise.sigma_v", lambda d: d["noise"].update(sigma_v=-math.inf),
                     id="sigma-minus-inf"),
        pytest.param("trajectory.start", lambda d: d["trajectory"].update(start=[math.nan, 3.0]),
                     id="start-nan"),
        pytest.param("trajectory.smoothness",
                     lambda d: d["trajectory"].update(smoothness=math.inf), id="smoothness-inf"),
        pytest.param("calibration_trajectory.heading_deg",
                     lambda d: d["calibration_trajectory"].update(heading_deg=math.nan),
                     id="heading-nan"),
    ])
    def test_malformed_field_is_config_error_naming_it(self, field, edit):
        d = scenario_to_dict(builtin_scenario("B", "random", seed=2))
        edit(d)
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(d)
        assert str(info.value).startswith(field + " ")

    def test_non_finite_json_tokens_rejected(self, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(builtin_scenario("A"), path)
        path.write_text(path.read_text().replace('"max_range": 18.07', '"max_range": Infinity'))
        with pytest.raises(ConfigError, match="^max_range "):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_scenario(path)


class TestExports:
    def test_measurement_csv_schema(self, tmp_path):
        sim = simulate(two_node_config(num_frames=10))
        path = tmp_path / "meas.csv"
        export_measurements_csv(sim, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "frame,node,range,omega,vr"
        assert len(lines) - 1 == np.count_nonzero(sim.seen)
        frame_idx, node_idx, r, w, v = lines[1].split(",")
        assert int(frame_idx) == 0 and int(node_idx) in (0, 1)
        detection = Detection(float(r), float(w), float(v))
        assert detection == Detection(*sim.detections[0, int(node_idx)].tolist())

    def test_truth_csv_schema(self, tmp_path):
        truth = [(0.5, 1.5, 0.1, -0.1), (0.6, 1.4, 0.1, -0.1)]
        path = tmp_path / "truth.csv"
        export_truth_csv(truth, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "frame,x,y,vx,vy"
        assert json.loads("[" + lines[1] + "]") == [0, 0.5, 1.5, 0.1, -0.1]
