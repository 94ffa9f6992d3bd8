"""EKF prediction/update, tracker orchestration, and track-level fusion."""

import math

import numpy as np
import pytest

from radarnet.experiment import PipelineOptions, simulate_scenario
from radarnet.geometry import (
    IdealMeasurement,
    Pose2D,
    TargetState,
    detection_to_local_cartesian,
    measure,
    measurement_jacobian,
)
from radarnet.scene import (
    Detection,
    NoiseConfig,
    ScenarioConfig,
    TrajectorySpec,
    builtin_scenario,
    generate_trajectory,
    synthesize_measurements,
)
from radarnet.tracking import (
    EkfConfig,
    Track,
    TrackPoint,
    _project_psd,
    _psd,
    _upper,
    ekf_predict,
    ekf_update,
    export_track_csv,
    process_noise,
    run_tracker,
    track_level_fusion,
    transform_track,
)

ORIGIN = Pose2D(0.0, 0.0, 0.0)
TABLE_NOISE = NoiseConfig()
TINY_NOISE = NoiseConfig(sigma_r=1e-9, sigma_omega=1e-9, sigma_v=1e-9)


def random_psd(rng, scale=1.0):
    a = rng.standard_normal((4, 4))
    return scale * (a @ a.T) + 1e-6 * np.eye(4)


def detection_of(radar, target):
    m = measure(radar, target)
    return Detection(m.range, m.spatial_freq, m.radial_vel)


class TestEkfConfig:
    @pytest.mark.parametrize("gate", [0.0, -1.0, math.nan])
    def test_gate_must_be_positive(self, gate):
        with pytest.raises(ValueError, match="gate_threshold"):
            EkfConfig(gate_threshold=gate)

    @pytest.mark.parametrize("min_range", [-0.1, math.nan])
    def test_min_range_must_be_nonnegative(self, min_range):
        with pytest.raises(ValueError, match="min_range"):
            EkfConfig(min_range=min_range)

    @pytest.mark.parametrize("accel", [math.nan, math.inf, -1.0])
    def test_process_noise_must_be_finite_nonnegative(self, accel):
        with pytest.raises(ValueError, match="process_noise_accel"):
            EkfConfig(process_noise_accel=accel)

    @pytest.mark.parametrize("name", ["init_pos_var", "init_vel_var"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
    def test_init_variances_must_be_finite_positive(self, name, value):
        with pytest.raises(ValueError, match=name):
            EkfConfig(**{name: value})

    def test_valid_edges_accepted(self):
        assert EkfConfig(gate_threshold=None, min_range=0.0).min_range == 0.0
        assert EkfConfig(gate_threshold=1e-9).gate_threshold == 1e-9


def eigh_projection(p):
    """Reference PSD projection: symmetrize, then clip eigenvalues at 1e-12 * the largest."""
    sym = 0.5 * (p + p.T)
    eigenvalues, vectors = np.linalg.eigh(sym)
    floor = 1e-12 * max(eigenvalues[-1], 0.0)
    if eigenvalues[0] > floor:
        return sym
    sym_clipped = (vectors * np.maximum(eigenvalues, floor)) @ vectors.T
    return 0.5 * (sym_clipped + sym_clipped.T)


class TestProjectPsd:
    @staticmethod
    def clipped_vs_reference(p):
        """Assert the projection equals the reference bit for bit; return whether it clipped."""
        got = _project_psd(p)
        want = eigh_projection(p)
        assert got.tobytes() == want.tobytes()
        return not np.array_equal(want, 0.5 * (p + p.T))

    def test_positive_definite_kept_bit_for_bit(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            p = random_psd(rng, scale=10.0 ** rng.uniform(-6, 3))
            p = p + 1e-15 * rng.standard_normal((4, 4))  # the asymmetry rounding leaves
            assert not self.clipped_vs_reference(p)

    def test_rank_deficient_clipped_bit_for_bit(self):
        rng = np.random.default_rng(11)
        clipped = 0
        for rank in (0, 1, 2, 3):
            for _ in range(50):
                a = rng.standard_normal((4, rank))
                clipped += self.clipped_vs_reference(a @ a.T)
        assert clipped >= 150

    def test_indefinite_clipped_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            a = rng.standard_normal((4, 4))
            eigenvalues, vectors = np.linalg.eigh(a + a.T)
            eigenvalues[0] = -abs(eigenvalues[0]) - 1e-3
            assert self.clipped_vs_reference((vectors * eigenvalues) @ vectors.T)


class TestPredict:
    def test_constant_velocity_step(self):
        state, cov = ekf_predict(TargetState(0, 0, 1, 0), np.zeros((4, 4)), 0.15, EkfConfig())
        assert (state.x, state.y) == (0.15, 0.0)
        assert (state.vx, state.vy) == (1.0, 0.0)

    def test_zero_noise_zero_cov(self):
        cfg = EkfConfig(process_noise_accel=0.0)
        _, cov = ekf_predict(TargetState(1, 2, 0.5, -0.5), np.zeros((4, 4)), 0.15, cfg)
        assert np.all(cov == 0.0)

    def test_trace_grows_with_process_noise(self):
        # Relative to the noise-free prediction of the same prior, a
        # positive acceleration noise strictly inflates the covariance.
        rng = np.random.default_rng(0)
        noisy = EkfConfig(process_noise_accel=0.8)
        quiet = EkfConfig(process_noise_accel=0.0)
        for _ in range(50):
            cov = random_psd(rng)
            _, with_q = ekf_predict(TargetState(0, 5, 1, 0), cov, 0.15, noisy)
            _, without_q = ekf_predict(TargetState(0, 5, 1, 0), cov, 0.15, quiet)
            assert np.trace(with_q) > np.trace(without_q)
            assert np.min(np.linalg.eigvalsh(with_q - without_q)) >= -1e-12

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            ekf_predict(TargetState(0, 5), np.eye(4), 0.0, EkfConfig())

    def test_process_noise_matches_white_accel_integral(self):
        # Oracle: Q = q^2 * integral_0^dt F(t) G G' F(t)' dt for the CV
        # model with unit white acceleration entering the velocity row,
        # evaluated numerically.
        dt = 0.15
        taus = np.linspace(0.0, dt, 20001)
        q11 = np.trapezoid((dt - taus) ** 2, taus)
        q12 = np.trapezoid(dt - taus, taus)
        q22 = dt
        q = process_noise(dt, 2.0)
        assert q[0, 0] == pytest.approx(4.0 * q11, rel=1e-6)
        assert q[0, 2] == pytest.approx(4.0 * q12, rel=1e-6)
        assert q[2, 2] == pytest.approx(4.0 * q22, rel=1e-12)
        assert q[0, 1] == 0.0 and q[1, 2] == 0.0
        assert np.allclose(q, q.T)


class TestUpdate:
    def test_zero_innovation_keeps_state(self):
        target = TargetState(1.0, 4.0, 0.3, -0.2)
        det = detection_of(ORIGIN, target)
        cov = np.diag([1.0, 1.0, 4.0, 4.0])
        state, new_cov, innovation = ekf_update(target, cov, det, ORIGIN, TABLE_NOISE)
        np.testing.assert_allclose(innovation, 0.0, atol=1e-14)
        np.testing.assert_allclose(state.as_vector(), target.as_vector(), atol=1e-12)
        assert np.trace(new_cov) < np.trace(cov)

    def test_posterior_never_exceeds_prior(self):
        # Loewner order: prior - posterior is PSD (eigenvalues >= -1e-10).
        rng = np.random.default_rng(1)
        for _ in range(50):
            target = TargetState(rng.uniform(-3, 3), rng.uniform(2, 8), *rng.uniform(-2, 2, 2))
            det = Detection(
                measure(ORIGIN, target).range + rng.normal(0, 0.05),
                measure(ORIGIN, target).spatial_freq + rng.normal(0, 0.2),
                measure(ORIGIN, target).radial_vel + rng.normal(0, 0.1),
            )
            cov = random_psd(rng, scale=0.5)
            _, posterior, _ = ekf_update(target, cov, det, ORIGIN, TABLE_NOISE)
            assert np.min(np.linalg.eigvalsh(cov - posterior)) >= -1e-10
            assert np.min(np.linalg.eigvalsh(posterior)) >= -1e-10

    def test_gate_rejects_outlier(self):
        target = TargetState(0.0, 5.0, 0.0, 0.0)
        cov = np.diag([0.01, 0.01, 0.01, 0.01])
        outlier = Detection(12.0, 0.0, 0.0)
        state, new_cov, _ = ekf_update(target, cov, outlier, ORIGIN, TABLE_NOISE, gate_threshold=11.34)
        np.testing.assert_array_equal(state.as_vector(), target.as_vector())
        np.testing.assert_array_equal(new_cov, cov)

    def test_symmetry_enforced(self):
        rng = np.random.default_rng(2)
        target = TargetState(1.0, 6.0, 0.5, 0.5)
        det = detection_of(ORIGIN, target)
        cov = random_psd(rng)
        _, posterior, _ = ekf_update(target, cov, det, ORIGIN, TINY_NOISE)
        np.testing.assert_array_equal(posterior, posterior.T)


class TestRunTracker:
    @staticmethod
    def straight_scenario(noise, num_frames=60, seed=0, speed=0.8):
        config = ScenarioConfig(
            name="line",
            nodes=(ORIGIN, Pose2D(0, 7, math.pi)),
            trajectory=TrajectorySpec(
                "straight", start=(-4.5, 4.0), speed=speed, heading=0.0
            ),
            noise=noise,
            num_frames=num_frames,
            rng_seed=seed,
        )
        truth = generate_trajectory(
            config.trajectory, config.num_frames, config.frame_duration, config.rng_seed
        )
        frames = synthesize_measurements(truth, config)
        return config, truth, frames

    def test_noiseless_convergence(self):
        config, truth, frames = self.straight_scenario(TINY_NOISE)
        track = run_tracker(frames, 0, config.nodes[0], EkfConfig(), TINY_NOISE, config.frame_duration)
        for point, target in zip(track.frames[20:], truth[20:]):
            err = abs(point.position - complex(target.x, target.y))
            assert err < 1e-3

    def test_missing_middle_frames_predict_only(self):
        config, truth, frames = self.straight_scenario(TINY_NOISE, num_frames=40)
        gap = range(15, 20)
        frames = [
            f if f.frame_index not in gap
            else f.__class__(f.frame_index, (None, f.per_node[1]))
            for f in frames
        ]
        track = run_tracker(frames, 0, config.nodes[0], EkfConfig(), TINY_NOISE, config.frame_duration)
        assert len(track) == 40
        by_frame = track.by_frame()
        # Covariance grows through the predict-only gap.
        assert np.trace(by_frame[19].covariance) > np.trace(by_frame[14].covariance)

    def test_steady_state_rmse_below_20cm(self):
        # Constant-velocity target crossing at close range, filter with
        # CV-matched process noise; steady state is the second half.
        errors = []
        for seed in range(5):
            config = ScenarioConfig(
                name="crossing",
                nodes=(ORIGIN, Pose2D(0, 7, math.pi)),
                trajectory=TrajectorySpec("straight", start=(-2.7, 1.8), speed=0.3, heading=0.0),
                noise=TABLE_NOISE,
                num_frames=120,
                rng_seed=seed,
            )
            truth = generate_trajectory(config.trajectory, 120, config.frame_duration, seed)
            frames = synthesize_measurements(truth, config)
            track = run_tracker(
                frames, 0, config.nodes[0],
                EkfConfig(process_noise_accel=0.05), TABLE_NOISE, config.frame_duration,
            )
            by_frame = track.by_frame()
            for k in range(60, 120):
                if k in by_frame and by_frame[k].updated:
                    truth_pos = complex(truth[k].x, truth[k].y)
                    errors.append(abs(by_frame[k].position - truth_pos) ** 2)
        rmse = math.sqrt(np.mean(errors))
        assert rmse < 0.2

    def test_no_detections_raises(self):
        config, truth, frames = self.straight_scenario(TINY_NOISE, num_frames=10)
        empty = [f.__class__(f.frame_index, (None, f.per_node[1])) for f in frames]
        with pytest.raises(ValueError, match="no detections"):
            run_tracker(empty, 0, config.nodes[0], EkfConfig(), TINY_NOISE)

    def test_nis_consistency(self):
        # Matched noise: time-averaged normalized innovation squared stays
        # in the [1, 6] band (3 dof) for at least 95% of runs.  Noiseless
        # measurements with the same filter tuning drive it toward 0.
        noise = NoiseConfig(sigma_r=0.035, sigma_omega=0.15, sigma_v=0.1807)
        in_band = 0
        runs = 20
        for seed in range(runs):
            config, truth, frames = self.straight_scenario(noise, num_frames=200, seed=seed)
            nis = self._average_nis(frames, truth, noise, config.frame_duration)
            in_band += 1.0 <= nis <= 6.0
        assert in_band / runs >= 0.95
        config, truth, frames = self.straight_scenario(TINY_NOISE, num_frames=200, seed=1)
        assert self._average_nis(frames, truth, TABLE_NOISE, config.frame_duration) < 0.05

    def test_gate_rejected_detection_is_not_flagged_updated(self):
        config, truth, frames = self.straight_scenario(TABLE_NOISE, num_frames=60, seed=3)
        outlier_frame = 40
        det, other = frames[outlier_frame].per_node
        outlier = Detection(det.range + 3.0, det.spatial_freq, det.radial_vel)
        frames[outlier_frame] = frames[outlier_frame].__class__(outlier_frame, (outlier, other))
        cfg = EkfConfig(gate_threshold=16.27)  # chi-square(3) at p = 0.001
        track = run_tracker(frames, 0, config.nodes[0], cfg, TABLE_NOISE, config.frame_duration)
        by_frame = track.by_frame()
        assert by_frame[outlier_frame].updated is False
        assert by_frame[outlier_frame - 1].updated and by_frame[outlier_frame + 1].updated

    @staticmethod
    def _average_nis(frames, truth, noise, dt):
        from radarnet.geometry import detection_to_local_cartesian, IdealMeasurement
        from radarnet.geometry import measurement_jacobian

        cfg = EkfConfig()
        state = None
        cov = None
        values = []
        for frame in frames:
            det = frame.per_node[0]
            if state is None:
                if det is None:
                    continue
                pos = detection_to_local_cartesian(
                    IdealMeasurement(det.range, det.spatial_freq, det.radial_vel)
                )
                state = TargetState(pos[0], pos[1], 0.0, 0.0)
                cov = np.diag([cfg.init_pos_var, cfg.init_pos_var, cfg.init_vel_var, cfg.init_vel_var])
                continue
            state, cov = ekf_predict(state, cov, dt, cfg)
            if det is None:
                continue
            predicted = measure(ORIGIN, state)
            innovation = np.array([
                det.range - predicted.range,
                det.spatial_freq - predicted.spatial_freq,
                det.radial_vel - predicted.radial_vel,
            ])
            h = measurement_jacobian(ORIGIN, state)
            s = h @ cov @ h.T + np.diag([noise.sigma_r**2, noise.sigma_omega**2, noise.sigma_v**2])
            values.append(float(innovation @ np.linalg.solve(s, innovation)))
            state, cov, _ = ekf_update(state, cov, det, ORIGIN, noise)
        # Skip the initialization transient.
        return float(np.mean(values[20:]))


def manual_chain(frames, node_index, cfg, noise, dt):
    """The tracker's recursion written with the public predict/update steps."""
    points = []
    state = None
    for frame in frames:
        det = frame.per_node[node_index]
        updated = False
        if state is None:
            if det is None:
                continue
            pos = detection_to_local_cartesian(
                IdealMeasurement(det.range, det.spatial_freq, det.radial_vel)
            )
            state = TargetState(pos[0], pos[1], 0.0, 0.0)
            cov = np.diag([cfg.init_pos_var, cfg.init_pos_var, cfg.init_vel_var, cfg.init_vel_var])
            updated = True
        else:
            state, cov = ekf_predict(state, cov, dt, cfg)
            if det is not None and math.hypot(state.x, state.y) >= cfg.min_range:
                prior = state
                state, cov, _ = ekf_update(state, cov, det, ORIGIN, noise, cfg.gate_threshold)
                updated = state is not prior
        if state.y < 0.0:
            fold = np.diag([1.0, -1.0, 1.0, -1.0])
            state, cov = TargetState(state.x, -state.y, state.vx, -state.vy), fold @ cov @ fold
        points.append(
            (frame.frame_index, state.x, state.y, state.vx, state.vy, cov.tobytes(), updated)
        )
    return points


class TestStepWrappersMatchTracker:
    @pytest.mark.parametrize("gate", [None, 7.81])
    @pytest.mark.parametrize("name", ["A", "C"])
    def test_tracker_equals_public_step_chain(self, name, gate):
        config = builtin_scenario(name, "random", seed=7)
        _, frames = simulate_scenario(config)
        cfg = EkfConfig(process_noise_accel=0.4, gate_threshold=gate)
        for i, node in enumerate(config.nodes):
            track = run_tracker(frames, i, node, cfg, config.noise, config.frame_duration)
            got = [
                (p.frame_index, p.position.real, p.position.imag, p.velocity[0], p.velocity[1],
                 p.covariance.tobytes(), p.updated)
                for p in track.frames
            ]
            expected = manual_chain(frames, i, cfg, config.noise, config.frame_duration)
            assert got == expected
            if gate is not None:
                # The gate rejected at least one detection.
                detected = [p for p in track.frames[1:] if frames[p.frame_index].per_node[i]]
                assert not all(p.updated for p in detected)

    def test_builtin_scenarios_make_no_decomposition_calls(self, monkeypatch):
        calls = {"eigh": 0, "cholesky": 0, "inv": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        options = PipelineOptions()
        for name in ("A", "B", "C"):
            for kind in ("straight", "random"):
                config = builtin_scenario(name, kind, seed=7)
                _, frames = simulate_scenario(config)
                for i, node in enumerate(config.nodes):
                    run_tracker(frames, i, node, options.ekf, config.noise, config.frame_duration)
        assert calls == {"eigh": 0, "cholesky": 0, "inv": 0}
        np.linalg.eigh(np.eye(2))  # the counter itself is live
        assert calls["eigh"] == 1


def reference_numpy_tracker(frames, node_index, cfg, noise, dt):
    """The EKF step as numpy arrays: F P F' + Q, a `np.linalg.solve` gain
    and gate, and the Joseph update, each covariance projected by
    `eigh_projection`.  Returns the track as (frame, state, covariance,
    updated) tuples."""
    f = np.eye(4)
    f[0, 2] = f[1, 3] = dt
    q = process_noise(dt, cfg.process_noise_accel)
    r = np.diag([noise.sigma_r**2, noise.sigma_omega**2, noise.sigma_v**2])
    fold = np.diag([1.0, -1.0, 1.0, -1.0])
    points = []
    theta = None
    for frame in frames:
        det = frame.per_node[node_index]
        updated = False
        if theta is None:
            if det is None:
                continue
            pos = detection_to_local_cartesian(
                IdealMeasurement(det.range, det.spatial_freq, det.radial_vel)
            )
            theta = np.array([pos[0], pos[1], 0.0, 0.0])
            cov = np.diag([cfg.init_pos_var, cfg.init_pos_var, cfg.init_vel_var, cfg.init_vel_var])
            updated = True
        else:
            theta = f @ theta
            cov = eigh_projection(f @ cov @ f.T + q)
            if det is not None and math.hypot(theta[0], theta[1]) >= cfg.min_range:
                state = TargetState(*theta)
                m = measure(ORIGIN, state)
                h = measurement_jacobian(ORIGIN, state)
                innovation = np.array([det.range - m.range, det.spatial_freq - m.spatial_freq,
                                       det.radial_vel - m.radial_vel])
                s = h @ cov @ h.T + r
                gain = np.linalg.solve(s, h @ cov).T
                gated_out = (cfg.gate_threshold is not None
                             and innovation @ np.linalg.solve(s, innovation) > cfg.gate_threshold)
                if not gated_out:
                    theta = theta + gain @ innovation
                    a = np.eye(4) - gain @ h
                    cov = eigh_projection(a @ cov @ a.T + gain @ r @ gain.T)
                    updated = True
        if theta[1] < 0.0:
            theta, cov = fold @ theta, fold @ cov @ fold
        points.append((frame.frame_index, theta.copy(), cov.copy(), updated))
    return points


class TestFloatStep:
    def test_tracker_matches_numpy_step_on_builtins(self):
        coasted = {}  # detected frames left without an update, per gate
        for gate in (None, 7.81):
            cfg = EkfConfig(gate_threshold=gate)
            coasted[gate] = 0
            for name in ("A", "B", "C"):
                for kind in ("straight", "random"):
                    config = builtin_scenario(name, kind, seed=7)
                    _, frames = simulate_scenario(config)
                    for i, node in enumerate(config.nodes):
                        track = run_tracker(
                            frames, i, node, cfg, config.noise, config.frame_duration
                        )
                        expected = reference_numpy_tracker(
                            frames, i, cfg, config.noise, config.frame_duration
                        )
                        assert [p.frame_index for p in track.frames] == [e[0] for e in expected]
                        assert [p.updated for p in track.frames] == [e[3] for e in expected]
                        for p, (_, theta, cov, _) in zip(track.frames, expected):
                            got = np.array([p.position.real, p.position.imag, *p.velocity])
                            np.testing.assert_allclose(got, theta, rtol=0.0, atol=1e-9)
                            assert np.max(np.abs(p.covariance - cov)) <= 1e-9 * np.max(np.abs(cov))
                        coasted[gate] += sum(
                            frames[p.frame_index].per_node[i] is not None and not p.updated
                            for p in track.frames[1:]
                        )
        assert coasted[7.81] > coasted[None]  # the gate rejected detections

    def test_failed_psd_test_goes_through_eigh_clip(self, monkeypatch):
        # Rank-1 prior, dyadic entries and dt, no process noise: F P F' is
        # exact in floats and arrays alike, and singular, so it is clipped.
        v = np.array([1.0, 2.0, 0.5, -1.0])
        cov = np.outer(v, v)
        f = np.eye(4)
        f[0, 2] = f[1, 3] = 0.25
        unprojected = f @ cov @ f.T
        calls = []
        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or original(a))
        _, predicted = ekf_predict(
            TargetState(0, 5, 1, 0), cov, 0.25, EkfConfig(process_noise_accel=0.0)
        )
        assert len(calls) == 1
        monkeypatch.setattr(np.linalg, "eigh", original)
        assert predicted.tobytes() == _project_psd(unprojected).tobytes()
        assert not np.array_equal(predicted, unprojected)
        assert np.min(np.linalg.eigvalsh(predicted)) > 0.0

    def test_ten_float_projection_matches_array_projection(self):
        rng = np.random.default_rng(13)
        for rank in (1, 2, 3, 4):
            for _ in range(30):
                a = rng.standard_normal((4, rank))
                sym = eigh_projection(a @ a.T)  # exactly symmetric input
                assert _psd(_upper(sym)) == _upper(_project_psd(sym))

    def test_singular_innovation_covariance_raises_after_jitter_retry(self):
        target = TargetState(1.0, 4.0, 0.3, -0.2)
        det = detection_of(ORIGIN, target)
        # An all-zero S (zero prior, variances that underflow to 0) fails the
        # first factorization and passes after the jitter retry.
        underflow = NoiseConfig(sigma_r=1e-200, sigma_omega=1e-200, sigma_v=1e-200)
        state, cov, _ = ekf_update(target, np.zeros((4, 4)), det, ORIGIN, underflow)
        assert state == target and np.all(cov == 0.0)
        # An indefinite S fails both.
        with pytest.raises(np.linalg.LinAlgError, match="singular innovation covariance"):
            ekf_update(target, -np.eye(4), det, ORIGIN, TABLE_NOISE)


class TestTransformTrack:
    def test_rigid_map(self):
        rng = np.random.default_rng(3)
        points = [
            TrackPoint(k, complex(*rng.uniform(-3, 3, 2)), rng.uniform(-1, 1, 2), random_psd(rng))
            for k in range(5)
        ]
        track = Track(frames=points, node_index=1)
        phi = 2.0
        p21 = complex(1.0, -2.0)
        moved = transform_track(track, p21, phi)
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        for before, after in zip(track.frames, moved.frames):
            expected = p21 + complex(math.cos(phi), math.sin(phi)) * before.position
            assert abs(after.position - expected) < 1e-12
            np.testing.assert_allclose(after.velocity, rot @ before.velocity, atol=1e-12)
            # Covariance eigenvalues are invariant under the rotation.
            np.testing.assert_allclose(
                np.sort(np.linalg.eigvalsh(after.covariance[:2, :2])),
                np.sort(np.linalg.eigvalsh(before.covariance[:2, :2])),
                atol=1e-9,
            )


class TestTrackFusion:
    def test_identical_inputs_halve_covariance(self):
        cov = np.diag([1.0, 2.0, 3.0, 4.0])
        points = [TrackPoint(0, 1 + 2j, np.array([0.5, -0.5]), cov)]
        fused = track_level_fusion(Track(frames=points), Track(frames=list(points)))
        assert fused.frames[0].position == pytest.approx(1 + 2j)
        np.testing.assert_allclose(fused.frames[0].covariance, cov / 2, atol=1e-12)

    def test_huge_covariance_input_is_ignored(self):
        tight = TrackPoint(0, 1 + 1j, np.array([1.0, 0.0]), np.eye(4) * 0.01)
        vague = TrackPoint(0, 5 - 3j, np.array([-1.0, 2.0]), np.eye(4) * 1e9)
        fused = track_level_fusion(Track(frames=[tight]), Track(frames=[vague]))
        assert abs(fused.frames[0].position - tight.position) < 1e-6
        np.testing.assert_allclose(fused.frames[0].velocity, tight.velocity, atol=1e-6)

    def test_no_common_frames(self):
        a = Track(frames=[TrackPoint(0, 0j, np.zeros(2), np.eye(4))])
        b = Track(frames=[TrackPoint(1, 0j, np.zeros(2), np.eye(4))])
        with pytest.raises(ValueError, match="common"):
            track_level_fusion(a, b)

    def test_fused_error_at_most_best_single(self):
        # Average per-frame position error of the fused track does not
        # exceed the better of the two input tracks, over many runs.
        rng = np.random.default_rng(4)
        fused_errs = []
        best_single_errs = []
        for _ in range(100)  :
            truth = complex(rng.uniform(-2, 2), rng.uniform(2, 6))
            sigma1, sigma2 = rng.uniform(0.05, 0.4, 2)
            frames1 = []
            frames2 = []
            for k in range(40):
                e1 = sigma1 * (rng.standard_normal() + 1j * rng.standard_normal())
                e2 = sigma2 * (rng.standard_normal() + 1j * rng.standard_normal())
                cov1 = np.diag([sigma1**2, sigma1**2, 1.0, 1.0])
                cov2 = np.diag([sigma2**2, sigma2**2, 1.0, 1.0])
                frames1.append(TrackPoint(k, truth + e1, np.zeros(2), cov1))
                frames2.append(TrackPoint(k, truth + e2, np.zeros(2), cov2))
            fused = track_level_fusion(Track(frames=frames1), Track(frames=frames2))
            err1 = np.mean([abs(p.position - truth) for p in frames1])
            err2 = np.mean([abs(p.position - truth) for p in frames2])
            fused_errs.append(np.mean([abs(p.position - truth) for p in fused.frames]))
            best_single_errs.append(min(err1, err2))
        assert np.mean(fused_errs) <= np.mean(best_single_errs)


def per_frame_track_fusion(track1, track2):
    """Track-level fusion with one 4x4 solve per frame.

    Returns (frame, state bytes, covariance bytes) per fused frame.
    """
    by_frame2 = track2.by_frame()
    out = []
    for p1 in track1.frames:
        p2 = by_frame2.get(p1.frame_index)
        if p2 is None:
            continue
        gain = np.linalg.solve(p1.covariance + p2.covariance, p1.covariance).T
        x1 = np.array([p1.position.real, p1.position.imag, p1.velocity[0], p1.velocity[1]])
        x2 = np.array([p2.position.real, p2.position.imag, p2.velocity[0], p2.velocity[1]])
        fused = x1 + gain @ (x2 - x1)
        fused_cov = p1.covariance - gain @ p1.covariance
        out.append((p1.frame_index, fused.tobytes(), (0.5 * (fused_cov + fused_cov.T)).tobytes()))
    return out


class TestStackedTrackFusion:
    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_stacked_solve_matches_per_frame_solves_bit_for_bit(self, name):
        config = builtin_scenario(name, "random", seed=7)
        _, frames = simulate_scenario(config)
        cfg = PipelineOptions().ekf
        tracks = [
            run_tracker(frames, i, node, cfg, config.noise, config.frame_duration)
            for i, node in enumerate(config.nodes)
        ]
        node = config.nodes[1]
        moved = transform_track(tracks[1], complex(node.x, node.y), node.phi)
        fused = track_level_fusion(tracks[0], moved)
        got = [
            (p.frame_index,
             np.array([p.position.real, p.position.imag, *p.velocity]).tobytes(),
             p.covariance.tobytes())
            for p in fused.frames
        ]
        assert got == per_frame_track_fusion(tracks[0], moved)
        assert len(got) > 100

    def test_singular_total_covariance_is_wrapped(self):
        singular = TrackPoint(0, 0j, np.zeros(2), np.zeros((4, 4)))
        with pytest.raises(np.linalg.LinAlgError, match="singular track covariances"):
            track_level_fusion(Track(frames=[singular]), Track(frames=[singular]))


class TestExport:
    def test_csv_schema(self, tmp_path):
        points = [TrackPoint(3, 1.5 - 0.5j, np.array([0.1, 0.2]), np.diag([1.0, 2.0, 3.0, 4.0]))]
        path = tmp_path / "track.csv"
        export_track_csv(Track(frames=points, frame="local"), path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "# frame=local"
        assert lines[1] == "frame,x,y,vx,vy,p11,p22,p33,p44"
        values = lines[2].split(",")
        assert values[0] == "3"
        assert [float(v) for v in values[1:]] == [1.5, -0.5, 0.1, 0.2, 1.0, 2.0, 3.0, 4.0]
