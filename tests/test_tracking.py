"""EKF prediction/update, tracker orchestration, and track-level fusion."""

import math
from dataclasses import replace
from functools import partial
from typing import NamedTuple

import numpy as np
import pytest

from radarnet import experiment, tracking
from radarnet.experiment import PIPELINE_EKF, calibrate_scenario
from radarnet.geometry import (
    Pose2D,
    TargetState,
    _measure_at,
    detection_to_local_cartesian,
    measure,
    measurement_jacobian,
)
from radarnet.scene import (
    DEFAULT_FRAME_DURATION,
    Detection,
    NoiseConfig,
    ScenarioConfig,
    Simulation,
    TrajectorySpec,
    builtin_scenario,
    simulate,
)
from radarnet.tracking import (
    INIT_POS_VAR,
    INIT_VEL_VAR,
    MIN_UPDATE_RANGE,
    EkfConfig,
    Track,
    _cholesky_3,
    _full,
    _is_positive_definite_4,
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


def node_rows(sim, node_index):
    """One node's detections of a Simulation, frame by frame, as (range,
    spatial frequency, radial velocity) float lists, None where it saw nothing."""
    rows = sim.detections[:, node_index].tolist()
    return [row if seen else None for row, seen in zip(rows, sim.seen[:, node_index].tolist())]


def node_detections(sim, node_index):
    """One node's detections of a Simulation, frame by frame, None where it saw nothing."""
    return [None if row is None else Detection(*row) for row in node_rows(sim, node_index)]


def straight_truth(start, velocity, num_frames, dt=0.15):
    """(F, 4) states of a target moving from `start` at the constant `velocity`."""
    k = np.arange(num_frames)[:, None] * dt
    return np.column_stack([start[0] + velocity[0] * k, start[1] + velocity[1] * k,
                            np.full((num_frames, 2), velocity)])


def measured_simulation(truth):
    """A one-node Simulation of `truth` seen noise-free from ORIGIN in every
    frame, with no field-of-view limit."""
    detections = [_measure_at(0.0, 0.0, 1.0, 0.0, *row)[:3] for row in truth.tolist()]
    return Simulation(truth, np.array(detections)[:, None, :])


def without_detections(sim, node_index, frames):
    """`sim` with node `node_index`'s detections on `frames` removed."""
    detections = sim.detections.copy()
    detections[frames, node_index] = np.nan
    return Simulation(sim.truth, detections)


class Point(NamedTuple):
    """One track row as the per-point reference code below reads it."""

    frame_index: int
    position: complex
    velocity: np.ndarray
    covariance: np.ndarray
    updated: bool = True


def points(track):
    """A track's rows as Points; velocities and covariances are views of its arrays."""
    return [
        Point(k, complex(x, y), track.states[t, 2:], track.covariances[t], u)
        for t, (k, (x, y), u) in enumerate(zip(
            track.frame_index.tolist(), track.states[:, :2].tolist(), track.updated.tolist()
        ))
    ]


def track_of(rows, **kwargs):
    """A Track holding the given Points."""
    return Track(
        frame_index=[p.frame_index for p in rows],
        states=[(p.position.real, p.position.imag, *np.ravel(p.velocity).tolist()) for p in rows],
        covariances=[p.covariance for p in rows],
        updated=[p.updated for p in rows],
        **kwargs,
    )


class TestEkfConfig:
    @pytest.mark.parametrize("gate", [0.0, -1.0, math.nan])
    def test_gate_must_be_positive(self, gate):
        with pytest.raises(ValueError, match="gate_threshold"):
            EkfConfig(gate_threshold=gate)

    @pytest.mark.parametrize("accel", [math.nan, math.inf, -1.0])
    def test_process_noise_must_be_finite_nonnegative(self, accel):
        with pytest.raises(ValueError, match="process_noise_accel"):
            EkfConfig(process_noise_accel=accel)

    def test_valid_edges_accepted(self):
        assert EkfConfig(gate_threshold=None).gate_threshold is None
        assert EkfConfig(gate_threshold=1e-9).gate_threshold == 1e-9


def project_psd(p):
    """`tracking._psd` on a 4x4 array, symmetrized first."""
    return _full(_psd(_upper(0.5 * (p + p.T))))


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
        got = project_psd(p)
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

    def test_shifted_test_rejects_but_eigh_keeps(self):
        """diag(1, 1, 1, 2e-12): the Cholesky of p - 3e-12 I fails, but the
        smallest eigenvalue 2e-12 clears the floor 1e-12 * 1, so `eigh`
        returns p itself, unclipped."""
        p = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 2e-12)
        assert not _is_positive_definite_4(p)
        assert _psd(p) is p


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
        return config, simulate(config)

    def test_noiseless_convergence(self):
        config, sim = self.straight_scenario(TINY_NOISE)
        track = run_tracker(sim, 0, EkfConfig(), TINY_NOISE, config.frame_duration)
        for (x, y), (tx, ty) in zip(track.states[20:, :2].tolist(), sim.truth[20:, :2].tolist()):
            err = abs(complex(x, y) - complex(tx, ty))
            assert err < 1e-3

    def test_missing_middle_frames_predict_only(self):
        config, sim = self.straight_scenario(TINY_NOISE, num_frames=40)
        sim = without_detections(sim, 0, range(15, 20))
        track = run_tracker(sim, 0, EkfConfig(), TINY_NOISE, config.frame_duration)
        assert track.frame_index.tolist() == list(range(40))
        # Covariance grows through the predict-only gap.
        assert np.trace(track.covariances[19]) > np.trace(track.covariances[14])

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
            sim = simulate(config)
            track = run_tracker(
                sim, 0, EkfConfig(process_noise_accel=0.05), TABLE_NOISE, config.frame_duration
            )
            by_frame = {p.frame_index: p for p in points(track)}
            for k in range(60, 120):
                if k in by_frame and by_frame[k].updated:
                    truth_pos = complex(*sim.truth[k, :2].tolist())
                    errors.append(abs(by_frame[k].position - truth_pos) ** 2)
        rmse = math.sqrt(np.mean(errors))
        assert rmse < 0.2

    def test_no_detections_raises(self):
        config, sim = self.straight_scenario(TINY_NOISE, num_frames=10)
        empty = without_detections(sim, 0, slice(None))
        with pytest.raises(ValueError, match="^node 0 never detected the target at a range of "
                                             r"at least 0\.5 m in 10 frames, so it has no track$"):
            run_tracker(empty, 0, EkfConfig(), TINY_NOISE)

    def test_track_starts_at_the_first_positive_range(self):
        # A noisy range can fall below zero; such a detection cannot place
        # the start, so the track starts at the next one, as if the first
        # were missing.  Later ones update as usual, whatever their sign.
        config, sim = self.straight_scenario(TABLE_NOISE, num_frames=30)
        first = int(np.flatnonzero(sim.seen[:, 0])[0])
        detections = sim.detections.copy()
        detections[[first, first + 5], 0, 0] = -0.1
        negative = Simulation(sim.truth, detections)
        track = run_tracker(negative, 0, EkfConfig(), TABLE_NOISE, config.frame_duration)
        skipped = without_detections(negative, 0, first)
        want = run_tracker(skipped, 0, EkfConfig(), TABLE_NOISE, config.frame_duration)
        assert track.frame_index[0] == first + 1
        for name in ("frame_index", "states", "covariances", "updated"):
            assert getattr(track, name).tobytes() == getattr(want, name).tobytes()
        assert track.updated[track.frame_index == first + 5].all()

    def test_track_starts_where_it_can_update(self):
        # A start 0.3 m from the node, inside MIN_UPDATE_RANGE, would
        # never update, so the track starts at the next detection, as if
        # that one were missing.
        config, sim = self.straight_scenario(TABLE_NOISE, num_frames=30)
        first = int(np.flatnonzero(sim.seen[:, 0])[0])
        detections = sim.detections.copy()
        detections[first, 0, 0] = 0.3
        close = Simulation(sim.truth, detections)
        track = run_tracker(close, 0, EkfConfig(), TABLE_NOISE, config.frame_duration)
        skipped = without_detections(close, 0, first)
        want = run_tracker(skipped, 0, EkfConfig(), TABLE_NOISE, config.frame_duration)
        assert track.frame_index[0] == first + 1 and track.updated.all()
        for name in ("frame_index", "states", "covariances", "updated"):
            assert getattr(track, name).tobytes() == getattr(want, name).tobytes()

    def test_no_positive_range_raises(self):
        config, sim = self.straight_scenario(TINY_NOISE, num_frames=10)
        detections = sim.detections.copy()
        detections[:, 0, 0] = -np.abs(detections[:, 0, 0])
        negative = Simulation(sim.truth, detections)
        with pytest.raises(ValueError, match=r"^node 0 never detected the target at a range of "
                                             r"at least 0\.5 m in 10 frames"):
            run_tracker(negative, 0, EkfConfig(), TINY_NOISE)

    @pytest.mark.parametrize("dt", [0.0, -0.15, math.nan])
    def test_frame_duration_must_be_positive(self, dt):
        _, sim = self.straight_scenario(TINY_NOISE, num_frames=10)
        with pytest.raises(ValueError, match="dt must be > 0"):
            run_tracker(sim, 0, EkfConfig(), TINY_NOISE, dt)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_detection_raises(self, bad):
        _, sim = self.straight_scenario(TINY_NOISE, num_frames=10)
        detections = sim.detections.copy()
        detections[5, 0, 2] = bad
        with pytest.raises(ValueError, match="EKF state must be finite"):
            run_tracker(Simulation(sim.truth, detections), 0, EkfConfig(), TINY_NOISE)

    def test_nis_consistency(self):
        # Matched noise: time-averaged normalized innovation squared stays
        # in the [1, 6] band (3 dof) for at least 95% of runs.  Noiseless
        # measurements with the same filter tuning drive it toward 0.
        noise = NoiseConfig(sigma_r=0.035, sigma_omega=0.15, sigma_v=0.1807)
        in_band = 0
        runs = 20
        for seed in range(runs):
            config, sim = self.straight_scenario(noise, num_frames=200, seed=seed)
            nis = self._average_nis(sim, noise, config.frame_duration)
            in_band += 1.0 <= nis <= 6.0
        assert in_band / runs >= 0.95
        config, sim = self.straight_scenario(TINY_NOISE, num_frames=200, seed=1)
        assert self._average_nis(sim, TABLE_NOISE, config.frame_duration) < 0.05

    def test_gate_rejected_detection_is_not_flagged_updated(self):
        config, sim = self.straight_scenario(TABLE_NOISE, num_frames=60, seed=3)
        outlier_frame = 40
        assert sim.seen[outlier_frame, 0]
        detections = sim.detections.copy()
        detections[outlier_frame, 0, 0] += 3.0
        sim = Simulation(sim.truth, detections)
        cfg = EkfConfig(gate_threshold=16.27)  # chi-square(3) at p = 0.001
        track = run_tracker(sim, 0, cfg, TABLE_NOISE, config.frame_duration)
        updated = dict(zip(track.frame_index.tolist(), track.updated.tolist()))
        assert updated[outlier_frame] is False
        assert updated[outlier_frame - 1] and updated[outlier_frame + 1]

    @staticmethod
    def _average_nis(sim, noise, dt):
        from radarnet.geometry import detection_to_local_cartesian
        from radarnet.geometry import measurement_jacobian

        cfg = EkfConfig()
        state = None
        cov = None
        values = []
        for det in node_detections(sim, 0):
            if state is None:
                if det is None:
                    continue
                pos = detection_to_local_cartesian(det)
                state = TargetState(pos[0], pos[1], 0.0, 0.0)
                cov = np.diag([INIT_POS_VAR, INIT_POS_VAR, INIT_VEL_VAR, INIT_VEL_VAR])
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


def manual_chain(sim, node_index, cfg, noise, dt, folds=None):
    """The tracker's recursion written with the public predict/update steps.

    Appends to `folds`, if given, each frame whose state it reflected
    across the array line.
    """
    rows = []
    state = None
    for k, det in enumerate(node_detections(sim, node_index)):
        updated = False
        if state is None:
            if det is None or not det.range >= MIN_UPDATE_RANGE:
                continue
            pos = detection_to_local_cartesian(det)
            state = TargetState(pos[0], pos[1], 0.0, 0.0)
            cov = np.diag([INIT_POS_VAR, INIT_POS_VAR, INIT_VEL_VAR, INIT_VEL_VAR])
            updated = True
        else:
            state, cov = ekf_predict(state, cov, dt, cfg)
            if det is not None and math.hypot(state.x, state.y) >= MIN_UPDATE_RANGE:
                prior = state
                state, cov, _ = ekf_update(state, cov, det, ORIGIN, noise, cfg.gate_threshold)
                updated = state is not prior
        if state.y < 0.0:
            fold = np.diag([1.0, -1.0, 1.0, -1.0])
            state, cov = TargetState(state.x, -state.y, state.vx, -state.vy), fold @ cov @ fold
            if folds is not None:
                folds.append(k)
        rows.append((k, state.x, state.y, state.vx, state.vy, cov.tobytes(), updated))
    return rows


def assert_tracker_matches_chain(sim, cfg, noise, dt=DEFAULT_FRAME_DURATION, node_index=0,
                                 folds=None):
    """Assert `run_tracker` equals `manual_chain` bit for bit; return its track."""
    track = run_tracker(sim, node_index, cfg, noise, dt)
    got = [
        (k, *state, cov.tobytes(), u)
        for k, state, cov, u in zip(track.frame_index.tolist(), track.states.tolist(),
                                    track.covariances, track.updated.tolist())
    ]
    assert got == manual_chain(sim, node_index, cfg, noise, dt, folds)
    return track


class TestStepWrappersMatchTracker:
    @pytest.mark.parametrize("gate", [None, 7.81])
    @pytest.mark.parametrize("name", ["A", "C"])
    def test_tracker_equals_public_step_chain(self, name, gate):
        config = builtin_scenario(name, "random", seed=7)
        sim = simulate(config)
        cfg = EkfConfig(process_noise_accel=0.4, gate_threshold=gate)
        for i in range(len(config.nodes)):
            track = assert_tracker_matches_chain(sim, cfg, config.noise, config.frame_duration, i)
            if gate is not None:
                # The gate rejected at least one detection.
                detected = sim.seen[track.frame_index[1:], i]
                assert not track.updated[1:][detected].all()

    def test_builtin_scenarios_make_no_decomposition_calls(self, monkeypatch):
        calls = {"eigh": 0, "cholesky": 0, "inv": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        for name in ("A", "B", "C"):
            for kind in ("straight", "random"):
                config = builtin_scenario(name, kind, seed=7)
                sim = simulate(config)
                for i in range(len(config.nodes)):
                    run_tracker(sim, i, PIPELINE_EKF, config.noise, config.frame_duration)
        assert calls == {"eigh": 0, "cholesky": 0, "inv": 0}
        np.linalg.eigh(np.eye(2))  # the counter itself is live
        assert calls["eigh"] == 1


class TestFusedStepRareBranches:
    """The fused loop's rare branches, bit for bit against the public step chain."""

    def test_gate_rejection(self):
        sim = measured_simulation(straight_truth((-2.0, 3.0), (0.8, 0.1), 60))
        sim.detections[40, 0, 0] += 3.0
        track = assert_tracker_matches_chain(sim, EkfConfig(gate_threshold=16.27), TABLE_NOISE)
        assert track.updated.tolist() == [k != 40 for k in range(60)]

    def test_jitter_retry(self, monkeypatch):
        # The tracker's own model leaves S singular only where H's angle row
        # vanishes, on the array line, which a float state does not reach.
        # So the one model call both paths share zeroes that row; with an
        # angle variance that underflows to 0, S's second pivot is 0.
        model = tracking._measure_at
        monkeypatch.setattr(tracking, "_measure_at", lambda *a: (*model(*a)[:5], 0.0, 0.0,
                                                                 *model(*a)[7:]))
        retries = []
        factor = tracking._factor_innovation
        monkeypatch.setattr(tracking, "_factor_innovation",
                            lambda *s: retries.append(s) or factor(*s))
        noise = NoiseConfig(sigma_omega=1e-200)
        assert noise.sigma_omega**2 == 0.0
        sim = measured_simulation(straight_truth((-2.0, 3.0), (0.8, 0.1), 40))
        track = assert_tracker_matches_chain(sim, EkfConfig(), noise)
        # The tracker's retries, then the chain's: one per update each.
        assert len(retries) == 2 * 39 and track.updated.all()

    def test_singular_innovation_covariance_raises(self, monkeypatch):
        # A Jacobian of NaNs from frame 20 on fails both factorizations.
        model = tracking._measure_at
        monkeypatch.setattr(tracking, "_measure_at", lambda *a: model(*a) if a[4] < -0.5 else (
            *model(*a)[:3], *[math.nan] * 6))
        sim = measured_simulation(straight_truth((-2.0, 3.0), (0.5, 0.0), 40))
        for tracker in (run_tracker, manual_chain):
            with pytest.raises(np.linalg.LinAlgError, match="^singular innovation covariance$"):
                tracker(sim, 0, EkfConfig(), TABLE_NOISE, DEFAULT_FRAME_DURATION)
        assert_tracker_matches_chain(Simulation(sim.truth[:20], sim.detections[:20]),
                                     EkfConfig(), TABLE_NOISE)

    def test_psd_test_after_an_unguarded_predict(self):
        # A long coast from the start at a small process noise takes the
        # predicted trace past the guard's bound, so the predicts test it.
        accel = 1e-3
        truth = straight_truth((-2.0, 3.0), (0.5, 0.1), 60)
        sim = without_detections(measured_simulation(truth), 0, range(1, 40))
        track = assert_tracker_matches_chain(sim, EkfConfig(process_noise_accel=accel),
                                             TABLE_NOISE)
        bound = tracking._predict_trace_bound(
            DEFAULT_FRAME_DURATION, tracking._process_noise_terms(DEFAULT_FRAME_DURATION, accel))
        traces = np.einsum("tii->t", track.covariances)
        assert np.any(traces[1:40] > bound) and track.updated[40:].all()

    def test_eigh_clip_after_unguarded_updates(self, monkeypatch):
        # Zero process noise leaves both guards without their premise, and
        # near-exact measurements leave posteriors the eigh clip must mend.
        clips = []
        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: clips.append(1) or original(a))
        sim = measured_simulation(straight_truth((-2.0, 3.0), (0.8, 0.1), 60))
        run_tracker(sim, 0, EkfConfig(process_noise_accel=0.0), TINY_NOISE)
        assert clips
        assert_tracker_matches_chain(sim, EkfConfig(process_noise_accel=0.0), TINY_NOISE)

    def test_fold_behind_the_array(self):
        # The target crosses the array line; its detections there are its
        # mirror's, and the predicted states that cross are folded back.
        folds = []
        sim = measured_simulation(straight_truth((1.0, 2.0), (0.2, -1.0), 40))
        assert_tracker_matches_chain(sim, EkfConfig(), TABLE_NOISE, folds=folds)
        assert folds

    @pytest.mark.parametrize("frame, column, bad", [
        (0, 0, math.inf), (5, 2, math.inf), (5, 2, math.nan), (5, 1, math.nan)])
    def test_non_finite_state_raises_as_the_kernel_chain(self, frame, column, bad):
        sim = measured_simulation(straight_truth((-2.0, 3.0), (0.8, 0.1), 10))
        sim.detections[frame, 0, column] = bad
        with pytest.raises(ValueError, match="^EKF state must be finite") as fused:
            run_tracker(sim, 0, EkfConfig(), TABLE_NOISE)
        with pytest.raises(ValueError) as chained:
            kernel_run_tracker(sim, 0, EkfConfig(), TABLE_NOISE)
        assert str(fused.value) == str(chained.value)

    def test_min_update_range_start_and_skip(self):
        # The first detections sit within MIN_UPDATE_RANGE, so the track
        # starts at the first that does not; the pass near the node skips
        # updates.
        truth = straight_truth((0.1, 0.2), (0.4, 0.1), 40)
        track = assert_tracker_matches_chain(measured_simulation(truth), EkfConfig(), TABLE_NOISE)
        first = np.flatnonzero(np.hypot(truth[:, 0], truth[:, 1]) >= MIN_UPDATE_RANGE)[0]
        assert first > 0 and track.frame_index[0] == first and track.updated.all()
        truth = straight_truth((-3.0, 0.3), (0.8, 0.0), 60)
        track = assert_tracker_matches_chain(measured_simulation(truth), EkfConfig(), TABLE_NOISE)
        # A point left without an update keeps its predicted state.
        skipped = ~track.updated
        assert skipped.any() and track.frame_index[0] == 0
        assert np.all(np.hypot(track.states[skipped, 0], track.states[skipped, 1])
                      < MIN_UPDATE_RANGE)


def reference_numpy_tracker(sim, node_index, cfg, noise, dt):
    """The EKF step as numpy arrays: F P F' + Q, a `np.linalg.solve` gain
    and gate, and the Joseph update, each covariance projected by
    `eigh_projection`.  Returns the track as (frame, state, covariance,
    updated) tuples."""
    f = np.eye(4)
    f[0, 2] = f[1, 3] = dt
    q = process_noise(dt, cfg.process_noise_accel)
    r = np.diag([noise.sigma_r**2, noise.sigma_omega**2, noise.sigma_v**2])
    fold = np.diag([1.0, -1.0, 1.0, -1.0])
    rows = []
    theta = None
    for k, det in enumerate(node_detections(sim, node_index)):
        updated = False
        if theta is None:
            if det is None:
                continue
            pos = detection_to_local_cartesian(det)
            theta = np.array([pos[0], pos[1], 0.0, 0.0])
            cov = np.diag([INIT_POS_VAR, INIT_POS_VAR, INIT_VEL_VAR, INIT_VEL_VAR])
            updated = True
        else:
            theta = f @ theta
            cov = eigh_projection(f @ cov @ f.T + q)
            if det is not None and math.hypot(theta[0], theta[1]) >= MIN_UPDATE_RANGE:
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
        rows.append((k, theta.copy(), cov.copy(), updated))
    return rows


class TestFloatStep:
    def test_tracker_matches_numpy_step_on_builtins(self):
        coasted = {}  # detected frames left without an update, per gate
        for gate in (None, 7.81):
            cfg = EkfConfig(gate_threshold=gate)
            coasted[gate] = 0
            for name in ("A", "B", "C"):
                for kind in ("straight", "random"):
                    config = builtin_scenario(name, kind, seed=7)
                    sim = simulate(config)
                    for i in range(len(config.nodes)):
                        track = run_tracker(
                            sim, i, cfg, config.noise, config.frame_duration
                        )
                        expected = reference_numpy_tracker(
                            sim, i, cfg, config.noise, config.frame_duration
                        )
                        assert track.frame_index.tolist() == [e[0] for e in expected]
                        assert track.updated.tolist() == [e[3] for e in expected]
                        for got, got_cov, (_, theta, cov, _) in zip(
                            track.states, track.covariances, expected
                        ):
                            np.testing.assert_allclose(got, theta, rtol=0.0, atol=1e-9)
                            assert np.max(np.abs(got_cov - cov)) <= 1e-9 * np.max(np.abs(cov))
                        coasted[gate] += int(np.count_nonzero(
                            sim.seen[track.frame_index[1:], i] & ~track.updated[1:]
                        ))
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
        assert predicted.tobytes() == project_psd(unprojected).tobytes()
        assert not np.array_equal(predicted, unprojected)
        assert np.min(np.linalg.eigvalsh(predicted)) > 0.0

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


class TestCholesky3:
    @pytest.mark.parametrize("s", [
        (0.0, 0.0, 0.0, 1.0, 0.0, 1.0),  # first pivot
        (1.0, 1.0, 0.0, 1.0, 0.0, 1.0),  # second pivot: row 1 repeats row 0
        (1.0, 0.0, 1.0, 1.0, 0.0, 1.0),  # third pivot: row 2 repeats row 0
    ])
    def test_singular_pivot_gives_none(self, s):
        assert _cholesky_3(*s) is None


class TestTransformTrack:
    def test_rigid_map(self):
        rng = np.random.default_rng(3)
        rows = [
            Point(k, complex(*rng.uniform(-3, 3, 2)), rng.uniform(-1, 1, 2), random_psd(rng))
            for k in range(5)
        ]
        track = track_of(rows, node_index=1)
        phi = 2.0
        p21 = complex(1.0, -2.0)
        moved = transform_track(track, p21, phi)
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        for before, after in zip(points(track), points(moved)):
            expected = p21 + complex(math.cos(phi), math.sin(phi)) * before.position
            assert abs(after.position - expected) < 1e-12
            np.testing.assert_allclose(after.velocity, rot @ before.velocity, atol=1e-12)
            # Covariance eigenvalues are invariant under the rotation.
            np.testing.assert_allclose(
                np.sort(np.linalg.eigvalsh(after.covariance[:2, :2])),
                np.sort(np.linalg.eigvalsh(before.covariance[:2, :2])),
                atol=1e-9,
            )


    def test_stacked_map_matches_per_point_bit_for_bit(self):
        config = builtin_scenario("A", "random", seed=7)
        track = run_tracker(
            simulate(config), 1, PIPELINE_EKF, config.noise,
            config.frame_duration,
        )
        phi = 2.5
        moved = transform_track(track, complex(3.5, 6.1), phi)
        rot2 = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        rot4 = np.zeros((4, 4))
        rot4[:2, :2] = rot4[2:, 2:] = rot2
        assert len(moved) == len(track) > 100
        for before, after in zip(points(track), points(moved)):
            cov = rot4 @ before.covariance @ rot4.T
            assert after.frame_index == before.frame_index
            assert (rot2 @ before.velocity).tobytes() == after.velocity.tobytes()
            assert (0.5 * (cov + cov.T)).tobytes() == after.covariance.tobytes()


class TestTrackFusion:
    def test_identical_inputs_halve_covariance(self):
        cov = np.diag([1.0, 2.0, 3.0, 4.0])
        rows = [Point(0, 1 + 2j, np.array([0.5, -0.5]), cov)]
        fused = points(track_level_fusion(track_of(rows), track_of(rows)))
        assert fused[0].position == pytest.approx(1 + 2j)
        np.testing.assert_allclose(fused[0].covariance, cov / 2, atol=1e-12)

    def test_huge_covariance_input_is_ignored(self):
        tight = Point(0, 1 + 1j, np.array([1.0, 0.0]), np.eye(4) * 0.01)
        vague = Point(0, 5 - 3j, np.array([-1.0, 2.0]), np.eye(4) * 1e9)
        fused = points(track_level_fusion(track_of([tight]), track_of([vague])))
        assert abs(fused[0].position - tight.position) < 1e-6
        np.testing.assert_allclose(fused[0].velocity, tight.velocity, atol=1e-6)

    def test_no_common_frames(self):
        a = track_of([Point(0, 0j, np.zeros(2), np.eye(4))])
        b = track_of([Point(1, 0j, np.zeros(2), np.eye(4))])
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
                frames1.append(Point(k, truth + e1, np.zeros(2), cov1))
                frames2.append(Point(k, truth + e2, np.zeros(2), cov2))
            fused = track_level_fusion(track_of(frames1), track_of(frames2))
            err1 = np.mean([abs(p.position - truth) for p in frames1])
            err2 = np.mean([abs(p.position - truth) for p in frames2])
            fused_errs.append(np.mean([abs(p.position - truth) for p in points(fused)]))
            best_single_errs.append(min(err1, err2))
        assert np.mean(fused_errs) <= np.mean(best_single_errs)


def per_frame_track_fusion(track1, track2):
    """Track-level fusion with one 4x4 solve per frame.

    Returns (frame, state bytes, covariance bytes) per fused frame.
    """
    by_frame2 = {p.frame_index: p for p in points(track2)}
    out = []
    for p1 in points(track1):
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
        sim = simulate(config)
        cfg = PIPELINE_EKF
        tracks = [
            run_tracker(sim, i, cfg, config.noise, config.frame_duration)
            for i in range(len(config.nodes))
        ]
        node = config.nodes[1]
        moved = transform_track(tracks[1], complex(node.x, node.y), node.phi)
        fused = track_level_fusion(tracks[0], moved)
        got = [
            (p.frame_index,
             np.array([p.position.real, p.position.imag, *p.velocity]).tobytes(),
             p.covariance.tobytes())
            for p in points(fused)
        ]
        assert got == per_frame_track_fusion(tracks[0], moved)
        assert len(got) > 100

    def test_singular_total_covariance_is_wrapped(self):
        singular = track_of([Point(0, 0j, np.zeros(2), np.zeros((4, 4)))])
        with pytest.raises(np.linalg.LinAlgError, match="singular track covariances"):
            track_level_fusion(singular, singular)


class TestExport:
    def test_csv_schema(self, tmp_path):
        rows = [Point(3, 1.5 - 0.5j, np.array([0.1, 0.2]), np.diag([1.0, 2.0, 3.0, 4.0]))]
        path = tmp_path / "track.csv"
        export_track_csv(track_of(rows, frame="local"), path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "# frame=local"
        assert lines[1] == "frame,x,y,vx,vy,p11,p22,p33,p44"
        values = lines[2].split(",")
        assert values[0] == "3"
        assert [float(v) for v in values[1:]] == [1.5, -0.5, 0.1, 0.2, 1.0, 2.0, 3.0, 4.0]


# -- Array-backed tracks against the point-list code they replaced ---------

def list_table(points):
    """`Track.table` as the point-list code computed it."""
    position = np.array([p.position for p in points], dtype=complex)
    velocity = np.array([p.velocity for p in points]).reshape(-1, 2)
    variance = np.array([p.covariance for p in points]).reshape(-1, 16)[:, ::5]
    return np.column_stack([position.real, position.imag, velocity, variance])


def list_transform_track(points, p21, phi21):
    """`transform_track` as the point-list code computed it."""
    rot2 = np.array([[math.cos(phi21), -math.sin(phi21)], [math.sin(phi21), math.cos(phi21)]])
    rot4 = np.zeros((4, 4))
    rot4[:2, :2] = rot4[2:, 2:] = rot2
    rot_c = complex(math.cos(phi21), math.sin(phi21))
    velocity = (rot2 @ np.array([p.velocity for p in points]).reshape(-1, 2, 1))[..., 0]
    cov = rot4 @ np.array([p.covariance for p in points]).reshape(-1, 4, 4) @ rot4.T
    cov = 0.5 * (cov + cov.transpose(0, 2, 1))
    return [
        Point(p.frame_index, p21 + rot_c * p.position, velocity[t], cov[t])
        for t, p in enumerate(points)
    ]


def list_track_level_fusion(points1, points2):
    """`track_level_fusion` as the point-list code computed it."""
    by_frame2 = {p.frame_index: p for p in points2}
    pairs = [(p1, by_frame2[p1.frame_index]) for p1 in points1 if p1.frame_index in by_frame2]
    cov1 = np.array([p1.covariance for p1, _ in pairs])
    total = cov1 + np.array([p2.covariance for _, p2 in pairs])
    gain = np.linalg.solve(total, cov1).transpose(0, 2, 1)
    x1 = np.array([[p1.position.real, p1.position.imag, *p1.velocity.tolist()] for p1, _ in pairs])
    x2 = np.array([[p2.position.real, p2.position.imag, *p2.velocity.tolist()] for _, p2 in pairs])
    fused = x1 + (gain @ (x2 - x1)[:, :, None])[:, :, 0]
    fused_cov = cov1 - gain @ cov1
    fused_cov = 0.5 * (fused_cov + fused_cov.transpose(0, 2, 1))
    velocity = fused[:, 2:].copy()
    return [
        Point(p1.frame_index, complex(x, y), velocity[t], fused_cov[t])
        for t, ((p1, _), (x, y)) in enumerate(zip(pairs, fused[:, :2].tolist()))
    ]


def list_paired_positions(points1, points2, skip, gap, settle):
    """`experiment.paired_positions` as the point-list code computed it."""
    by1 = {p.frame_index: p for p in points1}
    by2 = {p.frame_index: p for p in points2}
    good = []
    last = None
    cooldown = 0
    for k in sorted(set(by1) & set(by2)):
        if not (by1[k].updated and by2[k].updated):
            continue
        if last is not None and k - last > gap:
            cooldown = settle
        last = k
        if cooldown > 0:
            cooldown -= 1
            continue
        good.append(k)
    good = good[skip:]
    return np.array([by1[k].position for k in good]), np.array([by2[k].position for k in good])


def point_bits(points):
    """Every field of every point, floats as their exact bytes."""
    return [
        (p.frame_index, p.updated, np.array([p.position.real, p.position.imag]).tobytes(),
         np.asarray(p.velocity, dtype=float).tobytes(), p.covariance.tobytes())
        for p in points
    ]


@pytest.fixture(scope="module")
def builtin_tracks():
    """Every node's track of built-ins A and C (random, seed 7), and the true poses."""
    out = {}
    for name in ("A", "C"):
        config = builtin_scenario(name, "random", seed=7)
        sim = simulate(config)
        out[name] = config.nodes, [
            run_tracker(sim, i, PIPELINE_EKF, config.noise, config.frame_duration)
            for i in range(len(config.nodes))
        ]
    return out


class TestArrayTrack:
    def test_views_equal_point_list_values(self, builtin_tracks):
        for _, tracks in builtin_tracks.values():
            for track in tracks:
                rows = points(track)
                assert track.positions().tobytes() == np.array(
                    [p.position for p in rows], dtype=complex).tobytes()
                assert track.table().tobytes() == list_table(rows).tobytes()

    def test_bad_construction_rejected(self):
        cov = np.broadcast_to(np.eye(4), (2, 4, 4))
        with pytest.raises(ValueError, match="strictly increase"):
            Track(frame_index=[3, 3], states=np.zeros((2, 4)), covariances=cov,
                  updated=[True, True])
        with pytest.raises(TypeError, match="covariances"):
            Track(frame_index=[3], states=np.zeros((1, 4)))

    def test_transform_and_fusion_equal_point_list_code(self, builtin_tracks):
        for nodes, tracks in builtin_tracks.values():
            for node, track in zip(nodes[1:], tracks[1:]):
                p21 = complex(node.x, node.y)
                moved = transform_track(track, p21, node.phi)
                assert moved.frame == "reference" and moved.node_index == track.node_index
                expected = list_transform_track(points(track), p21, node.phi)
                assert point_bits(points(moved)) == point_bits(expected)
                fused = track_level_fusion(tracks[0], moved)
                assert len(fused) > 100
                assert point_bits(points(fused)) == point_bits(
                    list_track_level_fusion(points(tracks[0]), expected))

    def test_export_equals_point_list_code(self, builtin_tracks, tmp_path):
        from radarnet.scene import write_csv

        _, tracks = builtin_tracks["C"]
        track = tracks[1]
        export_track_csv(track, tmp_path / "arrays.csv")
        rows = points(track)
        lines = ([p.frame_index, *row] for p, row in zip(rows, list_table(rows).tolist()))
        write_csv(tmp_path / "points.csv", "# frame=local\nframe,x,y,vx,vy,p11,p22,p33,p44", lines)
        assert (tmp_path / "arrays.csv").read_bytes() == (tmp_path / "points.csv").read_bytes()

    @pytest.mark.parametrize("skip,gap,settle", [(50, 5, 10), (0, 0, 0), (3, 2, 25), (10, 1, -2)])
    def test_paired_positions_equal_point_list_code(self, builtin_tracks, skip, gap, settle):
        from radarnet.experiment import paired_positions

        for _, tracks in builtin_tracks.values():
            for track in tracks[1:]:
                z1, z2 = paired_positions(tracks[0], track, skip, gap, settle)
                e1, e2 = list_paired_positions(points(tracks[0]), points(track), skip, gap, settle)
                assert len(z1) > 100
                assert (z1.tobytes(), z2.tobytes()) == (e1.tobytes(), e2.tobytes())


# -- Whitened update against the Joseph form it replaced ----------------------

def cholesky_solve_3(factor, b0, b1, b2):
    """S^-1 b by forward and back substitution on S's Cholesky factor."""
    l00, l10, l20, l11, l21, l22 = factor
    y0 = b0 / l00
    y1 = (b1 - l10 * y0) / l11
    x2 = (b2 - l20 * y0 - l21 * y1) / l22 / l22
    x1 = (y1 - l21 * x2) / l11
    return (y0 - l10 * x1 - l20 * x2) / l00, x1, x2


def joseph_update(
    theta: tuple, p: tuple, model: tuple, z, r: tuple, gate_threshold: float | None,
) -> tuple[tuple, tuple, tuple, bool]:
    """`tracking._update` with the gain K = B S^-1 from forward and back
    substitution and the Joseph-form covariance (I - KH) P (I - KH)' + K R K'."""
    pred_r, pred_omega, pred_v, h00, h01, h10, h11, h20, h21 = model
    z0, z1, z2 = z
    e0 = z0 - pred_r
    e1 = z1 - pred_omega
    e2 = z2 - pred_v
    p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = p
    # B = P H' with row i = (ui, vi, wi), for the Jacobian
    # H = [[h00 h01 0 0] [h10 h11 0 0] [h20 h21 h00 h01]].
    u0, v0 = p00 * h00 + p01 * h01, p00 * h10 + p01 * h11
    u1, v1 = p01 * h00 + p11 * h01, p01 * h10 + p11 * h11
    u2, v2 = p02 * h00 + p12 * h01, p02 * h10 + p12 * h11
    u3, v3 = p03 * h00 + p13 * h01, p03 * h10 + p13 * h11
    w0 = p00 * h20 + p01 * h21 + p02 * h00 + p03 * h01
    w1 = p01 * h20 + p11 * h21 + p12 * h00 + p13 * h01
    w2 = p02 * h20 + p12 * h21 + p22 * h00 + p23 * h01
    w3 = p03 * h20 + p13 * h21 + p23 * h00 + p33 * h01
    r0, r1, r2 = r
    s = (
        h00 * u0 + h01 * u1 + r0, h00 * v0 + h01 * v1, h00 * w0 + h01 * w1,
        h10 * v0 + h11 * v1 + r1, h10 * w0 + h11 * w1,
        h20 * w0 + h21 * w1 + h00 * w2 + h01 * w3 + r2,
    )
    # The Cholesky factor proves S positive definite; one jitter retry
    # absorbs the rounding dust extreme noise scales can leave on a weak
    # direction.
    factor = _cholesky_3(*s)
    if factor is None:
        jitter = 1e-12 * (s[0] + s[3] + s[5]) / 3.0 + 1e-300
        factor = _cholesky_3(s[0] + jitter, s[1], s[2], s[3] + jitter, s[4], s[5] + jitter)
        if factor is None:
            raise np.linalg.LinAlgError("singular innovation covariance")
    innovation = (e0, e1, e2)
    if gate_threshold is not None:
        # Squared Mahalanobis distance e' S^-1 e = |L^-1 e|^2.
        l00, l10, l20, l11, l21, l22 = factor
        z0 = e0 / l00
        z1 = (e1 - l10 * z0) / l11
        z2 = (e2 - l20 * z0 - l21 * z1) / l22
        if z0 * z0 + z1 * z1 + z2 * z2 > gate_threshold:
            return theta, p, innovation, False
    # Gain K = P H' S^-1, row by row.
    k00, k01, k02 = cholesky_solve_3(factor, u0, v0, w0)
    k10, k11, k12 = cholesky_solve_3(factor, u1, v1, w1)
    k20, k21, k22 = cholesky_solve_3(factor, u2, v2, w2)
    k30, k31, k32 = cholesky_solve_3(factor, u3, v3, w3)
    x, y, vx, vy = theta
    posterior = (
        x + (k00 * e0 + k01 * e1 + k02 * e2),
        y + (k10 * e0 + k11 * e1 + k12 * e2),
        vx + (k20 * e0 + k21 * e1 + k22 * e2),
        vy + (k30 * e0 + k31 * e1 + k32 * e2),
    )
    # Joseph form (I - K H) P (I - K H)' + K R K'.  A = I - K H by rows:
    a00 = 1.0 - k00 * h00 - k01 * h10 - k02 * h20
    a01 = -k00 * h01 - k01 * h11 - k02 * h21
    a02, a03 = -k02 * h00, -k02 * h01
    a10 = -k10 * h00 - k11 * h10 - k12 * h20
    a11 = 1.0 - k10 * h01 - k11 * h11 - k12 * h21
    a12, a13 = -k12 * h00, -k12 * h01
    a20 = -k20 * h00 - k21 * h10 - k22 * h20
    a21 = -k20 * h01 - k21 * h11 - k22 * h21
    a22, a23 = 1.0 - k22 * h00, -k22 * h01
    a30 = -k30 * h00 - k31 * h10 - k32 * h20
    a31 = -k30 * h01 - k31 * h11 - k32 * h21
    a32, a33 = -k32 * h00, 1.0 - k32 * h01
    # C = A P by rows.
    c00 = a00 * p00 + a01 * p01 + a02 * p02 + a03 * p03
    c01 = a00 * p01 + a01 * p11 + a02 * p12 + a03 * p13
    c02 = a00 * p02 + a01 * p12 + a02 * p22 + a03 * p23
    c03 = a00 * p03 + a01 * p13 + a02 * p23 + a03 * p33
    c10 = a10 * p00 + a11 * p01 + a12 * p02 + a13 * p03
    c11 = a10 * p01 + a11 * p11 + a12 * p12 + a13 * p13
    c12 = a10 * p02 + a11 * p12 + a12 * p22 + a13 * p23
    c13 = a10 * p03 + a11 * p13 + a12 * p23 + a13 * p33
    c20 = a20 * p00 + a21 * p01 + a22 * p02 + a23 * p03
    c21 = a20 * p01 + a21 * p11 + a22 * p12 + a23 * p13
    c22 = a20 * p02 + a21 * p12 + a22 * p22 + a23 * p23
    c23 = a20 * p03 + a21 * p13 + a22 * p23 + a23 * p33
    c30 = a30 * p00 + a31 * p01 + a32 * p02 + a33 * p03
    c31 = a30 * p01 + a31 * p11 + a32 * p12 + a33 * p13
    c32 = a30 * p02 + a31 * p12 + a32 * p22 + a33 * p23
    c33 = a30 * p03 + a31 * p13 + a32 * p23 + a33 * p33
    # Upper triangle of C A' + K R K'.
    rk00, rk01, rk02 = r0 * k00, r1 * k01, r2 * k02
    rk10, rk11, rk12 = r0 * k10, r1 * k11, r2 * k12
    rk20, rk21, rk22 = r0 * k20, r1 * k21, r2 * k22
    rk30, rk31, rk32 = r0 * k30, r1 * k31, r2 * k32
    cov = _psd((
        c00 * a00 + c01 * a01 + c02 * a02 + c03 * a03 + rk00 * k00 + rk01 * k01 + rk02 * k02,
        c00 * a10 + c01 * a11 + c02 * a12 + c03 * a13 + rk00 * k10 + rk01 * k11 + rk02 * k12,
        c00 * a20 + c01 * a21 + c02 * a22 + c03 * a23 + rk00 * k20 + rk01 * k21 + rk02 * k22,
        c00 * a30 + c01 * a31 + c02 * a32 + c03 * a33 + rk00 * k30 + rk01 * k31 + rk02 * k32,
        c10 * a10 + c11 * a11 + c12 * a12 + c13 * a13 + rk10 * k10 + rk11 * k11 + rk12 * k12,
        c10 * a20 + c11 * a21 + c12 * a22 + c13 * a23 + rk10 * k20 + rk11 * k21 + rk12 * k22,
        c10 * a30 + c11 * a31 + c12 * a32 + c13 * a33 + rk10 * k30 + rk11 * k31 + rk12 * k32,
        c20 * a20 + c21 * a21 + c22 * a22 + c23 * a23 + rk20 * k20 + rk21 * k21 + rk22 * k22,
        c20 * a30 + c21 * a31 + c22 * a32 + c23 * a33 + rk20 * k30 + rk21 * k31 + rk22 * k32,
        c30 * a30 + c31 * a31 + c32 * a32 + c33 * a33 + rk30 * k30 + rk31 * k31 + rk32 * k32,
    ))
    return posterior, cov, innovation, True


def tracks_and_calibrations(monkeypatch, configs, cfg, tracker=run_tracker):
    """Every node's `tracker` track of each config under `cfg`, and its
    calibration-stage poses with that tracker."""
    monkeypatch.setattr(experiment, "PIPELINE_EKF", cfg)
    monkeypatch.setattr(experiment, "run_tracker", tracker)
    out = []
    for config in configs:
        sim = simulate(config)
        tracks = [tracker(sim, i, cfg, config.noise, config.frame_duration)
                  for i in range(len(config.nodes))]
        out.append((tracks, [(res.p21, res.phi21) for res in calibrate_scenario(config)]))
    return out


class TestWhitenedUpdate:
    @pytest.mark.parametrize("gate", [None, 7.81])
    def test_tracks_match_joseph_update_on_builtins(self, monkeypatch, gate):
        configs = [builtin_scenario(name, kind, seed=seed) for name in ("A", "B", "C")
                   for kind in ("straight", "random") for seed in (7, 8, 9)]
        cfg = EkfConfig(process_noise_accel=0.4, gate_threshold=gate)
        got = tracks_and_calibrations(monkeypatch, configs, cfg)
        expected = tracks_and_calibrations(monkeypatch, configs, cfg,
                                           partial(untrimmed_run_tracker, update=joseph_update))
        for (tracks, calibrations), (ref_tracks, ref_calibrations) in zip(got, expected):
            for track, ref in zip(tracks, ref_tracks):
                assert track.frame_index.tolist() == ref.frame_index.tolist()
                assert track.updated.tolist() == ref.updated.tolist()
                np.testing.assert_allclose(track.states, ref.states, rtol=0.0, atol=1e-9)
                scale = np.max(np.abs(ref.covariances), axis=(1, 2))
                assert np.all(np.max(np.abs(track.covariances - ref.covariances), axis=(1, 2))
                              <= 1e-9 * scale)
            for (p21, phi21), (ref_p21, ref_phi21) in zip(calibrations, ref_calibrations):
                assert abs(p21 - ref_p21) <= 1e-9 and abs(phi21 - ref_phi21) <= 1e-9

    def test_random_priors_shrink_and_match_joseph_update(self):
        rng = np.random.default_rng(21)
        r = (0.035**2, 0.15**2, 0.1807**2)
        for _ in range(300):
            theta = (rng.uniform(-3, 3), rng.uniform(1, 8), *rng.uniform(-2, 2, 2))
            model = _measure_at(0.0, 0.0, 1.0, 0.0, *theta)
            z = tuple(m + rng.normal(0, s) for m, s in zip(model[:3], (0.05, 0.2, 0.1)))
            prior = random_psd(rng, scale=10.0 ** rng.uniform(-3, 1))
            p = _upper(prior)
            posterior, cov, innovation, applied = tracking._update(theta, p, model, z, r, None)
            ref_posterior, ref_cov, ref_innovation, _ = joseph_update(theta, p, model, z, r, None)
            assert applied and innovation == ref_innovation
            np.testing.assert_allclose(posterior, ref_posterior, rtol=0.0, atol=1e-9)
            assert np.max(np.abs(np.subtract(cov, ref_cov))) <= 1e-9 * np.max(np.abs(ref_cov))
            # Loewner order: prior - posterior = W W' is positive semidefinite.
            assert np.min(np.linalg.eigvalsh(prior - _full(cov))) >= -1e-12 * np.trace(prior)


def untrimmed_measure_floats(radar, x, y, vx, vy):
    """The measurement model and Jacobian from a pose, with its cos and sin."""
    dx, dy = x - radar.x, y - radar.y
    r = math.sqrt(dx * dx + dy * dy)
    ux, uy = dx / r, dy / r
    pi_c, pi_s = math.pi * math.cos(radar.phi), math.pi * math.sin(radar.phi)
    omega = pi_c * ux + pi_s * uy
    vel = vx * ux + vy * uy
    return (
        r, omega, vel, ux, uy, (pi_c - omega * ux) / r, (pi_s - omega * uy) / r,
        (vx - vel * ux) / r, (vy - vel * uy) / r,
    )


def untrimmed_predict(theta, p, dt, q):
    """The CV prediction followed by the PSD test on every covariance."""
    x, y, vx, vy = theta
    p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = p
    q_pos, q_cross, q_vel = q
    a00, a01, a02, a03 = p00 + dt * p02, p01 + dt * p12, p02 + dt * p22, p03 + dt * p23
    a11, a12, a13 = p11 + dt * p13, p12 + dt * p23, p13 + dt * p33
    return (x + vx * dt, y + vy * dt, vx, vy), _psd((
        a00 + dt * a02 + q_pos, a01 + dt * a03, a02 + q_cross, a03,
        a11 + dt * a13 + q_pos, a12, a13 + q_cross,
        p22 + q_vel, p23,
        p33 + q_vel,
    ))


def kernel_run_tracker(frames, node_index, cfg, noise, dt=DEFAULT_FRAME_DURATION, *,
                       guards=True, update=None):
    """`run_tracker` as a chain of the one-step kernels, per frame a predict,
    the measurement model and `update` (default `tracking._update`).

    With `guards`, these are `_predict`, `_measure_at` and the update
    guard as the tracker applies them: the reference its fused loop must
    match bit for bit.  Without, every predicted and every updated
    covariance takes the PSD test (`untrimmed_predict`) and the model is
    the pose-taking `untrimmed_measure_floats`: the reference the guards
    and the trig-free model must match bit for bit.
    """
    update = update or tracking._update
    q = tracking._process_noise_terms(dt, cfg.process_noise_accel)
    trace_bound = tracking._predict_trace_bound(dt, q)
    r = tracking._noise_variances(noise)
    update_bound = tracking._update_guard_bound(q, r, trace_bound) if guards else -math.inf
    frame_indices, states, covariances, flags = [], [], [], []
    theta = None
    for k, z in enumerate(node_rows(frames, node_index)):
        updated = False
        if theta is None:
            if z is None or not z[0] >= MIN_UPDATE_RANGE:
                continue
            theta = (*tracking._local_cartesian(z[0], z[1]), 0.0, 0.0)
            pos_var, vel_var = INIT_POS_VAR, INIT_VEL_VAR
            p = (pos_var, 0.0, 0.0, 0.0, pos_var, 0.0, 0.0, vel_var, 0.0, vel_var)
            updated = True
        else:
            if guards:
                theta, p = tracking._predict(theta, p, dt, q, trace_bound)
            else:
                theta, p = untrimmed_predict(theta, p, dt, q)
            if z is not None and math.hypot(theta[0], theta[1]) >= MIN_UPDATE_RANGE:
                if guards:
                    model = tracking._measure_at(0.0, 0.0, 1.0, 0.0, *theta)
                else:
                    model = untrimmed_measure_floats(ORIGIN, *theta)
                trace = p[0] + p[4] + p[7] + p[9]
                theta, p, _, updated = update(theta, p, model, z, r, cfg.gate_threshold)
                if updated and not trace * guard_weight(model) < update_bound:
                    p = _psd(p)
        if not all(map(math.isfinite, theta)):
            raise ValueError(f"EKF state must be finite, got {theta!r}")
        if theta[1] < 0.0:
            x, y, vx, vy = theta
            p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = p
            theta = (x, -y, vx, -vy)
            p = (p00, -p01, p02, -p03, p11, -p12, p13, p22, -p23, p33)
        frame_indices.append(k)
        states.append(theta)
        covariances.append(p)
        flags.append(updated)
    return Track(node_index=node_index, frame_index=frame_indices, states=states,
                 covariances=_full(covariances), updated=flags)


untrimmed_run_tracker = partial(kernel_run_tracker, guards=False)


def calibration_stage_runs(monkeypatch, configs, cfg, tracker):
    """Every track `calibrate_scenario` builds with `tracker`, as exact bytes,
    and its calibrations (or the error it raised), per config."""
    tracks = []

    def recorded(*args, **kwargs):
        track = tracker(*args, **kwargs)
        tracks.append(b"".join(a.tobytes() for a in (
            track.frame_index, track.states, track.covariances, track.updated)))
        return track

    monkeypatch.setattr(experiment, "run_tracker", recorded)
    monkeypatch.setattr(experiment, "PIPELINE_EKF", cfg)
    calibrations = []
    for config in configs:
        try:
            calibrations.append([repr(res) for res in calibrate_scenario(config)])
        except experiment.PipelineError as exc:  # the same failure on both paths
            calibrations.append(repr(exc))
    return tracks, calibrations


def raw_predict(theta, p, dt, q):
    """F P F' + Q with no PSD test (an infinite bound skips it)."""
    return tracking._predict(theta, p, dt, q, math.inf)[1]


class TestPredictGuard:
    @pytest.mark.parametrize("accel", [0.4, 1.0, 0.0, 1e-9])
    @pytest.mark.parametrize("gate", [None, 7.81])
    def test_tracks_match_untrimmed_step_bit_for_bit(self, monkeypatch, accel, gate):
        configs = [builtin_scenario(name, kind, seed=seed) for name in ("A", "B", "C")
                   for kind in ("straight", "random") for seed in (7, 8, 9)]
        cfg = EkfConfig(process_noise_accel=accel, gate_threshold=gate)
        got = calibration_stage_runs(monkeypatch, configs, cfg, run_tracker)
        expected = calibration_stage_runs(monkeypatch, configs, cfg, untrimmed_run_tracker)
        assert len(got[0]) == sum(len(config.nodes) for config in configs)
        assert any(isinstance(result, list) for result in got[1])
        assert got == expected

    def test_bound_keeps_a_tenfold_margin_below_lambda_min_of_q(self):
        dt = 0.15
        q = tracking._process_noise_terms(dt, 0.4)
        bound = tracking._predict_trace_bound(dt, q)
        lambda_min = np.min(np.linalg.eigvalsh(process_noise(dt, 0.4)))
        assert 4.47e-5 < lambda_min
        assert bound * 1e-12 <= lambda_min / 10.0
        assert bound == pytest.approx(4.47e-5 / 1e-11 / (1 + dt * dt), rel=1e-3)
        assert tracking._predict_trace_bound(dt, tracking._process_noise_terms(dt, 0.0)) == 0.0

    def test_skipped_predicts_pass_the_psd_test(self):
        # Priors whose smallest eigenvalue sits just above the test's
        # 1e-12*trace margin, at scales up to the bound and past it.
        rng = np.random.default_rng(31)
        skipped = near_bound = 0
        for _ in range(4000):
            dt = 10.0 ** rng.uniform(-2.5, 1.0)
            q = tracking._process_noise_terms(dt, 10.0 ** rng.uniform(-4, 1))
            bound = tracking._predict_trace_bound(dt, q)
            vectors, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            eigenvalues = 10.0 ** rng.uniform(-6, 0, 4)
            eigenvalues[0] = (1.0 + rng.uniform(0, 1e-3)) * 1e-12 * eigenvalues[1:].sum()
            scale = bound * 10.0 ** rng.uniform(-6, 0.3) / eigenvalues.sum()
            p = _upper(tracking._symmetrize(scale * (vectors * eigenvalues) @ vectors.T))
            if not tracking._is_positive_definite_4(p):
                continue
            theta = tuple(rng.uniform(-5, 5, 4))
            predicted = raw_predict(theta, p, dt, q)
            trace = predicted[0] + predicted[4] + predicted[7] + predicted[9]
            if trace < bound:
                skipped += 1
                near_bound += trace > 0.1 * bound
                assert tracking._is_positive_definite_4(predicted)
        assert skipped > 1000 and near_bound > 200

    @pytest.mark.parametrize("accel, unguarded", [(0.4, 0), (0.0, 1)])
    def test_psd_test_runs_once_per_update_and_per_unguarded_predict(
        self, monkeypatch, accel, unguarded
    ):
        # Zero process noise leaves both guards without their premise, so
        # every predict and every posterior is tested.  At 0.4 the predict
        # guard skips every test and the update guard all but a few.  The
        # fused loop tests the same matrices in the same order as the
        # kernel chain, whose `_predict` tells which tests a predict ran,
        # and gives the same track bit for bit.
        tested = []  # per PSD test: its matrix and whether a predict ran it
        in_predict = []
        original = tracking._is_positive_definite_4
        monkeypatch.setattr(tracking, "_is_positive_definite_4",
                            lambda p: tested.append((p, bool(in_predict))) or original(p))
        original_predict = tracking._predict

        def predict(*args):
            in_predict.append(1)
            try:
                return original_predict(*args)
            finally:
                in_predict.pop()

        monkeypatch.setattr(tracking, "_predict", predict)
        clips = []
        original_eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: clips.append(1) or original_eigh(a))
        cfg = replace(PIPELINE_EKF, process_noise_accel=accel)
        all_updates = update_tests = 0
        for name in ("A", "B", "C"):
            config = builtin_scenario(name, "random", seed=7)
            sim = simulate(config)
            for i in range(len(config.nodes)):
                tested.clear()
                track = run_tracker(sim, i, cfg, config.noise, config.frame_duration)
                fused = [p for p, _ in tested]
                tested.clear()
                reference = kernel_run_tracker(sim, i, cfg, config.noise, config.frame_duration)
                assert fused == [p for p, _ in tested]
                for field in ("frame_index", "states", "covariances", "updated"):
                    assert getattr(track, field).tobytes() == getattr(reference, field).tobytes()
                calls = [by_predict for _, by_predict in tested]
                updates = int(track.updated.sum()) - 1  # the first point is the start
                predicts = len(track) - 1
                assert calls.count(True) == unguarded * predicts
                if unguarded:
                    assert calls.count(False) == updates
                all_updates += updates
                update_tests += calls.count(False)
        if not unguarded:
            assert update_tests <= 0.01 * all_updates
        assert not clips  # a clip would test its matrix a second time

    def test_public_predict_clips_an_indefinite_prior(self, monkeypatch):
        # The trace, 0.2, is far below the guard's bound at this Q, but the
        # prior is not positive definite, so the guard's premise fails.
        cov = np.diag([-1.0, 1.0, 0.1, 0.1])
        cfg = EkfConfig(process_noise_accel=0.4)
        q = tracking._process_noise_terms(0.15, 0.4)
        assert np.trace(cov) < tracking._predict_trace_bound(0.15, q)
        calls = []
        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or original(a))
        _, predicted = ekf_predict(TargetState(0, 5, 1, 0), cov, 0.15, cfg)
        assert len(calls) == 1
        monkeypatch.setattr(np.linalg, "eigh", original)
        unprojected = _full(raw_predict((0.0, 5.0, 1.0, 0.0), _upper(cov), 0.15, q))
        assert np.min(np.linalg.eigvalsh(unprojected)) < 0.0
        assert predicted.tobytes() == project_psd(unprojected).tobytes()
        assert np.min(np.linalg.eigvalsh(predicted)) > 0.0


def guard_weight(model):
    """1 + |h|^2 over the six Jacobian floats, as `run_tracker` forms it."""
    _, _, _, h00, h01, h10, h11, h20, h21 = model
    return 1.0 + (h00 * h00 + h01 * h01 + h10 * h10 + h11 * h11 + h20 * h20 + h21 * h21)


class TestUpdateGuard:
    def test_bound_is_the_root_of_its_margin_condition(self):
        dt, noise = 0.15, NoiseConfig()
        q = tracking._process_noise_terms(dt, 0.4)
        r = tracking._noise_variances(noise)
        trace_bound = tracking._predict_trace_bound(dt, q)
        y = tracking._update_guard_bound(q, r, trace_bound)
        # The stated condition 1e4 y (1/lambda_q + sigma) (1e-12 + c u (2y + tr R)/min R)
        # reaches 1 at the bound, far below the predict's bound.
        lambda_q = tracking._lambda_min_q(q)
        cu = 100.0 * 2.0**-53
        margin = (1e4 * y * (1.0 / lambda_q + sum(1.0 / v for v in r))
                  * (1e-12 + cu * (2.0 * y + sum(r)) / min(r)))
        assert margin == pytest.approx(1.0, rel=1e-9)
        assert 1.0 < y < 1e-3 * trace_bound
        # Without the premise (singular Q) or with variances that underflow, no y passes.
        q0 = tracking._process_noise_terms(dt, 0.0)
        assert tracking._update_guard_bound(q0, r, tracking._predict_trace_bound(dt, q0)) == 0.0
        assert tracking._update_guard_bound(q, (1e-400, 1.0, 1.0), trace_bound) == 0.0
        # The cap keeps y >= trace(P) inside the predict's skip region.
        assert tracking._update_guard_bound(q, r, 1e-3) == 1e-3

    def test_skipped_updates_pass_the_psd_test(self):
        # Positive definite priors through the raw predict, so every
        # eigenvalue clears lambda_min(Q), some of them dominated by Q;
        # random Jacobians sized so that trace(P) (1 + |h|^2) lands up to
        # the bound and past it; random noise variances over nine decades.
        rng = np.random.default_rng(37)
        skipped = near_bound = 0
        for _ in range(4000):
            dt = 10.0 ** rng.uniform(-2.5, 1.0)
            q = tracking._process_noise_terms(dt, 10.0 ** rng.uniform(-4, 1))
            r = tuple(10.0 ** rng.uniform(-8, 1, 3))
            bound = tracking._update_guard_bound(q, r, tracking._predict_trace_bound(dt, q))
            vectors, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            eigenvalues = 10.0 ** rng.uniform(-6, 0, 4)
            eigenvalues[0] = (1.0 + rng.uniform(0, 1e-3)) * 1e-12 * eigenvalues[1:].sum()
            scale = bound * 10.0 ** rng.uniform(-12, 0.3) / eigenvalues.sum()
            p = _upper(tracking._symmetrize(scale * (vectors * eigenvalues) @ vectors.T))
            if not tracking._is_positive_definite_4(p):
                continue
            theta = tuple(rng.uniform(-5, 5, 4))
            prior = raw_predict(theta, p, dt, q)
            trace = prior[0] + prior[4] + prior[7] + prior[9]
            target = bound * 10.0 ** rng.uniform(-1.5, 0.3)
            h = rng.standard_normal(6) * 10.0 ** rng.uniform(-3, 0, 6)
            h *= math.sqrt(max(target / trace - 1.0, 0.0) / np.sum(h * h))
            model = (*rng.uniform(0.5, 5, 3), *h.tolist())
            z = tuple(rng.normal(m, math.sqrt(v)) for m, v in zip(model[:3], r))
            _, cov, _, applied = tracking._update(theta, prior, model, z, r, None)
            assert applied
            if trace * guard_weight(model) < bound:
                skipped += 1
                near_bound += trace * guard_weight(model) > 0.1 * bound
                assert tracking._is_positive_definite_4(cov)
        assert skipped > 1000 and near_bound > 200

    def test_public_update_clips_an_indefinite_prior(self, monkeypatch):
        # At (0, 5) the line of sight is the y axis, so no row of H sees vx
        # and the posterior keeps the prior's negative vx variance: the
        # premise fails, and `ekf_update`, which takes any covariance,
        # must clip it.
        cov = np.diag([1.0, 1.0, -0.1, 1.0])
        target = TargetState(0.0, 5.0, 1.0, 0.0)
        det = detection_of(ORIGIN, TargetState(0.1, 5.1, 1.0, 0.1))
        calls = []
        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or original(a))
        _, posterior, _ = ekf_update(target, cov, det, ORIGIN, TABLE_NOISE)
        assert len(calls) == 1
        monkeypatch.setattr(np.linalg, "eigh", original)
        theta = (0.0, 5.0, 1.0, 0.0)
        _, raw, _, applied = tracking._update(
            theta, _upper(cov), _measure_at(0.0, 0.0, 1.0, 0.0, *theta),
            (det.range, det.spatial_freq, det.radial_vel),
            tracking._noise_variances(TABLE_NOISE), None,
        )
        unprojected = _full(raw)
        assert applied and np.min(np.linalg.eigvalsh(unprojected)) < 0.0
        assert posterior.tobytes() == project_psd(unprojected).tobytes()
        assert np.min(np.linalg.eigvalsh(posterior)) > 0.0


class TestUpdatedFlags:
    def test_transform_keeps_predict_only_points(self):
        config = builtin_scenario("B", "random", seed=7)
        track = run_tracker(simulate(config), 1, PIPELINE_EKF,
                            config.noise, config.frame_duration)
        moved = transform_track(track, complex(3.0, 1.0), 0.4)
        assert int(np.sum(~track.updated)) == 56
        assert moved.updated.tolist() == track.updated.tolist()

    def test_fused_point_is_updated_when_either_input_was(self):
        cov = np.broadcast_to(np.eye(4), (4, 4, 4))
        states = np.zeros((4, 4))
        first = Track(frame_index=[0, 1, 2, 3], states=states, covariances=cov,
                      updated=[True, True, False, False])
        second = Track(frame_index=[0, 1, 2, 3], states=states, covariances=cov,
                       updated=[True, False, True, False])
        assert track_level_fusion(first, second).updated.tolist() == [True, True, True, False]
