"""Measurement-model and frame-transform checks.

Derived expectations are recomputed in-test from the defining
expressions (dot products, rotations) rather than from the functions
under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radarnet.geometry import (
    FOV_HALF_ANGLE,
    Detection,
    Pose2D,
    TargetState,
    angle_difference,
    angle_off_boresight,
    aoa_from_spatial_frequency,
    detection_to_local_cartesian,
    global_to_local,
    local_to_global,
    _measure_at,
    measure,
    measurement_jacobian,
    measurement_model,
    wrap_angle,
)

RNG = np.random.default_rng(20250811)


def random_geometry(rng, max_speed=3.5):
    """Random in-FoV radar/target pair for property checks."""
    radar = Pose2D(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, 2 * math.pi))
    r = rng.uniform(0.5, 15.0)
    theta = rng.uniform(-FOV_HALF_ANGLE, FOV_HALF_ANGLE)
    local = np.array([r * math.sin(theta), r * math.cos(theta)])
    pos = local_to_global(radar, local)
    vel = rng.uniform(-max_speed, max_speed, 2)
    return radar, TargetState(pos[0], pos[1], vel[0], vel[1])


class TestAngles:
    def test_wrap_angle_range(self):
        for a in (-7.5, -math.pi, 0.0, 1.0, math.tau, 9.42, 100.0):
            w = wrap_angle(a)
            assert 0.0 <= w < math.tau
            assert abs(math.sin(w - a)) < 1e-12

    def test_angle_difference_signed(self):
        assert angle_difference(0.1, 0.3) == pytest.approx(-0.2)
        assert angle_difference(0.1, math.tau - 0.1) == pytest.approx(0.2)

    def test_pose_normalizes_phi(self):
        assert Pose2D(0, 0, -math.pi / 2).phi == pytest.approx(1.5 * math.pi)
        assert Pose2D(0, 0, math.tau + 0.25).phi == pytest.approx(0.25)


class TestRange:
    def test_three_four_five(self):
        assert measure(Pose2D(0, 0, 0), TargetState(3, 4)).range == 5.0

    @pytest.mark.parametrize("d", [0.001, 0.25, 7.0])
    def test_axis_aligned(self, d):
        assert measure(Pose2D(1, 1), TargetState(1, 1 + d)).range == pytest.approx(d)

    def test_config_c_baseline(self):
        # Node placed 7 m up, facing back down; target at the reference origin.
        assert measure(Pose2D(0, 7, math.pi), TargetState(0, 0)).range == 7.0

    def test_coincident_raises(self):
        with pytest.raises(ValueError):
            measure(Pose2D(1, 2, 0), TargetState(1, 2))


class TestRadialVelocity:
    def test_projection_on_x(self):
        assert measure(Pose2D(0, 0), TargetState(5, 0, 2, 3)).radial_vel == 2.0

    def test_stationary(self):
        assert measure(Pose2D(2, -1), TargetState(4, 4, 0, 0)).radial_vel == 0.0

    def test_velocity_along_los(self):
        # Unit velocity aligned with the line of sight: the projection is
        # the plain dot product <v, u> = 1.
        target = TargetState(3, 4, 3 / 5, 4 / 5)
        u = np.array([3, 4]) / 5.0
        expected = float(np.dot([3 / 5, 4 / 5], u))
        assert expected == pytest.approx(1.0)
        assert measure(Pose2D(0, 0), target).radial_vel == pytest.approx(expected, abs=1e-15)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, derandomize=True)
    def test_bounded_by_speed(self, case):
        rng = np.random.default_rng(case)
        radar, target = random_geometry(rng)
        assert abs(measure(radar, target).radial_vel) <= target.speed + 1e-12


class TestSpatialFrequency:
    def test_boresight_zero(self):
        assert measure(Pose2D(0, 0, 0), TargetState(0, 5)).spatial_freq == 0.0

    def test_endfire_pi(self):
        assert measure(Pose2D(0, 0, 0), TargetState(5, 0)).spatial_freq == pytest.approx(math.pi)

    def test_diagonal(self):
        # Direct evaluation: pi * <p - p_i, mu> / r with mu = (1, 0).
        expected = math.pi * 5.0 / math.hypot(5.0, 5.0)
        assert expected == pytest.approx(math.pi / math.sqrt(2))
        got = measure(Pose2D(0, 0, 0), TargetState(5, 5)).spatial_freq
        assert got == pytest.approx(expected, abs=1e-15)

    def test_antisymmetric_across_boresight(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            radar, target = random_geometry(rng)
            local = global_to_local(radar, target.position)
            mirrored = local_to_global(radar, [-local[0], local[1]])
            flipped = TargetState(mirrored[0], mirrored[1])
            w = measure(radar, target).spatial_freq
            w_flipped = measure(radar, flipped).spatial_freq
            assert w_flipped == pytest.approx(-w, abs=1e-9)

    def test_magnitude_at_most_pi(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            radar, target = random_geometry(rng)
            assert abs(measure(radar, target).spatial_freq) <= math.pi + 1e-12


class TestAoa:
    def test_trivial_values(self):
        assert aoa_from_spatial_frequency(0.0) == 0.0
        assert aoa_from_spatial_frequency(math.pi) == pytest.approx(math.pi / 2)

    def test_inverts_diagonal(self):
        assert aoa_from_spatial_frequency(math.pi / math.sqrt(2)) == pytest.approx(
            math.asin(1 / math.sqrt(2))
        )
        assert math.asin(1 / math.sqrt(2)) == pytest.approx(math.pi / 4)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            aoa_from_spatial_frequency(math.pi + 1e-9)
        with pytest.raises(ValueError):
            aoa_from_spatial_frequency(-4.0)


class TestFrameTransforms:
    def test_identity_pose(self):
        np.testing.assert_allclose(local_to_global(Pose2D(0, 0, 0), [1.5, -2.0]), [1.5, -2.0])

    def test_quarter_turn(self):
        np.testing.assert_allclose(
            local_to_global(Pose2D(1, 0, math.pi / 2), [1, 0]), [1, 1], atol=1e-15
        )

    def test_config_c_round_trip(self):
        np.testing.assert_allclose(
            local_to_global(Pose2D(0, 7, math.pi), [0, 7]), [0, 0], atol=1e-12
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, derandomize=True)
    def test_inverse_composition(self, case):
        rng = np.random.default_rng(case)
        node = Pose2D(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, math.tau))
        point = rng.uniform(-20, 20, 2)
        np.testing.assert_allclose(
            global_to_local(node, local_to_global(node, point)), point, atol=1e-12
        )


class TestDetectionToLocal:
    def test_boresight(self):
        np.testing.assert_allclose(
            detection_to_local_cartesian(Detection(5, 0, 0)), [0, 5]
        )

    def test_endfire(self):
        np.testing.assert_allclose(
            detection_to_local_cartesian(Detection(5, math.pi, 0)), [5, 0], atol=1e-12
        )

    def test_nonpositive_range_raises(self):
        with pytest.raises(ValueError):
            detection_to_local_cartesian(Detection(0.0, 0.1, 0))

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, derandomize=True)
    def test_round_trip(self, case):
        rng = np.random.default_rng(case)
        radar, target = random_geometry(rng)
        m = measure(radar, target)
        local = detection_to_local_cartesian(m)
        np.testing.assert_allclose(local, global_to_local(radar, target.position), atol=1e-12)
        # Re-measuring the local point from the identity pose reproduces (r, w).
        again = measure(Pose2D(0, 0, 0), TargetState(local[0], local[1]))
        assert again.range == pytest.approx(m.range, abs=1e-12)
        assert again.spatial_freq == pytest.approx(m.spatial_freq, abs=1e-12)


class TestFrameConsistency:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, derandomize=True)
    def test_equivariance_under_rigid_motion(self, case):
        rng = np.random.default_rng(case)
        radar, target = random_geometry(rng)
        local_pos = global_to_local(radar, target.position)
        local_vel = global_to_local(radar, target.position + target.velocity) - local_pos
        local_target = TargetState(local_pos[0], local_pos[1], local_vel[0], local_vel[1])
        m_global = measure(radar, target)
        m_local = measure(Pose2D(0, 0, 0), local_target)
        assert m_local.range == pytest.approx(m_global.range, abs=1e-12)
        assert m_local.spatial_freq == pytest.approx(m_global.spatial_freq, abs=1e-12)
        assert m_local.radial_vel == pytest.approx(m_global.radial_vel, abs=1e-12)


class TestAngleOffBoresight:
    def test_matches_aoa_within_fov(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            radar, target = random_geometry(rng)
            theta = angle_off_boresight(radar, target)
            w = measure(radar, target).spatial_freq
            assert theta == pytest.approx(aoa_from_spatial_frequency(w), abs=1e-12)

    def test_behind_array(self):
        theta = angle_off_boresight(Pose2D(0, 0, 0), TargetState(0, -3))
        assert abs(theta) == pytest.approx(math.pi)

    def test_zero_range_rejected(self):
        with pytest.raises(ValueError, match="range is zero"):
            angle_off_boresight(Pose2D(1.0, 2.0, 0.5), TargetState(1.0, 2.0))
        with pytest.raises(ValueError, match="range is zero"):
            angle_off_boresight(Pose2D(0.0, 0.0, 0.5), TargetState(-0.0, -0.0))

    def test_matches_scalar_formula_bit_for_bit(self):
        """The thin view over `boresight_angles` gives the bits of the
        scalar rotation and atan2 it replaced, signed zeros included."""

        def scalar(radar, target):
            dx, dy = target.x - radar.x, target.y - radar.y
            c, s = math.cos(radar.phi), math.sin(radar.phi)
            return math.atan2(dx * c + dy * s, -dx * s + dy * c)

        rng = np.random.default_rng(30)
        cases = []
        for _ in range(2000):
            x, y = rng.uniform(-10, 10, 2)
            offset = 10.0 ** rng.uniform(-8, 4)
            angle = rng.uniform(-math.pi, math.pi)
            cases.append((Pose2D(x, y, rng.uniform(0, 2 * math.pi)),
                          TargetState(x + offset * math.cos(angle), y + offset * math.sin(angle))))
        # Axis-aligned offsets, with each zero component of either sign
        # (-0.0 - 0.0 is -0.0), from headings whose sine or cosine is 0.
        for phi in (0.0, math.pi / 2, math.pi, 1.5 * math.pi, 0.3):
            for zero in (0.0, -0.0):
                for d in (1e-8, 2.5, -2.5, 1e4):
                    cases.append((Pose2D(0.0, 0.0, phi), TargetState(d, zero)))
                    cases.append((Pose2D(0.0, 0.0, phi), TargetState(zero, d)))
        for radar, target in cases:
            got = angle_off_boresight(radar, target)
            assert type(got) is float
            assert got.hex() == scalar(radar, target).hex()

    @pytest.mark.parametrize("field", range(4))
    def test_target_state_must_be_finite(self, field):
        values = [0.0] * 4
        values[field] = math.nan
        name = ("x", "y", "vx", "vy")[field]
        with pytest.raises(ValueError, match=f"^TargetState.{name} must be finite$"):
            TargetState(*values)


class TestMeasurementJacobian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(99)
        step = 1e-6
        worst = 0.0
        for _ in range(200):
            radar, target = random_geometry(rng)
            jac = measurement_jacobian(radar, target)
            theta = target.as_vector()
            fd = np.zeros((3, 4))
            for d in range(4):
                plus = theta.copy()
                minus = theta.copy()
                plus[d] += step
                minus[d] -= step
                mp = measure(radar, TargetState.from_vector(plus))
                mm = measure(radar, TargetState.from_vector(minus))
                fd[:, d] = (
                    np.array([mp.range, mp.spatial_freq, mp.radial_vel])
                    - np.array([mm.range, mm.spatial_freq, mm.radial_vel])
                ) / (2 * step)
            scale = np.maximum(np.abs(fd), 1.0)
            worst = max(worst, float(np.max(np.abs(jac - fd) / scale)))
        assert worst < 1e-5

    def test_kernel_serves_every_view(self):
        rng = np.random.default_rng(100)
        for _ in range(50):
            radar, target = random_geometry(rng)
            r, omega, radial_vel, h00, h01, h10, h11, h20, h21 = _measure_at(
                radar.x, radar.y, math.cos(radar.phi), math.sin(radar.phi),
                *target.as_vector().tolist(),
            )
            assert measure(radar, target) == Detection(r, omega, radial_vel)
            jac = np.array([[h00, h01, 0, 0], [h10, h11, 0, 0], [h20, h21, h00, h01]], dtype=float)
            assert measurement_jacobian(radar, target).tobytes() == jac.tobytes()


def model_nodes(poses) -> np.ndarray:
    """The (4, N, 1) node rows x, y, pi cos phi, pi sin phi of `poses`."""
    return np.array([[p.x, p.y, math.pi * math.cos(p.phi), math.pi * math.sin(p.phi)]
                     for p in poses]).T[..., None]


class TestMeasurementModel:
    """The broadcast kernel, and `_measure_at` as its one-state view."""

    @staticmethod
    def assert_float_view(poses, states):
        """Every node's `_measure_at` floats at every (F, 4) state are the
        kernel's range, spatial frequency, radial velocity and unit vector,
        bit for bit."""
        _, unit, predicted, directions, near = measurement_model(model_nodes(poses), states.T)
        assert not near.any()
        want = np.array([[_measure_at(p.x, p.y, math.cos(p.phi), math.sin(p.phi), *row)
                          for row in states.tolist()] for p in poses])
        got = np.concatenate((predicted, unit)).transpose(1, 2, 0)
        assert got.tobytes() == want[..., :5].tobytes()
        assert directions[1].tobytes() == np.broadcast_to(states.T[2:, None], unit.shape).tobytes()

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    @pytest.mark.parametrize("kind", ["straight", "random"])
    def test_builtin_truth_matches_float_view(self, name, kind):
        from radarnet.scene import builtin_scenario, simulate

        config = builtin_scenario(name, kind, seed=7)
        self.assert_float_view(config.nodes, simulate(config).truth)

    def test_three_nodes_match_float_view(self):
        from radarnet.scene import builtin_scenario, simulate

        config = builtin_scenario("B", "random", seed=7)
        nodes = config.nodes + (Pose2D(4.0, 3.5, math.radians(125.0)),)
        self.assert_float_view(nodes, simulate(config).truth)

    def test_identity_pose_matches_the_ekf_floats(self):
        # The EKF passes (0.0, 0.0, 1.0, 0.0), which the identity pose gives.
        from radarnet.experiment import PIPELINE_EKF
        from radarnet.scene import builtin_scenario, simulate
        from radarnet.tracking import run_tracker

        config = builtin_scenario("C", "random", seed=7)
        track = run_tracker(simulate(config), 1, PIPELINE_EKF, config.noise)
        identity = Pose2D(0.0, 0.0, 0.0)
        assert (identity.x, identity.y, math.cos(identity.phi), math.sin(identity.phi)) == (
            0.0, 0.0, 1.0, 0.0)
        self.assert_float_view((identity,), track.states)

    def test_near_a_node_is_masked_and_finite(self):
        from radarnet.scene import BUILTIN_NODES, is_visible

        nodes = BUILTIN_NODES["C"]
        # On node 0, 5e-13 m from it, 1e-13 m from node 1, and clear of both.
        states = np.array([[0.0, 0.0, 1.0, -1.0], [3e-13, -4e-13, 0.5, 0.5],
                           [0.0, 7.0 + 1e-13, 0.2, 0.0], [1.0, 2.0, 0.0, 0.0]])
        outputs = measurement_model(model_nodes(nodes), states.T)
        near = outputs[-1]
        assert near.tolist() == [[True, True, False, False], [False, False, True, False]]
        assert all(np.isfinite(a).all() for a in outputs[:-1])
        for k, node in ((1, nodes[0]), (2, nodes[1])):
            with pytest.raises(ValueError, match="coincides"):
                _measure_at(node.x, node.y, math.cos(node.phi), math.sin(node.phi), *states[k])
            assert not is_visible(node, TargetState(*states[k]))
