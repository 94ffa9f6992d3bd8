"""One-shot fusion: initializers, objectives, LM solver, posterior covariance."""

import math
import sys
import threading
import warnings
from contextlib import nullcontext
from dataclasses import replace
from itertools import product
from typing import NamedTuple

import numpy as np
import pytest

import radarnet.fusion as fusion_module
from radarnet.geometry import FOV_HALF_ANGLE, Pose2D, TargetState, measure
from radarnet.scene import Detection, NoiseConfig, builtin_scenario, simulate
from radarnet.fusion import (
    FusionObservation,
    ObservationEntry,
    PriorConfig,
    _columns,
    _Frames,
    _frame_groups,
    _positive_definite,
    _start_states,
    _start_table,
    _table,
    bayes_objective,
    frame_table,
    grid_covariance,
    initial_position_estimate,
    initial_velocity_estimate,
    laplace_covariance,
    ml_objective,
    posterior_covariance_grid,
    solve,
    solve_frames,
)

TABLE_NOISE = NoiseConfig()
PRIOR = PriorConfig()


def ideal_detection(node, target):
    m = measure(node, target)
    return Detection(m.range, m.spatial_freq, m.radial_vel)


def observation_of(nodes, target, noise=None, rng=None):
    entries = []
    for node in nodes:
        m = measure(node, target)
        r, w, v = m.range, m.spatial_freq, m.radial_vel
        if rng is not None:
            r += noise.sigma_r * rng.standard_normal()
            w = min(math.pi, max(-math.pi, w + noise.sigma_omega * rng.standard_normal()))
            v += noise.sigma_v * rng.standard_normal()
        entries.append(ObservationEntry(node, Detection(r, w, v)))
    return FusionObservation(tuple(entries))


def detections_of(obs):
    """An observation's detection triples, in node order."""
    return [(e.detection.range, e.detection.spatial_freq, e.detection.radial_vel)
            for e in obs.entries]


def config_b_nodes():
    return builtin_scenario("B").nodes


def config_c_nodes():
    return builtin_scenario("C").nodes


class TestInitializers:
    def test_single_node_boresight(self):
        obs = FusionObservation((ObservationEntry(Pose2D(0, 0, 0), Detection(5.0, 0.0, 0.0)),))
        np.testing.assert_allclose(initial_position_estimate(obs), [0.0, 5.0])

    def test_two_noiseless_nodes_exact(self):
        target = TargetState(1.4, 3.6, 0.5, -0.3)
        obs = observation_of(config_b_nodes(), target)
        np.testing.assert_allclose(
            initial_position_estimate(obs), [target.x, target.y], atol=1e-12
        )

    def test_config_c_transform(self):
        obs = FusionObservation(
            (ObservationEntry(Pose2D(0, 7, math.pi), Detection(7.0, 0.0, 0.0)),)
        )
        np.testing.assert_allclose(initial_position_estimate(obs), [0.0, 0.0], atol=1e-12)

    def test_velocity_zero_doppler(self):
        obs = observation_of(config_b_nodes(), TargetState(1.5, 3.5, 0.0, 0.0))
        np.testing.assert_allclose(initial_velocity_estimate(obs), [0.0, 0.0], atol=1e-12)

    def test_velocity_single_node_receding_on_boresight(self):
        obs = FusionObservation((ObservationEntry(Pose2D(0, 0, 0), Detection(5.0, 0.0, 1.0)),))
        np.testing.assert_allclose(initial_velocity_estimate(obs), [0.0, 1.0], atol=1e-12)

    def test_velocity_orthogonal_nodes_recover_half(self):
        # Two nodes with orthogonal boresight views: the averaged radial
        # redistribution recovers v/N exactly for a target at the
        # boresight crossing.
        nodes = (Pose2D(0, 0, 0), Pose2D(4, 4, math.pi / 2))
        target = TargetState(0.0, 4.0, 0.7, -0.4)
        obs = observation_of(nodes, target)
        np.testing.assert_allclose(
            initial_velocity_estimate(obs), [target.vx / 2, target.vy / 2], atol=1e-12
        )

    def test_velocity_invalid_spatial_freq(self):
        obs = FusionObservation((ObservationEntry(Pose2D(0, 0, 0), Detection(5.0, 4.0, 0.0)),))
        with pytest.raises(ValueError):
            initial_velocity_estimate(obs)

    def test_position_invalid_spatial_freq(self):
        obs = FusionObservation((ObservationEntry(Pose2D(0, 0, 0), Detection(5.0, 4.0, 0.0)),))
        with pytest.raises(ValueError, match="exceeds pi: 4.0"):
            initial_position_estimate(obs)

    def test_empty_observation(self):
        with pytest.raises(ValueError):
            FusionObservation(())


class TestObjectives:
    def test_truth_is_zero(self):
        target = TargetState(2.0, 3.0, 0.4, 0.2)
        obs = observation_of(config_b_nodes(), target)
        value, residuals, jac = ml_objective(target, obs, TABLE_NOISE)
        assert value == pytest.approx(0.0, abs=1e-20)
        np.testing.assert_allclose(residuals, 0.0, atol=1e-12)
        assert jac.shape == (6, 4)

    def test_range_perturbation_unit_increase(self):
        target = TargetState(2.0, 3.0, 0.4, 0.2)
        obs = observation_of(config_b_nodes(), target)
        det = obs.entries[0].detection
        bumped = FusionObservation((
            ObservationEntry(
                obs.entries[0].node_pose,
                Detection(det.range + TABLE_NOISE.sigma_r, det.spatial_freq, det.radial_vel),
            ),
            obs.entries[1],
        ))
        value, _, _ = ml_objective(target, bumped, TABLE_NOISE)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_ml_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        nodes = config_b_nodes()
        step = 1e-6
        worst = 0.0
        for _ in range(100):
            target = TargetState(
                rng.uniform(0.5, 3.5), rng.uniform(2.0, 4.5), rng.uniform(-2, 2), rng.uniform(-2, 2)
            )
            obs = observation_of(nodes, target, TABLE_NOISE, rng)
            theta0 = target.as_vector() + rng.normal(0, 0.2, 4)
            _, _, jac = ml_objective(TargetState.from_vector(theta0), obs, TABLE_NOISE)
            fd = np.zeros_like(jac)
            for d in range(4):
                plus, minus = theta0.copy(), theta0.copy()
                plus[d] += step
                minus[d] -= step
                _, rp, _ = ml_objective(TargetState.from_vector(plus), obs, TABLE_NOISE)
                _, rm, _ = ml_objective(TargetState.from_vector(minus), obs, TABLE_NOISE)
                fd[:, d] = (rp - rm) / (2 * step)
            scale = np.maximum(np.abs(fd), 1.0)
            worst = max(worst, float(np.max(np.abs(jac - fd) / scale)))
        assert worst < 1e-5

    def test_bayes_adds_prior_terms_exactly(self):
        rng = np.random.default_rng(1)
        target = TargetState(2.0, 3.0, 0.4, 0.2)
        obs = observation_of(config_b_nodes(), target, TABLE_NOISE, rng)
        theta = TargetState(2.3, 2.8, -0.5, 0.9)
        center = TargetState(1.9, 3.1, 0.0, 0.0)
        ml_value, _, _ = ml_objective(theta, obs, TABLE_NOISE)
        bayes_value, residuals, jac = bayes_objective(theta, obs, TABLE_NOISE, PRIOR, center)
        prior_terms = (
            (theta.x - center.x) ** 2 / PRIOR.sigma_x**2
            + (theta.y - center.y) ** 2 / PRIOR.sigma_y**2
            + theta.vx**2 / PRIOR.sigma_vx**2
            + theta.vy**2 / PRIOR.sigma_vy**2
        )
        assert bayes_value - ml_value == pytest.approx(prior_terms, rel=1e-12)
        assert residuals.shape == (10,) and jac.shape == (10, 4)

    def test_bayes_zero_at_prior_center_noiseless(self):
        target = TargetState(1.5, 3.5, 0.0, 0.0)
        obs = observation_of(config_b_nodes(), target)
        value, _, _ = bayes_objective(target, obs, TABLE_NOISE, PRIOR, target)
        assert value == pytest.approx(0.0, abs=1e-18)

    def test_zero_range_raises(self):
        obs = observation_of(config_b_nodes(), TargetState(1.5, 3.5))
        node = obs.entries[0].node_pose
        with pytest.raises(ValueError):
            ml_objective(TargetState(node.x, node.y, 0, 0), obs, TABLE_NOISE)

    def test_bayes_needs_a_prior_center(self):
        target = TargetState(1.5, 3.5, 0.2, 0.1)
        obs = observation_of(config_b_nodes(), target)
        with pytest.raises(ValueError, match="prior given without a prior center"):
            bayes_objective(target, obs, TABLE_NOISE, PRIOR, None)

    @pytest.mark.parametrize("name", ["sigma_x", "sigma_y", "sigma_vx", "sigma_vy"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_prior_sigmas_must_be_positive(self, name, value):
        with pytest.raises(ValueError, match=f"PriorConfig.{name} must be > 0"):
            PriorConfig(**{name: value})


class TestSolve:
    def test_noiseless_ml_recovers_truth(self):
        rng = np.random.default_rng(2)
        nodes = config_b_nodes()
        for _ in range(20):
            target = TargetState(
                rng.uniform(0.5, 3.0), rng.uniform(2.5, 4.5), rng.uniform(-2, 2), rng.uniform(-2, 2)
            )
            obs = observation_of(nodes, target)
            est = solve(obs, TABLE_NOISE, mode="ml")
            assert est.converged
            np.testing.assert_allclose(
                est.state.as_vector(), target.as_vector(), atol=1e-6
            )

    def test_bayes_requires_prior(self):
        obs = observation_of(config_b_nodes(), TargetState(1.5, 3.5))
        with pytest.raises(ValueError):
            solve(obs, TABLE_NOISE, mode="bayes")

    def test_unknown_mode(self):
        obs = observation_of(config_b_nodes(), TargetState(1.5, 3.5))
        with pytest.raises(ValueError):
            solve(obs, TABLE_NOISE, mode="map")

    def test_single_node_warns(self):
        obs = FusionObservation((ObservationEntry(Pose2D(0, 0, 0), Detection(5.0, 0.0, 0.0)),))
        with pytest.warns(UserWarning, match="single-node") as record:
            solve(obs, TABLE_NOISE, mode="ml")
        assert record[0].filename == __file__
        with pytest.warns(UserWarning, match="single-node") as record:
            solve_frames(frame_table([Pose2D(0, 0, 0)], [[(5.0, 0.0, 0.0)]]), TABLE_NOISE,
                         mode="ml")
        assert record[0].filename == __file__

    def test_wide_priors_approach_ml(self):
        rng = np.random.default_rng(3)
        nodes = config_b_nodes()
        target = TargetState(2.0, 3.4, 0.8, -0.5)
        obs = observation_of(nodes, target, TABLE_NOISE, rng)
        ml = solve(obs, TABLE_NOISE, mode="ml")
        wide = PriorConfig(sigma_x=1e6, sigma_y=1e6, sigma_vx=1e6, sigma_vy=1e6)
        bayes = solve(obs, TABLE_NOISE, mode="bayes", prior=wide)
        assert ml.converged and bayes.converged
        np.testing.assert_allclose(
            bayes.state.as_vector(), ml.state.as_vector(), atol=1e-6
        )

    def test_gradient_convergence_implies_stationarity(self):
        rng = np.random.default_rng(4)
        nodes = config_b_nodes()
        for _ in range(10):
            target = TargetState(
                rng.uniform(0.5, 3.0), rng.uniform(2.5, 4.5), rng.uniform(-1, 1), rng.uniform(-1, 1)
            )
            obs = observation_of(nodes, target, TABLE_NOISE, rng)
            est = solve(obs, TABLE_NOISE, mode="bayes", prior=PRIOR)
            assert est.converged
            _, residuals, jac = bayes_objective(
                est.state, obs, TABLE_NOISE, PRIOR, est.prior_center
            )
            gradient = 2.0 * jac.T @ residuals
            # Either stationary or stopped on a sub-1e-10 step.
            assert np.max(np.abs(gradient)) < 1e-6

    def test_reported_covariance_is_psd(self):
        rng = np.random.default_rng(13)
        nodes = config_b_nodes()
        for _ in range(20):
            target = TargetState(
                rng.uniform(0.5, 3.0), rng.uniform(2.5, 4.5), rng.uniform(-2, 2), rng.uniform(-2, 2)
            )
            obs = observation_of(nodes, target, TABLE_NOISE, rng)
            est = solve(obs, TABLE_NOISE, mode="bayes", prior=PRIOR)
            assert est.covariance is not None
            np.testing.assert_array_equal(est.covariance, est.covariance.T)
            assert np.min(np.linalg.eigvalsh(est.covariance)) >= -1e-12

    def test_final_objective_never_exceeds_start(self):
        # Accepted LM iterates only ever decrease the objective, so the
        # final value is bounded by the best candidate start's value.
        rng = np.random.default_rng(12)
        nodes = config_b_nodes()
        for _ in range(20):
            target = TargetState(
                rng.uniform(0.5, 3.0), rng.uniform(2.5, 4.5), rng.uniform(-2, 2), rng.uniform(-2, 2)
            )
            obs = observation_of(nodes, target, TABLE_NOISE, rng)
            init = TargetState(
                *initial_position_estimate(obs), *initial_velocity_estimate(obs)
            )
            start_value, _, _ = ml_objective(init, obs, TABLE_NOISE)
            est = solve(obs, TABLE_NOISE, mode="ml")
            assert est.objective_value <= start_value + 1e-12

    def test_bayes_regularization_bound(self):
        # The optimum can never cost more than the prior center, so its
        # prior-normalized distance from the center is bounded by the
        # center's total objective value.
        rng = np.random.default_rng(5)
        nodes = config_b_nodes()
        for _ in range(20):
            target = TargetState(
                rng.uniform(0.5, 3.0), rng.uniform(2.5, 4.5), rng.uniform(-2, 2), rng.uniform(-2, 2)
            )
            obs = observation_of(nodes, target, TABLE_NOISE, rng)
            est = solve(obs, TABLE_NOISE, mode="bayes", prior=PRIOR)
            center = est.prior_center
            center_value, _, _ = bayes_objective(center, obs, TABLE_NOISE, PRIOR, center)
            sigmas = PRIOR.sigmas
            distance = float(
                np.sum(((est.state.as_vector() - center.as_vector()) / sigmas) ** 2)
            )
            assert distance <= center_value + 1e-9

    def test_degenerate_collinear_ml_is_ill_conditioned(self):
        # Target on the line between the facing nodes: every node
        # measures the same velocity projection, so the ML normal matrix
        # loses rank in the cross-baseline velocity direction.
        rng = np.random.default_rng(6)
        nodes = config_c_nodes()
        target = TargetState(0.0, 3.5, 0.0, 1.0)
        obs = observation_of(nodes, target)
        est = solve(obs, TABLE_NOISE, mode="ml")
        assert est.conditioning < 1e-6
        _, _, jac = ml_objective(target, obs, TABLE_NOISE)
        velocity_block = jac.T @ jac
        assert np.linalg.matrix_rank(velocity_block[2:, 2:], tol=1e-9) <= 1
        noisy = observation_of(nodes, target, TABLE_NOISE, rng)
        bayes = solve(noisy, TABLE_NOISE, mode="bayes", prior=PRIOR)
        assert bayes.converged
        verr = math.hypot(bayes.state.vx - target.vx, bayes.state.vy - target.vy)
        assert verr < 3 * PRIOR.sigma_vx


class TestGridCovariance:
    def test_quadratic_matches_analytic_gaussian(self):
        # Exact quadratic objective L = d' C^-1 d: the grid second moment
        # must reproduce C within 5% at 15 points/dim.
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4))
        cov = a @ a.T + 4.0 * np.eye(4)
        # Soften correlations so the +/-3 sigma axis-aligned box is
        # representative (mild correlation case).
        d = np.sqrt(np.diag(cov))
        corr = cov / np.outer(d, d)
        corr = 0.3 * corr + 0.7 * np.eye(4)
        cov = corr * np.outer(d, d)
        info = np.linalg.inv(cov)
        center = np.array([1.0, -2.0, 0.5, 0.0])

        def value_fn(thetas):
            diff = thetas - center
            return np.einsum("md,de,me->m", diff, info, diff)

        got = grid_covariance(value_fn, center, np.sqrt(np.diag(cov)), 3.0, 15)
        scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
        assert np.max(np.abs(got - cov) / scale) < 0.05

    def test_points_validation(self):
        with pytest.raises(ValueError):
            grid_covariance(lambda t: np.zeros(len(t)), np.zeros(4), np.ones(4), 3.0, 6)
        with pytest.raises(ValueError):
            grid_covariance(lambda t: np.zeros(len(t)), np.zeros(4), np.ones(4), 3.0, 3)

    @pytest.mark.parametrize("center, sigmas, half_width", [
        (np.zeros(4), np.ones(4), 0.0),
        (np.zeros(4), np.ones(4), -1.0),
        (np.zeros(4), np.ones(4), math.inf),
        (np.zeros(4), np.ones(4), math.nan),
        (np.array([0.0, math.nan, 0.0, 0.0]), np.ones(4), 3.0),
        (np.zeros(3), np.ones(4), 3.0),
        (np.zeros(4), np.array([1.0, 0.0, 1.0, 1.0]), 3.0),
        (np.zeros(4), np.array([1.0, 1.0, -1.0, 1.0]), 3.0),
        (np.zeros(4), np.array([1.0, 1.0, 1.0, math.inf]), 3.0),
        (np.zeros(4), np.ones(5), 3.0),
    ])
    def test_invalid_grid_raises_value_error(self, center, sigmas, half_width):
        with pytest.raises(ValueError):
            grid_covariance(lambda t: np.zeros(len(t)), center, sigmas, half_width, 5)

    def test_underflow_raises(self):
        def value_fn(thetas):
            return np.full(len(thetas), np.inf)

        with pytest.raises(ArithmeticError, match="widen"):
            grid_covariance(value_fn, np.zeros(4), np.ones(4), 3.0, 5)

    def test_well_conditioned_matches_laplace(self):
        rng = np.random.default_rng(8)
        nodes = config_b_nodes()
        target = TargetState(1.8, 3.6, 0.6, -0.4)
        obs = observation_of(nodes, target, TABLE_NOISE, rng)
        est = solve(obs, TABLE_NOISE, mode="bayes", prior=PRIOR)
        grid = posterior_covariance_grid(obs, TABLE_NOISE, PRIOR, est)
        laplace = laplace_covariance(obs, TABLE_NOISE, PRIOR, est.state, est.prior_center)
        ratio = np.diag(grid) / np.diag(laplace)
        assert np.all(ratio > 0.75) and np.all(ratio < 1.25)

    def test_degenerate_velocity_variance_approaches_prior(self):
        rng = np.random.default_rng(9)
        nodes = config_c_nodes()
        target = TargetState(0.0, 3.5, 0.0, 1.0)
        obs = observation_of(nodes, target, TABLE_NOISE, rng)
        est = solve(obs, TABLE_NOISE, mode="bayes", prior=PRIOR)
        grid = posterior_covariance_grid(obs, TABLE_NOISE, PRIOR, est)
        # Cross-baseline velocity (vx here) gets no information from the
        # data; its posterior variance stays at the prior scale.
        assert grid[2, 2] >= 0.5 * PRIOR.sigma_vx**2
        # Along-baseline velocity is pinned by two opposed Doppler reads.
        assert grid[3, 3] < 0.05 * PRIOR.sigma_vy**2

    def test_prior_center_fallback_matches_the_bayes_estimates_center(self):
        # Without a prior center, both covariances take the one a Bayes
        # solve of the frame uses.
        _, observations = detected_frames(builtin_scenario("B", "random", seed=7))
        for obs in observations[::150]:
            bayes = solve(obs, TABLE_NOISE, mode="bayes", prior=PRIOR)
            ml = solve(obs, TABLE_NOISE, mode="ml")
            assert ml.prior_center is None
            center = bayes.prior_center
            assert (laplace_covariance(obs, TABLE_NOISE, PRIOR, bayes.state).tobytes()
                    == laplace_covariance(obs, TABLE_NOISE, PRIOR, bayes.state, center).tobytes())
            assert (posterior_covariance_grid(obs, TABLE_NOISE, PRIOR, ml).tobytes()
                    == posterior_covariance_grid(obs, TABLE_NOISE, PRIOR,
                                                 replace(ml, prior_center=center)).tobytes())


def dense_grid(center, sigmas, points=15, half_width=3.0):
    """The grid's axes and its (P^4, 4) state matrix, ordered as a C-order (P, P, P, P)."""
    axes = [c + np.linspace(-1.0, 1.0, points) * half_width * s for c, s in zip(center, sigmas)]
    thetas = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    return axes, thetas


def grid_frames():
    """Bayes frames of 2 and 3 nodes on built-ins A, B and C, with their estimates."""
    rng = np.random.default_rng(31)
    extra = Pose2D(4.0, 3.5, math.radians(125.0))
    targets = {"A": TargetState(1.5, 3.0, 0.4, 0.3), "B": TargetState(1.8, 3.6, 0.6, -0.4),
               "C": TargetState(0.1, 3.5, 0.0, 1.0)}
    for name, target in targets.items():
        nodes = builtin_scenario(name).nodes
        for frame_nodes in (nodes, nodes + (extra,)):
            obs = observation_of(frame_nodes, target, TABLE_NOISE, rng)
            yield obs, solve(obs, TABLE_NOISE, mode="bayes", prior=PRIOR)


def laplace_sigmas(obs, est):
    laplace = laplace_covariance(obs, TABLE_NOISE, PRIOR, est.state, est.prior_center)
    sigmas = np.sqrt(np.maximum(np.diag(laplace), 0.0))
    return np.maximum(sigmas, 1e-9 * np.max(sigmas))


def bayes_model(obs, est):
    """The one-frame Bayes model of `obs` about `est`'s prior center."""
    return _Frames.build(obs, TABLE_NOISE, PRIOR, est.prior_center.as_vector()[None])


class TestPositionGrid:
    """The grid posterior's closed-form velocity integral against the
    objective it integrates."""

    @staticmethod
    def captured(monkeypatch, obs, est):
        """`posterior_covariance_grid` on `est`, with the values, states and
        weights its moments took."""
        seen = {}
        moments = fusion_module._weighted_moments

        def capture(values, states):
            seen["values"], seen["states"] = values.copy(), states.copy()
            seen["weights"], cov = moments(values, states)
            return seen["weights"], cov

        with monkeypatch.context() as patch:
            patch.setattr(fusion_module, "_weighted_moments", capture)
            return posterior_covariance_grid(obs, TABLE_NOISE, PRIOR, est), seen

    def test_matches_brute_force_4d_sum(self):
        # The reference sums exp(-L/2) over the grid's positions and the
        # velocities of a square lattice along the eigenvectors of the
        # Laplace velocity covariance, spaced 1/3 of their sigmas, within
        # 10 sigmas of the estimate (the disc); then again within 20,
        # doubled, which adds a ring to the disc.  Halving the spacing
        # moves no frame's reference by more than 1e-7 relative.  numpy
        # evaluates the objective fastest on about 2,000 states at once,
        # so the lattice goes in parts of that size.
        u = np.arange(-60, 61) / 3.0
        white = np.stack(np.meshgrid(u, u, indexing="ij"), axis=-1).reshape(-1, 2)
        radius = np.hypot(*white.T)
        parts = [(0, part) for part in np.array_split(white[radius <= 10.0], 2)]
        parts += [(1, part) for part in np.array_split(white[(radius > 10.0) & (radius <= 20.0)], 5)]
        # Maps (1, v - v_hat) to (1, p - p_hat, v - v_hat), p - p_hat set per position.
        lift = np.zeros((5, 3))
        lift[0, 0] = 1.0
        lift[3:, 1:] = np.eye(2)
        for obs, est in grid_frames():
            model = bayes_model(obs, est)
            center = est.state.as_vector()
            x, y, _, _ = dense_grid(center, laplace_sigmas(obs, est))[0]
            laplace = laplace_covariance(obs, TABLE_NOISE, PRIOR, est.state, est.prior_center)
            variances, axes = np.linalg.eigh(laplace[2:, 2:])
            # L is least at the estimate, so no weight overflows.
            low = model.objective(center[None])[0]
            # The disc's and the ring's sums of w (1, d)(1, d)', d = theta - center.
            sums = np.zeros((2, 5, 5))
            for k, part in parts:
                offsets = np.ones((len(part), 3))
                offsets[:, 1:] = (part * np.sqrt(variances)) @ axes.T
                states = np.empty((len(part), 4))
                states[:, 2:] = center[2:] + offsets[:, 1:]
                for px, py in product(x, y):
                    states[:, 0], states[:, 1] = px, py
                    lift[1:3, 0] = px - center[0], py - center[1]
                    weighted = offsets.T * np.exp(-0.5 * (model.objective(states) - low))
                    sums[k] += lift @ (weighted @ offsets) @ lift.T
            narrow, wide = (moments[1:, 1:] / moments[0, 0]
                            - np.outer(moments[0, 1:], moments[0, 1:]) / moments[0, 0] ** 2
                            for moments in (sums[0], sums[0] + sums[1]))
            scale = np.abs(wide).max()
            assert np.abs(wide - narrow).max() <= 1e-6 * scale
            got = posterior_covariance_grid(obs, TABLE_NOISE, PRIOR, est)
            assert np.abs(got - wide).max() <= 1e-6 * scale

    def test_velocity_is_the_exact_conditional_optimum(self, monkeypatch):
        # At a fixed position the objective is quadratic in the velocity:
        # L(p, v* + delta) - L(p, v*) = delta' A delta, with A the velocity
        # block of J'J, and J'r's velocity half vanishes at v*.
        rng = np.random.default_rng(32)
        for obs, est in grid_frames():
            _, seen = self.captured(monkeypatch, obs, est)
            model = bayes_model(obs, est)
            states = seen["states"][rng.choice(15**2, 12, replace=False)]
            res, jac = model.jacobian(model.evaluate(states)[1])
            velocity_jac = jac[..., 2:]
            gradient = (velocity_jac.swapaxes(1, 2) @ res[..., None])[..., 0]
            rounding = (np.abs(velocity_jac).swapaxes(1, 2) @ np.abs(res)[..., None])[..., 0]
            assert np.all(np.abs(gradient) <= 1e-11 * rounding)
            a = velocity_jac.swapaxes(1, 2) @ velocity_jac
            delta = rng.standard_normal((len(states), 2)) * np.sqrt(np.diagonal(a, 0, 1, 2))
            moved = states.copy()
            moved[:, 2:] += delta
            rise = model.objective(moved) - model.objective(states)
            np.testing.assert_allclose(rise, np.einsum("mi,mij,mj->m", delta, a, delta),
                                       rtol=1e-9)

    def test_positions_on_a_node_get_zero_weight(self, monkeypatch):
        # A grid centred on node 0, at the origin, whose Laplace sigmas
        # are the estimate's (the node itself has no Laplace covariance):
        # its central position is the node.
        obs, est = list(grid_frames())[2]
        assert (obs.entries[0].node_pose.x, obs.entries[0].node_pose.y) == (0.0, 0.0)
        laplace = laplace_covariance(obs, TABLE_NOISE, PRIOR, est.state, est.prior_center)
        monkeypatch.setattr(fusion_module, "_laplace", lambda model, theta: laplace)
        on_node = replace(est, state=TargetState(0.0, 0.0, est.state.vx, est.state.vy))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cov, seen = self.captured(monkeypatch, obs, on_node)
        infinite = np.isinf(seen["values"]).reshape(15, 15)
        assert infinite[7, 7] and np.count_nonzero(infinite) == 1
        assert seen["weights"].reshape(15, 15)[7, 7] == 0.0
        assert np.isfinite(seen["states"]).all() and np.isfinite(cov).all()
        # A dense grid whose every position lies within 1e-12 m of the node
        # has no weight left.
        with pytest.raises(ArithmeticError, match="widen"):
            grid_covariance(bayes_model(obs, est).objective, np.zeros(4),
                            np.array([1e-14, 1e-14, 1.0, 1.0]), 3.0, 5)


def assert_same_estimate(a, b):
    """Bit-for-bit equality of two FusionEstimates."""
    assert a.state == b.state
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.objective_value == b.objective_value
    assert a.conditioning == b.conditioning
    assert a.unobservable == b.unobservable
    assert a.prior_center == b.prior_center
    if a.covariance is None or b.covariance is None:
        assert a.covariance is None and b.covariance is None
    else:
        np.testing.assert_array_equal(a.covariance, b.covariance)


class TestSolveFrames:
    @pytest.mark.parametrize("mode, prior", [("ml", None), ("BAYES", PRIOR)])
    def test_empty_table_gives_empty_estimates(self, mode, prior):
        table = frame_table(config_b_nodes(), np.empty((0, 2, 3)))
        est = solve_frames(table, TABLE_NOISE, mode=mode, prior=prior)
        assert len(est) == 0 and est.mode == mode.lower()
        shapes = {field: getattr(est, field).shape for field in (
            "states", "covariances", "objective_values", "iterations", "converged",
            "conditioning", "unobservable")}
        assert shapes == {"states": (0, 4), "covariances": (0, 4, 4), "objective_values": (0,),
                          "iterations": (0,), "converged": (0,), "conditioning": (0,),
                          "unobservable": (0,)}
        assert (est.prior_centers is None) == (prior is None)
        if prior is not None:
            assert est.prior_centers.shape == (0, 4)

    def test_single_frame_solve_matches_batch_on_builtin_scenario(self, monkeypatch):
        # A random whole, then 100 frames along C's degenerate baseline
        # with the iteration cap lowered to 10: several stop at the cap,
        # so the capped exit, compaction after a partial acceptance and
        # the damping's lower clip all run.
        cases = (("A", "random", slice(None)), ("C", "straight", slice(265, 365)))
        for name, kind, frames in cases:
            config = builtin_scenario(name, kind, seed=7)
            table, observations = detected_frames(config)
            table, observations = table[frames], observations[frames]
            assert len(observations) > 400 if name == "A" else len(observations) == 100
            with monkeypatch.context() as patch:
                if name == "C":
                    patch.setattr(fusion_module, "_MAX_ITERATIONS", 10)
                for mode, prior in (("ml", None), ("bayes", PRIOR)):
                    batch = solve_frames(table, config.noise, mode=mode, prior=prior)
                    assert len(batch) == len(observations)
                    if name == "C":
                        capped = (batch.iterations == 10) & ~batch.converged
                        assert np.count_nonzero(capped) >= 5
                    for obs, est in zip(observations, batch):
                        assert_same_estimate(solve(obs, config.noise, mode=mode, prior=prior), est)

    def test_mixed_node_counts_keep_input_order(self):
        rng = np.random.default_rng(21)
        nodes3 = config_b_nodes() + (Pose2D(4.0, 3.5, math.radians(125.0)),)
        # Node 2 detects one frame in three and holds a NaN triple in the others.
        detections = np.full((12, 3, 3), np.nan)
        observations = []
        for k in range(12):
            target = TargetState(rng.uniform(1.0, 3.0), rng.uniform(2.5, 4.0),
                                 rng.uniform(-1, 1), rng.uniform(-1, 1))
            nodes = nodes3 if k % 3 == 1 else nodes3[:2]
            observations.append(observation_of(nodes, target, TABLE_NOISE, rng))
            detections[k, :len(nodes)] = detections_of(observations[-1])
        batch = solve_frames(frame_table(nodes3, detections), TABLE_NOISE, mode="bayes",
                             prior=PRIOR)
        for obs, est in zip(observations, batch):
            assert_same_estimate(solve(obs, TABLE_NOISE, mode="bayes", prior=PRIOR), est)

    def test_mixed_conditioning_masks_only_ill_conditioned_frames(self):
        # Frame 0 sits on C's facing-node baseline, where the ML J'J is
        # singular, and frame 2 1e-6 m off it, where J'J still inverts but
        # its conditioning is below the cut; frame 1 is well off it.
        nodes = config_c_nodes()
        targets = (TargetState(0.0, 3.5, 0.0, 1.0), TargetState(1.0, 3.0, 0.3, -0.2),
                   TargetState(1e-6, 2.0, 0.0, -0.5))
        observations = [observation_of(nodes, target) for target in targets]
        table = frame_table(nodes, [detections_of(obs) for obs in observations])
        batch = solve_frames(table, TABLE_NOISE, mode="ml")
        assert batch.conditioning[0] == 0.0
        assert 0.0 < batch.conditioning[2] < fusion_module._MIN_CONDITIONING
        assert batch.conditioning[1] > fusion_module._MIN_CONDITIONING
        nan_entries = np.isnan(batch.covariances)
        np.testing.assert_array_equal(nan_entries.any(axis=(1, 2)), [True, False, True])
        assert nan_entries[[0, 2]].all()
        one = solve(observations[1], TABLE_NOISE, mode="ml")
        assert batch.covariances[1].tobytes() == one.covariance.tobytes()
        assert_same_estimate(batch[1], one)
        assert batch[0].covariance is None and batch[2].covariance is None

    def test_start_on_a_node_raises(self):
        good = observation_of(config_b_nodes(), TargetState(1.5, 3.5, 0.2, 0.1))
        # A zero-range detection maps back onto the node itself.
        on_node = FusionObservation(
            (ObservationEntry(Pose2D(0, 0, 0), Detection(0.0, 0.0, 1.0)),)
        )
        message = "initial estimate coincides with a node position"
        with pytest.warns(UserWarning, match="single-node"):
            with pytest.raises(ValueError, match=message):
                solve(on_node, TABLE_NOISE, mode="ml")
        # Node 1 missed the second frame; on_node's node is node 0.
        table = frame_table(config_b_nodes(),
                            [detections_of(good), [(0.0, 0.0, 1.0), (np.nan,) * 3]])
        with pytest.warns(UserWarning, match="single-node"):
            with pytest.raises(ValueError, match=message):
                solve_frames(table, TABLE_NOISE, mode="ml")

    def test_singular_frame_leaves_other_frames_unchanged(self, monkeypatch):
        rng = np.random.default_rng(22)
        observations = [
            observation_of(
                config_b_nodes(),
                TargetState(rng.uniform(1.0, 3.0), rng.uniform(2.5, 4.0), 0.5, -0.5),
                TABLE_NOISE,
                rng,
            )
            for _ in range(3)
        ]
        table = frame_table(config_b_nodes(), [detections_of(obs) for obs in observations])
        reference = solve_frames(table, TABLE_NOISE, mode="ml")

        # Record frame 1's first damped system, then have the damped
        # solve find it singular wherever it appears: its step comes back
        # as NaN, as for a zero determinant.
        real_steps = fusion_module._damped_steps
        recorded = []

        def recording(step_matrix, lam, gradient_half):
            recorded.append((np.array(step_matrix), np.array(lam)))
            return real_steps(step_matrix, lam, gradient_half)

        monkeypatch.setattr(fusion_module, "_damped_steps", recording)
        solve(observations[1], TABLE_NOISE, mode="ml")
        singular = recorded[0][0][0], recorded[0][1][0]

        def refusing(step_matrix, lam, gradient_half):
            step = real_steps(step_matrix, lam, gradient_half)
            step[[np.array_equal(m, singular[0]) and damping == singular[1]
                  for m, damping in zip(step_matrix, lam)]] = np.nan
            return step

        monkeypatch.setattr(fusion_module, "_damped_steps", refusing)
        batch = solve_frames(table, TABLE_NOISE, mode="ml")
        assert_same_estimate(batch[0], reference[0])
        assert_same_estimate(batch[2], reference[2])
        assert_same_estimate(batch[1], solve(observations[1], TABLE_NOISE, mode="ml"))
        # The refused frame only raised its damping: it went on iterating
        # and reached the same minimum as without the refusal.
        assert batch[1].converged
        assert batch[1].iterations > 1
        assert batch[1].iterations != reference[1].iterations
        np.testing.assert_allclose(
            batch[1].state.as_vector(), reference[1].state.as_vector(), rtol=0, atol=1e-6
        )
        assert batch[1].objective_value == pytest.approx(reference[1].objective_value, rel=1e-9)


def positive_definite(m):
    """`_positive_definite` of each symmetric 2x2 matrix of `m` (F, 2, 2),
    from its lower triangle."""
    return _positive_definite(m[:, 0, 0], m[:, 1, 0], m[:, 1, 1])


def lower_entries(m):
    """Each 2x2 matrix of `m` (F, 2, 2) as the step-matrix rows xx, yx, yy."""
    return np.stack((m[:, 0, 0], m[:, 1, 0], m[:, 1, 1]), axis=-1)


def central_hessian(model, theta, step=1e-4):
    """Central-difference Hessian of half the objective of a one-frame
    `model` at the state `theta` (4,)."""
    half = [[0.0] * 4 for _ in range(4)]
    shifts = step * np.eye(4)
    for i in range(4):
        for j in range(4):
            corners = [theta + a * shifts[i] + b * shifts[j] for a, b in
                       ((1, 1), (1, -1), (-1, 1), (-1, -1))]
            values = model.take([0, 0, 0, 0]).objective(np.array(corners))
            half[i][j] = (values[0] - values[1] - values[2] + values[3]) / (8.0 * step * step)
    return np.array(half)


class TestNewtonStep:
    """The residual curvature S, the pivot test that guards J'J + S, and
    the minima the Newton-corrected step reaches."""

    @pytest.mark.parametrize("mode", ["ml", "bayes"])
    def test_curvature_matches_central_differences(self, mode):
        rng = np.random.default_rng(31)
        nodes3 = config_b_nodes() + (Pose2D(4.0, 3.5, math.radians(125.0)),)
        # Node 2 detects two frames in three and holds a NaN triple in the others.
        detections = np.full((9, 3, 3), np.nan)
        for k in range(9):
            target = TargetState(rng.uniform(1.0, 3.0), rng.uniform(2.5, 4.0),
                                 *rng.uniform(-1.0, 1.0, 2).tolist())
            obs = observation_of(nodes3 if k % 3 else nodes3[:2], target, TABLE_NOISE, rng)
            detections[k, :obs.num_nodes] = detections_of(obs)
        table = frame_table(nodes3, detections)
        # Node 1 missed the target in two of the three-node frames.
        table[[1, 4], 1, 3:] = np.nan
        groups = _frame_groups(table)
        assert sorted(t.shape[1] for _, t in groups) == [2, 3]
        checked = 0
        for _, group in groups:
            nodes = _columns(group)
            centers = None
            if mode == "bayes":
                centers = np.zeros((len(group), 4))
                centers[:, :2] = rng.uniform(1.0, 3.0, (len(group), 2))
            model = _Frames.of(nodes, TABLE_NOISE, PRIOR if mode == "bayes" else None, centers)
            # Off the minimum, so every residual and its curvature is O(1).
            theta = _start_states(nodes).T + rng.normal(0.0, 0.3, (len(group), 4))
            _, terms = model.evaluate(theta)
            _, jac = model.jacobian(terms)
            newton = jac.swapaxes(-1, -2) @ jac + model.curvature(terms)
            for f in range(len(group)):
                want = central_hessian(model.take([f]), theta[f])
                scale = np.max(np.abs(want))
                np.testing.assert_allclose(newton[f], want, rtol=0, atol=1e-6 * scale)
                checked += 1
        assert checked == 9

    def test_pivot_test_matches_eigenvalues(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((2000, 2, 2))
        shift = rng.uniform(-1.0, 3.0, (2000, 1, 1))
        matrices = x + x.swapaxes(1, 2) + shift * np.eye(2)
        want = np.linalg.eigvalsh(matrices)[:, 0] > 0.0
        assert 0.1 < want.mean() < 0.9
        np.testing.assert_array_equal(positive_definite(matrices), want)

    def test_pivot_test_rejects_singular_and_nan(self):
        # PSD with a zero second pivot, PSD with a zero first pivot, PD
        # but for one NaN entry, and the identity.
        singular = np.ones((2, 2))
        first_zero = np.diag([0.0, 1.0])
        with_nan = 2.0 * np.eye(2)
        with_nan[1, 0] = with_nan[0, 1] = np.nan
        matrices = np.array([singular, first_zero, with_nan, np.eye(2)])
        np.testing.assert_array_equal(positive_definite(matrices), [False, False, False, True])

    def test_crawl_frames_reach_the_long_run_minimum(self, monkeypatch):
        # C's on-baseline frames, where the Gauss-Newton step crawls.
        config = builtin_scenario("C", "straight", seed=7)
        table, observations = detected_frames(config)
        table, observations = table[265:365], observations[265:365]
        got = solve_frames(table, config.noise, mode="bayes", prior=PRIOR)
        with monkeypatch.context() as patch:
            # The Gauss-Newton reference: no curvature, and a long run.
            patch.setattr(_Frames, "curvature",
                          lambda self, terms: np.zeros((self.nodes.shape[-1], 4, 4)))
            patch.setattr(fusion_module, "_MAX_ITERATIONS", 5000)
            want = solve_frames(table, config.noise, mode="bayes", prior=PRIOR)
        crawl = want.iterations > 100
        assert np.count_nonzero(crawl) >= 5 and want.converged.all()
        assert got.converged[crawl].all()
        across = 0
        for obs, est, ref in zip(observations, got, want):
            if not est.converged:
                continue
            _, residuals, jac = bayes_objective(
                est.state, obs, config.noise, PRIOR, est.prior_center
            )
            assert np.max(np.abs(2.0 * jac.T @ residuals)) < 1e-6
            # A long run may cross the baseline (x = 0) into the mirror
            # basin, a minimum the Newton step from the same start does
            # not reach; one frame's does.
            if math.copysign(1.0, est.state.x) != math.copysign(1.0, ref.state.x):
                across += 1
                continue
            assert est.objective_value <= ref.objective_value + 1e-9 * (1.0 + ref.objective_value)
            # Position to within a micrometre.
            np.testing.assert_allclose(est.state.as_vector()[:2], ref.state.as_vector()[:2],
                                       rtol=0, atol=1e-6)
        assert across <= 1


def line_config():
    """Three nodes in a row facing +y, 4 m apart, and a walk along them:
    123 frames seen by one node, 213 by two (two different pairs) and 64
    by all three."""
    from radarnet.scene import ScenarioConfig, TrajectorySpec

    return ScenarioConfig(
        "line3",
        (Pose2D(0.0, 0.0, 0.0), Pose2D(4.0, 0.0, 0.0), Pose2D(8.0, 0.0, 0.0)),
        TrajectorySpec("straight", (-4.0, 3.0), speed=0.25, heading=0.0),
        num_frames=400,
        rng_seed=3,
        calibration_trajectory=TrajectorySpec("random", (4.0, 4.0), speed_cap=0.8),
    )


class TestFrameTable:
    """`solve_frames` on frame tables: the NaN convention for nodes that did
    not detect, and the input rules."""

    @staticmethod
    def table():
        config = builtin_scenario("B", "random", seed=7)
        sim = simulate(config)
        return frame_table(config.nodes, sim.detections[sim.seen.all(axis=1)][:5])

    def test_layout(self):
        config = line_config()
        sim = simulate(config)
        table = frame_table(config.nodes, sim.detections)
        assert table.shape == (400, 3, 6)
        for i, node in enumerate(config.nodes):
            assert (table[:, i, :3] == (node.x, node.y, node.phi)).all()
        assert table[..., 3:].tobytes() == sim.detections.tobytes()

    @pytest.mark.parametrize("poses", [1, 3])
    def test_pose_count_other_than_n_raises(self, poses):
        with pytest.raises(ValueError, match=rf"got {poses} poses .* shape \(2, 2, 3\)"):
            frame_table([Pose2D(0, 0, 0)] * poses, np.zeros((2, 2, 3)))

    @pytest.mark.parametrize("shape", [(5, 6), (5, 2, 5), (5, 0, 6), (5, 2, 6, 1)])
    def test_wrong_shape_raises(self, shape):
        with pytest.raises(ValueError, match=r"must be \(F, N, 6\)"):
            solve_frames(np.zeros(shape), TABLE_NOISE, mode="ml")

    def test_observation_list_raises(self):
        obs = observation_of(config_b_nodes(), TargetState(1.5, 3.5, 0.2, 0.1))
        with pytest.raises(TypeError, match=r"\(F, N, 6\) array, got list; .*frame_table.*solve"):
            solve_frames([obs], TABLE_NOISE, mode="ml")

    @pytest.mark.parametrize("missed", [False, True], ids=["all-detected", "with-missed-row"])
    @pytest.mark.parametrize("column", [0, 2, 3, 5])
    def test_inf_in_a_detecting_row_raises(self, column, missed):
        table = self.table()
        table[2, 1, column] = np.inf
        if missed:
            table[4, 0, 3:] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            solve_frames(table, TABLE_NOISE, mode="ml")

    @pytest.mark.parametrize("nan", [[3], [4, 5], [3, 5]])
    def test_partly_nan_triple_raises(self, nan):
        table = self.table()
        table[1, 0, nan] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            solve_frames(table, TABLE_NOISE, mode="ml")

    def test_spatial_frequency_beyond_pi_is_named_in_frame_order(self):
        table = self.table()
        table[1, 1, 4] = 4.0
        table[3, 0, 4] = -5.0
        table[3, 1, 3:] = np.nan  # frame 3 has one detecting node, frame 1 two
        with pytest.raises(ValueError, match="exceeds pi: 4.0"):
            solve_frames(table, TABLE_NOISE, mode="ml")

    def test_frame_with_no_detecting_node_raises(self):
        table = self.table()
        table[3, :, 3:] = np.nan
        with pytest.raises(ValueError, match="frame 3 has no detecting node"):
            solve_frames(table, TABLE_NOISE, mode="ml")

    def test_nan_padded_table_matches_per_frame_solve(self):
        config = line_config()
        sim = simulate(config)
        frames = np.flatnonzero(sim.seen.any(axis=1))
        counts = np.count_nonzero(sim.seen[frames], axis=1)
        assert np.bincount(counts).tolist() == [0, 123, 213, 64]
        table = frame_table(config.nodes, sim.detections[frames])
        # What a missed row holds besides its NaN triple does not matter.
        table[~sim.seen[frames], :3] = np.nan
        observations = [
            FusionObservation(tuple(
                ObservationEntry(node, Detection(*det))
                for node, det, seen in zip(config.nodes, sim.detections[k].tolist(), sim.seen[k])
                if seen
            ))
            for k in frames.tolist()
        ]
        for mode, prior in (("ml", None), ("bayes", PRIOR)):
            with pytest.warns(UserWarning, match="single-node"):
                batch = solve_frames(table, config.noise, mode=mode, prior=prior)
            assert len(batch) == len(observations)
            for obs, est in zip(observations, batch):
                with pytest.warns(UserWarning) if obs.num_nodes == 1 else nullcontext():
                    assert_same_estimate(solve(obs, config.noise, mode=mode, prior=prior), est)


def detected_frames(config):
    """The frames of a scenario's simulation that every node detected, at
    the true poses: their (F, N, 6) frame table and the same frames as
    FusionObservations."""
    sim = simulate(config)
    detections = sim.detections[sim.seen.all(axis=1)]
    observations = [
        FusionObservation(tuple(
            ObservationEntry(node, Detection(*det)) for node, det in zip(config.nodes, dets)
        ))
        for dets in detections.tolist()
    ]
    return frame_table(config.nodes, detections), observations


def reference_range_circle_intersections(obs):
    """The first two nodes' range-circle intersections, on floats: none,
    the tangent point, or the two mirror points across the chord."""
    if obs.num_nodes < 2:
        return []
    (node1, det1), (node2, det2) = ((e.node_pose, e.detection) for e in obs.entries[:2])
    r1, r2 = det1.range, det2.range
    cx, cy = node2.x - node1.x, node2.y - node1.y
    d = math.hypot(cx, cy)
    if d == 0.0 or d > r1 + r2 or d < abs(r1 - r2):
        return []
    along = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    height_sq = r1 * r1 - along * along
    if height_sq < 0.0:
        return []
    ux, uy = cx / d, cy / d
    bx, by = node1.x + along * ux, node1.y + along * uy
    height = math.sqrt(height_sq)
    if height == 0.0:
        return [(bx, by)]
    return [(bx - height * uy, by + height * ux), (bx + height * uy, by - height * ux)]


def reference_candidate_starts(obs, fov_half_angle=FOV_HALF_ANGLE):
    """The LM start positions as built with array initializers and one
    TargetState per start, the off-boresight angle written out per node."""
    n = obs.num_nodes
    px = py = 0.0
    for entry in obs.entries:
        node, det = entry.node_pose, entry.detection
        theta = math.asin(min(1.0, max(-1.0, det.spatial_freq / math.pi)))
        lx, ly = det.range * math.sin(theta), det.range * math.cos(theta)
        c, s = math.cos(node.phi), math.sin(node.phi)
        px += c * lx - s * ly + node.x
        py += s * lx + c * ly + node.y
    pos0 = np.array([px, py]) / n
    positions = [(pos0[0], pos0[1])] + reference_range_circle_intersections(obs)
    limit = fov_half_angle + math.radians(15.0)

    def visible(position):
        state = TargetState(position[0], position[1], 0.0, 0.0)
        for entry in obs.entries:
            node = entry.node_pose
            if position[0] == node.x and position[1] == node.y:
                return False
            dx, dy = state.x - node.x, state.y - node.y
            c, s = math.cos(node.phi), math.sin(node.phi)
            if abs(math.atan2(dx * c + dy * s, -dx * s + dy * c)) > limit:
                return False
        return True

    kept = [p for p in positions if visible(p)]
    return pos0, kept or positions


def assert_same_starts(obs, fov_half_angle=FOV_HALF_ANGLE):
    """One frame's position start and kept LM starts against the reference;
    returns the kept starts."""
    starts, keep = _start_table(_columns(_table(obs)), fov_half_angle)
    want_pos0, want_starts = reference_candidate_starts(obs, fov_half_angle)
    assert starts[0, 0].tobytes() == want_pos0.tobytes()
    assert starts[0][keep[0]].tobytes() == np.asarray(want_starts, dtype=float).tobytes()
    return [tuple(start) for start in starts[0][keep[0]].tolist()]


class TestCandidateStarts:
    """The float visibility filter picks the same starts, bit for bit."""

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_every_frame_of_builtin_random(self, name):
        _, observations = detected_frames(builtin_scenario(name, "random", seed=7))
        for obs in observations:
            assert_same_starts(obs)
        assert len(observations) > 400

    def test_start_on_a_node_is_dropped(self):
        # A zero range on node 2 and node 1's range equal to the baseline
        # put the single range-circle intersection exactly on node 2; the
        # initializer, 60 deg off node 2's boresight, stays in view.
        nodes = config_c_nodes()
        obs = FusionObservation((
            ObservationEntry(nodes[0], Detection(7.0, math.pi * math.sin(math.pi / 3), 0.1)),
            ObservationEntry(nodes[1], Detection(0.0, 0.0, 0.0)),
        ))
        assert reference_range_circle_intersections(obs) == [(0.0, 7.0)]
        starts = assert_same_starts(obs)
        assert len(starts) == 1 and starts[0] != (0.0, 7.0)

    def test_all_candidates_invisible_keeps_them_all(self):
        # A target far off both boresights: the initializer and both
        # mirror intersections lie outside every widened field of view.
        nodes = config_c_nodes()
        obs = observation_of(nodes, TargetState(30.0, 1.0, 0.2, -0.1))
        starts = assert_same_starts(obs)
        assert len(starts) == 3


def builtin_frame_tables(name):
    """Each run of built-in `name` (straight and random, seeds 7-9) as the
    (F, N, 6) frame table of its fully detected frames, with those frames
    as FusionObservations."""
    for kind in ("straight", "random"):
        for seed in (7, 8, 9):
            yield detected_frames(builtin_scenario(name, kind, seed=seed))


def assert_array_starts_match_reference(table, observations):
    """The array front end on a whole frame table against the reference, frame by frame."""
    starts, keep = _start_table(_columns(table), FOV_HALF_ANGLE)
    assert starts.shape == (len(observations), 3, 2)
    for j, obs in enumerate(observations):
        want_pos0, want_starts = reference_candidate_starts(obs)
        assert starts[j, 0].tobytes() == want_pos0.tobytes()
        assert starts[j][keep[j]].tobytes() == np.asarray(want_starts, dtype=float).tobytes()


class TestArrayCandidateStarts:
    """The array front end over whole batches, bit for bit against the reference starts."""

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_every_frame_of_builtin_runs(self, name):
        checked = 0
        for table, observations in builtin_frame_tables(name):
            assert_array_starts_match_reference(table, observations)
            checked += len(observations)
        assert checked > 2400

    def test_mixed_call_of_edge_cases(self):
        rng = np.random.default_rng(23)
        apart = (Pose2D(0.0, 0.0, 0.0), Pose2D(4.0, 0.0, math.pi))

        def pair(nodes, r1, r2):
            return FusionObservation((
                ObservationEntry(nodes[0], Detection(r1, 0.3, 0.1)),
                ObservationEntry(nodes[1], Detection(r2, -0.2, 0.2)),
            ))

        nodes_c = config_c_nodes()
        cases = {
            "tangent": pair(apart, 1.5, 2.5),  # d = r1 + r2: one intersection
            "three_node": observation_of(
                config_b_nodes() + (Pose2D(4.0, 3.5, math.radians(125.0)),),
                TargetState(1.8, 3.6, 0.6, -0.4), TABLE_NOISE, rng,
            ),
            "disjoint": pair(apart, 1.0, 1.0),  # d > r1 + r2
            "single_node": FusionObservation(
                (ObservationEntry(Pose2D(0.0, 0.0, 0.0), Detection(5.0, 0.3, 0.4)),)
            ),
            "nested": pair(apart, 6.0, 1.0),  # d < |r1 - r2|
            "concentric": pair((Pose2D(1.0, 1.0, 0.0), Pose2D(1.0, 1.0, 1.0)), 2.0, 2.0),
            "all_invisible": observation_of(nodes_c, TargetState(30.0, 1.0, 0.2, -0.1)),
            "start_on_node": FusionObservation((
                ObservationEntry(nodes_c[0], Detection(7.0, math.pi * math.sin(math.pi / 3), 0.1)),
                ObservationEntry(nodes_c[1], Detection(0.0, 0.0, 0.0)),
            )),
            # The tangent point is node 0 itself, where atan2(0, 0) = 0
            # alone would call it in view; the initializer is out of view.
            "start_on_facing_node": pair(
                (Pose2D(0.0, 0.0, 0.0), Pose2D(0.0, 4.0, math.pi)), 0.0, 4.0
            ),
        }
        assert reference_range_circle_intersections(cases["tangent"]) == [(1.5, 0.0)]
        assert reference_range_circle_intersections(cases["start_on_facing_node"]) == [(0.0, 0.0)]
        for name in ("disjoint", "nested", "concentric", "single_node"):
            assert reference_range_circle_intersections(cases[name]) == []
        mixed = list(cases.values())
        # One three-node table: each case's nodes come first, and the rows
        # after them hold NaN triples, as for nodes that did not detect.
        table = np.full((len(mixed), 3, 6), np.nan)
        for k, obs in enumerate(mixed):
            table[k, :obs.num_nodes] = _table(obs)[0]
        groups = _frame_groups(table)
        assert sorted(table.shape[1] for _, table in groups) == [1, 2, 3]
        for rows, table in groups:
            assert_array_starts_match_reference(table, [mixed[k] for k in rows])
        kept = {name: len(assert_same_starts(obs)) for name, obs in cases.items()}
        assert kept["all_invisible"] == 3 and kept["start_on_node"] == 1
        assert kept["start_on_facing_node"] == 2


class NodeLastTerms(NamedTuple):
    """NodeLastFrames' terms: its own, then the states and velocity block
    inverse the LM reads."""

    vx: np.ndarray
    vy: np.ndarray
    blocks: tuple
    prior_rows: np.ndarray | None
    r: np.ndarray
    ux: np.ndarray
    uy: np.ndarray
    omega: np.ndarray
    vel: np.ndarray
    states: np.ndarray
    velocity_inverse: np.ndarray | None


class NodeLastFrames(_Frames):
    """The residual model with the node axis last: tables (4, F, N) and
    (3, F, N), each term computed with the nodes innermost and summed
    over the last axis.  The reference the node-first layout must match
    bit for bit."""

    @classmethod
    def of(cls, columns, noise, prior=None, center=None):
        model = _Frames.of(columns, noise, prior, center)
        nodes, meas = (
            np.ascontiguousarray(np.moveaxis(t, 1, -1)) for t in (model.nodes, model.meas)
        )
        return cls(nodes, meas, noise, model.prior_sigmas, center)

    def take(self, index):
        center = None if self.center is None else self.center[index]
        return type(self)(
            self.nodes[:, index], self.meas[:, index], self.noise, self.prior_sigmas, center
        )

    def evaluate(self, theta):
        profiled = theta.shape[-1] == 2
        if profiled:
            theta = np.concatenate((theta, np.zeros_like(theta)), axis=-1)
        px, py, pi_cos, pi_sin = self.nodes
        meas_r, meas_w, meas_v = self.meas
        noise = self.noise
        dx = theta[..., 0:1] - px
        dy = theta[..., 1:2] - py
        r2 = dx * dx + dy * dy
        infeasible = r2 < 1e-24
        any_infeasible = infeasible.any()
        if any_infeasible:
            r2 = np.maximum(r2, 1e-24)
        r = np.sqrt(r2)
        ux = dx / r
        uy = dy / r
        inverse = None
        if profiled:
            # The velocity block A, sum of s s' with s = u/sigma_v, and
            # A v = sum of s V/sigma_v (+ the prior's), solved and then
            # refined once on its residuals.
            sx, sy = ux / noise.sigma_v, uy / noise.sigma_v
            target = meas_v / noise.sigma_v
            a, b, d = (sx * sx).sum(-1), (sx * sy).sum(-1), (sy * sy).sum(-1)
            rx, ry = (sx * target).sum(-1), (sy * target).sum(-1)
            if self.prior_sigmas is not None:
                precision = (1.0 / self.prior_sigmas[2:]) ** 2
                a, d = a + precision[0], d + precision[1]
                rx = rx + precision[0] * self.center[..., 2]
                ry = ry + precision[1] * self.center[..., 3]
            inverse = fusion_module._symmetric_inverse(a, b, d)
            ixx, ixy, iyy = inverse
            vx, vy = ixx * rx + ixy * ry, ixy * rx + iyy * ry
            fit = target - (sx * vx[:, None] + sy * vy[:, None])
            cx, cy = (sx * fit).sum(-1), (sy * fit).sum(-1)
            if self.prior_sigmas is not None:
                cx = cx - precision[0] * (vx - self.center[..., 2])
                cy = cy - precision[1] * (vy - self.center[..., 3])
            theta[:, 2], theta[:, 3] = vx + (ixx * cx + ixy * cy), vy + (ixy * cx + iyy * cy)
        vx, vy = theta[..., 2:3], theta[..., 3:4]
        prior = prior_rows = None
        if self.prior_sigmas is not None:
            prior_rows = (theta - self.center) / self.prior_sigmas
            prior = (prior_rows * prior_rows).sum(axis=-1)
        omega = ux * pi_cos + uy * pi_sin
        vel = vx * ux + vy * uy
        blocks = (
            (meas_r - r) / noise.sigma_r,
            (meas_w - omega) / noise.sigma_omega,
            (meas_v - vel) / noise.sigma_v,
        )
        value = (blocks[0] * blocks[0] + blocks[1] * blocks[1] + blocks[2] * blocks[2]).sum(-1)
        if prior is not None:
            value += prior
        if any_infeasible:
            value[np.broadcast_to(infeasible.any(axis=-1), value.shape)] = np.inf
        return value, NodeLastTerms(vx, vy, blocks, prior_rows, r, ux, uy, omega, vel, theta,
                                    inverse)

    def jacobian(self, terms):
        vx, vy, blocks, prior_rows, r, ux, uy, omega, vel = terms[:9]
        _, _, pi_cos, pi_sin = self.nodes
        noise = self.noise
        n = r.shape[-1]
        rows = list(blocks) if prior_rows is None else [*blocks, prior_rows]
        res = np.concatenate(rows, axis=-1)
        jac = np.zeros(res.shape + (4,))
        r_w = r * noise.sigma_omega
        r_v = r * noise.sigma_v
        jac[..., :n, 0] = ux / -noise.sigma_r
        jac[..., :n, 1] = uy / -noise.sigma_r
        jac[..., n:2 * n, 0] = (omega * ux - pi_cos) / r_w
        jac[..., n:2 * n, 1] = (omega * uy - pi_sin) / r_w
        jac[..., 2 * n:3 * n, 0] = (vel * ux - vx) / r_v
        jac[..., 2 * n:3 * n, 1] = (vel * uy - vy) / r_v
        jac[..., 2 * n:3 * n, 2] = ux / -noise.sigma_v
        jac[..., 2 * n:3 * n, 3] = uy / -noise.sigma_v
        if prior_rows is not None:
            jac[..., 3 * n:, :] = np.diag(1.0 / self.prior_sigmas)
        return res, jac

    def curvature(self, terms):
        """Sum over nodes of residual times residual Hessian, entry by entry."""
        vx, vy, (rho, w, d), _, r, ux, uy, omega, vel = terms[:9]
        _, _, pi_cos, pi_sin = self.nodes
        noise = self.noise
        a = -(rho / (noise.sigma_r * r))
        c_w = w / (noise.sigma_omega * r) / r
        c_v = d / (noise.sigma_v * r) / r
        e = d / (noise.sigma_v * r)
        m = c_w * omega + c_v * vel
        gx = c_w * pi_cos + c_v * vx
        gy = c_w * pi_sin + c_v * vy
        # Position block (a + m) I - (a + 3m) uu' + ug' + gu'; the
        # position-velocity block -e (I - uu'), written e uu' - e I.
        pxx = (ux * gx + ux * gx) - (3.0 * m + a) * (ux * ux) + (m + a)
        pyy = (uy * gy + uy * gy) - (3.0 * m + a) * (uy * uy) + (m + a)
        pxy = (ux * gy + gx * uy) - (3.0 * m + a) * (ux * uy)
        cxx = e * (ux * ux) - e
        cyy = e * (uy * uy) - e
        cxy = e * (ux * uy)
        s = np.zeros(r.shape[:-1] + (4, 4))
        for (i, j), entry in {(0, 0): pxx, (1, 1): pyy, (0, 1): pxy, (0, 2): cxx,
                              (1, 3): cyy, (0, 3): cxy, (1, 2): cxy}.items():
            s[..., i, j] = s[..., j, i] = entry.sum(-1)
        return s


class TestNodeFirstKernel:
    """The node-first model against the node-last reference, bit for bit."""

    @staticmethod
    def node_last(monkeypatch, shapes):
        """Make fusion build NodeLastFrames models that record each state shape evaluated."""

        class Recording(NodeLastFrames):
            def evaluate(self, theta):
                shapes.append(theta.shape)
                return super().evaluate(theta)

        monkeypatch.setattr(fusion_module, "_Frames", Recording)

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_solve_frames_matches_node_last_reference(self, name, monkeypatch):
        config = builtin_scenario(name, "random", seed=7)
        sim = simulate(config)
        table = frame_table(config.nodes, sim.detections[sim.seen.all(axis=1)])
        for mode, prior in (("ml", None), ("bayes", PRIOR)):
            got = solve_frames(table, config.noise, mode=mode, prior=prior)
            shapes = []
            with monkeypatch.context() as patch:
                self.node_last(patch, shapes)
                want = solve_frames(table, config.noise, mode=mode, prior=prior)
            # The reference scored the candidate start positions and ran
            # every LM iteration: one evaluation for the starts, one at the
            # start and one per iteration of the slowest frame, whose last
            # iteration evaluates nothing if it stops on its gradient.
            assert (3 * len(table), 2) in shapes
            slowest = int(want.iterations.max())
            assert len(shapes) in (slowest + 1, slowest + 2)
            for field in ("states", "covariances", "objective_values", "iterations",
                          "converged", "conditioning", "unobservable"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
            if prior is not None:
                assert got.prior_centers.tobytes() == want.prior_centers.tobytes()

    def test_grid_posterior_matches_node_last_reference(self, monkeypatch):
        checked = 0
        for obs, est in grid_frames():
            got = posterior_covariance_grid(obs, TABLE_NOISE, PRIOR, est)
            shapes = []
            with monkeypatch.context() as patch:
                self.node_last(patch, shapes)
                want = posterior_covariance_grid(obs, TABLE_NOISE, PRIOR, est)
            # The Laplace Jacobian, then the grid's positions, each at its
            # best velocity.
            assert shapes == [(1, 4), (15**2, 2)]
            assert got.tobytes() == want.tobytes()
            checked += 1
        assert checked == 6


def off_boresight(node, x, y):
    dx, dy = x - node.x, y - node.y
    c, s = math.cos(node.phi), math.sin(node.phi)
    return math.atan2(dx * c + dy * s, -dx * s + dy * c)


def oneshot_frames():
    """Single frames as the real-time path sees them: on-baseline C targets
    walking along the baseline (criterion 07's set-up and velocity prior),
    A/B targets in both nodes' field of view with the default prior, and
    3-node frames."""
    rng = np.random.default_rng(40)
    baseline_prior = PriorConfig(sigma_vx=1.5, sigma_vy=1.5)
    for _ in range(6):
        target = TargetState(0.0, rng.uniform(2.0, 5.0), 0.0, 1.0 if rng.random() < 0.5 else -1.0)
        yield observation_of(config_c_nodes(), target, TABLE_NOISE, rng), baseline_prior
    margin = FOV_HALF_ANGLE - 0.1
    for name in ("A", "B") * 3:
        nodes = builtin_scenario(name).nodes
        while True:
            target = TargetState(rng.uniform(0.0, 4.0), rng.uniform(1.5, 5.5),
                                 *rng.uniform(-1.75, 1.75, 2).tolist())
            if all(abs(off_boresight(node, target.x, target.y)) < margin for node in nodes):
                break
        yield observation_of(nodes, target, TABLE_NOISE, rng), PRIOR
    nodes3 = config_b_nodes() + (Pose2D(4.0, 3.5, math.radians(125.0)),)
    for _ in range(4):
        target = TargetState(rng.uniform(1.0, 3.0), rng.uniform(2.5, 4.0),
                             *rng.uniform(-1.0, 1.0, 2).tolist())
        yield observation_of(nodes3, target, TABLE_NOISE, rng), PRIOR


class TestSingleFrameKernel:
    """`solve` at F = 1, where every reduction runs on (N, 1) arrays,
    against the node-last reference, bit for bit."""

    def test_solve_matches_node_last_reference(self, monkeypatch):
        capped = nodes_seen = 0
        for k, (obs, prior) in enumerate(oneshot_frames()):
            # The first six are C's on-baseline frames: with the iteration
            # cap lowered to 5 for them, several stop at it.
            cap = 5 if k < 6 else 100
            for mode, mode_prior in (("ml", None), ("bayes", prior)):
                with monkeypatch.context() as patch:
                    patch.setattr(fusion_module, "_MAX_ITERATIONS", cap)
                    got = solve(obs, TABLE_NOISE, mode=mode, prior=mode_prior)
                    shapes = []
                    TestNodeFirstKernel.node_last(patch, shapes)
                    want = solve(obs, TABLE_NOISE, mode=mode, prior=mode_prior)
                    if mode == "bayes":
                        want_grid = posterior_covariance_grid(obs, TABLE_NOISE, prior, want)
                assert (3, 2) in shapes and (1, 2) in shapes
                assert_same_estimate(got, want)
                capped += got.iterations == cap and not got.converged
            got_grid = posterior_covariance_grid(obs, TABLE_NOISE, prior, got)
            assert got_grid.tobytes() == want_grid.tobytes()
            nodes_seen = max(nodes_seen, obs.num_nodes)
        # The C frames stop at their iteration cap; the last frames have three nodes.
        assert capped >= 4 and nodes_seen == 3


class TestOneFrameFloatForms:
    """`_Frames.jacobian` and `_Frames.curvature` on one frame's terms, where
    they compute on floats, against their array forms, bit for bit."""

    @staticmethod
    def kernels(model, theta):
        """The residuals, Jacobian and curvature of `model` at `theta` (1, 4)."""
        _, terms = model.evaluate(theta)
        return (*model.jacobian(terms), model.curvature(terms))

    @staticmethod
    def cases():
        """One-frame models of 1, 2 and 3 nodes, ML and Bayes, each at states
        where the residuals take both signs, where they vanish or nearly
        vanish, and a few cm from node 0 (one straight ahead of it)."""
        rng = np.random.default_rng(50)
        nodes3 = config_b_nodes() + (Pose2D(4.0, 3.5, math.radians(125.0)),)
        node = nodes3[0]
        for n in (1, 2, 3):
            for _ in range(3):
                target = TargetState(rng.uniform(1.0, 3.0), rng.uniform(2.5, 4.0),
                                     *rng.uniform(-1.0, 1.0, 2).tolist())
                truth = target.as_vector()
                states = (truth, truth + 1e-7, truth + rng.normal(0.0, 0.3, 4),
                          np.array([node.x + 0.03, node.y - 0.02, *truth[2:]]),
                          np.array([node.x, node.y + 0.04, *truth[2:]]))
                for noisy_rng in (rng, None):
                    obs = observation_of(nodes3[:n], target, TABLE_NOISE, noisy_rng)
                    for prior in (None, PRIOR):
                        center = None
                        if prior is not None:
                            center = np.zeros((1, 4))
                            center[0, :2] = truth[:2] + rng.normal(0.0, 0.5, 2)
                        model = _Frames.build(obs, TABLE_NOISE, prior, center)
                        for theta in states:
                            yield model, theta[None]

    def test_float_forms_match_array_forms(self, monkeypatch):
        residuals, largest, checked = [], 0.0, 0
        for model, theta in self.cases():
            assert _Frames._floats(model.evaluate(theta)[1]) is not None
            got = self.kernels(model, theta)
            with monkeypatch.context() as patch:
                patch.setattr(fusion_module, "_FLOAT_FORM_MAX_NODES", 0)
                want = self.kernels(model, theta)
            for name, g, w in zip(("residuals", "jacobian", "curvature"), got, want):
                assert g.shape == w.shape, name
                assert g.tobytes() == np.ascontiguousarray(w).tobytes(), name
            residuals += got[0].ravel().tolist()
            largest = max(largest, float(np.abs(got[2]).max()))
            checked += 1
        assert checked == 3 * 3 * 5 * 2 * 2
        residuals = np.array(residuals)
        assert (residuals > 1.0).any() and (residuals < -1.0).any()
        assert (residuals == 0.0).any() and ((residuals != 0.0) & (np.abs(residuals) < 1e-5)).any()
        # Near the node the curvature is large.
        assert largest > 1e4

    def test_numpy_sums_the_node_blocks_in_order(self):
        # The float curvature sums each entry over the nodes one by one
        # from 0.0; the array form's sum over the node axis of its
        # (4, 4, N, 1) blocks must do the same for every N it serves.
        rng = np.random.default_rng(51)
        for n in range(1, fusion_module._FLOAT_FORM_MAX_NODES + 1):
            for _ in range(50):
                blocks = (rng.standard_normal((4, 4, n, 1))
                          * 10.0 ** rng.integers(-8, 9, (4, 4, n, 1)))
                want = np.zeros((4, 4, 1))
                for k in range(n):
                    want = want + blocks[:, :, k]
                assert blocks.sum(axis=2).tobytes() == want.tobytes()


def elementwise_positive_definite(m):
    """Whether each matrix of `m` (F, 2, 2) has a Cholesky factor, by
    `np.linalg.cholesky` one matrix at a time: False where it raises, or
    where a NaN entry carried into the factor.  The reference the stacked
    `_positive_definite` must match boolean for boolean."""
    want = []
    for matrix in m:
        try:
            want.append(not np.isnan(np.linalg.cholesky(matrix)).any())
        except np.linalg.LinAlgError:
            want.append(False)
    return np.array(want)


class TestLeanKernels:
    """The closed-form 2x2 definiteness test against `np.linalg.cholesky`
    one matrix at a time, boolean for boolean; the closed-form damped solve
    against `np.linalg.solve`; and the grid's underflow cut against the
    formulation it replaces, bit for bit."""

    def test_pivot_test_matches_elementwise_pivots(self):
        rng = np.random.default_rng(33)
        x = rng.standard_normal((2000, 2, 2))
        shift = rng.uniform(-1.0, 3.0, (2000, 1, 1))
        random = x + x.swapaxes(1, 2) + shift * np.eye(2)
        # A positive definite matrix with a NaN at each entry in turn
        # (a NaN above the diagonal only is not read), and all NaN.
        with_nan = []
        for k in range(4):
            m = 4.0 * np.eye(2) + 0.5
            m.flat[k] = np.nan
            with_nan.append(m)
        with_nan.append(np.full((2, 2), np.nan))
        for stack in (random, np.array(with_nan)):
            want = elementwise_positive_definite(stack)
            assert 0 < np.count_nonzero(want) < len(stack)
            np.testing.assert_array_equal(positive_definite(stack), want)
        # L D L' with a unit lower-triangular integer L and power-of-two
        # pivots, one of them 0, -1 or 1: the test's products are exact, so
        # it reads the pivots' signs exactly, where a Cholesky factor's
        # rounded square roots may call an exactly singular one definite.
        exact, signs = [], []
        for k in range(2):
            for bad in (0.0, -1.0, 1.0):
                lower = np.eye(2) + np.tril(rng.integers(-2, 3, (2, 2)), -1)
                pivots = 2.0 ** rng.integers(0, 3, 2)
                pivots[k] = bad
                exact.append(lower @ np.diag(pivots) @ lower.T)
                signs.append(bool((pivots > 0.0).all()))
        np.testing.assert_array_equal(positive_definite(np.array(exact)), signs)

    def test_damped_solve_matches_numpy_solve(self):
        rng = np.random.default_rng(34)
        x = rng.standard_normal((400, 2, 2))
        indefinite = x + x.swapaxes(1, 2)
        # Positive definite systems over a wide range of conditioning.
        spd = x @ x.swapaxes(1, 2) + 10.0 ** rng.uniform(-8.0, 1.0, (400, 1, 1)) * np.eye(2)
        lam = 10.0 ** rng.uniform(-12.0, 2.0, 400)
        g = rng.standard_normal((400, 2))
        for a in (indefinite, spd):
            got = fusion_module._damped_steps(lower_entries(a), lam, g)
            damped = a + lam[:, None, None] * np.eye(2)
            want = np.linalg.solve(damped, -g[..., None])[..., 0]
            # Cramer's rule is as accurate as the system's conditioning allows.
            scale = np.linalg.cond(damped) * np.abs(want).max(axis=-1)
            assert np.all(np.abs(got - want).max(axis=-1) <= 1e-13 * scale)
            # One frame, on floats, gives the bits of its row in the batch.
            for k in range(5):
                one = fusion_module._damped_steps(lower_entries(a[k:k + 1]), lam[k:k + 1],
                                                  g[k:k + 1])
                assert one.tobytes() == got[k:k + 1].tobytes()

    def test_damped_solve_returns_nan_rows_for_singular_systems(self):
        rank_one = np.ones((2, 2))
        zero_row = np.diag([2.0, 0.0])
        a = np.array([np.eye(2), rank_one, 3.0 * np.eye(2), np.zeros((2, 2)), zero_row])
        g = np.arange(10.0).reshape(5, 2)
        got = fusion_module._damped_steps(lower_entries(a), np.zeros(5), g)
        singular = np.isnan(got).all(axis=-1)
        np.testing.assert_array_equal(singular, [False, True, False, True, True])
        assert not np.isnan(got[~singular]).any()
        np.testing.assert_allclose(got[~singular], -g[~singular] / [[1.0], [3.0]], rtol=1e-15)
        for k in range(5):
            one = fusion_module._damped_steps(lower_entries(a[k:k + 1]), np.zeros(1), g[k:k + 1])
            assert one.tobytes() == got[k:k + 1].tobytes()

    def test_always_singular_frame_runs_to_the_cap(self, monkeypatch):
        # A singular frame raises its damping every pass but never stops
        # on it, and never moves from its start.
        obs = observation_of(config_b_nodes(), TargetState(1.5, 3.5, 0.2, 0.1), TABLE_NOISE,
                             np.random.default_rng(35))
        monkeypatch.setattr(fusion_module, "_damped_steps",
                            lambda step_matrix, lam, gradient_half: np.full(gradient_half.shape,
                                                                             np.nan))
        est = solve(obs, TABLE_NOISE, mode="ml")
        assert est.iterations == 100 and not est.converged
        starts = _start_table(_columns(_table(obs)), FOV_HALF_ANGLE)[0][0]
        assert est.state.as_vector()[:2].tolist() in starts.tolist()

    def test_grid_underflow_cut_matches_unmasked_exp(self, monkeypatch):
        underflowing = 0
        for obs, est in grid_frames():
            model = bayes_model(obs, est)
            center, sigmas = est.state.as_vector(), laplace_sigmas(obs, est)
            values = model.objective(dense_grid(center, sigmas)[1])
            exponents = -0.5 * (values - values.min())
            cut = exponents <= fusion_module._EXP_UNDERFLOW
            # exp of every exponent the cut skips is exactly 0.0.
            assert not np.exp(exponents[cut]).any()
            underflowing += np.count_nonzero(cut)
            got = grid_covariance(model.objective, center, sigmas)
            with monkeypatch.context() as patch:
                # Every finite value through np.exp, as before the cut.
                patch.setattr(fusion_module, "_EXP_UNDERFLOW", -np.inf)
                want = grid_covariance(model.objective, center, sigmas)
            assert got.tobytes() == want.tobytes()
        assert underflowing > 10_000

    def test_dense_grid_leaves_the_callers_values_alone(self):
        obs, est = next(grid_frames())
        model = bayes_model(obs, est)
        returned = []

        def value_fn(thetas):
            returned.append(model.objective(thetas))
            return returned[-1]

        grid_covariance(value_fn, est.state.as_vector(), laplace_sigmas(obs, est), 3.0, 5)
        _, thetas = dense_grid(est.state.as_vector(), laplace_sigmas(obs, est), points=5)
        assert returned[0].tobytes() == model.objective(thetas).tobytes()


class TestStationaryStop:
    """A frame whose accepted step lands where the gradient is below the
    tolerance stops at the start of the next pass, so that pass's step
    matrix is never built."""

    # `solve`'s iteration counts on `oneshot_frames`, ML then Bayes per
    # frame, with the LM on the position alone.
    ITERATIONS = [12, 7, 6, 6, 5, 4, 6, 6, 5, 5, 4, 6, 8, 5, 6, 5, 3, 3, 8, 4, 3, 3, 8, 5, 4, 4,
                  10, 8, 3, 3, 4, 4]

    def test_last_accepted_pass_skips_the_step_matrix(self, monkeypatch):
        calls = dict.fromkeys(("evaluate", "jacobian", "curvature"), 0)

        class Counting(_Frames):
            def evaluate(self, theta):
                calls["evaluate"] += 1
                return super().evaluate(theta)

            def jacobian(self, terms):
                calls["jacobian"] += 1
                return super().jacobian(terms)

            def curvature(self, terms):
                calls["curvature"] += 1
                return super().curvature(terms)

        monkeypatch.setattr(fusion_module, "_Frames", Counting)
        iterations, on_gradient = [], 0
        for obs, prior in oneshot_frames():
            for mode, mode_prior in (("ml", None), ("bayes", prior)):
                calls.update(evaluate=0, jacobian=0, curvature=0)
                est = solve(obs, TABLE_NOISE, mode=mode, prior=mode_prior)
                iterations.append(est.iterations)
                # Two evaluations score the starts and the start state;
                # each pass evaluates one candidate.  A frame stopped by
                # its gradient at iteration k made k - 1 passes, the
                # last of which accepted its step.
                passes = calls["evaluate"] - 2
                if est.converged and passes == est.iterations - 1:
                    on_gradient += 1
                    assert calls["curvature"] == calls["jacobian"] - 1
                else:
                    assert calls["curvature"] == calls["jacobian"]
        assert iterations == self.ITERATIONS
        assert on_gradient >= 20


def criterion_07_table():
    """Criterion 07's 500 frames (tests/test_acceptance.py) as a frame table:
    targets on C's baseline walking along it at 1 m/s, each detection's
    spatial frequency, range and radial velocity noise drawn in that order
    from seed 707."""
    nodes = config_c_nodes()
    rng = np.random.default_rng(707)
    detections = []
    for k in range(500):
        target = TargetState(0.0, 2.0 + 3.0 * (k / 499.0), 0.0, 1.0 if k % 2 == 0 else -1.0)
        frame = []
        for node in nodes:
            m = measure(node, target)
            omega = m.spatial_freq + TABLE_NOISE.sigma_omega * rng.standard_normal()
            frame.append((m.range + TABLE_NOISE.sigma_r * rng.standard_normal(),
                          min(math.pi, max(-math.pi, omega)),
                          m.radial_vel + TABLE_NOISE.sigma_v * rng.standard_normal()))
        detections.append(frame)
    return frame_table(nodes, detections)


class TestVelocityInClosedForm:
    """The LM searches the position alone, each position at its best
    velocity v*(p), which fits the radial-velocity rows (and the prior)
    exactly."""

    @staticmethod
    def random_frames():
        for name in "ABC":
            config = builtin_scenario(name, "random", seed=7)
            table, observations = detected_frames(config)
            yield config.noise, table, observations

    def test_two_node_ml_velocity_inverts_the_line_of_sight_matrix(self):
        # Two Doppler rows in two unknowns: v = U(p)^-1 V, U's rows the
        # unit vectors from the nodes at the returned position.
        checked = flagged = 0
        for noise, table, observations in self.random_frames():
            batch = solve_frames(table, noise, "ml")
            for obs, est in zip(observations, batch):
                _, residuals, jac = ml_objective(est.state, obs, noise)
                assert float(residuals[4:] @ residuals[4:]) <= 1e-12
                lines = -noise.sigma_v * jac[4:, 2:]
                want = np.linalg.solve(lines, [e.detection.radial_vel for e in obs.entries])
                scale = np.linalg.cond(lines) * max(1.0, np.abs(want).max())
                assert np.abs(est.state.as_vector()[2:] - want).max() <= 1e-13 * scale
                checked += 1
                flagged += est.unobservable
        assert checked > 1400 and flagged > 0

    def test_bayes_velocity_solves_its_normal_equations(self):
        # (U'U/sigma_v^2 + P) v = U'V/sigma_v^2 + P c, P the velocity
        # prior's precision and c the prior center's velocity (zero).
        checked = 0
        for noise, table, observations in self.random_frames():
            batch = solve_frames(table, noise, "bayes", PRIOR)
            for obs, est in zip(observations, batch):
                _, _, jac = ml_objective(est.state, obs, noise)
                lines = -noise.sigma_v * jac[4:, 2:]
                measured = np.array([e.detection.radial_vel for e in obs.entries])
                block = lines.T @ lines / noise.sigma_v**2 + np.diag(1.0 / PRIOR.sigmas[2:] ** 2)
                velocity = est.state.as_vector()[2:]
                rhs = lines.T @ measured / noise.sigma_v**2
                scale = np.abs(block).max() * np.abs(velocity).max() + np.abs(rhs).max()
                assert np.abs(block @ velocity - rhs).max() <= 1e-13 * scale
                assert not est.unobservable
                checked += 1
        assert checked > 1400

    def test_no_ml_solve_reaches_the_iteration_cap(self):
        for obs, _ in oneshot_frames():
            est = solve(obs, TABLE_NOISE, mode="ml")
            assert est.converged and est.iterations < fusion_module._MAX_ITERATIONS
        # Criterion 07's frames, batched: each frame's result is its solve's.
        batch = solve_frames(criterion_07_table(), TABLE_NOISE, "ml")
        assert batch.converged.all() and batch.iterations.max() < fusion_module._MAX_ITERATIONS

    @pytest.mark.parametrize("case", ["one node", "on the baseline"])
    def test_singular_velocity_block_gives_the_minimum_norm_velocity(self, case):
        # One node's radial velocity pins only the velocity along its line
        # of sight; two facing nodes' lines of sight coincide on their
        # baseline.  The velocity across is free, and the minimum-norm
        # solution leaves it zero.
        if case == "one node":
            obs = FusionObservation((ObservationEntry(Pose2D(0, 0, 0), Detection(5.0, 0.3, 0.4)),))
        else:
            obs = observation_of(config_c_nodes(), TargetState(0.0, 3.5, 0.0, 1.0))
        with pytest.warns(UserWarning) if obs.num_nodes == 1 else nullcontext():
            est = solve(obs, TABLE_NOISE, mode="ml")
            batch = solve_frames(frame_table([e.node_pose for e in obs.entries],
                                             [detections_of(obs)] * 3), TABLE_NOISE, "ml")
        assert np.isfinite(est.state.as_vector()).all() and est.converged
        assert est.unobservable and est.covariance is None
        assert np.isnan(batch.covariances).all() and batch.unobservable.all()
        for frame in batch:
            assert_same_estimate(frame, est)
        node = obs.entries[0].node_pose
        line = np.array([est.state.x - node.x, est.state.y - node.y])
        line /= np.hypot(*line)
        velocity = est.state.as_vector()[2:]
        assert abs(line[0] * velocity[1] - line[1] * velocity[0]) <= 1e-12 * np.abs(velocity).max()


class TestFieldOfView:
    """The candidate starts are filtered by the field of view the caller
    gives: a start more than the half-angle plus 15 deg off a detecting
    node's boresight is dropped while another start is in view."""

    @staticmethod
    def frame(node1, off_node0_deg, velocity=(0.3, -0.2)):
        """A noiseless frame of node 0 at the origin facing +y and `node1`,
        the target 5 m from node 0 and `off_node0_deg` off its boresight."""
        angle = math.radians(off_node0_deg)
        target = TargetState(5.0 * math.sin(angle), 5.0 * math.cos(angle), *velocity)
        return observation_of((Pose2D(0.0, 0.0, 0.0), node1), target), target

    def test_wide_field_of_view_keeps_a_start_80_deg_off_boresight(self):
        obs, target = self.frame(Pose2D(2.0, 1.0, math.radians(-60.0)), 80.0)
        wide = math.radians(85.0)
        # At the default 60 deg only the mirror start, 47 deg off node 0,
        # is kept; at 85 deg the two starts at the target are kept too.
        assert len(assert_same_starts(obs)) == 1
        kept = assert_same_starts(obs, wide)
        assert len(kept) == 3
        assert kept[0] == pytest.approx((target.x, target.y), abs=1e-9)
        np.testing.assert_array_equal(_start_table(_columns(_table(obs)), wide)[1],
                                      [[True, True, True]])
        table = _table(obs)
        for mode, prior in (("ml", None), ("bayes", PRIOR)):
            est = solve(obs, TABLE_NOISE, mode=mode, prior=prior, fov_half_angle=wide)
            assert_same_estimate(est, solve_frames(table, TABLE_NOISE, mode=mode, prior=prior,
                                                   fov_half_angle=wide)[0])
            narrow = solve(obs, TABLE_NOISE, mode=mode, prior=prior)
            assert narrow.state.as_vector()[:2] != pytest.approx([target.x, target.y], abs=0.5)
        # From the start at the target, ML stays there.
        est = solve(obs, TABLE_NOISE, mode="ml", fov_half_angle=wide)
        np.testing.assert_allclose(est.state.as_vector(), target.as_vector(), rtol=0, atol=1e-6)

    def test_narrow_field_of_view_drops_a_mirror_start(self):
        obs, target = self.frame(Pose2D(1.0, 1.0, math.radians(-15.0)), 20.0)
        mirror = reference_range_circle_intersections(obs)[1]
        # The mirror is 70 deg off node 0's boresight: in the default
        # widened view (75 deg), outside the 30 deg one (45 deg).
        assert abs(math.degrees(off_boresight(Pose2D(0.0, 0.0, 0.0), *mirror))) == \
            pytest.approx(70.0, abs=0.1)
        assert len(assert_same_starts(obs)) == 3
        kept = assert_same_starts(obs, math.radians(30.0))
        assert len(kept) == 2 and mirror not in kept
        table = _table(obs)
        est = solve(obs, TABLE_NOISE, mode="ml", fov_half_angle=math.radians(30.0))
        assert_same_estimate(est, solve_frames(table, TABLE_NOISE, mode="ml",
                                               fov_half_angle=math.radians(30.0))[0])
        np.testing.assert_allclose(est.state.as_vector(), target.as_vector(), rtol=0, atol=1e-6)


def nan_row_table():
    """The line config's frames that some node detected: one, two or three
    detecting nodes per frame, NaN triples in the other rows."""
    config = line_config()
    sim = simulate(config)
    return frame_table(config.nodes, sim.detections[sim.seen.any(axis=1)]), config.noise


class TestSharedStartStage:
    """The ML and Bayes solves of one frame table share its start stage
    through a one-entry memo, and every output keeps the bits of a solve
    whose memo is cold."""

    @staticmethod
    def cold(patch):
        patch.setattr(fusion_module, "_last_start_stage", None)

    @staticmethod
    def assert_same(got, want):
        assert got.mode == want.mode
        for field in ("states", "covariances", "objective_values", "iterations", "converged",
                      "conditioning", "unobservable"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        if want.prior_centers is None:
            assert got.prior_centers is None
        else:
            assert got.prior_centers.tobytes() == want.prior_centers.tobytes()

    @staticmethod
    def solves(solver, monkeypatch):
        """Each mode alone on a cold memo, then ML then Bayes and Bayes then
        ML, each second solve a memo hit."""
        modes = {"ml": None, "bayes": PRIOR}
        alone = {}
        for mode, prior in modes.items():
            TestSharedStartStage.cold(monkeypatch)
            alone[mode] = solver(mode, prior)
        for order in (("ml", "bayes"), ("bayes", "ml")):
            TestSharedStartStage.cold(monkeypatch)
            first = solver(order[0], modes[order[0]])
            memo = fusion_module._last_start_stage
            second = solver(order[1], modes[order[1]])
            assert fusion_module._last_start_stage is memo
            yield (first, alone[order[0]]), (second, alone[order[1]])

    def test_solve_frames_in_either_order_matches_cold_solves(self, monkeypatch):
        table, noise = nan_row_table()
        b_config = builtin_scenario("B", "random", seed=7)
        b_sim = simulate(b_config)
        b_table = frame_table(b_config.nodes, b_sim.detections[b_sim.seen.all(axis=1)])
        for table, noise, warns in ((table, noise, True), (b_table, b_config.noise, False)):
            with pytest.warns(UserWarning, match="single-node") if warns else nullcontext():
                for pair in self.solves(
                        lambda mode, prior: solve_frames(table, noise, mode, prior), monkeypatch):
                    for got, want in pair:
                        self.assert_same(got, want)

    def test_solve_in_either_order_matches_cold_solves(self, monkeypatch):
        # A detection is finite, so NaN rows reach only `solve_frames`.
        observations = [obs for obs, _ in oneshot_frames()]
        assert max(obs.num_nodes for obs in observations) == 3
        for obs in observations:
            for pair in self.solves(
                    lambda mode, prior: solve(obs, TABLE_NOISE, mode=mode, prior=prior),
                    monkeypatch):
                for got, want in pair:
                    assert_same_estimate(got, want)

    def test_table_changed_in_place_gets_fresh_starts(self, monkeypatch):
        table, noise = nan_row_table()
        with pytest.warns(UserWarning, match="single-node"):
            before = solve_frames(table, noise, "ml")
            table[5, 0, 3] += 0.5
            after = solve_frames(table, noise, "bayes", PRIOR)
            self.cold(monkeypatch)
            self.assert_same(after, solve_frames(table, noise, "bayes", PRIOR))
            self.cold(monkeypatch)
            changed = solve_frames(table, noise, "ml")
        assert changed.states[5].tobytes() != before.states[5].tobytes()

    def test_another_field_of_view_gets_fresh_starts(self, monkeypatch):
        # At the default field of view only the mirror start is kept; at
        # 85 deg the two starts at the target are kept too.
        obs, target = TestFieldOfView.frame(Pose2D(2.0, 1.0, math.radians(-60.0)), 80.0)
        wide = math.radians(85.0)
        narrow = solve(obs, TABLE_NOISE, mode="ml")
        got = solve(obs, TABLE_NOISE, mode="ml", fov_half_angle=wide)
        self.cold(monkeypatch)
        assert_same_estimate(got, solve(obs, TABLE_NOISE, mode="ml", fov_half_angle=wide))
        np.testing.assert_allclose(got.state.as_vector(), target.as_vector(), rtol=0, atol=1e-6)
        assert narrow.state != got.state

    def test_memo_is_read_only_and_apart_from_the_results(self, monkeypatch):
        table, noise = nan_row_table()
        with pytest.warns(UserWarning, match="single-node"):
            ml = solve_frames(table, noise, "ml")
            _, groups = fusion_module._last_start_stage
            assert len(groups) == 3
            for group in groups:
                for array in (*group.nodes, group.starts, group.keep, group.rows):
                    assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    group.starts[0, 0, 0] = 0.0
            for field in ("states", "covariances", "objective_values", "iterations",
                          "conditioning"):
                getattr(ml, field)[...] = 0
            bayes = solve_frames(table, noise, "bayes", PRIOR)
            bayes.prior_centers[...] = 0.0
            again = solve_frames(table, noise, "bayes", PRIOR)
            self.cold(monkeypatch)
            want = solve_frames(table, noise, "bayes", PRIOR)
        self.assert_same(again, want)
        assert want.states.any()
        # One frame of one node, whose transposed table is contiguous: the
        # memo still holds a copy, never a view of the caller's table.
        one = frame_table([Pose2D(0, 0, 0)], [[(5.0, 0.0, 0.0)]])
        with pytest.warns(UserWarning, match="single-node"):
            solve_frames(one, TABLE_NOISE, "ml")
        for group in fusion_module._last_start_stage[1]:
            for array in (*group.nodes, group.starts, group.keep):
                assert not np.shares_memory(array, one)

    def test_memo_hit_still_warns_at_the_caller(self):
        table = frame_table([Pose2D(0, 0, 0)], [[(5.0, 0.0, 0.0)]])
        obs = FusionObservation((ObservationEntry(Pose2D(0, 0, 0), Detection(5.0, 0.0, 0.0)),))
        for call in (lambda mode, prior: solve_frames(table, TABLE_NOISE, mode, prior),
                     lambda mode, prior: solve(obs, TABLE_NOISE, mode=mode, prior=prior)):
            for mode, prior in (("ml", None), ("bayes", PRIOR)):
                with pytest.warns(UserWarning, match="single-node") as record:
                    call(mode, prior)
                assert record[0].filename == __file__

    def test_threads_sharing_the_memo_get_their_own_results(self, monkeypatch):
        tables = []
        for name in ("A", "B"):
            config = builtin_scenario(name, "random", seed=7)
            sim = simulate(config)
            tables.append((frame_table(config.nodes, sim.detections[sim.seen.all(axis=1)][:20]),
                           config.noise))
        table, noise = nan_row_table()
        several = np.count_nonzero(~np.isnan(table[..., 3]), axis=1) >= 2
        tables.append((table[several][:30], noise))
        modes = (("ml", None), ("bayes", PRIOR))
        want = {}
        for k, (table, noise) in enumerate(tables):
            for mode, prior in modes:
                self.cold(monkeypatch)
                want[k, mode] = solve_frames(table, noise, mode, prior)
        failures = []

        def work(offset):
            try:
                for step in range(8):
                    k = (offset + step) % len(tables)
                    for mode, prior in modes:
                        got = solve_frames(*tables[k], mode, prior)
                        if (got.states.tobytes() != want[k, mode].states.tobytes()
                                or got.iterations.tobytes() != want[k, mode].iterations.tobytes()):
                            failures.append((offset, step, mode))
            except Exception as exc:  # reported by the assertion below
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_validation_errors_are_raised_on_every_call(self):
        table = TestFrameTable.table()
        solve_frames(table, TABLE_NOISE, "ml")
        memo = fusion_module._last_start_stage
        with pytest.raises(ValueError, match="requires a PriorConfig"):
            solve_frames(table, TABLE_NOISE, "bayes")
        with pytest.raises(TypeError, match="array, got list"):
            solve_frames(table.tolist(), TABLE_NOISE, "ml")
        assert fusion_module._last_start_stage is memo
        table[1, 1, 4] = 4.0
        for _ in range(2):
            with pytest.raises(ValueError, match="exceeds pi: 4.0"):
                solve_frames(table, TABLE_NOISE, "ml")
            assert fusion_module._last_start_stage is memo
        # A zero-range detection maps back onto the node: the table passes
        # the input rules and its start stage is kept, but the scoring pass
        # raises on every call.
        on_node = frame_table([Pose2D(0, 0, 0)], [[(0.0, 0.0, 1.0)]])
        for mode, prior in (("ml", None), ("bayes", PRIOR), ("ml", None)):
            with pytest.warns(UserWarning, match="single-node"), \
                    pytest.raises(ValueError, match="coincides with a node"):
                solve_frames(on_node, TABLE_NOISE, mode, prior)
