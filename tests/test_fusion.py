"""One-shot fusion: initializers, objectives, LM solver, posterior covariance."""

import math

import numpy as np
import pytest

from radarnet.geometry import Pose2D, TargetState, measure
from radarnet.scene import Detection, NoiseConfig, builtin_scenario
from radarnet.fusion import (
    FusionObservation,
    ObservationEntry,
    PriorConfig,
    bayes_objective,
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
            solve_frames([obs], TABLE_NOISE, mode="ml")
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


def assert_same_estimate(a, b):
    """Bit-for-bit equality of two FusionEstimates."""
    assert a.state == b.state
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.objective_value == b.objective_value
    assert a.conditioning == b.conditioning
    assert a.prior_center == b.prior_center
    if a.covariance is None or b.covariance is None:
        assert a.covariance is None and b.covariance is None
    else:
        np.testing.assert_array_equal(a.covariance, b.covariance)


class TestSolveFrames:
    def test_single_frame_solve_matches_batch_on_builtin_scenario(self):
        from radarnet.experiment import simulate_scenario

        config = builtin_scenario("A", "random", seed=7)
        _, frames = simulate_scenario(config)
        observations = [
            FusionObservation(tuple(
                ObservationEntry(node, det) for node, det in zip(config.nodes, frame.per_node)
            ))
            for frame in frames
            if all(det is not None for det in frame.per_node)
        ]
        assert len(observations) > 400
        for mode, prior in (("ml", None), ("bayes", PRIOR)):
            batch = solve_frames(observations, config.noise, mode=mode, prior=prior)
            assert len(batch) == len(observations)
            for obs, est in zip(observations, batch):
                assert_same_estimate(solve(obs, config.noise, mode=mode, prior=prior), est)

    def test_mixed_node_counts_keep_input_order(self):
        rng = np.random.default_rng(21)
        nodes3 = config_b_nodes() + (Pose2D(4.0, 3.5, math.radians(125.0)),)
        observations = []
        for k in range(12):
            target = TargetState(rng.uniform(1.0, 3.0), rng.uniform(2.5, 4.0),
                                 rng.uniform(-1, 1), rng.uniform(-1, 1))
            nodes = nodes3 if k % 3 == 1 else nodes3[:2]
            observations.append(observation_of(nodes, target, TABLE_NOISE, rng))
        batch = solve_frames(observations, TABLE_NOISE, mode="bayes", prior=PRIOR)
        for obs, est in zip(observations, batch):
            assert_same_estimate(solve(obs, TABLE_NOISE, mode="bayes", prior=PRIOR), est)

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
        with pytest.warns(UserWarning, match="single-node"):
            with pytest.raises(ValueError, match=message):
                solve_frames([good, on_node], TABLE_NOISE, mode="ml")

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
        reference = solve_frames(observations, TABLE_NOISE, mode="ml")

        # Record frame 1's first damped system, then have the linear
        # solver refuse it as singular wherever it appears.
        real_solve = np.linalg.solve
        recorded = []

        def recording(a, b):
            recorded.append(np.array(a))
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        solve(observations[1], TABLE_NOISE, mode="ml")
        singular = recorded[0][0]

        def refusing(a, b):
            if any(np.array_equal(m, singular) for m in a):
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", refusing)
        batch = solve_frames(observations, TABLE_NOISE, mode="ml")
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
