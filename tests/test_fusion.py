"""One-shot fusion: initializers, objectives, LM solver, posterior covariance."""

import math

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
    _frame_tables,
    _candidate_starts,
    _range_circle_intersections,
    _start_table,
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


class TestSeparableGrid:
    """The grid posterior evaluated on the grid's axes against the dense state matrix."""

    @staticmethod
    def model(obs, est):
        return _Frames.build([obs], TABLE_NOISE, PRIOR, est.prior_center.as_vector()[None])

    @staticmethod
    def separable(model, axes):
        return model.objective(
            [a.reshape([-1 if k == d else 1 for k in range(4)]) for d, a in enumerate(axes)]
        )

    def test_objective_matches_dense_bit_for_bit(self):
        grids = []
        for obs, est in grid_frames():
            grids.append((obs, est, est.state.as_vector(), laplace_sigmas(obs, est)))
        # A grid centred on node 0 (the origin): its central position
        # coincides with the node, so those states are infeasible.
        obs, est, _, sigmas = grids[2]
        grids.append((obs, est, np.array([0.0, 0.0, est.state.vx, est.state.vy]), sigmas))
        for obs, est, center, sigmas in grids:
            model = self.model(obs, est)
            axes, thetas = dense_grid(center, sigmas)
            values = self.separable(model, axes)
            assert values.shape == (15,) * 4
            np.testing.assert_array_equal(values.ravel(), model.objective(thetas))
        # The last grid is the node-centred one.
        infeasible = np.isinf(values)
        assert infeasible[7, 7].all() and infeasible.sum() == 15**2

    def test_covariance_matches_dense_moments(self):
        for obs, est in grid_frames():
            model = self.model(obs, est)
            _, thetas = dense_grid(est.state.as_vector(), laplace_sigmas(obs, est))
            values = model.objective(thetas)
            finite = np.isfinite(values)
            weights = np.zeros_like(values)
            weights[finite] = np.exp(-0.5 * (values[finite] - np.min(values[finite])))
            weights /= np.sum(weights)
            centered = thetas - weights @ thetas
            want = (centered * weights[:, None]).T @ centered
            want = 0.5 * (want + want.T)
            got = posterior_covariance_grid(obs, TABLE_NOISE, PRIOR, est)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_all_infeasible_grid_raises(self):
        obs, est = next(grid_frames())
        model = self.model(obs, est)
        # Every position lies within 1e-12 m of node 0.
        center, sigmas = np.zeros(4), np.array([1e-14, 1e-14, 1.0, 1.0])
        axes, _ = dense_grid(center, sigmas, points=5)
        assert np.isinf(self.separable(model, axes)).all()
        with pytest.raises(ArithmeticError, match="widen"):
            grid_covariance(model.objective, center, sigmas, 3.0, 5)


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


def reference_candidate_starts(obs):
    """The LM starts as built with array initializers and one TargetState
    per start, the off-boresight angle written out per node."""
    n = obs.num_nodes
    px = py = vx = vy = 0.0
    for entry in obs.entries:
        node, det = entry.node_pose, entry.detection
        theta = math.asin(min(1.0, max(-1.0, det.spatial_freq / math.pi)))
        lx, ly = det.range * math.sin(theta), det.range * math.cos(theta)
        c, s = math.cos(node.phi), math.sin(node.phi)
        px += c * lx - s * ly + node.x
        py += s * lx + c * ly + node.y
        los = node.phi + 0.5 * math.pi - math.asin(det.spatial_freq / math.pi)
        vx += det.radial_vel * math.cos(los)
        vy += det.radial_vel * math.sin(los)
    pos0 = np.array([px, py]) / n
    vx, vy = np.array([vx, vy]) / n
    positions = [(pos0[0], pos0[1])] + _range_circle_intersections(obs)
    limit = FOV_HALF_ANGLE + math.radians(15.0)

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
    return pos0, [(x, y, vx, vy) for x, y in (kept or positions)]


def assert_same_starts(obs):
    pos0, starts = _candidate_starts(obs)
    want_pos0, want_starts = reference_candidate_starts(obs)
    assert np.asarray(pos0, dtype=float).tobytes() == want_pos0.tobytes()
    assert np.asarray(starts, dtype=float).tobytes() == np.asarray(want_starts).tobytes()
    return starts


class TestCandidateStarts:
    """The float visibility filter picks the same starts, bit for bit."""

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_every_frame_of_builtin_random(self, name):
        from radarnet.experiment import simulate_scenario

        config = builtin_scenario(name, "random", seed=7)
        _, frames = simulate_scenario(config)
        checked = 0
        for frame in frames:
            if all(det is not None for det in frame.per_node):
                assert_same_starts(FusionObservation(tuple(
                    ObservationEntry(node, det) for node, det in zip(config.nodes, frame.per_node)
                )))
                checked += 1
        assert checked > 400

    def test_start_on_a_node_is_dropped(self):
        # A zero range on node 2 and node 1's range equal to the baseline
        # put the single range-circle intersection exactly on node 2; the
        # initializer, 60 deg off node 2's boresight, stays in view.
        nodes = config_c_nodes()
        obs = FusionObservation((
            ObservationEntry(nodes[0], Detection(7.0, math.pi * math.sin(math.pi / 3), 0.1)),
            ObservationEntry(nodes[1], Detection(0.0, 0.0, 0.0)),
        ))
        assert _range_circle_intersections(obs) == [(0.0, 7.0)]
        starts = assert_same_starts(obs)
        assert len(starts) == 1 and starts[0][:2] != (0.0, 7.0)

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
            config = builtin_scenario(name, kind, seed=seed)
            sim = simulate(config)
            detections = sim.detections[sim.seen.all(axis=1)]
            poses = np.array([(node.x, node.y, node.phi) for node in config.nodes])
            table = np.concatenate(
                (np.broadcast_to(poses, detections.shape), detections), axis=-1
            )
            observations = [
                FusionObservation(tuple(
                    ObservationEntry(node, Detection(*det)) for node, det in zip(config.nodes, dets)
                ))
                for dets in detections.tolist()
            ]
            yield table, observations


def assert_array_starts_match_reference(table, observations):
    """The array front end on a whole frame table against the reference, frame by frame."""
    px, py, starts, keep = _start_table(_columns(table))
    assert starts.shape == (len(observations), 3, 4)
    for j, obs in enumerate(observations):
        want_pos0, want_starts = reference_candidate_starts(obs)
        assert np.array([px[j], py[j]]).tobytes() == want_pos0.tobytes()
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
        assert _range_circle_intersections(cases["tangent"]) == [(1.5, 0.0)]
        assert _range_circle_intersections(cases["start_on_facing_node"]) == [(0.0, 0.0)]
        for name in ("disjoint", "nested", "concentric", "single_node"):
            assert _range_circle_intersections(cases[name]) == []
        mixed = list(cases.values())
        groups = _frame_tables(mixed)
        assert sorted(table.shape[1] for _, table in groups) == [1, 2, 3]
        for rows, table in groups:
            assert_array_starts_match_reference(table, [mixed[k] for k in rows])
        kept = {name: len(_candidate_starts(obs)[1]) for name, obs in cases.items()}
        assert kept["all_invisible"] == 3 and kept["start_on_node"] == 1
        assert kept["start_on_facing_node"] == 2


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

    def per_candidate(self):
        center = None if self.center is None else self.center[:, None]
        return type(self)(
            self.nodes[:, :, None], self.meas[:, :, None], self.noise, self.prior_sigmas, center
        )

    def evaluate(self, theta):
        prior = prior_rows = None
        if isinstance(theta, np.ndarray):
            x, y, vx, vy = theta[..., 0:1], theta[..., 1:2], theta[..., 2:3], theta[..., 3:4]
            if self.prior_sigmas is not None:
                prior_rows = (theta - self.center) / self.prior_sigmas
                prior = (prior_rows * prior_rows).sum(axis=-1)
        else:
            x, y, vx, vy = (axis[..., None] for axis in theta)
            if self.prior_sigmas is not None:
                q = [((a - c) / s) ** 2
                     for a, c, s in zip(theta, self.center[0], self.prior_sigmas)]
                prior = ((q[0] + q[1]) + q[2]) + q[3]
        px, py, pi_cos, pi_sin = self.nodes
        meas_r, meas_w, meas_v = self.meas
        noise = self.noise
        dx = x - px
        dy = y - py
        r2 = dx * dx + dy * dy
        infeasible = r2 < 1e-24
        any_infeasible = infeasible.any()
        if any_infeasible:
            r2 = np.maximum(r2, 1e-24)
        r = np.sqrt(r2)
        ux = dx / r
        uy = dy / r
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
        return value, (vx, vy, blocks, prior_rows, r, ux, uy, omega, vel)

    def jacobian(self, terms):
        vx, vy, blocks, prior_rows, r, ux, uy, omega, vel = terms
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


class TestNodeFirstKernel:
    """The node-first model against the node-last reference, bit for bit."""

    @staticmethod
    def node_last(monkeypatch, shapes):
        """Make fusion build NodeLastFrames models that record each state shape evaluated."""

        class Recording(NodeLastFrames):
            def evaluate(self, theta):
                shapes.append(theta.shape if isinstance(theta, np.ndarray) else "axes")
                return super().evaluate(theta)

        monkeypatch.setattr(fusion_module, "_Frames", Recording)

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_solve_frames_matches_node_last_reference(self, name, monkeypatch):
        config = builtin_scenario(name, "random", seed=7)
        sim = simulate(config)
        observations = [
            FusionObservation(tuple(
                ObservationEntry(node, Detection(*det)) for node, det in zip(config.nodes, dets)
            ))
            for dets in sim.detections[sim.seen.all(axis=1)].tolist()
        ]
        for mode, prior in (("ml", None), ("bayes", PRIOR)):
            got = solve_frames(observations, config.noise, mode=mode, prior=prior)
            shapes = []
            with monkeypatch.context() as patch:
                self.node_last(patch, shapes)
                want = solve_frames(observations, config.noise, mode=mode, prior=prior)
            # The reference scored the candidate starts and ran the LM.
            assert (len(observations), 3, 4) in shapes and len(shapes) > 50
            for field in ("states", "covariances", "objective_values", "iterations",
                          "converged", "conditioning"):
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
            assert shapes == [(1, 4), "axes"]  # the Laplace Jacobian, then the grid
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
        for obs, prior in oneshot_frames():
            for mode, mode_prior in (("ml", None), ("bayes", prior)):
                got = solve(obs, TABLE_NOISE, mode=mode, prior=mode_prior)
                shapes = []
                with monkeypatch.context() as patch:
                    TestNodeFirstKernel.node_last(patch, shapes)
                    want = solve(obs, TABLE_NOISE, mode=mode, prior=mode_prior)
                    if mode == "bayes":
                        want_grid = posterior_covariance_grid(obs, TABLE_NOISE, prior, want)
                assert (1, 3, 4) in shapes and (1, 4) in shapes
                assert_same_estimate(got, want)
                capped += got.iterations == 100
            got_grid = posterior_covariance_grid(obs, TABLE_NOISE, prior, got)
            assert got_grid.tobytes() == want_grid.tobytes()
            nodes_seen = max(nodes_seen, obs.num_nodes)
        # The C frames stall at the iteration cap; the last frames have three nodes.
        assert capped >= 4 and nodes_seen == 3
