"""One-shot fusion of a single frame's multi-node detections.

Given detections of the same target from N calibrated nodes, the
target state theta = (x, y, vx, vy) is estimated by minimizing the
sigma-normalized sum of squared measurement residuals (ML), optionally
regularized by independent Gaussian priors on each state component
(Bayes / MAP).  The minimization runs a damped Gauss-Newton
(Levenberg-Marquardt) iteration from closed-form position and velocity
initializers.  `solve_frames` runs that iteration on many frames at
once, as arrays with one row per frame; `solve` is its one-frame case.

The posterior covariance is available two ways: the Laplace
approximation (inverse Gauss-Newton Hessian at the optimum) and a
direct second-moment computation of exp(-L/2) over a regular 4D grid
centered on the Bayesian estimate.  L denotes the plain sum of squared
normalized residuals, so exp(-L/2) is the exact (unnormalized)
posterior for the conditional-Gaussian measurement model.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .geometry import FOV_HALF_ANGLE, Pose2D, TargetState, angle_off_boresight
from .scene import Detection, NoiseConfig

_GRADIENT_TOL = 1e-8
_STEP_TOL = 1e-10
_MAX_ITERATIONS = 100
_LAMBDA_INIT = 1e-3
_LAMBDA_MIN = 1e-12
_LAMBDA_MAX = 1e12
_MIN_RANGE = 1e-12


@dataclass(frozen=True)
class ObservationEntry:
    node_pose: Pose2D
    detection: Detection


@dataclass(frozen=True)
class FusionObservation:
    """One frame's detections with the (post-calibration) node poses."""

    entries: tuple[ObservationEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) == 0:
            raise ValueError("observation needs at least one entry")

    @property
    def num_nodes(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class PriorConfig:
    """Independent Gaussian priors for the four state components.

    The position prior is taken about the closed-form position
    initializer by default ("initial_estimate"); "origin" centers it at
    (0, 0) instead.  The velocity prior is always about zero.
    """

    sigma_x: float = 3.0
    sigma_y: float = 3.0
    sigma_vx: float = 3.5
    sigma_vy: float = 3.5
    position_prior_center: str = "initial_estimate"

    def __post_init__(self):
        for name in ("sigma_x", "sigma_y", "sigma_vx", "sigma_vy"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"PriorConfig.{name} must be > 0")
        if self.position_prior_center not in ("initial_estimate", "origin"):
            raise ValueError(
                "position_prior_center must be 'initial_estimate' or 'origin'"
            )

    @property
    def sigmas(self) -> np.ndarray:
        return np.array([self.sigma_x, self.sigma_y, self.sigma_vx, self.sigma_vy])


@dataclass
class FusionEstimate:
    """Result of one solve: state, fit diagnostics, optional covariance."""

    state: TargetState
    covariance: np.ndarray | None
    objective_value: float
    iterations: int
    converged: bool
    conditioning: float
    mode: str = "ml"
    prior_center: TargetState | None = None


def initial_position_estimate(obs: FusionObservation) -> np.ndarray:
    """Average of the nodes' detections mapped to the global frame."""
    acc_x = acc_y = 0.0
    for entry in obs.entries:
        det = entry.detection
        theta = math.asin(min(1.0, max(-1.0, det.spatial_freq / math.pi)))
        lx = det.range * math.sin(theta)
        ly = det.range * math.cos(theta)
        c, s = math.cos(entry.node_pose.phi), math.sin(entry.node_pose.phi)
        acc_x += c * lx - s * ly + entry.node_pose.x
        acc_y += s * lx + c * ly + entry.node_pose.y
    return np.array([acc_x, acc_y]) / obs.num_nodes


def initial_velocity_estimate(obs: FusionObservation) -> np.ndarray:
    """Average of the radial velocities redistributed along each line of sight.

    For a target at angle theta off boresight, the line of sight from
    node i points along the global angle phi_i + pi/2 - theta.
    """
    acc_x = acc_y = 0.0
    for entry in obs.entries:
        det = entry.detection
        if abs(det.spatial_freq) > math.pi:
            raise ValueError(f"|spatial frequency| exceeds pi: {det.spatial_freq!r}")
        theta = math.asin(det.spatial_freq / math.pi)
        los = entry.node_pose.phi + 0.5 * math.pi - theta
        acc_x += det.radial_vel * math.cos(los)
        acc_y += det.radial_vel * math.sin(los)
    return np.array([acc_x, acc_y]) / obs.num_nodes


class _Frames:
    """The residual model of F frames with N nodes each.

    `nodes` holds (x, y, pi cos phi, pi sin phi) per node as (4, F, N),
    `meas` the measured (range, spatial frequency, radial velocity) as
    (3, F, N), and `center` each frame's prior center as (F, 4), or
    None for ML.  `evaluate` broadcasts a state array (..., 4) against
    them: F states of F frames give the LM iterates, M states of one
    frame (F = 1) give a grid.

    Residuals are (measured - predicted)/sigma, stacked as the N range
    rows, then N spatial-frequency rows, then N radial-velocity rows;
    with a prior, four prior rows (theta - center)/sigma are appended.
    Objective values are +inf where a state sits on a node.
    """

    def __init__(self, nodes, meas, noise, prior_sigmas=None, center=None):
        self.nodes = nodes
        self.meas = meas
        self.noise = noise
        self.prior_sigmas = prior_sigmas
        self.center = center

    @classmethod
    def build(
        cls,
        observations: list[FusionObservation],
        noise: NoiseConfig,
        prior: PriorConfig | None = None,
        center: np.ndarray | None = None,
    ) -> "_Frames":
        rows = np.array([
            [
                (e.node_pose.x, e.node_pose.y, math.pi * math.cos(e.node_pose.phi),
                 math.pi * math.sin(e.node_pose.phi), e.detection.range,
                 e.detection.spatial_freq, e.detection.radial_vel)
                for e in obs.entries
            ]
            for obs in observations
        ])
        table = np.ascontiguousarray(np.moveaxis(rows, -1, 0))
        if prior is not None and center is None:
            raise ValueError("prior given without a prior center")
        return cls(table[:4], table[4:], noise, None if prior is None else prior.sigmas, center)

    def take(self, index) -> "_Frames":
        """The model of the frames selected by `index` along F."""
        center = None if self.center is None else self.center[index]
        return _Frames(
            self.nodes[:, index], self.meas[:, index], self.noise, self.prior_sigmas, center
        )

    def per_candidate(self) -> "_Frames":
        """The model broadcast against (F, C, 4) states: C candidates per frame."""
        center = None if self.center is None else self.center[:, None]
        return _Frames(
            self.nodes[:, :, None], self.meas[:, :, None], self.noise, self.prior_sigmas, center
        )

    def evaluate(self, theta: np.ndarray):
        """Objective values at the states `theta` (..., 4), and the terms `jacobian` reuses."""
        px, py, pi_cos, pi_sin = self.nodes
        meas_r, meas_w, meas_v = self.meas
        noise = self.noise
        dx = theta[..., 0:1] - px
        dy = theta[..., 1:2] - py
        r2 = dx * dx + dy * dy
        infeasible = r2 < _MIN_RANGE * _MIN_RANGE
        any_infeasible = infeasible.any()
        if any_infeasible:
            r2 = np.maximum(r2, _MIN_RANGE * _MIN_RANGE)
        r = np.sqrt(r2)
        ux = dx / r
        uy = dy / r
        omega = ux * pi_cos + uy * pi_sin
        vel = theta[..., 2:3] * ux + theta[..., 3:4] * uy
        blocks = (
            (meas_r - r) / noise.sigma_r,
            (meas_w - omega) / noise.sigma_omega,
            (meas_v - vel) / noise.sigma_v,
        )
        value = (blocks[0] * blocks[0] + blocks[1] * blocks[1] + blocks[2] * blocks[2]).sum(-1)
        prior_rows = None
        if self.prior_sigmas is not None:
            prior_rows = (theta - self.center) / self.prior_sigmas
            value += (prior_rows * prior_rows).sum(axis=-1)
        if any_infeasible:
            value[infeasible.any(axis=-1)] = np.inf
        return value, (theta, blocks, prior_rows, r, ux, uy, omega, vel)

    def objective(self, theta: np.ndarray) -> np.ndarray:
        """Objective values at the states `theta` (..., 4); +inf where infeasible."""
        return self.evaluate(theta)[0]

    def jacobian(self, terms) -> tuple[np.ndarray, np.ndarray]:
        """Residuals (..., M) and their Jacobian (..., M, 4) from `evaluate`'s terms."""
        theta, blocks, prior_rows, r, ux, uy, omega, vel = terms
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
        jac[..., 2 * n:3 * n, 0] = (vel * ux - theta[..., 2:3]) / r_v
        jac[..., 2 * n:3 * n, 1] = (vel * uy - theta[..., 3:4]) / r_v
        jac[..., 2 * n:3 * n, 2] = ux / -noise.sigma_v
        jac[..., 2 * n:3 * n, 3] = uy / -noise.sigma_v
        if prior_rows is not None:
            jac[..., 3 * n:, :] = np.diag(1.0 / self.prior_sigmas)
        return res, jac


def _normal_equations(res: np.ndarray, jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame Gauss-Newton Hessian J'J (F, 4, 4) and J'r (F, 4)."""
    jac_t = jac.swapaxes(-1, -2)
    return jac_t @ jac, (jac_t @ res[..., None])[..., 0]


def _objective_terms(theta, obs, noise, prior=None, prior_center=None):
    center = None if prior_center is None else prior_center.as_vector()[None]
    frames = _Frames.build([obs], noise, prior, center)
    value, terms = frames.evaluate(theta.as_vector())
    if not np.isfinite(value[0]):
        raise ValueError("state yields (near-)zero range to a node")
    res, jac = frames.jacobian(terms)
    return float(value[0]), res[0], jac[0]


def ml_objective(
    theta: TargetState, obs: FusionObservation, noise: NoiseConfig
) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted least-squares objective, residual vector, and Jacobian.

    The value is sum_i [(R_i-r_i)^2/sr^2 + (W_i-w_i)^2/sw^2 +
    (V_i-v_i)^2/sv^2]; residuals are sigma-normalized and the Jacobian
    is the analytic 3N x 4 derivative of the residual vector.
    """
    return _objective_terms(theta, obs, noise)


def bayes_objective(
    theta: TargetState,
    obs: FusionObservation,
    noise: NoiseConfig,
    prior: PriorConfig,
    prior_center: TargetState,
) -> tuple[float, np.ndarray, np.ndarray]:
    """ML objective plus four normalized prior residual rows."""
    return _objective_terms(theta, obs, noise, prior, prior_center)


def _resolve_prior_center(
    obs: FusionObservation, prior: PriorConfig, position: np.ndarray | None = None
) -> TargetState:
    """The prior center; `position` is the closed-form initializer when already known."""
    if prior.position_prior_center == "origin":
        return TargetState(0.0, 0.0, 0.0, 0.0)
    pos = initial_position_estimate(obs) if position is None else position
    return TargetState(pos[0], pos[1], 0.0, 0.0)


def _range_circle_intersections(obs: FusionObservation) -> list[tuple[float, float]]:
    """Intersections of the first two nodes' range circles.

    The two measured ranges pin the position to (at most) two mirror
    candidates across the inter-node chord; the coarse angle
    measurements do not always disambiguate them, so the solver seeds
    from both and keeps the better fit.
    """
    if len(obs.entries) < 2:
        return []
    e1, e2 = obs.entries[0], obs.entries[1]
    x1, y1 = e1.node_pose.x, e1.node_pose.y
    r1 = e1.detection.range
    r2 = e2.detection.range
    dx = e2.node_pose.x - x1
    dy = e2.node_pose.y - y1
    d = math.hypot(dx, dy)
    if d == 0.0 or d > r1 + r2 or d < abs(r1 - r2):
        return []
    along = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    height_sq = r1 * r1 - along * along
    if height_sq < 0.0:
        return []
    height = math.sqrt(height_sq)
    ux, uy = dx / d, dy / d
    bx, by = x1 + along * ux, y1 + along * uy
    if height == 0.0:
        return [(bx, by)]
    return [(bx - height * uy, by + height * ux), (bx + height * uy, by - height * ux)]


# Candidate starts farther off boresight than this cannot have produced
# a detection; the margin absorbs angle noise on edge-of-FoV targets.
_VISIBILITY_MARGIN = math.radians(15.0)
# The closed-form initializer and the two range-circle intersections.
_MAX_STARTS = 3


def _start_is_visible(obs: FusionObservation, position) -> bool:
    """True when every detecting node could actually see this position."""
    state = TargetState(position[0], position[1], 0.0, 0.0)
    limit = FOV_HALF_ANGLE + _VISIBILITY_MARGIN
    for entry in obs.entries:
        node = entry.node_pose
        if position[0] == node.x and position[1] == node.y:
            return False
        if abs(angle_off_boresight(node, state)) > limit:
            return False
    return True


def _candidate_starts(obs: FusionObservation) -> tuple[np.ndarray, list[tuple]]:
    """The closed-form position initializer and the candidate LM starts.

    The starts are that initializer and the two range-circle
    intersections, each with the closed-form velocity: the precise
    ranges admit a mirror solution the coarse angles may fail to rule
    out.  Candidates no detecting node could actually see are dropped
    first (the detection event itself excludes them), unless that would
    drop them all.
    """
    pos0 = initial_position_estimate(obs)
    vx, vy = initial_velocity_estimate(obs)
    positions = [(pos0[0], pos0[1])] + _range_circle_intersections(obs)
    visible = [p for p in positions if _start_is_visible(obs, p)]
    return pos0, [(x, y, vx, vy) for x, y in (visible or positions)]


def solve(
    obs: FusionObservation,
    noise: NoiseConfig,
    mode: str = "bayes",
    prior: PriorConfig | None = None,
) -> FusionEstimate:
    """Levenberg-Marquardt minimization of the ML or Bayes objective.

    The one-frame case of `solve_frames`, which describes the starts
    and stop tests; the result is bit-identical to that frame's entry
    in any batch.
    """
    return _solve_frames([obs], noise, mode, prior)[0]


def solve_frames(
    observations: Iterable[FusionObservation],
    noise: NoiseConfig,
    mode: str = "bayes",
    prior: PriorConfig | None = None,
) -> list[FusionEstimate]:
    """Levenberg-Marquardt minimization of the ML or Bayes objective, per frame.

    Each frame is solved on its own: its result does not depend on the
    other frames in the batch.  A frame starts from the best-scoring
    feasible candidate among the closed-form position/velocity
    initializer and the two range-circle intersections, FoV-filtered.
    It stops when the objective gradient infinity-norm falls below
    1e-8 or a step is shorter than 1e-10 (both `converged`), when its
    damping reaches the upper limit, or after 100 iterations.  A step
    that is singular, raises the objective, or leaves the feasible
    region (zero range to a node) raises that frame's damping tenfold;
    an accepted step lowers it tenfold.  All frames iterate together
    as (F, 4) arrays, grouped by node count; results come back in input
    order.
    """
    return _solve_frames(observations, noise, mode, prior)


def _solve_frames(observations, noise, mode, prior) -> list[FusionEstimate]:
    """`solve_frames` behind both public entry points, so that the
    single-node warning points at the caller of either."""
    mode = mode.lower()
    if mode not in ("ml", "bayes"):
        raise ValueError(f"mode must be 'ml' or 'bayes', got {mode!r}")
    if mode == "bayes" and prior is None:
        raise ValueError("bayes mode requires a PriorConfig")
    observations = list(observations)
    if any(obs.num_nodes < 2 for obs in observations):
        warnings.warn(
            "single-node observation: vector velocity is unobservable",
            stacklevel=3,
        )
    groups: dict[int, list[int]] = {}
    for k, obs in enumerate(observations):
        groups.setdefault(obs.num_nodes, []).append(k)
    results: list[FusionEstimate | None] = [None] * len(observations)
    for index in groups.values():
        group = [observations[k] for k in index]
        for k, est in zip(index, _solve_group(group, noise, mode, prior)):
            results[k] = est
    return results


def _solve_group(observations, noise, mode, prior) -> list[FusionEstimate]:
    """`solve_frames` on frames that all have the same node count."""
    count = len(observations)
    # Each frame's candidate starts, padded with its first; the
    # best-scoring feasible one seeds the frame.
    starts = np.empty((count, _MAX_STARTS, 4))
    padding = np.zeros((count, _MAX_STARTS), dtype=bool)
    centers = [] if mode == "bayes" else None
    for k, obs in enumerate(observations):
        pos0, cands = _candidate_starts(obs)
        starts[k] = cands + cands[:1] * (_MAX_STARTS - len(cands))
        padding[k, len(cands):] = True
        if centers is not None:
            centers.append(_resolve_prior_center(obs, prior, pos0))
    frames = _Frames.build(
        observations,
        noise,
        prior if mode == "bayes" else None,
        None if centers is None else np.array([(c.x, c.y, c.vx, c.vy) for c in centers]),
    )
    start_values = frames.per_candidate().objective(starts)
    start_values[padding] = np.inf
    best = np.argmin(start_values, axis=1)
    rows = np.arange(count)
    value = start_values[rows, best]
    if not np.all(np.isfinite(value)):
        raise ValueError("initial estimate coincides with a node position")
    theta, value, hessian, iterations, converged = _levenberg_marquardt(
        frames, starts[rows, best], value
    )

    singular_values = np.linalg.svd(hessian, compute_uv=False)
    smax = singular_values[:, 0]
    conditioning = np.divide(
        singular_values[:, -1], smax, out=np.zeros(count), where=smax > 0.0
    )
    invertible = conditioning > 1e-14
    covariances: list[np.ndarray | None] = [None] * count
    if invertible.any():
        inverse = np.linalg.inv(hessian[invertible])
        inverse = 0.5 * (inverse + inverse.swapaxes(-1, -2))
        for k, cov in zip(np.flatnonzero(invertible), inverse):
            covariances[k] = cov
    return [
        FusionEstimate(
            state=TargetState.from_vector(theta[k]),
            covariance=covariances[k],
            objective_value=float(value[k]),
            iterations=int(iterations[k]),
            converged=bool(converged[k]),
            conditioning=float(conditioning[k]),
            mode=mode,
            prior_center=None if centers is None else centers[k],
        )
        for k in range(count)
    ]


_IDENTITY = np.eye(4)


def _damped_steps(hessian, gradient_half, lam):
    """LM steps solving (J'J + lam I) step = -J'r per frame, and which were singular."""
    damped = hessian + lam[:, None, None] * _IDENTITY
    rhs = -gradient_half[..., None]
    try:
        return np.linalg.solve(damped, rhs)[..., 0], None
    except np.linalg.LinAlgError:
        pass
    # Solve frame by frame to find the singular systems; the others get
    # the step the stacked solve would have computed.
    steps = np.zeros_like(gradient_half)
    singular = np.zeros(len(lam), dtype=bool)
    for k in range(len(lam)):
        try:
            steps[k] = np.linalg.solve(damped[k:k + 1], rhs[k:k + 1])[0, :, 0]
        except np.linalg.LinAlgError:
            singular[k] = True
    return steps, singular


def _levenberg_marquardt(frames: _Frames, theta: np.ndarray, value: np.ndarray):
    """Per-frame LM from `theta`; see `solve_frames` for the stop tests.

    The working arrays hold the frames still iterating.  They are
    compacted only when some frame stops, and that frame's results are
    written out then.  A candidate's Jacobian is built only when some
    frame accepts its step.  Returns the final states, objective values,
    Hessians J'J, iteration counts and converged flags.
    """
    count = len(theta)
    out_theta = np.empty_like(theta)
    out_value = np.empty_like(value)
    out_hessian = np.empty((count, 4, 4))
    iterations = np.full(count, _MAX_ITERATIONS)
    converged = np.zeros(count, dtype=bool)

    hessian, gradient_half = _normal_equations(*frames.jacobian(frames.evaluate(theta)[1]))
    lam = np.full(count, _LAMBDA_INIT)
    active = np.arange(count)

    def finish(stop, iteration, reached):
        nonlocal theta, value, hessian, gradient_half, lam, active, frames
        done = active[stop]
        out_theta[done] = theta[stop]
        out_value[done] = value[stop]
        out_hessian[done] = hessian[stop]
        iterations[done] = iteration
        converged[done] = reached[stop]
        keep = ~stop
        theta, value, hessian = theta[keep], value[keep], hessian[keep]
        gradient_half, lam, active = gradient_half[keep], lam[keep], active[keep]
        frames = frames.take(keep)

    for iteration in range(1, _MAX_ITERATIONS + 1):
        stationary = np.abs(gradient_half).max(axis=-1) * 2.0 < _GRADIENT_TOL
        if stationary.any():
            finish(stationary, iteration, stationary)
            if len(active) == 0:
                break
        step, singular = _damped_steps(hessian, gradient_half, lam)
        short = np.sqrt((step * step).sum(axis=-1)) < _STEP_TOL
        moving = ~short
        if singular is not None:
            # A singular frame's step is zero, but it has not converged.
            short &= ~singular
            moving &= ~singular
        candidate = theta + step
        cand_value, cand_terms = frames.evaluate(candidate)
        accept = (cand_value < value) & moving
        if accept.all():
            theta, value = candidate, cand_value
            hessian, gradient_half = _normal_equations(*frames.jacobian(cand_terms))
            lam = np.maximum(lam / 10.0, _LAMBDA_MIN)
            continue
        if accept.any():
            cand_hessian, cand_gradient_half = _normal_equations(*frames.jacobian(cand_terms))
            theta[accept] = candidate[accept]
            value[accept] = cand_value[accept]
            hessian[accept] = cand_hessian[accept]
            gradient_half[accept] = cand_gradient_half[accept]
        lam = np.where(
            accept, np.maximum(lam / 10.0, _LAMBDA_MIN), np.minimum(lam * 10.0, _LAMBDA_MAX)
        )
        # Singular frames raise their damping but never stop on it.
        stop = short | (moving & ~accept & (lam >= _LAMBDA_MAX))
        if stop.any():
            finish(stop, iteration, short)
            if len(active) == 0:
                break
    else:
        capped = np.ones(len(active), dtype=bool)
        finish(capped, _MAX_ITERATIONS, ~capped)
    return out_theta, out_value, out_hessian, iterations, converged


def laplace_covariance(
    obs: FusionObservation,
    noise: NoiseConfig,
    prior: PriorConfig,
    center: TargetState,
    prior_center: TargetState | None = None,
) -> np.ndarray:
    """Gaussian (Laplace) posterior covariance: inverse of J'J at `center`."""
    if prior_center is None:
        prior_center = _resolve_prior_center(obs, prior)
    _, _, jac = bayes_objective(center, obs, noise, prior, prior_center)
    cov = np.linalg.inv(jac.T @ jac)
    return 0.5 * (cov + cov.T)


def grid_covariance(
    value_fn,
    center: np.ndarray,
    sigmas: np.ndarray,
    half_width_sigmas: float = 3.0,
    points_per_dim: int = 15,
) -> np.ndarray:
    """Second-moment covariance of exp(-L/2) on a regular 4D grid.

    `value_fn` maps an (M, 4) batch of states to the M objective values
    L (sum of squared normalized residuals).  The grid spans
    center +/- half_width_sigmas * sigmas per dimension and the density
    is normalized over the grid before taking moments about the grid
    mean.
    """
    if points_per_dim < 5 or points_per_dim % 2 == 0:
        raise ValueError("points_per_dim must be odd and >= 5")
    axes = [
        center[d] + np.linspace(-1.0, 1.0, points_per_dim) * half_width_sigmas * sigmas[d]
        for d in range(4)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    thetas = np.stack([m.ravel() for m in mesh], axis=1)
    values = np.asarray(value_fn(thetas), dtype=float)
    finite = np.isfinite(values)
    if not np.any(finite):
        raise ArithmeticError(
            "posterior density underflowed everywhere on the grid; "
            "widen the noise/prior sigmas or shrink the grid"
        )
    weights = np.zeros_like(values)
    weights[finite] = np.exp(-0.5 * (values[finite] - np.min(values[finite])))
    total = float(np.sum(weights))
    if total <= 0.0:
        raise ArithmeticError(
            "posterior density underflowed everywhere on the grid; "
            "widen the noise/prior sigmas or shrink the grid"
        )
    weights /= total
    mean = weights @ thetas
    centered = thetas - mean
    cov = (centered * weights[:, None]).T @ centered
    return 0.5 * (cov + cov.T)


_GRID_BLOCK = 4096


def posterior_covariance_grid(
    obs: FusionObservation,
    noise: NoiseConfig,
    prior: PriorConfig,
    center: FusionEstimate,
    half_width_sigmas: float = 3.0,
    points_per_dim: int = 15,
) -> np.ndarray:
    """Grid-based posterior covariance centered on the Bayesian estimate.

    Grid half-widths default to 3 posterior sigmas per dimension, taken
    from the Laplace approximation at the center.
    """
    prior_center = (
        center.prior_center
        if center.prior_center is not None
        else _resolve_prior_center(obs, prior)
    )
    model = _Frames.build([obs], noise, prior, prior_center.as_vector()[None])

    def objective(thetas: np.ndarray) -> np.ndarray:
        # Blocks of states bound the memory the kernel's temporaries take.
        return np.concatenate([
            model.objective(thetas[i:i + _GRID_BLOCK])
            for i in range(0, len(thetas), _GRID_BLOCK)
        ])

    laplace = laplace_covariance(obs, noise, prior, center.state, prior_center)
    sigmas = np.sqrt(np.maximum(np.diag(laplace), 0.0))
    # Guard against a collapsed Laplace direction producing a zero-width axis.
    sigmas = np.maximum(sigmas, 1e-9 * np.max(sigmas))
    return grid_covariance(
        objective,
        center.state.as_vector(),
        sigmas,
        half_width_sigmas=half_width_sigmas,
        points_per_dim=points_per_dim,
    )
