"""One-shot fusion of a single frame's multi-node detections.

Given detections of the same target from N calibrated nodes, the
target state theta = (x, y, vx, vy) is estimated by minimizing the
sigma-normalized sum of squared measurement residuals (ML), optionally
regularized by independent Gaussian priors on each state component
(Bayes / MAP).  The minimization runs a damped Gauss-Newton
(Levenberg-Marquardt) iteration from closed-form position and velocity
initializers.  `solve_frames` runs the whole solve, starts included, on
many frames at once as arrays; `solve` is its one-frame case.

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
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import FOV_HALF_ANGLE, Pose2D, TargetState
from .scene import Detection, NoiseConfig, _elementwise

_GRADIENT_TOL = 1e-8
_STEP_TOL = 1e-10
_MAX_ITERATIONS = 100
_LAMBDA_INIT = 1e-3
_LAMBDA_MIN = 1e-12
_LAMBDA_MAX = 1e12
_MIN_RANGE = 1e-12
# J'J with a smaller singular-value ratio has no covariance.
_MIN_CONDITIONING = 1e-14


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


@dataclass(frozen=True, eq=False)
class FusionEstimates(Sequence):
    """The results of `solve_frames` as arrays with one row per frame.

    `states` (F, 4), `covariances` (F, 4, 4), NaN where J'J is too
    ill-conditioned to invert, `objective_values`, `iterations`,
    `converged` and `conditioning` (F,), and `prior_centers` (F, 4) in
    Bayes mode (else None).  Indexing or iterating gives one
    FusionEstimate per frame, built on access.
    """

    states: np.ndarray
    covariances: np.ndarray
    objective_values: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    conditioning: np.ndarray
    mode: str
    prior_centers: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, k: int) -> FusionEstimate:
        conditioning = float(self.conditioning[k])
        return FusionEstimate(
            state=TargetState(*self.states[k].tolist()),
            covariance=self.covariances[k] if conditioning > _MIN_CONDITIONING else None,
            objective_value=float(self.objective_values[k]),
            iterations=int(self.iterations[k]),
            converged=bool(self.converged[k]),
            conditioning=conditioning,
            mode=self.mode,
            prior_center=(None if self.prior_centers is None
                          else TargetState(*self.prior_centers[k].tolist())),
        )


class _Columns(NamedTuple):
    """A frame table's columns, node axis first.

    `table` (6, N, F) holds x, y, phi, range, spatial frequency and
    radial velocity, `cs` (2, N, F) cos and sin of phi.
    """

    table: np.ndarray
    cs: np.ndarray


def _frame_table(observations: list[FusionObservation]) -> np.ndarray:
    """The (F, N, 6) frame table of observations that all have N nodes."""
    return np.array([
        [(e.node_pose.x, e.node_pose.y, e.node_pose.phi,
          e.detection.range, e.detection.spatial_freq, e.detection.radial_vel)
         for e in obs.entries]
        for obs in observations
    ], dtype=float)


def _columns(table: np.ndarray) -> _Columns:
    """The node-first columns of an (F, N, 6) frame table, with cos and sin of phi."""
    columns = np.ascontiguousarray(table.T)
    return _Columns(columns, _maps((math.cos, math.sin), columns[2]))


def _maps(functions, angles: np.ndarray) -> np.ndarray:
    """Each `math` function of `angles`, element by element in Python,
    stacked on a new first axis.  `math` rounds as the scalar code does."""
    values = angles.ravel().tolist()
    return np.array([list(map(fn, values)) for fn in functions]).reshape(
        (len(functions),) + angles.shape
    )


def _angles(omega: np.ndarray) -> np.ndarray:
    """Angles off boresight asin(omega/pi), omega clipped to [-pi, pi]."""
    return _elementwise(math.asin, np.minimum(1.0, np.maximum(-1.0, omega / math.pi)))


# Rotates a (cos, sin) block to (-sin, cos).
_QUARTER_TURN = np.array([-1.0, 1.0])[:, None, None]
# An offset and its negative, stacked first: the two sides of a chord.
_SIDES = np.array([1.0, -1.0])[:, None, None]


# The array start code below keeps the scalar formulas' operation order
# and takes asin, sin, cos, atan2 and hypot from `math`, so every frame's
# starts are the bits the one-frame float code gives.  Sums over nodes
# run node by node from 0.0, as a float accumulator does.

def _start_states(nodes: _Columns) -> np.ndarray:
    """`initial_position_estimate` and `initial_velocity_estimate` of every
    frame, as x, y, vx, vy (4, F).

    The velocity is that of the angles asin(omega/pi), which clip
    nothing once every |omega| <= pi has been checked.
    """
    theta = _angles(nodes.table[4])
    los = nodes.table[2] + 0.5 * math.pi - theta
    # sin and cos (first axis) of theta and of the line of sight (second).
    trig = _maps((math.sin, math.cos), np.array((theta, los)))
    local = nodes.table[3] * trig[:, 0]
    terms = np.empty((4,) + theta.shape)
    # (c lx - s ly + x, s lx + c ly + y, vr cos los, vr sin los) per node.
    np.add(nodes.cs * local[0] + nodes.cs[::-1] * _QUARTER_TURN * local[1], nodes.table[:2],
           out=terms[:2])
    np.multiply(nodes.table[5], trig[::-1, 1], out=terms[2:])
    return sum(terms.swapaxes(0, 1), 0.0) / len(theta)


def _check_spatial_frequencies(nodes: _Columns) -> None:
    """ValueError naming the first |spatial frequency| > pi in frame order."""
    omega = nodes.table[4].T
    beyond = np.abs(omega) > math.pi
    if np.count_nonzero(beyond):
        raise ValueError(f"|spatial frequency| exceeds pi: {float(omega[beyond][0])!r}")


def initial_position_estimate(obs: FusionObservation) -> np.ndarray:
    """Average of the nodes' detections mapped to the global frame."""
    return _start_states(_columns(_frame_table([obs])))[:2, 0]


def initial_velocity_estimate(obs: FusionObservation) -> np.ndarray:
    """Average of the radial velocities redistributed along each line of sight.

    For a target at angle theta off boresight, the line of sight from
    node i points along the global angle phi_i + pi/2 - theta.
    """
    nodes = _columns(_frame_table([obs]))
    _check_spatial_frequencies(nodes)
    return _start_states(nodes)[2:, 0]


class _Frames:
    """The residual model of F frames with N nodes each, node axis first.

    `nodes` holds (x, y, pi cos phi, pi sin phi) per node as (4, N, F),
    `meas` the measured (range, spatial frequency, radial velocity) as
    (3, N, F), and `center` each frame's prior center as (F, 4), or
    None for ML.  `evaluate` broadcasts states against them.  A state
    array (F, 4) gives the LM iterates, (F, C, 4) C candidates per frame
    with `per_candidate`; their terms are stacked blocks, the offsets
    and unit vectors to the nodes as (2, N, ...), the predicted range,
    spatial frequency and radial velocity as one (3, N, ...) block.  A
    grid of one frame (F = 1) is passed as its four axes x, y, vx, vy,
    shaped (P, 1, 1, 1) ... (1, 1, 1, P): the terms that depend on
    position alone then take P^2 points, and only the Doppler and prior
    terms take all P^4.  Every term is computed per node with the state
    axes innermost, and the objective sums the three modalities, then
    the nodes in order.

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
        # The modalities' sigmas, shaped against the (3, N, ...) blocks,
        # and -sigma of range and radial velocity against (2, N, F) unit
        # vectors.
        self.sigmas = np.array([noise.sigma_r, noise.sigma_omega, noise.sigma_v]).reshape(
            (3,) + (1,) * (meas.ndim - 1)
        )
        self.negative_sigmas = -self.sigmas[::2, None]
        self.prior_jacobian = None if prior_sigmas is None else np.diag(1.0 / prior_sigmas)

    @classmethod
    def of(
        cls,
        columns: _Columns,
        noise: NoiseConfig,
        prior: PriorConfig | None = None,
        center: np.ndarray | None = None,
    ) -> "_Frames":
        if prior is not None and center is None:
            raise ValueError("prior given without a prior center")
        table, cs = columns
        nodes = np.concatenate((table[:2], math.pi * cs))
        return cls(nodes, table[3:], noise, None if prior is None else prior.sigmas, center)

    @classmethod
    def build(
        cls,
        observations: list[FusionObservation],
        noise: NoiseConfig,
        prior: PriorConfig | None = None,
        center: np.ndarray | None = None,
    ) -> "_Frames":
        return cls.of(_columns(_frame_table(observations)), noise, prior, center)

    def take(self, index) -> "_Frames":
        """The model of the frames selected by `index` along F."""
        center = None if self.center is None else self.center[index]
        return _Frames(
            self.nodes[..., index], self.meas[..., index], self.noise, self.prior_sigmas, center
        )

    def per_candidate(self) -> "_Frames":
        """The model broadcast against (F, C, 4) states: C candidates per frame."""
        center = None if self.center is None else self.center[:, None]
        return _Frames(
            self.nodes[..., None], self.meas[..., None], self.noise, self.prior_sigmas, center
        )

    def evaluate(self, theta):
        """Objective values at the states `theta`, and the terms `jacobian` reuses.

        `theta` is a state array (..., 4), or a grid's four axes.
        """
        if not isinstance(theta, np.ndarray):
            return self._grid_objective(theta), None
        # The state components first: (4, F) or (4, F, C).
        state = theta.T if theta.ndim == 2 else theta.transpose(2, 0, 1)
        offset = state[:2, None] - self.nodes[:2]
        squares = offset * offset
        r2 = squares[0] + squares[1]
        infeasible = r2 < _MIN_RANGE * _MIN_RANGE
        any_infeasible = np.count_nonzero(infeasible)
        if any_infeasible:
            r2 = np.maximum(r2, _MIN_RANGE * _MIN_RANGE)
        predicted = np.empty((3,) + r2.shape)
        unit = offset / np.sqrt(r2, out=predicted[0])
        product = unit * self.nodes[2:]
        np.add(product[0], product[1], out=predicted[1])
        product = state[2:, None] * unit
        np.add(product[0], product[1], out=predicted[2])
        blocks = (self.meas - predicted) / self.sigmas
        squares = blocks * blocks
        value = squares[0] + squares[1]
        value += squares[2]
        value = value.sum(0)
        prior_rows = None
        if self.prior_sigmas is not None:
            prior_rows = (theta - self.center) / self.prior_sigmas
            value += (prior_rows * prior_rows).sum(axis=-1)
        if any_infeasible:
            value[infeasible.any(axis=0)] = np.inf
        return value, (state, unit, predicted, blocks, prior_rows)

    def _grid_objective(self, axes) -> np.ndarray:
        """`objective` on a grid's four axes; the frame axis (F = 1) lines up
        with the grid's first."""
        x, y, vx, vy = axes
        px, py, pi_cos, pi_sin = self.nodes[..., None, None, None]
        meas_r, meas_w, meas_v = self.meas[..., None, None, None]
        noise = self.noise
        dx = x - px
        dy = y - py
        r2 = dx * dx + dy * dy
        infeasible = r2 < _MIN_RANGE * _MIN_RANGE
        r = np.sqrt(np.maximum(r2, _MIN_RANGE * _MIN_RANGE))
        ux = dx / r
        uy = dy / r
        range_ = (meas_r - r) / noise.sigma_r
        angle = (meas_w - (ux * pi_cos + uy * pi_sin)) / noise.sigma_omega
        doppler = (meas_v - (vx * ux + vy * uy)) / noise.sigma_v
        value = (range_ * range_ + angle * angle + doppler * doppler).sum(0)
        if self.prior_sigmas is not None:
            q = [((a - c) / s) ** 2 for a, c, s in zip(axes, self.center[0], self.prior_sigmas)]
            # Summed in the order of the state arrays' four-term sum.
            value += ((q[0] + q[1]) + q[2]) + q[3]
        if infeasible.any():
            value[np.broadcast_to(infeasible.any(axis=0), value.shape)] = np.inf
        return value

    def objective(self, theta) -> np.ndarray:
        """Objective values at the states `theta`, as for `evaluate`; +inf where infeasible."""
        return self.evaluate(theta)[0]

    def jacobian(self, terms) -> tuple[np.ndarray, np.ndarray]:
        """Residuals (F, M) and their Jacobian (F, M, 4) from `evaluate`'s terms
        at (F, 4) states."""
        state, unit, predicted, blocks, prior_rows = terms
        n, frames = predicted.shape[1:]
        m = 3 * n
        # Frame-major and C-ordered, as J'J's matmul expects.
        res = np.empty((frames, m + (0 if prior_rows is None else 4)))
        res[:, :m] = blocks.reshape(m, frames).T
        jac = np.zeros(res.shape + (4,))
        if prior_rows is not None:
            res[:, m:] = prior_rows
            jac[:, m:] = self.prior_jacobian
        # The model rows as (F, modality, node, state component).
        rows = jac[:, :m].reshape(frames, 3, n, 4)
        # Range on (x, y) and radial velocity on (vx, vy): u/(-sigma).
        scaled = unit / self.negative_sigmas
        rows[:, 0, :, :2] = scaled[0].T
        rows[:, 2, :, 2:] = scaled[1].T
        # Spatial frequency and radial velocity on (x, y):
        # (omega u - pi (cos, sin))/(r sigma_omega) and (vel u - v)/(r sigma_v).
        turn = predicted[1:, None] * unit
        turn[0] -= self.nodes[2:]
        turn[1] -= state[2:, None]
        turn /= (predicted[0] * self.sigmas[1:])[:, None]
        rows[:, 1:, :, :2] = turn.transpose(3, 0, 2, 1)
        return res, jac


def _normal_equations(res: np.ndarray, jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame Gauss-Newton Hessian J'J (F, 4, 4) and J'r (F, 4)."""
    jac_t = jac.swapaxes(-1, -2)
    return jac_t @ jac, (jac_t @ res[..., None])[..., 0]


def _objective_terms(theta, obs, noise, prior=None, prior_center=None):
    center = None if prior_center is None else prior_center.as_vector()[None]
    frames = _Frames.build([obs], noise, prior, center)
    value, terms = frames.evaluate(theta.as_vector()[None])
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


def _resolve_prior_center(obs: FusionObservation, prior: PriorConfig) -> TargetState:
    if prior.position_prior_center == "origin":
        return TargetState(0.0, 0.0, 0.0, 0.0)
    x, y = initial_position_estimate(obs).tolist()
    return TargetState(x, y, 0.0, 0.0)


def _range_circle_intersections(obs: FusionObservation) -> list[tuple[float, float]]:
    """Intersections of the first two nodes' range circles.

    The two measured ranges pin the position to (at most) two mirror
    candidates across the inter-node chord; the coarse angle
    measurements do not always disambiguate them, so the solver seeds
    from both and keeps the better fit.  The one-frame view of
    `_range_circles`.
    """
    points, meet = _range_circles(_columns(_frame_table([obs])))
    return [(x, y) for (x, y), m in zip(points[..., 0].tolist(), meet[:, 0]) if m]


def _range_circles(nodes: _Columns) -> tuple[np.ndarray, np.ndarray]:
    """`_range_circle_intersections` of every frame: the two intersections'
    x and y as (2, 2, F), and whether each exists (2, F) (a tangent pair
    meets once; disjoint or concentric circles never)."""
    table = nodes.table
    frames = table.shape[2]
    if table.shape[1] < 2:
        return np.zeros((2, 2, frames)), np.zeros((2, frames), dtype=bool)
    first = table[:2, 0]
    r1, r2 = table[3, :2]
    chord = table[:2, 1] - first
    d = _elementwise(math.hypot, *chord)
    # Frames whose circles do not meet (d = 0 among them) compute
    # garbage here, masked out by `meet`.
    with np.errstate(divide="ignore", invalid="ignore"):
        r1_sq = r1 * r1
        along = (r1_sq - r2 * r2 + d * d) / (2.0 * d)
        height_sq = r1_sq - along * along
        meet = ~((d == 0.0) | (d > r1 + r2) | (d < np.abs(r1 - r2)) | (height_sq < 0.0))
        height = np.sqrt(height_sq)
        unit = chord / d
        base = first + along * unit
        # (-h uy, h ux): from the chord's foot to the first intersection.
        across = (height * unit)[::-1] * _QUARTER_TURN[..., 0]
        points = base + across * _SIDES
        tangent = height == 0.0
        np.copyto(points[0], base, where=tangent)
    return points, np.array([meet, meet & ~tangent])


# Candidate starts farther off boresight than this cannot have produced
# a detection; the margin absorbs angle noise on edge-of-FoV targets.
_VISIBILITY_LIMIT = FOV_HALF_ANGLE + math.radians(15.0)
# The closed-form initializer and the two range-circle intersections.
_MAX_STARTS = 3


def _start_table(nodes: _Columns) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every frame's closed-form position start and candidate LM starts.

    The candidates are that initializer and the two range-circle
    intersections, each with the closed-form velocity: the precise
    ranges admit a mirror solution the coarse angles may fail to rule
    out.  A frame keeps those that exist and that every detecting node
    could actually see (within its widened field of view, and not on
    the node itself), since the detection event excludes the others;
    if that would drop them all, it keeps every one that exists.
    Returns the position starts x and y (F,), the candidates as
    (F, 3, 4), a missing one standing in as the initializer, and which
    candidates each frame keeps (F, 3).
    """
    _check_spatial_frequencies(nodes)
    start = _start_states(nodes)
    position = start[:2]
    points, meet = _range_circles(nodes)
    frames = position.shape[1]
    exists = np.ones((_MAX_STARTS, frames), dtype=bool)
    exists[1:] = meet
    candidates = np.empty((_MAX_STARTS, 2, frames))
    candidates[0] = position
    candidates[1:] = np.where(meet[:, None], points, position)
    # Each candidate's offset to each node (3, 2, N, F), and its
    # components along and across the node's boresight.
    offset = candidates[:, :, None] - nodes.table[:2]
    along = offset * nodes.cs
    across = offset * (nodes.cs[::-1] * _QUARTER_TURN)
    angle = _elementwise(
        math.atan2, along[:, 0] + along[:, 1], across[:, 0] + across[:, 1]
    )
    on_node = ~offset.any(axis=1)
    visible = exists & ~(on_node | (np.abs(angle) > _VISIBILITY_LIMIT)).any(axis=1)
    keep = np.where(visible.any(axis=0), visible, exists)
    starts = np.empty((frames, _MAX_STARTS, 4))
    starts[..., :2] = candidates.transpose(2, 0, 1)
    starts[..., 2:] = start[2:].T[:, None]
    return position[0], position[1], starts, keep.T


def _candidate_starts(obs: FusionObservation) -> tuple[tuple[float, float], list[tuple]]:
    """The closed-form position initializer and the kept candidate LM
    starts of one frame: the one-frame view of `_start_table`."""
    px, py, starts, keep = _start_table(_columns(_frame_table([obs])))
    return (px[0].item(), py[0].item()), [
        tuple(start) for start, kept in zip(starts[0].tolist(), keep[0]) if kept
    ]


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
    observations: Iterable[FusionObservation] | np.ndarray,
    noise: NoiseConfig,
    mode: str = "bayes",
    prior: PriorConfig | None = None,
) -> FusionEstimates:
    """Levenberg-Marquardt minimization of the ML or Bayes objective, per frame.

    `observations` is an iterable of FusionObservation, or the frames as
    one (F, N, 6) array whose row (f, i) holds node i's pose and
    detection in frame f: x, y, phi, range, spatial frequency, radial
    velocity.  Either way the frames run as arrays, grouped by node
    count, node axis first; results come back in input order, as
    arrays that also index as FusionEstimates.

    Each frame is solved on its own: its result does not depend on the
    other frames in the batch.  A frame starts from the best-scoring
    feasible candidate among the closed-form position/velocity
    initializer and the two range-circle intersections, FoV-filtered.
    It stops when the objective gradient infinity-norm falls below
    1e-8 or a step is shorter than 1e-10 (both `converged`), when its
    damping reaches the upper limit, or after 100 iterations.  A step
    that is singular, raises the objective, or leaves the feasible
    region (zero range to a node) raises that frame's damping tenfold;
    an accepted step lowers it tenfold.
    """
    return _solve_frames(observations, noise, mode, prior)


def _solve_frames(observations, noise, mode, prior) -> FusionEstimates:
    """`solve_frames` behind both public entry points, so that the
    single-node warning points at the caller of either."""
    mode = mode.lower()
    if mode not in ("ml", "bayes"):
        raise ValueError(f"mode must be 'ml' or 'bayes', got {mode!r}")
    if mode == "bayes" and prior is None:
        raise ValueError("bayes mode requires a PriorConfig")
    groups = _frame_tables(observations)
    if any(table.shape[1] < 2 for _, table in groups):
        warnings.warn(
            "single-node observation: vector velocity is unobservable",
            stacklevel=3,
        )
    parts = [_solve_group(table, noise, mode, prior) for _, table in groups]
    if len(parts) == 1:
        return parts[0]
    # Several node counts: put each group's rows back in input order.
    order = np.argsort(np.concatenate([rows for rows, _ in groups]))
    fields = ("states", "covariances", "objective_values", "iterations", "converged",
              "conditioning") + (("prior_centers",) if mode == "bayes" else ())
    return FusionEstimates(mode=mode, **{
        name: np.concatenate([getattr(part, name) for part in parts])[order] for name in fields
    })


def _frame_tables(observations) -> list[tuple[range | list[int], np.ndarray]]:
    """`solve_frames`' input as one (F, N, 6) frame table per node count,
    each with the input positions of its frames."""
    if isinstance(observations, np.ndarray):
        table = np.asarray(observations, dtype=float)
        if table.ndim != 3 or table.shape[1] < 1 or table.shape[2] != 6:
            raise ValueError(f"frame array must be (F, N, 6) with N >= 1, got shape {table.shape}")
        if not np.all(np.isfinite(table)):
            raise ValueError("frame array must be finite")
        return [(range(len(table)), table)]
    observations = list(observations)
    index: dict[int, list[int]] = {}
    for k, obs in enumerate(observations):
        index.setdefault(obs.num_nodes, []).append(k)
    # No frames at all solve as an empty two-node batch.
    return [
        (rows, _frame_table([observations[k] for k in rows])) for rows in index.values()
    ] or [([], np.empty((0, 2, 6)))]


def _solve_group(table: np.ndarray, noise, mode, prior) -> FusionEstimates:
    """`solve_frames` on an (F, N, 6) frame table."""
    nodes = _columns(table)
    px, py, starts, keep = _start_table(nodes)
    frames_count = len(px)
    centers = None
    if mode == "bayes":
        centers = np.zeros((frames_count, 4))
        if prior.position_prior_center == "initial_estimate":
            centers[:, 0], centers[:, 1] = px, py
    frames = _Frames.of(nodes, noise, prior if mode == "bayes" else None, centers)
    # The best-scoring feasible kept start seeds each frame; ties go to
    # the first in candidate order.
    start_values = frames.per_candidate().objective(starts)
    start_values[~keep] = np.inf
    best = start_values.argmin(axis=1)
    rows = np.arange(frames_count)
    value = start_values[rows, best]
    if not np.isfinite(value).all():
        raise ValueError("initial estimate coincides with a node position")
    theta, value, hessian, iterations, converged = _levenberg_marquardt(
        frames, starts[rows, best], value
    )

    singular_values = np.linalg.svd(hessian, compute_uv=False)
    smax = singular_values[:, 0]
    conditioning = np.divide(
        singular_values[:, -1], smax, out=np.zeros(frames_count), where=smax > 0.0
    )
    invertible = conditioning > _MIN_CONDITIONING
    covariances = np.full((frames_count, 4, 4), np.nan)
    count = np.count_nonzero(invertible)
    if count:
        # Each system inverts on its own, so all of them need no selection.
        index = slice(None) if count == frames_count else invertible
        inverse = np.linalg.inv(hessian[index])
        covariances[index] = 0.5 * (inverse + inverse.swapaxes(-1, -2))
    return FusionEstimates(theta, covariances, value, iterations, converged, conditioning,
                           mode, centers)


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

    def finish(stop, iteration, reached) -> bool:
        """Write out the frames `stop` marks; False once none is left."""
        nonlocal theta, value, hessian, gradient_half, lam, active, frames
        done = active[stop]
        out_theta[done] = theta[stop]
        out_value[done] = value[stop]
        out_hessian[done] = hessian[stop]
        iterations[done] = iteration
        converged[done] = reached[stop]
        if len(done) == len(active):
            return False
        keep = ~stop
        theta, value, hessian = theta[keep], value[keep], hessian[keep]
        gradient_half, lam, active = gradient_half[keep], lam[keep], active[keep]
        frames = frames.take(keep)
        return True

    # A gradient is tested once per accepted step: a frame whose step was
    # rejected keeps the gradient that did not stop it.
    moved = True
    for iteration in range(1, _MAX_ITERATIONS + 1):
        if moved:
            # |J'r| < tol/2 is |2 J'r| < tol exactly: both scalings are by 2.
            stationary = np.abs(gradient_half).max(axis=-1) < _GRADIENT_TOL / 2.0
            if np.count_nonzero(stationary) and not finish(stationary, iteration, stationary):
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
        accepted = np.count_nonzero(accept)
        moved = accepted > 0
        if accepted == len(accept):
            theta, value = candidate, cand_value
            hessian, gradient_half = _normal_equations(*frames.jacobian(cand_terms))
            lam = np.maximum(lam / 10.0, _LAMBDA_MIN)
            continue
        if accepted:
            cand_hessian, cand_gradient_half = _normal_equations(*frames.jacobian(cand_terms))
            theta[accept] = candidate[accept]
            value[accept] = cand_value[accept]
            hessian[accept] = cand_hessian[accept]
            gradient_half[accept] = cand_gradient_half[accept]
            lam = np.where(
                accept, np.maximum(lam / 10.0, _LAMBDA_MIN), np.minimum(lam * 10.0, _LAMBDA_MAX)
            )
            # A frame that accepted its step does not stop on its damping.
            moving &= ~accept
        else:
            lam = np.minimum(lam * 10.0, _LAMBDA_MAX)
        # Singular frames raise their damping but never stop on it.
        stop = short | (moving & (lam >= _LAMBDA_MAX))
        if np.count_nonzero(stop) and not finish(stop, iteration, short):
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


def _grid_axes(center, sigmas, half_width_sigmas, points_per_dim):
    """The grid's offsets from `center` per dimension, and its axes."""
    if points_per_dim < 5 or points_per_dim % 2 == 0:
        raise ValueError("points_per_dim must be odd and >= 5")
    if not (math.isfinite(half_width_sigmas) and half_width_sigmas > 0.0):
        raise ValueError(f"half_width_sigmas must be finite and > 0, got {half_width_sigmas!r}")
    center = np.asarray(center, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if center.shape != (4,) or not np.all(np.isfinite(center)):
        raise ValueError(f"center must be a finite length-4 vector, got {center!r}")
    if sigmas.shape != (4,) or not np.all(np.isfinite(sigmas) & (sigmas > 0.0)):
        raise ValueError(f"sigmas must be a finite length-4 vector, all > 0, got {sigmas!r}")
    offsets = [np.linspace(-1.0, 1.0, points_per_dim) * half_width_sigmas * s for s in sigmas]
    return offsets, [c + o for c, o in zip(center, offsets)]


def _grid_moments(values: np.ndarray, offsets: list[np.ndarray]) -> np.ndarray:
    """Covariance of exp(-L/2) from the objective values L on a (P, P, P, P) grid.

    Non-finite values get zero weight.  The moments are taken about the
    grid centre, `offsets` being each axis's offsets from it, from the
    marginals of the (x, y) and (vx, vy) planes and their cross moments.
    """
    finite = np.isfinite(values)
    low = np.min(values, where=finite, initial=np.inf)
    if low == np.inf:
        raise ArithmeticError(
            "posterior density underflowed everywhere on the grid; "
            "widen the noise/prior sigmas or shrink the grid"
        )
    weights = np.exp(-0.5 * (values - low), out=np.zeros_like(values), where=finite)
    p = len(offsets[0])
    # Rows are the (x, y) plane's points, columns the (vx, vy) plane's.
    joint = weights.reshape(p * p, p * p)
    joint /= joint.sum()
    pos, vel = (np.column_stack([np.repeat(a, p), np.tile(b, p)])
                for a, b in (offsets[:2], offsets[2:]))
    pos_weights, vel_weights = joint.sum(axis=1), joint.sum(axis=0)
    mean = np.concatenate([pos_weights @ pos, vel_weights @ vel])
    cross = pos.T @ joint @ vel
    second = np.block([[(pos.T * pos_weights) @ pos, cross],
                       [cross.T, (vel.T * vel_weights) @ vel]])
    cov = second - np.outer(mean, mean)
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
    mean.  `half_width_sigmas` must be finite and > 0, and `center` and
    `sigmas` finite length-4 vectors with all sigmas > 0 (else
    ValueError).
    """
    offsets, axes = _grid_axes(center, sigmas, half_width_sigmas, points_per_dim)
    thetas = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    values = np.asarray(value_fn(thetas), dtype=float).reshape((points_per_dim,) * 4)
    return _grid_moments(values, offsets)


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
    from the Laplace approximation at the center.  The objective is
    evaluated on the grid's four axes: position terms on its P^2
    positions, Doppler and prior terms on all P^4 states.
    """
    prior_center = center.prior_center or _resolve_prior_center(obs, prior)
    model = _Frames.build([obs], noise, prior, prior_center.as_vector()[None])
    laplace = laplace_covariance(obs, noise, prior, center.state, prior_center)
    sigmas = np.sqrt(np.maximum(np.diag(laplace), 0.0))
    # Guard against a collapsed Laplace direction producing a zero-width axis.
    sigmas = np.maximum(sigmas, 1e-9 * np.max(sigmas))
    offsets, axes = _grid_axes(center.state.as_vector(), sigmas, half_width_sigmas, points_per_dim)
    # Axis d varies along dimension d only.
    grid = [axis.reshape([-1 if k == d else 1 for k in range(4)]) for d, axis in enumerate(axes)]
    return _grid_moments(model.objective(grid), offsets)
