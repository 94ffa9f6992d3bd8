"""One-shot fusion of a single frame's multi-node detections.

Given detections of the same target from N calibrated nodes, the
target state theta = (x, y, vx, vy) is estimated by minimizing the
sigma-normalized sum of squared measurement residuals (ML), optionally
regularized by independent Gaussian priors on each state component
(Bayes / MAP).  Every residual is linear in the velocity, so at a fixed
position p the best velocity v*(p) is one 2x2 solve, and the objective
is a function of p alone (variable projection: Golub & Pereyra 1973,
"The differentiation of pseudo-inverses and nonlinear least squares
problems whose variables separate").  The minimization runs a
Levenberg-Marquardt iteration on the position only, from closed-form
position initializers, its step matrix the Schur complement of the
velocity block in the full Hessian J'J + S of half the objective (S the
residual curvature) where that is positive definite, else in
Gauss-Newton's J'J.
`solve_frames` runs the whole solve, starts included, on
many frames at once as arrays; `solve` is its one-frame case.  Its
input is a frame table (`frame_table`): each frame's node poses and
detections, a node that did not detect the target holding an all-NaN
detection triple, as `Simulation.detections` does.

The posterior covariance is available two ways: the Laplace
approximation (inverse Gauss-Newton Hessian at the optimum) and a
direct second-moment computation of exp(-L/2) over a regular 2D grid
of positions centered on the Bayesian estimate, the velocity
integrated in closed form at each position, where every residual is
linear in it.  L denotes the plain sum of squared normalized
residuals, so exp(-L/2) is the exact (unnormalized) posterior for the
conditional-Gaussian measurement model.
"""

from __future__ import annotations

import copy
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .geometry import (_MIN_RANGE, FOV_HALF_ANGLE, Detection, Pose2D, TargetState,
                       boresight_angles, elementwise, measurement_model)
from .scene import NoiseConfig

_GRADIENT_TOL = 1e-8
_STEP_TOL = 1e-10
_MAX_ITERATIONS = 100
_LAMBDA_INIT = 1e-3
_LAMBDA_MIN = 1e-12
_LAMBDA_MAX = 1e12
# J'J with a smaller singular-value ratio has no covariance, and a 2x2
# velocity block with a smaller one is singular.
_MIN_CONDITIONING = 1e-14
# A frame whose velocity block's singular-value ratio is below this is
# flagged `unobservable`: one direction of its velocity has a standard
# deviation more than 100 times the other's.  The default Bayes prior
# keeps a two-node frame's ratio above about 1.3e-3 at the default
# Doppler noise.
_UNOBSERVABLE_RATIO = 1e-4


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
    initializer, the velocity prior about zero.  The Bayes estimate
    moves with a rigid transform of the nodes (a rotation and a shift)
    only while sigma_x equals sigma_y and sigma_vx equals sigma_vy: an
    anisotropic prior is tied to the global axes.
    """

    sigma_x: float = 3.0
    sigma_y: float = 3.0
    sigma_vx: float = 3.5
    sigma_vy: float = 3.5

    def __post_init__(self):
        for name in ("sigma_x", "sigma_y", "sigma_vx", "sigma_vy"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"PriorConfig.{name} must be > 0")

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
    unobservable: bool
    mode: str = "ml"
    prior_center: TargetState | None = None


@dataclass(frozen=True, eq=False)
class FusionEstimates(Sequence):
    """The results of `solve_frames` as arrays with one row per frame.

    `states` (F, 4), `covariances` (F, 4, 4), NaN where J'J is too
    ill-conditioned to invert, `objective_values`, `iterations`,
    `converged`, `conditioning` and `unobservable` (F,), and
    `prior_centers` (F, 4) in Bayes mode (else None).  Indexing or
    iterating gives one FusionEstimate per frame, built on access.
    """

    states: np.ndarray
    covariances: np.ndarray
    objective_values: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    conditioning: np.ndarray
    unobservable: np.ndarray
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
            unobservable=bool(self.unobservable[k]),
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


def frame_table(poses, detections) -> np.ndarray:
    """The (F, N, 6) frame table `solve_frames` takes: row (f, i) holds
    node i's pose x, y, phi and its detection in frame f, range, spatial
    frequency and radial velocity.

    `poses` are the N node poses (Pose2D), `detections` the (F, N, 3)
    triples, all NaN where a node did not detect the target, as in
    `Simulation.detections`.
    """
    shape = np.shape(detections)
    if shape[-2:-1] != (len(poses),):
        raise ValueError(f"frame_table takes one pose per node: got {len(poses)} poses for "
                         f"(F, N, 3) detections of shape {shape}")
    table = np.empty(shape[:-1] + (6,))
    table[..., :3] = [(pose.x, pose.y, pose.phi) for pose in poses]
    table[..., 3:] = detections
    return table


def _table(obs: FusionObservation) -> np.ndarray:
    """One observation's (1, N, 6) frame table."""
    detections = [(e.detection.range, e.detection.spatial_freq, e.detection.radial_vel)
                  for e in obs.entries]
    return frame_table([e.node_pose for e in obs.entries], [detections])


def _columns(table: np.ndarray) -> _Columns:
    """The node-first columns of an (F, N, 6) frame table, with cos and sin
    of phi; a copy, never a view of `table`."""
    columns = np.array(table.T, order="C")
    return _Columns(columns, elementwise((math.cos, math.sin), columns[2]))


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
    frame, as x, y, vx, vy (4, F), from the angles off boresight
    asin(omega/pi); every |omega| <= pi must have been checked.
    """
    theta = elementwise((math.asin,), nodes.table[4] / math.pi)[0]
    los = nodes.table[2] + 0.5 * math.pi - theta
    # sin and cos (first axis) of theta and of the line of sight (second).
    trig = elementwise((math.sin, math.cos), np.array((theta, los)))
    local = nodes.table[3] * trig[:, 0]
    terms = np.empty((4,) + theta.shape)
    # (c lx - s ly + x, s lx + c ly + y, vr cos los, vr sin los) per node.
    np.add(nodes.cs * local[0] + nodes.cs[::-1] * _QUARTER_TURN * local[1], nodes.table[:2],
           out=terms[:2])
    np.multiply(nodes.table[5], trig[::-1, 1], out=terms[2:])
    return sum(terms.swapaxes(0, 1), 0.0) / len(theta)


def _check_spatial_frequencies(table: np.ndarray) -> None:
    """ValueError naming a frame table's first |spatial frequency| > pi in
    frame order."""
    omega = table[..., 4]
    beyond = np.abs(omega) > math.pi
    if np.count_nonzero(beyond):
        raise ValueError(f"|spatial frequency| exceeds pi: {float(omega[beyond][0])!r}")


def _start_state(obs: FusionObservation) -> np.ndarray:
    """One frame's closed-form start (x, y, vx, vy)."""
    table = _table(obs)
    _check_spatial_frequencies(table)
    return _start_states(_columns(table))[:, 0]


def initial_position_estimate(obs: FusionObservation) -> np.ndarray:
    """Average of the nodes' detections mapped to the global frame."""
    return _start_state(obs)[:2]


def initial_velocity_estimate(obs: FusionObservation) -> np.ndarray:
    """Average of the radial velocities redistributed along each line of sight.

    For a target at angle theta off boresight, the line of sight from
    node i points along the global angle phi_i + pi/2 - theta.
    """
    return _start_state(obs)[2:]


# numpy sums an axis of up to this many entries one by one in order, as
# the one-frame float forms of `_Frames` do, and a longer one in blocks.
_FLOAT_FORM_MAX_NODES = 7
# `measurement_model` clamps r^2 to this near a node.
_MIN_RANGE_SQUARED = _MIN_RANGE * _MIN_RANGE


class _Terms(NamedTuple):
    """What `_Frames.evaluate` computes besides the objective, node axis
    first: the unit vectors to the nodes (2, N, F), the predicted range,
    spatial frequency and radial velocity (3, N, F), their normalized
    residuals (3, N, F), each node's pi (cos phi, sin phi) and the
    velocity (2, 2, N, F), the prior rows (F, 4) or None, the states
    scored (F, 4), and where the velocity was solved for the entries xx,
    xy and yy of each frame's inverse velocity block A^-1 (`_entries`),
    else None.

    The float form of one row (`_Frames`) leaves the four node blocks
    None and holds instead, per node, the floats ux, uy, r, the predicted
    spatial frequency and radial velocity, pi cos phi, pi sin phi, vx, vy
    and the three normalized residuals (`rows`), its prior rows as four
    floats."""

    unit: np.ndarray | None
    predicted: np.ndarray | None
    blocks: np.ndarray | None
    directions: np.ndarray | None
    prior_rows: np.ndarray | list | None
    states: np.ndarray
    velocity_inverse: tuple | None
    rows: list | None = None


# The 2x2 kernels below take the entries of every frame's small matrices
# and vectors as Python floats where there is one frame and as (F,)
# arrays otherwise, and run the same operations in the same order on
# either, so a one-frame solve gives the bits of its frame in a batch
# while skipping numpy's per-call overhead on one-element arrays.

def _entries(stack: np.ndarray) -> list:
    """The entries of each row of `stack` (F, ...), in C order: floats
    where F = 1, else one (F,) array per entry."""
    if len(stack) == 1:
        return stack.ravel().tolist()
    return list(stack.reshape(len(stack), math.prod(stack.shape[1:])).T)


def _stacked(entries) -> np.ndarray:
    """`_entries`' inverse for flat rows: the entries as rows (F, K)."""
    if isinstance(entries[0], float):
        return np.array([entries])
    return np.stack(entries, axis=-1)


def _taken(entries, index) -> list:
    """The rows at the integer `index` of each (F,) array of `entries`, as
    `_entries` gives them: Python floats and bools where one is kept."""
    taken = [entry.take(index) for entry in entries]
    return [entry.item() for entry in taken] if len(index) == 1 else taken


def _count(flags) -> int:
    """How many of the flags are set; a bool is one flag."""
    return int(flags) if isinstance(flags, bool) else np.count_nonzero(flags)


def _where(condition, x, y):
    """`np.where` of the entries, or the conditional expression on floats."""
    if isinstance(condition, bool):
        return x if condition else y
    return np.where(condition, x, y)


def _sqrt(x):
    """The square root of the entries."""
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def _clip(x, low: float, high: float):
    """The entries clipped to [low, high]."""
    return min(max(x, low), high) if isinstance(x, float) else x.clip(low, high)


def _quotient(x, y, default: float):
    """x / y where y is nonzero, else `default`."""
    if isinstance(y, float):
        return x / y if y != 0.0 else default
    return np.divide(x, y, out=np.full(np.shape(y), default), where=y != 0.0)


def _symmetric_inverse(a, b, d) -> tuple:
    """The entries xx, xy and yy of the inverse of each symmetric positive
    semi-definite 2x2 matrix [[a, b], [b, d]], in closed form.  A matrix
    whose determinant is at most `_MIN_CONDITIONING` times its squared
    trace (its eigenvalue ratio, to first order) is singular: it gets the
    pseudo-inverse of its rank-one part, the matrix over its squared
    trace, and the zero matrix gets zero."""
    det = a * d - b * b
    trace = a + d
    square = trace * trace
    singular = det <= _MIN_CONDITIONING * square
    # Singular: (a, b, d)/trace^2; else the adjugate (d, -b, a)/det.
    scale = _quotient(1.0, _where(singular, square, det), 0.0)
    return (_where(singular, a, d) * scale, _where(singular, b, -b) * scale,
            _where(singular, d, a) * scale)


class _Frames:
    """The residual model of F frames with N nodes each, node axis first.

    `nodes` holds (x, y, pi cos phi, pi sin phi) per node as (4, N, F),
    `meas` the measured (range, spatial frequency, radial velocity) as
    (3, N, F), and `center` each frame's prior center as (F, 4), or
    None for ML.  `evaluate` takes one row per frame: a state (F, 4), or
    a position (F, 2) whose velocity is the best one there, v*(p), as
    the LM iterates and its candidate starts are scored (on a model whose
    frames `take` repeated once per candidate).  Its terms (`_Terms`) are
    the stacked blocks of `geometry.measurement_model`.
    A model of one frame (F = 1) also takes M rows of that frame at
    once, as `posterior_covariance_grid` evaluates its P^2 grid
    positions: the frame's columns broadcast against the rows.  Every
    term is computed per node with the state axes innermost, and the
    objective sums the three modalities, then the nodes in order.

    Residuals are (measured - predicted)/sigma, stacked as the N range
    rows, then N spatial-frequency rows, then N radial-velocity rows;
    with a prior, four prior rows (theta - center)/sigma are appended.
    Every row is linear in the velocity: the radial-velocity rows'
    velocity Jacobian is -u/sigma_v, the prior's the diagonal
    1/sigma_v,prior.  So at a position the velocity block of J'J is
    A = sum_i u_i u_i'/sigma_v^2 (+ the prior's diagonal 1/sigma^2), and
    v*(p) = A^-1 (sum_i u_i V_i/sigma_v^2 (+ the prior center's velocity
    over sigma^2)), by `_symmetric_inverse`: the minimum-norm velocity
    where A is singular, as on a frame of one node without a prior or on
    the line through two.  Objective values are +inf where a position is
    near a node (within 1e-12 m).

    On one frame (F = 1) of at most `_FLOAT_FORM_MAX_NODES` nodes,
    `evaluate` of one row, and `jacobian` and `curvature` of its terms,
    compute every entry on Python floats and build each of their arrays
    once, since numpy's per-call overhead on (N, 1) arrays outweighs the
    arithmetic there.  Each entry takes the array form's operations in
    its order (`geometry.measurement_model`'s, then the radial velocity
    once at v*), the sums over nodes included, so both forms give the
    same bits.  The model keeps that frame's columns as floats (`floats`).
    """

    def __init__(self, nodes, meas, noise, prior_sigmas=None, center=None):
        self.nodes = nodes
        self.meas = meas
        self.noise = noise
        self.prior_sigmas = prior_sigmas
        self.center = center
        # The modalities' sigmas, shaped against the (3, N, F) blocks,
        # and -sigma of range and radial velocity against (2, N, F) unit
        # vectors; and as floats.
        self.sigmas = np.array([noise.sigma_r, noise.sigma_omega, noise.sigma_v]).reshape(3, 1, 1)
        self.sigma_floats = self.sigmas.ravel().tolist()
        self.negative_sigmas = -self.sigmas[::2, None]
        self.prior_jacobian = None if prior_sigmas is None else np.diag(1.0 / prior_sigmas)
        # The velocity prior's diagonal of J'J, 1/sigma^2.
        self.velocity_precision = (None if prior_sigmas is None
                                   else (np.diagonal(self.prior_jacobian)[2:] ** 2).tolist())
        self.prior_sigma_floats = None if prior_sigmas is None else prior_sigmas.tolist()
        self.floats = self._float_columns()

    def _float_columns(self) -> tuple[list, list | None] | None:
        """One frame of at most `_FLOAT_FORM_MAX_NODES` nodes as floats: per
        node x, y, pi cos phi, pi sin phi and the measured range, spatial
        frequency and radial velocity, and the prior center (None for ML);
        None for any other model."""
        n, frames = self.meas.shape[1:]
        if frames != 1 or n > _FLOAT_FORM_MAX_NODES:
            return None
        columns = list(zip(*self.nodes[..., 0].tolist(), *self.meas[..., 0].tolist()))
        return columns, None if self.center is None else self.center[0].tolist()

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
        obs: FusionObservation,
        noise: NoiseConfig,
        prior: PriorConfig | None = None,
        center: np.ndarray | None = None,
    ) -> "_Frames":
        """The one-frame model of the observation `obs`."""
        return cls.of(_columns(_table(obs)), noise, prior, center)

    def take(self, index) -> "_Frames":
        """The model of the frames at the integer `index` along F."""
        # A shallow copy keeps the noise and prior constants built once.
        taken = copy.copy(self)
        taken.nodes, taken.meas = self.nodes.take(index, -1), self.meas.take(index, -1)
        taken.center = None if self.center is None else self.center.take(index, 0)
        taken.floats = taken._float_columns()
        return taken

    def best_velocities(self, unit) -> tuple[tuple, tuple]:
        """Each frame's best velocity v*, as its entries vx and vy, at the
        positions whose unit vectors to the nodes are `unit` (2, N, F), and
        `_symmetric_inverse`'s entries of its velocity block A, both as
        `_entries` gives them (`_best_velocity`).  Up to `_MAX_STARTS`
        frames (one frame's candidate starts) run frame by frame on
        floats, more as (F,) arrays.
        """
        frames = unit.shape[-1]
        if not 0 < frames <= _MAX_STARTS:
            return self._best_velocity(*unit, self.meas[2], None if self.prior_sigmas is None
                                       else self.center[:, 2:].T)
        measured = self.meas[2].T.tolist()
        centers = ([None] * len(measured) if self.prior_sigmas is None
                   else self.center[:, 2:].tolist())
        if len(measured) < frames:
            # A one-frame model's columns broadcast against its rows.
            measured, centers = measured * frames, centers * frames
        solved = [self._best_velocity(ux, uy, v, c) for (ux, uy), v, c in zip(
            unit.transpose(2, 0, 1).tolist(), measured, centers)]
        if frames == 1:
            return solved[0]
        (vx, vy), inverse = (np.array(part).T for part in zip(*solved))
        return (vx, vy), tuple(inverse)

    def _best_velocity(self, ux, uy, measured, center) -> tuple[tuple, tuple]:
        """One frame's best velocity on floats, or F frames' on (F,) arrays:
        the unit vectors' x and y and the radial velocities over the nodes,
        and the prior center's velocity (None for ML).  Returns (vx, vy)
        and the inverse velocity block's entries (xx, xy, yy).

        The normal equations square the velocity block's conditioning, so
        the solve is refined once on its own residuals (Bjorck, Numerical
        Methods for Least Squares Problems, 2.5.3): a near-singular A
        then keeps the radial-velocity rows' fit to rounding.
        """
        sigma = self.noise.sigma_v
        # The radial-velocity rows' -Jacobian on the velocity and their
        # measurements, normalized, node by node.
        rows = [(x / sigma, y / sigma, v / sigma) for x, y, v in zip(ux, uy, measured)]
        a = b = d = rx = ry = 0.0
        for x, y, v in rows:
            a, b, d, rx, ry = a + x * x, b + x * y, d + y * y, rx + x * v, ry + y * v
        if center is not None:
            (px, py), (cx, cy) = self.velocity_precision, center
            a, d = a + px, d + py
            rx, ry = rx + px * cx, ry + py * cy
        inverse = ixx, ixy, iyy = _symmetric_inverse(a, b, d)
        vx, vy = ixx * rx + ixy * ry, ixy * rx + iyy * ry
        # The velocity half of -J'r at (vx, vy), and the correction it gives.
        gx = gy = 0.0
        for x, y, v in rows:
            fit = v - (x * vx + y * vy)
            gx, gy = gx + x * fit, gy + y * fit
        if center is not None:
            gx, gy = gx - px * (vx - cx), gy - py * (vy - cy)
        return (vx + (ixx * gx + ixy * gy), vy + (ixy * gx + iyy * gy)), inverse

    def evaluate(self, theta) -> tuple[np.ndarray, _Terms]:
        """Objective values (F,) at the states `theta` (F, 4), or at the
        positions `theta` (F, 2) each with its best velocity v*(p), and the
        terms (`_Terms`) `jacobian`, `curvature` and the LM reuse."""
        if self.floats is not None and len(theta) == 1:
            return self._evaluate_floats(theta)
        profiled = theta.shape[-1] == 2
        if profiled:
            positions, theta = theta, np.zeros((len(theta), 4))
            theta[:, :2] = positions
        _, unit, predicted, directions, near = measurement_model(self.nodes, theta.T)
        inverse = None
        if profiled:
            # The radial velocity at v*, in `measurement_model`'s order.
            velocity, inverse = self.best_velocities(unit)
            theta[:, 2], theta[:, 3] = directions[1, 0], directions[1, 1] = velocity
            product = directions[1] * unit
            np.add(product[0], product[1], out=predicted[2])
        blocks = (self.meas - predicted) / self.sigmas
        # The modalities, then the nodes, each summed in order.
        value = (blocks * blocks).sum(0).sum(0)
        prior_rows = None
        if self.prior_sigmas is not None:
            prior_rows = (theta - self.center) / self.prior_sigmas
            value += (prior_rows * prior_rows).sum(axis=-1)
        if np.count_nonzero(near):
            value[near.any(axis=0)] = np.inf
        return value, _Terms(unit, predicted, blocks, directions, prior_rows, theta, inverse)

    def _evaluate_floats(self, theta) -> tuple[np.ndarray, _Terms]:
        """`evaluate`'s float form: one state (1, 4) or position (1, 2) on
        the model's float columns, the nodes summed one by one in order."""
        columns, center = self.floats
        x, y, *velocity = theta[0].tolist()
        sigma_r, sigma_omega, sigma_v = self.sigma_floats
        near = False
        geometry = []
        for px, py, *_ in columns:
            dx, dy = x - px, y - py
            r2 = dx * dx + dy * dy
            if r2 < _MIN_RANGE_SQUARED:
                near, r2 = True, _MIN_RANGE_SQUARED
            r = math.sqrt(r2)
            geometry.append((dx / r, dy / r, r))
        inverse = None
        if not velocity:
            ux, uy, _ = zip(*geometry)
            velocity, inverse = self._best_velocity(ux, uy, [node[6] for node in columns],
                                                    None if center is None else center[2:])
        vx, vy = velocity
        rows, value = [], 0.0
        for (ux, uy, r), (_, _, pi_c, pi_s, range_, freq, radial) in zip(geometry, columns):
            omega, vel = pi_c * ux + pi_s * uy, vx * ux + vy * uy
            rho = (range_ - r) / sigma_r
            w = (freq - omega) / sigma_omega
            d = (radial - vel) / sigma_v
            value += rho * rho + w * w + d * d
            rows.append((ux, uy, r, omega, vel, pi_c, pi_s, vx, vy, rho, w, d))
        state = [x, y, vx, vy]
        prior_rows = None
        if center is not None:
            prior_rows = [(t - c) / s for t, c, s in zip(state, center, self.prior_sigma_floats)]
            p0, p1, p2, p3 = prior_rows
            value += p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3
        if near:
            value = math.inf
        return np.array([value]), _Terms(None, None, None, None, prior_rows, np.array([state]),
                                         inverse, rows)

    def objective(self, theta) -> np.ndarray:
        """Objective values (F,) at the states (F, 4) or positions (F, 2)
        `theta`; +inf where infeasible."""
        return self.evaluate(theta)[0]

    def jacobian(self, terms) -> tuple[np.ndarray, np.ndarray]:
        """Residuals (F, M) and their Jacobian (F, M, 4) from `evaluate`'s terms
        at (F, 4) states."""
        unit, predicted, blocks, directions, prior_rows = terms[:5]
        if terms.rows is not None:
            sigma_r, sigma_omega, sigma_v = self.sigma_floats
            res = [node[k] for k in (9, 10, 11) for node in terms.rows]
            ranges, angles, dopplers = [], [], []
            for ux, uy, r, omega, vel, pi_c, pi_s, vx, vy, *_ in terms.rows:
                ranges += (ux / -sigma_r, uy / -sigma_r, 0.0, 0.0)
                r_w, r_v = r * sigma_omega, r * sigma_v
                angles += ((omega * ux - pi_c) / r_w, (omega * uy - pi_s) / r_w, 0.0, 0.0)
                dopplers += ((vel * ux - vx) / r_v, (vel * uy - vy) / r_v,
                             ux / -sigma_v, uy / -sigma_v)
            jac = ranges + angles + dopplers
            if prior_rows is not None:
                res += prior_rows
                jac += self.prior_jacobian.ravel().tolist()
            return np.array([res]), np.array(jac).reshape(1, -1, 4)
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
        turn -= directions
        turn /= (predicted[0] * self.sigmas[1:])[:, None]
        rows[:, 1:, :, :2] = turn.transpose(3, 0, 2, 1)
        return res, jac

    def curvature(self, terms) -> np.ndarray:
        """The residual curvature S = sum_i r_i Hess(r_i) (F, 4, 4) from
        `evaluate`'s terms at (F, 4) states: J'J + S is the Hessian of
        half the objective.

        Per node, with u the unit vector to the target, r its range,
        rho, w and d the normalized range, spatial-frequency and Doppler
        residuals, b = pi (cos phi, sin phi) and v the velocity:
        a = -rho/(sigma_r r), c_w = w/(sigma_omega r^2),
        c_v = d/(sigma_v r^2), m = c_w (u.b) + c_v (u.v) and
        g = c_w b + c_v v.  The position block is
        (a + m) I - (a + 3m) uu' + ug' + gu', the position-velocity block
        -d/(sigma_v r) (I - uu'), and the velocity block 0; the prior rows
        are linear.  Each block is summed over the nodes in order.
        """
        unit, predicted, blocks, directions = terms[:4]
        if terms.rows is not None:
            sigma_r, sigma_omega, sigma_v = self.sigma_floats
            # The position and cross blocks' distinct entries, each summed
            # over the nodes in order from 0.0.
            xx = xy = yy = cross_xx = cross_xy = cross_yy = 0.0
            for ux, uy, r, omega, vel, pi_c, pi_s, vx, vy, rho, w, d in terms.rows:
                minus_a, e = rho / (sigma_r * r), d / (sigma_v * r)
                c_w, c_v = w / (sigma_omega * r) / r, e / r
                m = c_w * omega + c_v * vel
                gx, gy = c_w * pi_c + c_v * vx, c_w * pi_s + c_v * vy
                k, diagonal = 3.0 * m - minus_a, m - minus_a
                uxx, uxy, uyy = ux * ux, ux * uy, uy * uy
                xx += (ux * gx + ux * gx) - k * uxx + diagonal
                xy += (ux * gy + uy * gx) - k * uxy
                yy += (uy * gy + uy * gy) - k * uyy + diagonal
                cross_xx += e * uxx - e
                cross_xy += e * uxy
                cross_yy += e * uyy - e
            return np.array([xx, xy, cross_xx, cross_xy, xy, yy, cross_xy, cross_yy,
                             cross_xx, cross_xy, 0.0, 0.0, cross_xy, cross_yy, 0.0, 0.0]
                            ).reshape(1, 4, 4)
        r = predicted[0]
        # rho/(sigma_r r) = -a, w/(sigma_omega r) and d/(sigma_v r).
        scaled = blocks / (self.sigmas * r)
        coefficients = scaled[1:] / r
        products = coefficients * predicted[1:]
        m = products[0] + products[1]
        products = coefficients[:, None] * directions
        g = products[0] + products[1]
        # (4, 4, N, F) per node, its velocity block zero; `flat` steps
        # along the diagonals of its position and cross blocks.
        node_blocks = np.zeros((4, 4) + r.shape)
        flat = node_blocks.reshape((16,) + r.shape)
        position = node_blocks[:2, :2]
        ug = unit[:, None] * g
        np.add(ug, ug.swapaxes(0, 1), out=position)
        outer = unit[:, None] * unit
        position -= (3.0 * m - scaled[0]) * outer
        flat[0:6:5] += m - scaled[0]
        # e (uu' - I), e = d/(sigma_v r), taken as e uu' - e I.
        np.multiply(scaled[2], outer, out=node_blocks[:2, 2:])
        flat[2:8:5] -= scaled[2]
        node_blocks[2:, :2] = node_blocks[:2, 2:]
        return node_blocks.sum(axis=2).transpose(2, 0, 1)


def _normal_equations(frames: _Frames, terms) -> tuple[np.ndarray, list]:
    """Per-frame Gauss-Newton Hessian J'J (F, 4, 4), and the position half
    of J'r as its entries gx and gy (`_entries`).  The velocity half of
    J'r vanishes at v*: the position half is half the gradient of the
    objective over the positions."""
    res, jac = frames.jacobian(terms)
    jac_t = jac.swapaxes(-1, -2)
    return jac_t @ jac, _entries((jac_t @ res[..., None])[:, :2, 0])


def _step_matrices(frames: _Frames, terms, hessian: np.ndarray) -> list:
    """The LM step matrix on the positions as its entries xx, yx and yy
    (`_entries`): the Schur complement M_pp - M_pv A^-1 M_vp of the velocity
    block A in M = J'J + S where that is positive definite, else in
    M = J'J.  Both share A, since S has no velocity-velocity part, so
    this is the Hessian of half the objective at v*(p), or its
    Gauss-Newton part; A^-1 is `terms`' (the pseudo-inverse where A is
    singular)."""
    gauss = _entries(hessian)
    newton = [h + s for h, s in zip(gauss, _entries(frames.curvature(terms)))]
    ixx, ixy, iyy = terms.velocity_inverse

    def reduced(m):
        # M_pv A^-1 by rows, then its products with M_vp; m is row-major.
        xx, xy = m[2] * ixx + m[3] * ixy, m[2] * ixy + m[3] * iyy
        yx, yy = m[6] * ixx + m[7] * ixy, m[6] * ixy + m[7] * iyy
        return (m[0] - (xx * m[8] + xy * m[12]), m[4] - (yx * m[8] + yy * m[12]),
                m[5] - (yx * m[9] + yy * m[13]))

    newton, gauss = reduced(newton), reduced(gauss)
    definite = _positive_definite(*newton)
    return [_where(definite, n, g) for n, g in zip(newton, gauss)]


def _stationary(gradient_half):
    """Whether each frame's objective gradient 2 J'r has infinity-norm
    below the tolerance, from the entries of J'r's position half."""
    gx, gy = gradient_half
    # |J'r| < tol/2 is |2 J'r| < tol exactly: both scalings are by 2.
    tol = _GRADIENT_TOL / 2.0
    return (abs(gx) < tol) & (abs(gy) < tol)


def _positive_definite(xx, yx, yy):
    """Whether each symmetric 2x2 matrix of entries xx, yx and yy is
    positive definite, read from its lower triangle as a Cholesky
    factorization reads it: its first pivot xx and its determinant both
    positive.  A NaN entry reads False."""
    return (xx > 0.0) & (xx * yy - yx * yx > 0.0)


def _damped_steps(step_matrix, lam, gradient_half) -> tuple:
    """The entries sx and sy of the steps that solve (A + lam I) step = -g
    per frame, by Cramer's rule, from the entries of the step matrix A as
    `_step_matrices` gives them, of the damping lam and of g, J'r's
    position half; both NaN where that system is singular (a zero
    determinant)."""
    xx, yx, yy = step_matrix
    gx, gy = gradient_half
    a, d = xx + lam, yy + lam
    det = a * d - yx * yx
    # -adj(A + lam I) g over the determinant.
    return (_quotient(yx * gy - d * gx, det, math.nan),
            _quotient(yx * gx - a * gy, det, math.nan))


def _model(obs, noise, prior=None, prior_center: TargetState | None = None) -> _Frames:
    """The one-frame model of the observation `obs`, with the prior about
    `prior_center` if given."""
    center = None if prior_center is None else prior_center.as_vector()[None]
    return _Frames.build(obs, noise, prior, center)


def _objective_terms(model: _Frames, theta: np.ndarray):
    """Objective value, residuals and Jacobian of the one-frame `model` at
    the state `theta` (4,)."""
    value, terms = model.evaluate(theta[None])
    if not np.isfinite(value[0]):
        raise ValueError("state yields (near-)zero range to a node")
    res, jac = model.jacobian(terms)
    return float(value[0]), res[0], jac[0]


def ml_objective(
    theta: TargetState, obs: FusionObservation, noise: NoiseConfig
) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted least-squares objective, residual vector, and Jacobian.

    The value is sum_i [(R_i-r_i)^2/sr^2 + (W_i-w_i)^2/sw^2 +
    (V_i-v_i)^2/sv^2]; residuals are sigma-normalized and the Jacobian
    is the analytic 3N x 4 derivative of the residual vector.
    """
    return _objective_terms(_model(obs, noise), theta.as_vector())


def bayes_objective(
    theta: TargetState,
    obs: FusionObservation,
    noise: NoiseConfig,
    prior: PriorConfig,
    prior_center: TargetState,
) -> tuple[float, np.ndarray, np.ndarray]:
    """ML objective plus four normalized prior residual rows."""
    return _objective_terms(_model(obs, noise, prior, prior_center), theta.as_vector())


def _resolve_prior_center(obs: FusionObservation) -> TargetState:
    x, y = initial_position_estimate(obs).tolist()
    return TargetState(x, y, 0.0, 0.0)


def _range_circles(nodes: _Columns) -> tuple[np.ndarray, np.ndarray]:
    """Every frame's intersections of its first two nodes' range circles:
    the two intersections' x and y as (2, 2, F), and whether each exists
    (2, F) (a tangent pair meets once; disjoint or concentric circles
    never).

    The two measured ranges pin the position to (at most) two mirror
    candidates across the inter-node chord; the coarse angle
    measurements do not always disambiguate them, so the solver seeds
    from both and keeps the better fit.
    """
    table = nodes.table
    frames = table.shape[2]
    if table.shape[1] < 2:
        return np.zeros((2, 2, frames)), np.zeros((2, frames), dtype=bool)
    first = table[:2, 0]
    r1, r2 = table[3, :2]
    chord = table[:2, 1] - first
    d = elementwise((math.hypot,), *chord)[0]
    # Frames whose circles do not meet (d = 0 among them), or whose
    # squares overflow, compute garbage here, masked out by `apart`.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r1_sq = r1 * r1
        along = (r1_sq - r2 * r2 + d * d) / (2.0 * d)
        height_sq = r1_sq - along * along
        apart = (d == 0.0) | (d > r1 + r2) | (d < np.abs(r1 - r2)) | (height_sq < 0.0)
        height = np.sqrt(height_sq)
        unit = chord / d
        base = first + along * unit
        # (-h uy, h ux): from the chord's foot to the first intersection.
        across = (height * unit)[::-1] * _QUARTER_TURN[..., 0]
        points = base + across * _SIDES
        tangent = height == 0.0
        np.copyto(points[0], base, where=tangent)
    return points, ~np.array([apart, apart | tangent])


# Candidate starts farther off boresight than the field of view's
# half-angle plus this margin cannot have produced a detection; the
# margin absorbs angle noise on edge-of-FoV targets.
_VISIBILITY_MARGIN = math.radians(15.0)
# The closed-form initializer and the two range-circle intersections.
_MAX_STARTS = 3


def _start_table(nodes: _Columns, fov_half_angle: float) -> tuple[np.ndarray, np.ndarray]:
    """Every frame's candidate LM starts.

    The candidates are the closed-form position initializer and the two
    range-circle intersections: the precise ranges admit a mirror
    solution the coarse angles may fail to rule out.  A frame keeps those
    that exist and that every detecting node could actually see (within
    `fov_half_angle` plus a 15 deg margin off its boresight, and not on
    the node itself), since the detection event excludes the others; if
    that would drop them all, it keeps every one that exists.
    Returns the candidate positions as (F, 3, 2), the initializer first
    and standing in for a missing one, and which candidates each frame
    keeps (F, 3).  Every |omega| <= pi must have been checked.
    """
    start = _start_states(nodes)[:2]
    points, meet = _range_circles(nodes)
    frames = start.shape[1]
    starts = np.empty((frames, _MAX_STARTS, 2))
    # The candidates (3, 2, F), written through a view of `starts`.
    candidates = starts.transpose(1, 2, 0)
    candidates[...] = start
    np.copyto(candidates[1:], points, where=meet[:, None])
    # Each candidate's offset to each node (3, 2, N, F), and its angle
    # off the node's boresight; a NaN angle is not out of view.
    offset = candidates[:, :, None] - nodes.table[:2]
    angle = boresight_angles(offset[:, 0], offset[:, 1], *nodes.cs)
    seen = offset.any(axis=1) & ~(np.abs(angle) > fov_half_angle + _VISIBILITY_MARGIN)
    exists = np.ones((_MAX_STARTS, frames), dtype=bool)
    exists[1:] = meet
    visible = exists & seen.all(axis=1)
    keep = np.where(visible.any(axis=0), visible, exists)
    return starts, keep.T


def solve(
    obs: FusionObservation,
    noise: NoiseConfig,
    mode: str = "bayes",
    prior: PriorConfig | None = None,
    *,
    fov_half_angle: float = FOV_HALF_ANGLE,
) -> FusionEstimate:
    """Levenberg-Marquardt minimization of the ML or Bayes objective.

    The one-frame case of `solve_frames`, which describes the starts
    and stop tests; the result is bit-identical to that frame's entry
    in any batch.
    """
    return _solve_frames(_table(obs), noise, mode, prior, fov_half_angle)[0]


def solve_frames(
    table: np.ndarray,
    noise: NoiseConfig,
    mode: str = "bayes",
    prior: PriorConfig | None = None,
    *,
    fov_half_angle: float = FOV_HALF_ANGLE,
) -> FusionEstimates:
    """Levenberg-Marquardt minimization of the ML or Bayes objective, per frame.

    `table` is a frame table (`frame_table`): an (F, N, 6) array whose
    row (f, i) holds node i's pose and detection in frame f, x, y, phi,
    range, spatial frequency, radial velocity.  A row whose detection
    triple is all NaN is a node that did not detect the target and takes
    no part in that frame; every other row must be finite, and every
    frame needs a detecting node (else ValueError).  Anything but an
    array is a TypeError; `solve` takes one FusionObservation.  The
    frames run as arrays grouped by their number of detecting nodes,
    node axis first, each keeping its detecting nodes in order; results
    come back in input order, as arrays that also index as
    FusionEstimates.

    Each frame is solved on its own: its result does not depend on the
    other frames in the batch.  The LM searches the position p alone: at
    each position the velocity is the best one, v*(p), one 2x2 solve
    (`_Frames`), so the objective is a function of p.  A frame starts
    from the best-scoring feasible candidate position among the
    closed-form position initializer and the two range-circle
    intersections, dropping those more than `fov_half_angle` (the nodes'
    field-of-view half-angle) plus a 15 deg margin off a detecting node's
    boresight.  That start stage (the groups, their columns, candidates
    and kept flags) does not depend on the mode, and the last table's is
    kept: a call on a table of the same shape and floats at the same
    `fov_half_angle`, as the second mode's solve of one table is, reads
    it instead of computing it again, with the same results.  The stage
    stays in memory until a call on another table replaces it: a copy of
    the table's bytes as its key (each call makes one), the columns, the
    candidate positions and the keep flags, about 2.9 times the table's
    own size for two-node frames.
    A step solves (A + lam I) step = -g, g the position half of J'r (its
    velocity half vanishes at v*) and the step matrix A the Schur
    complement of the velocity block in J'J + S, S = sum_i r_i Hess(r_i)
    the residual curvature (`_Frames.curvature`), wherever that is
    positive definite, and in Gauss-Newton's J'J elsewhere: the Hessian
    of half the objective over the position, or its Gauss-Newton part,
    which underestimates it where residuals are large.  The 2x2 systems
    are solved in closed form.  Where one frame is left to iterate, as in
    every `solve`, the LM loop (its objective values, damping, gradient,
    step matrix, step and stop and accept tests) and its 2x2 kernels,
    and with at most 7 nodes the objective with v*, the Jacobian and S,
    are computed on floats, bit for bit as the array code gives them;
    the scoring of the candidate starts stays on arrays.
    A frame stops when the objective gradient infinity-norm falls below
    1e-8 or a step is shorter than 1e-10 (both `converged`), when its
    damping reaches the upper limit, or after 100 iterations.  A step
    that is singular, raises the objective, or leaves the feasible
    region (zero range to a node) raises that frame's damping tenfold;
    an accepted step lowers it tenfold.  The returned states hold v*(p),
    and the covariances and conditioning are those of the 4x4 J'J there.
    A frame is `unobservable` where the singular-value ratio of its
    velocity block (the radial-velocity rows' and the velocity prior's
    J'J) is below 1e-4: the data and prior then pin one direction of the
    velocity nearly alone, as for one node without a prior, where the
    block is singular and v* is its minimum-norm solution.  A table of
    no frames gives estimates of no rows.
    """
    return _solve_frames(table, noise, mode, prior, fov_half_angle)


def _solve_frames(table, noise, mode, prior, fov_half_angle) -> FusionEstimates:
    """`solve_frames` behind both public entry points, so that the
    single-node warning points at the caller of either."""
    mode = mode.lower()
    if mode not in ("ml", "bayes"):
        raise ValueError(f"mode must be 'ml' or 'bayes', got {mode!r}")
    if mode == "bayes" and prior is None:
        raise ValueError("bayes mode requires a PriorConfig")
    groups = _start_stage(table, fov_half_angle)
    if any(group.nodes.table.shape[1] < 2 for group in groups):
        warnings.warn(
            "single-node observation: vector velocity is unobservable",
            stacklevel=3,
        )
    parts = [_solve_group(group, noise, mode, prior) for group in groups]
    if len(parts) == 1:
        return parts[0]
    # Several node counts: put each group's rows back in input order.
    order = np.argsort(np.concatenate([group.rows for group in groups]))
    fields = ("states", "covariances", "objective_values", "iterations", "converged",
              "conditioning", "unobservable") + (("prior_centers",) if mode == "bayes" else ())
    return FusionEstimates(mode=mode, **{
        name: np.concatenate([getattr(part, name) for part in parts])[order] for name in fields
    })


class _StartGroup(NamedTuple):
    """One group of `_frame_groups` with its start stage: the frames'
    input positions, their `_Columns` and `_start_table`'s starts and
    keep flags."""

    rows: range | np.ndarray
    nodes: _Columns
    starts: np.ndarray
    keep: np.ndarray


# The start stage of the last frame table solved, as its key and its
# groups: the ML and Bayes solves of one table share it.  Both are
# replaced as one tuple, so a thread always reads a matching pair, and
# the arrays are read-only, so threads may share them.
_last_start_stage: tuple | None = None


def _start_stage(table, fov_half_angle: float) -> list[_StartGroup]:
    """A frame table's groups (`_frame_groups`), each with its start stage.

    The stage does not depend on the mode, so the second solve of a table
    reads it from a one-entry memo instead of computing it again.  Its key
    is the table as floats (shape and exact bytes, so NaN rows match) and
    `fov_half_angle`; it holds only the arrays derived here, read-only,
    never the caller's table, and only tables that passed the input rules.
    """
    global _last_start_stage
    if not isinstance(table, np.ndarray):
        raise TypeError(f"frame table must be an (F, N, 6) array, got {type(table).__name__}; "
                        "build one with frame_table, or solve one FusionObservation with solve")
    table = np.asarray(table, dtype=float)
    key = (table.shape, table.tobytes(), type(fov_half_angle), fov_half_angle)
    memo = _last_start_stage
    if memo is not None and memo[0] == key:
        return memo[1]
    groups = []
    for rows, group in _frame_groups(table):
        nodes = _columns(group)
        stage = _StartGroup(rows, nodes, *_start_table(nodes, fov_half_angle))
        for array in (*nodes, stage.starts, stage.keep, rows):
            if isinstance(array, np.ndarray):
                array.setflags(write=False)
        groups.append(stage)
    _last_start_stage = key, groups
    return groups


def _frame_groups(table: np.ndarray) -> list[tuple[range | np.ndarray, np.ndarray]]:
    """A frame table's frames grouped by their number n of detecting
    nodes, each group as its frames' input positions and the (F_n, n, 6)
    table of their detecting rows, in node order; ValueError on a table
    that breaks `solve_frames`' input rules."""
    if table.ndim != 3 or table.shape[1] < 1 or table.shape[2] != 6:
        raise ValueError(f"frame array must be (F, N, 6) with N >= 1, got shape {table.shape}")
    _check_spatial_frequencies(table)
    if np.count_nonzero(np.isfinite(table)) == table.size:
        return [(range(len(table)), table)]
    # A row detects unless its triple is all NaN; a partly NaN one is not finite.
    detecting = ~np.isnan(table[..., 3:]).all(axis=-1)
    if not np.isfinite(table[detecting]).all():
        raise ValueError("frame array must be finite, but for the all-NaN detection "
                         "triples of nodes that did not detect")
    counts = np.count_nonzero(detecting, axis=1)
    if not counts.all():
        raise ValueError(f"frame {int(np.argmin(counts))} has no detecting node")
    groups = [np.flatnonzero(counts == n) for n in np.unique(counts).tolist()]
    return [(rows, table[rows][detecting[rows]].reshape(len(rows), -1, 6)) for rows in groups]


def _solve_group(group: _StartGroup, noise, mode, prior) -> FusionEstimates:
    """`solve_frames` on one group of a frame table, from its start stage.

    One LAPACK call inverts every frame's J'J, each on its own, as
    `np.linalg.inv` does; a frame whose conditioning is not above
    `_MIN_CONDITIONING` gets a NaN covariance.  A frame whose velocity
    block's singular-value ratio is below `_UNOBSERVABLE_RATIO` is
    flagged `unobservable`.
    """
    starts, keep = group.starts, group.keep
    frames_count = len(starts)
    centers = None
    if mode == "bayes":
        # The prior centres on the closed-form position start.
        centers = np.zeros((frames_count, 4))
        centers[:, :2] = starts[:, 0]
    frames = _Frames.of(group.nodes, noise, prior if mode == "bayes" else None, centers)
    # The best-scoring feasible kept start seeds each frame; ties go to
    # the first in candidate order.  The candidates are scored as frame
    # rows, each frame repeated once per candidate.
    repeated = frames.take(np.repeat(np.arange(frames_count), _MAX_STARTS))
    with np.errstate(over="ignore"):  # an overflowing objective raises below
        start_values = repeated.objective(starts.reshape(-1, 2)).reshape(starts.shape[:2])
    start_values[~keep] = np.inf
    best = start_values.argmin(axis=1)
    rows = np.arange(frames_count)
    value = start_values[rows, best]
    if not np.isfinite(value).all():
        raise ValueError("initial estimate coincides with a node position, or its objective "
                         "is not finite")
    theta, value, hessian, iterations, converged = _levenberg_marquardt(
        frames, starts[rows, best], value
    )

    singular_values = np.linalg.svd(hessian, compute_uv=False)
    smax = singular_values[:, 0]
    conditioning = np.divide(
        singular_values[:, -1], smax, out=np.zeros(frames_count), where=smax > 0.0
    )
    # A singular J'J inverts to NaN, a near-singular one may overflow.
    with np.errstate(all="ignore"):
        inverse = _umath_linalg.inv(hessian, signature="d->d")
        covariances = 0.5 * (inverse + inverse.swapaxes(-1, -2))
    covariances[conditioning <= _MIN_CONDITIONING] = np.nan
    # For a positive semi-definite 2x2 matrix, det/trace^2 = r/(1 + r)^2
    # rises with its eigenvalue ratio r.
    (a, b), (_, d) = hessian[:, 2:, 2:].transpose(1, 2, 0)
    trace = a + d
    ratio = _UNOBSERVABLE_RATIO
    unobservable = a * d - b * b < ratio / ((1.0 + ratio) * (1.0 + ratio)) * (trace * trace)
    return FusionEstimates(theta, covariances, value, iterations, converged, conditioning,
                           unobservable, mode, centers)


def _levenberg_marquardt(frames: _Frames, position: np.ndarray, value: np.ndarray):
    """Per-frame LM on the positions from `position` (F, 2), each at its
    best velocity; see `solve_frames` for the stop tests.

    The loop's per-frame working values (the objective value, the damping,
    the position, the entries of J'r's position half and of the step
    matrix, the step, its length and the stop and accept flags) are
    `_entries`: Python floats and bools where one frame iterates, (F,)
    arrays otherwise, and the same statements run on either.  Compaction
    happens only while several frames iterate: when some frame stops, its
    results are written out and each working value is compacted by one
    `take` of the kept rows (to floats where one frame is kept); where
    one frame iterates, its stop ends the loop and its result arrays are
    built then.  A candidate's J'J and
    J'r are built only when some frame accepts its step, and its step
    matrix only when some accepting frame is not stationary, since a
    stationary frame stops before it steps again; when only some frames
    accept, each working array and entry takes their rows in place with
    one `np.copyto`.  Returns the final states (F, 4), objective values,
    Hessians J'J (F, 4, 4, not the step matrices), iteration counts and
    converged flags.
    """
    count = len(position)
    # The results, written row by row as frames stop; one frame's are
    # built when it stops.
    results = None
    if count != 1:
        results = (np.empty((count, 4)), np.empty(count), np.empty((count, 4, 4)),
                   np.full(count, _MAX_ITERATIONS), np.zeros(count, dtype=bool))
        if not count:
            return results

    terms = frames.evaluate(position)[1]
    states = terms.states
    (value,), position = _entries(value), _entries(states[:, :2])
    hessian, gradient_half = _normal_equations(frames, terms)
    # A gradient is tested once, in the pass that accepts it: a frame
    # whose step was rejected keeps the gradient that did not stop it.
    # A frame found stationary stops at the start of the next pass.
    stationary = _stationary(gradient_half)
    step_matrix = (_step_matrices(frames, terms, hessian)
                   if _count(stationary) < count else None)
    lam = _LAMBDA_INIT if count == 1 else np.full(count, _LAMBDA_INIT)
    active = np.arange(count)

    def finish(stop, iteration, reached) -> bool:
        """Write out the frames `stop` marks; False once none is left."""
        nonlocal states, value, position, hessian, gradient_half, step_matrix, stationary, lam
        nonlocal active, frames, results
        if isinstance(stop, bool):
            # The one frame left stops.
            last = (states, np.array([value]), hessian, np.array([iteration]),
                    np.array([reached]))
            if results is None:
                results = last
            else:
                for result, row in zip(results, last):
                    result[active] = row
            return False
        rows = np.flatnonzero(stop)
        done = active.take(rows)
        for result, rows_done in zip(results, (states.take(rows, 0), value.take(rows),
                                               hessian.take(rows, 0), iteration,
                                               reached.take(rows))):
            result[done] = rows_done
        if len(done) == len(active):
            return False
        keep = np.flatnonzero(~stop)
        states, hessian, active = states.take(keep, 0), hessian.take(keep, 0), active.take(keep)
        value, lam, stationary, *entries = _taken(
            (value, lam, stationary, *gradient_half, *step_matrix), keep)
        gradient_half, step_matrix = entries[:2], entries[2:]
        position = _entries(states[:, :2])
        frames = frames.take(keep)
        return True

    for iteration in range(1, _MAX_ITERATIONS + 1):
        if _count(stationary) and not finish(stationary, iteration, stationary):
            break
        # (A + lam I) step = -g per frame, NaN where that is singular.
        sx, sy = _damped_steps(step_matrix, lam, gradient_half)
        length = _sqrt(sx * sx + sy * sy)
        short = length < _STEP_TOL
        # A singular frame's NaN step is neither short nor moving: it has
        # not converged, and it raises its damping but never stops on it.
        moving = length >= _STEP_TOL
        cand_position = position[0] + sx, position[1] + sy
        cand_value, cand_terms = frames.evaluate(_stacked(cand_position))
        (cand_value,) = _entries(cand_value)
        accept = (cand_value < value) & moving
        accepted = _count(accept)
        # Clipping both ways is the one-sided clip of each case: an
        # accepting frame's lam / 10 stays below the maximum and a
        # rejecting frame's lam * 10 above the minimum.
        lam = _clip(_where(accept, lam / 10.0, lam * 10.0), _LAMBDA_MIN, _LAMBDA_MAX)
        if accepted == len(active):
            position, states, value = cand_position, cand_terms.states, cand_value
            hessian, gradient_half = _normal_equations(frames, cand_terms)
            stationary = _stationary(gradient_half)
            if _count(stationary) < accepted:
                step_matrix = _step_matrices(frames, cand_terms, hessian)
            continue
        if accepted:
            cand_hessian, cand_gradient_half = _normal_equations(frames, cand_terms)
            stationary = _stationary(cand_gradient_half) & accept
            if np.count_nonzero(stationary) < accepted:
                cand_step = _step_matrices(frames, cand_terms, cand_hessian)
                for entry, cand in zip(step_matrix, cand_step):
                    np.copyto(entry, cand, where=accept)
            np.copyto(states, cand_terms.states, where=accept[:, None])
            np.copyto(hessian, cand_hessian, where=accept[:, None, None])
            for entry, cand in zip((value, *gradient_half), (cand_value, *cand_gradient_half)):
                np.copyto(entry, cand, where=accept)
            position = _entries(states[:, :2])
            # A frame that accepted its step does not stop on its damping.
            moving &= ~accept
        stop = short | (moving & (lam >= _LAMBDA_MAX))
        if _count(stop) and not finish(stop, iteration, short):
            break
    else:
        # Every frame left stops at the cap, none converged.
        capped = True if len(active) == 1 else np.ones(len(active), dtype=bool)
        finish(capped, _MAX_ITERATIONS, capped & False)
    return results


def laplace_covariance(
    obs: FusionObservation,
    noise: NoiseConfig,
    prior: PriorConfig,
    center: TargetState,
    prior_center: TargetState | None = None,
) -> np.ndarray:
    """Gaussian (Laplace) posterior covariance: inverse of J'J at `center`."""
    if prior_center is None:
        prior_center = _resolve_prior_center(obs)
    return _laplace(_model(obs, noise, prior, prior_center), center.as_vector())


def _laplace(model: _Frames, theta: np.ndarray) -> np.ndarray:
    """The inverse of the one-frame `model`'s J'J at the state `theta` (4,)."""
    jac = _objective_terms(model, theta)[2]
    cov = np.linalg.inv(jac.T @ jac)
    return 0.5 * (cov + cov.T)


def _grid_axes(center, sigmas, half_width_sigmas, points_per_dim) -> list[np.ndarray]:
    """The grid's axes: `points_per_dim` points per dimension spanning
    center +/- half_width_sigmas * sigmas."""
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
    return [c + np.linspace(-1.0, 1.0, points_per_dim) * half_width_sigmas * s
            for c, s in zip(center, sigmas)]


# Below this exponent exp(x) rounds to 0.0.
_EXP_UNDERFLOW = -746.0


def _weighted_moments(values: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weights exp(-L/2) of the objective values L (M,), normalized to
    sum to 1, and the covariance of the states (M, 4) under them.

    Non-finite values get zero weight; `values` is overwritten.
    """
    finite = np.isfinite(values)
    low = np.min(values, where=finite, initial=np.inf)
    if low == np.inf:
        raise ArithmeticError(
            "posterior density underflowed everywhere on the grid; "
            "widen the noise/prior sigmas or shrink the grid"
        )
    # The exponents -(L - low)/2, in place.
    values -= low
    values *= -0.5
    # exp is exactly 0.0 below -745.14, where it takes a slow path.
    weights = np.exp(values, out=np.zeros_like(values), where=finite & (values > _EXP_UNDERFLOW))
    weights /= weights.sum()
    centered = states - weights @ states
    cov = (centered.T * weights) @ centered
    return weights, 0.5 * (cov + cov.T)


# The grid posterior's extent: 15 points per position dimension
# spanning +/- 3 posterior sigmas (`grid_covariance`'s default grid in
# each of its four).
GRID_HALF_WIDTH_SIGMAS = 3.0
GRID_POINTS_PER_DIM = 15


def grid_covariance(
    value_fn,
    center: np.ndarray,
    sigmas: np.ndarray,
    half_width_sigmas: float = GRID_HALF_WIDTH_SIGMAS,
    points_per_dim: int = GRID_POINTS_PER_DIM,
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
    axes = _grid_axes(center, sigmas, half_width_sigmas, points_per_dim)
    thetas = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    values = np.array(value_fn(thetas), dtype=float).reshape(len(thetas))
    return _weighted_moments(values, thetas)[1]


def posterior_covariance_grid(
    obs: FusionObservation, noise: NoiseConfig, prior: PriorConfig, center: FusionEstimate
) -> np.ndarray:
    """Grid-based posterior covariance centered on the Bayesian estimate.

    The grid is fixed: 15 points per position dimension spanning +/- 3
    posterior sigmas, taken from the Laplace approximation at the
    center, with the velocity integrated in closed form.  At a fixed
    position every residual is linear in the velocity, so exp(-L/2) is
    exactly Gaussian in it: with A the velocity block of J'J, its mean
    is the best velocity v*(p) (`_Frames`) and its covariance A^-1.
    Each of the P^2 positions weighs exp(-L(p, v*)/2)/sqrt(det A), and
    the covariance is that of the rows (p, v*) under those weights plus
    their weighted sum of A^-1 in the velocity block.
    """
    prior_center = center.prior_center or _resolve_prior_center(obs)
    model = _model(obs, noise, prior, prior_center)
    theta = center.state.as_vector()
    sigmas = np.sqrt(np.maximum(np.diag(_laplace(model, theta)), 0.0))
    # Guard against a collapsed Laplace direction producing a zero-width axis.
    sigmas = np.maximum(sigmas, 1e-9 * np.max(sigmas))
    x, y, _, _ = _grid_axes(theta, sigmas, GRID_HALF_WIDTH_SIGMAS, GRID_POINTS_PER_DIM)
    positions = np.stack((np.repeat(x, len(y)), np.tile(y, len(x))), axis=-1)
    values, terms = model.evaluate(positions)
    # log det A = -log det A^-1; the prior makes A positive definite.
    xx, xy, yy = terms.velocity_inverse
    values -= np.log(xx * yy - xy * xy)
    weights, cov = _weighted_moments(values, terms.states)
    cov[2:, 2:] += [[weights @ xx, weights @ xy], [weights @ xy, weights @ yy]]
    return cov
