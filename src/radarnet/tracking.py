"""Per-node extended Kalman filtering and track-level fusion.

Each node runs an EKF with a constant-velocity motion model over its
own (range, spatial frequency, radial velocity) detections, producing
a track in the node's local frame.  `run_tracker` runs each frame as
one fused step on local floats (predict, innovation covariance and its
Cholesky factor, whitened gain, gate and posterior), calling only the
measurement model on every update; `_predict` and `_update` remain the
one-step kernels of the public `ekf_predict` and `ekf_update`, and the
chain the fused step matches bit for bit.  Tracks can be rigidly
transformed into the reference frame and fused per frame with a
covariance-weighted combination, which serves as the smoothed
multi-frame benchmark for the one-shot estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .geometry import (
    Detection,
    Pose2D,
    TargetState,
    _local_cartesian,
    _measure_at,
    measure,  # noqa: F401  (trace target: radarnet.tracking.measure)
    measurement_jacobian,  # noqa: F401  (trace target)
    rotation_matrix,
)
from .scene import (DEFAULT_FRAME_DURATION, MAX_HUMAN_SPEED, NoiseConfig, Simulation, csv_lines,
                    float_cells, write_lines)


# The track's start: the first detection's position with variance
# INIT_POS_VAR per axis, zero velocity known only up to the human speed
# bound.  Updates are skipped when the predicted range falls below
# MIN_UPDATE_RANGE, where the linearization is unreliable.
INIT_POS_VAR = 1.0
INIT_VEL_VAR = MAX_HUMAN_SPEED**2
MIN_UPDATE_RANGE = 0.5


@dataclass(frozen=True)
class EkfConfig:
    """EKF tuning: white-acceleration process noise and an optional gate.

    When a gate is configured, updates whose squared Mahalanobis
    innovation distance exceeds `gate_threshold` are skipped.
    """

    process_noise_accel: float = 1.0
    gate_threshold: float | None = None

    def __post_init__(self):
        # Infinity and NaN would pass a bare comparison and then break
        # the filter deep inside.
        if not (math.isfinite(self.process_noise_accel) and self.process_noise_accel >= 0.0):
            raise ValueError("EkfConfig.process_noise_accel must be finite and >= 0")
        # NaN fails the test: a NaN gate would never reject.
        if self.gate_threshold is not None and not self.gate_threshold > 0.0:
            raise ValueError("EkfConfig.gate_threshold must be None or > 0")


class Track:
    """Time-indexed state estimates from one node (or from fusion), as arrays.

    Row t is one point: `frame_index` (T,), strictly increasing,
    `states` (T, 4) rows x, y, vx, vy, `covariances` (T, 4, 4) and
    `updated` (T,), whether a measurement updated the point.
    """

    def __init__(
        self,
        node_index: int | None = None,
        frame: str = "local",
        *,
        frame_index: np.ndarray,
        states: np.ndarray,
        covariances: np.ndarray,
        updated: np.ndarray,
    ):
        self.frame_index = np.asarray(frame_index, dtype=int).reshape(-1)
        count = len(self.frame_index)
        self.states = np.asarray(states, dtype=float).reshape(count, 4)
        self.covariances = np.asarray(covariances, dtype=float).reshape(count, 4, 4)
        self.updated = np.asarray(updated, dtype=bool).reshape(count)
        if np.any(self.frame_index[1:] <= self.frame_index[:-1]):
            raise ValueError("track frame indices must strictly increase")
        self.node_index = node_index
        self.frame = frame

    def __len__(self) -> int:
        return len(self.frame_index)

    def positions(self) -> np.ndarray:
        """Positions as complex numbers z = x + j*y."""
        positions = np.empty(len(self), dtype=complex)
        positions.real, positions.imag = self.states[:, 0], self.states[:, 1]
        return positions

    def table(self) -> np.ndarray:
        """The points as one (T, 8) array of rows x, y, vx, vy, p11, p22, p33, p44."""
        return np.column_stack([self.states, self.covariances.reshape(-1, 16)[:, ::5]])


def _process_noise_terms(dt: float, accel_std: float) -> tuple[float, float, float]:
    """The position, cross and velocity entries of `process_noise`."""
    q = accel_std * accel_std
    dt2 = dt * dt
    return q * dt2 * dt / 3.0, q * dt2 / 2.0, q * dt


def process_noise(dt: float, accel_std: float) -> np.ndarray:
    """Discretized continuous white-acceleration covariance for the CV model.

    The rank-2 per-axis form keeps the filter strictly damped even in
    the vanishing-measurement-noise limit, where the rank-1 piecewise-
    constant variant degenerates into an undamped two-point
    differentiator.
    """
    q_pos, q_cross, q_vel = _process_noise_terms(dt, accel_std)
    return np.array([
        [q_pos, 0.0, q_cross, 0.0],
        [0.0, q_pos, 0.0, q_cross],
        [q_cross, 0.0, q_vel, 0.0],
        [0.0, q_cross, 0.0, q_vel],
    ])


# The EKF step holds a covariance as the ten floats of its upper
# triangle, row by row: (p00, p01, p02, p03, p11, p12, p13, p22, p23, p33).
_UPPER = np.triu_indices(4)


def _upper(cov: np.ndarray) -> tuple:
    """The ten upper-triangle floats of a symmetric 4x4 array."""
    return tuple(cov[_UPPER].tolist())


def _full(p) -> np.ndarray:
    """The symmetric 4x4 array(s) of ten upper-triangle floats (last axis)."""
    p = np.asarray(p)
    cov = np.empty(p.shape[:-1] + (4, 4))
    cov[..., _UPPER[0], _UPPER[1]] = p
    cov[..., _UPPER[1], _UPPER[0]] = p
    return cov


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


def _cholesky_3(s00, s01, s02, s11, s12, s22) -> tuple | None:
    """The unrolled Cholesky factor (l00, l10, l20, l11, l21, l22) of a
    symmetric 3x3 matrix given by its upper triangle, or None unless it
    is positive definite."""
    if not s00 > 0.0:
        return None
    l00 = math.sqrt(s00)
    l10, l20 = s01 / l00, s02 / l00
    d1 = s11 - l10 * l10
    if not d1 > 0.0:
        return None
    l11 = math.sqrt(d1)
    l21 = (s12 - l20 * l10) / l11
    d2 = s22 - l20 * l20 - l21 * l21
    if not d2 > 0.0:
        return None
    return l00, l10, l20, l11, l21, math.sqrt(d2)


def _factor_innovation(s00, s01, s02, s11, s12, s22) -> tuple:
    """`_cholesky_3` of the innovation covariance S, or a LinAlgError.

    The factor proves S positive definite; one jitter retry absorbs the
    rounding dust extreme noise scales can leave on a weak direction.
    """
    factor = _cholesky_3(s00, s01, s02, s11, s12, s22)
    if factor is None:
        jitter = 1e-12 * (s00 + s11 + s22) / 3.0 + 1e-300
        factor = _cholesky_3(s00 + jitter, s01, s02, s11 + jitter, s12, s22 + jitter)
        if factor is None:
            raise np.linalg.LinAlgError("singular innovation covariance")
    return factor


def _is_positive_definite_4(p: tuple) -> bool:
    """Whether the unrolled scalar Cholesky of p - 1e-12*trace(p)*I succeeds.

    `p` is the ten upper-triangle floats of a symmetric 4x4 matrix.  The
    factor of its leading 3x3 block is `_cholesky_3`'s; the fourth row
    comes from forward substitution, and its pivot decides.
    """
    a00, a01, a02, a03, a11, a12, a13, a22, a23, a33 = p
    shift = 1e-12 * (a00 + a11 + a22 + a33)
    factor = _cholesky_3(a00 - shift, a01, a02, a11 - shift, a12, a22 - shift)
    if factor is None:
        return False
    l00, l10, l20, l11, l21, l22 = factor
    l30 = a03 / l00
    l31 = (a13 - l30 * l10) / l11
    l32 = (a23 - l30 * l20 - l31 * l21) / l22
    return a33 - shift - l30 * l30 - l31 * l31 - l32 * l32 > 0.0


def _psd(p: tuple) -> tuple:
    """The ten upper-triangle floats `p` of a symmetric 4x4 matrix, with
    the tiny negative eigenvalues rounding can leave behind clipped.

    Clipping lands on a small positive floor (relative to the largest
    eigenvalue) rather than exactly zero, so downstream information-
    form operations keep an invertible matrix.  A scalar Cholesky of
    p - 1e-12*trace(p)*I that succeeds proves every eigenvalue above
    1e-12*trace, hence above the floor, so only the matrices it rejects
    are built as an array for `eigh`.
    """
    if _is_positive_definite_4(p):
        return p
    eigenvalues, vectors = np.linalg.eigh(_full(p))
    floor = 1e-12 * max(eigenvalues[-1], 0.0)
    if eigenvalues[0] > floor:
        return p
    return _upper(_symmetrize((vectors * np.maximum(eigenvalues, floor)) @ vectors.T))


def _lambda_min_q(q: tuple) -> float:
    """det/trace of Q's per-axis block [[q_pos, q_cross], [q_cross, q_vel]],
    a lower bound on lambda_min(Q); 0.0 when Q is singular.

    The block's smaller eigenvalue is at least det/trace, since the
    larger is at most the trace.
    """
    q_pos, q_cross, q_vel = q
    det = q_pos * q_vel - q_cross * q_cross
    if not det > 0.0:
        return 0.0
    return det / (q_pos + q_vel)


def _predict_trace_bound(dt: float, q: tuple) -> float:
    """The trace below which F P F' + Q passes the PSD test for every
    positive definite P; 0.0 when Q is singular.

    `q` is (q_pos, q_cross, q_vel) from `_process_noise_terms`.  F P F'
    is positive semidefinite, so P+ = F P F' + Q has every eigenvalue at
    or above lambda_min(Q), which Q's two per-axis blocks bound from
    below by `_lambda_min_q`.  While
    1e-12*trace(P+) stays below a tenth of that, P+ - 1e-12*trace(P+)*I
    keeps nine tenths of lambda_min(Q), and `_is_positive_definite_4`
    succeeds unless rounding moves the matrix by that much.  Rounding of
    P+'s entries is a few ulps of p00 + dt^2 p22 (and alike), at most
    (2 + 3 dt^2) trace(P+); the Cholesky's backward error is a few ulps
    of the trace.  Dividing the bound by 1 + dt^2 keeps both at about
    1e11 * 1e-15 = 1e-4 of lambda_min(Q), far inside the margin.
    """
    return _lambda_min_q(q) / (10.0 * 1e-12) / (1.0 + dt * dt)


# The update guard's rounding constant c times the unit roundoff u = 2^-53.
_UPDATE_ROUNDING = 100.0 * 2.0**-53


def _update_guard_bound(q: tuple, r: tuple, trace_bound: float) -> float:
    """The bound below which trace(P) * (1 + |h|^2) lets the tracker skip
    the PSD test of the EKF posterior of P; 0.0 when Q is singular.

    `q` is (q_pos, q_cross, q_vel) from `_process_noise_terms`, `r` the
    three measurement noise variances, `trace_bound` the predict's
    `_predict_trace_bound`, and |h|^2 the sum of the squares of the six
    Jacobian floats h00 .. h21 of `geometry._measure_at`.

    Premise: P comes from `_predict` with its trace below `trace_bound`,
    so the predict skipped its test and clipped nothing, and every
    eigenvalue of P is at least (1 - 1e-4) lambda_q, lambda_q =
    `_lambda_min_q(q)` (see `_predict_trace_bound`).

    Exact posterior: it is (P^-1 + H'R^-1 H)^-1 (Bar-Shalom, Li &
    Kirubarajan, ch. 5), so its smallest eigenvalue is at least
    lam = 1/(1/lambda_q + t) for t = trace(H'R^-1 H), the sum of each row
    of H's squared norm over its variance.  The rows (h00, h01, 0, 0),
    (h10, h11, 0, 0) and (h20, h21, h00, h01) each have a squared norm
    below A = 1 + |h|^2, so t <= A * sigma for sigma = sum(1/r_i).

    Rounding: the computed P - W W' misses the exact posterior.  The sum
    S = H P H' + R and its Cholesky factor are off by a few ulps of
    trace(S), which reach W W' = B S^-1 B' as K dS K', of norm at most
    ||P|| ||dS|| / lambda_min(S).  Forming B = P H', the products and
    the subtraction add a few ulps of trace(P) times the same ratio.  S
    is at least R, so kappa = (trace(H'H) trace(P) + trace(R)) / min(R)
    bounds trace(S) / lambda_min(S) from above, and the error is at most
    rho = c u trace(P) kappa, with u the unit roundoff and c = 100 over
    the roughly 60 ulps those steps sum to.  `_is_positive_definite_4`
    succeeds when the result's smallest eigenvalue clears its shift
    1e-12*trace(P+) <= 1e-12*trace(P) and its own backward error, a few
    ulps of trace(P+), below rho.  The guard asks for a
    ten-thousandfold margin: lam >= 1e4 trace(P) (1e-12 + c u kappa).

    The bound: with y = trace(P) A, trace(P) <= y, trace(H'H) <= 2A and
    trace(P)/lam <= y (1/lambda_q + sigma), so the margin holds when
        1e4 y (1/lambda_q + sigma) (1e-12 + c u (2y + trace(R)) / min(R)) <= 1.
    The left side grows with y.  Its root is the bound, capped at
    `trace_bound`, which y >= trace(P) must stay below for the premise.
    Noise variances that underflow or overflow give 0.0 or NaN, and
    no y passes either.
    """
    lambda_q = _lambda_min_q(q)
    r_min = min(r)
    if not (lambda_q > 0.0 and r_min > 0.0):
        return 0.0
    alpha = 1e4 * (1.0 / lambda_q + 1.0 / r[0] + 1.0 / r[1] + 1.0 / r[2])
    beta = 2.0 * _UPDATE_ROUNDING / r_min
    gamma = 1e-12 + _UPDATE_ROUNDING * (r[0] + r[1] + r[2]) / r_min
    # The root of alpha y (gamma + beta y) = 1, in its cancellation-free form.
    root = 2.0 / alpha / (gamma + math.sqrt(gamma * gamma + 4.0 * beta / alpha))
    return min(root, trace_bound)


def _predict(
    theta: tuple, p: tuple, dt: float, q: tuple, trace_bound: float,
) -> tuple[tuple, tuple]:
    """The CV prediction x += v*dt, P <- F P F' + Q on floats.

    `q` is (q_pos, q_cross, q_vel) from `_process_noise_terms`.  The
    predicted covariance skips the PSD test while its trace is below
    `trace_bound`, which must be `_predict_trace_bound(dt, q)` for a
    positive definite `p`, or -inf to test always.
    """
    x, y, vx, vy = theta
    p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = p
    q_pos, q_cross, q_vel = q
    # Rows 0 and 1 of F P: position rows plus dt times the velocity rows.
    a00, a01, a02, a03 = p00 + dt * p02, p01 + dt * p12, p02 + dt * p22, p03 + dt * p23
    a11, a12, a13 = p11 + dt * p13, p12 + dt * p23, p13 + dt * p33
    c00, c11, c22, c33 = a00 + dt * a02 + q_pos, a11 + dt * a13 + q_pos, p22 + q_vel, p33 + q_vel
    cov = (c00, a01 + dt * a03, a02 + q_cross, a03, c11, a12, a13 + q_cross, c22, p23, c33)
    if not c00 + c11 + c22 + c33 < trace_bound:
        cov = _psd(cov)
    return (x + vx * dt, y + vy * dt, vx, vy), cov


def _update(
    theta: tuple, p: tuple, model: tuple, z, r: tuple, gate_threshold: float | None,
) -> tuple[tuple, tuple, tuple, bool]:
    """The EKF update of `theta` given the measurement model's output there.

    `model` is the nine floats `geometry._measure_at` returns with the
    Jacobian; `z` is the detection's (range, spatial frequency,
    radial velocity) floats and `r` the three measurement noise
    variances.  Also returns the innovation and whether the gate let
    the update through.  P - W W' can lose definiteness to rounding; the
    caller tests it (`_psd`) unless `_update_guard_bound` proves it safe.
    """
    pred_r, pred_omega, pred_v, h00, h01, h10, h11, h20, h21 = model
    meas_r, meas_omega, meas_v = z
    e0 = meas_r - pred_r
    e1 = meas_omega - pred_omega
    e2 = meas_v - pred_v
    innovation = (e0, e1, e2)
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
    factor = _factor_innovation(*s)
    # With K = B S^-1 and S = L L', the gain is K = W L^-1 for the
    # whitened gain W = B L^-T, so theta + K e = theta + W z for the
    # whitened innovation z = L^-1 e, and the exact-gain posterior
    # P - K S K' is P - W W'.  Both come from forward substitution.
    l00, l10, l20, l11, l21, l22 = factor
    z0 = e0 / l00
    z1 = (e1 - l10 * z0) / l11
    z2 = (e2 - l20 * z0 - l21 * z1) / l22
    # The squared Mahalanobis distance e' S^-1 e is |z|^2.
    if gate_threshold is not None and z0 * z0 + z1 * z1 + z2 * z2 > gate_threshold:
        return theta, p, innovation, False
    # Row i of W is L^-1 (ui, vi, wi).
    g00 = u0 / l00
    g01 = (v0 - l10 * g00) / l11
    g02 = (w0 - l20 * g00 - l21 * g01) / l22
    g10 = u1 / l00
    g11 = (v1 - l10 * g10) / l11
    g12 = (w1 - l20 * g10 - l21 * g11) / l22
    g20 = u2 / l00
    g21 = (v2 - l10 * g20) / l11
    g22 = (w2 - l20 * g20 - l21 * g21) / l22
    g30 = u3 / l00
    g31 = (v3 - l10 * g30) / l11
    g32 = (w3 - l20 * g30 - l21 * g31) / l22
    x, y, vx, vy = theta
    posterior = (
        x + (g00 * z0 + g01 * z1 + g02 * z2),
        y + (g10 * z0 + g11 * z1 + g12 * z2),
        vx + (g20 * z0 + g21 * z1 + g22 * z2),
        vy + (g30 * z0 + g31 * z1 + g32 * z2),
    )
    cov = (
        p00 - (g00 * g00 + g01 * g01 + g02 * g02),
        p01 - (g00 * g10 + g01 * g11 + g02 * g12),
        p02 - (g00 * g20 + g01 * g21 + g02 * g22),
        p03 - (g00 * g30 + g01 * g31 + g02 * g32),
        p11 - (g10 * g10 + g11 * g11 + g12 * g12),
        p12 - (g10 * g20 + g11 * g21 + g12 * g22),
        p13 - (g10 * g30 + g11 * g31 + g12 * g32),
        p22 - (g20 * g20 + g21 * g21 + g22 * g22),
        p23 - (g20 * g30 + g21 * g31 + g22 * g32),
        p33 - (g30 * g30 + g31 * g31 + g32 * g32),
    )
    return posterior, cov, innovation, True


def _noise_variances(noise: NoiseConfig) -> tuple[float, float, float]:
    return noise.sigma_r**2, noise.sigma_omega**2, noise.sigma_v**2


def ekf_predict(
    state: TargetState, cov: np.ndarray, dt: float, cfg: EkfConfig
) -> tuple[TargetState, np.ndarray]:
    """Constant-velocity prediction: x += vx*dt, P <- F P F' + Q."""
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    # `cov` may be any matrix, so the PSD test always runs (bound -inf).
    theta, p = _predict(
        (state.x, state.y, state.vx, state.vy), _upper(_symmetrize(cov)), dt,
        _process_noise_terms(dt, cfg.process_noise_accel), -math.inf,
    )
    return TargetState(*theta), _full(p)


def ekf_update(
    state: TargetState,
    cov: np.ndarray,
    detection: Detection,
    radar: Pose2D,
    noise: NoiseConfig,
    gate_threshold: float | None = None,
) -> tuple[TargetState, np.ndarray, np.ndarray]:
    """Standard EKF measurement update against the exact radar model.

    Returns the posterior state/covariance and the innovation vector
    (range, spatial frequency, radial velocity order).  When a gate is
    given and the innovation fails it, the prior is returned unchanged.
    """
    theta = (state.x, state.y, state.vx, state.vy)
    model = _measure_at(radar.x, radar.y, math.cos(radar.phi), math.sin(radar.phi), *theta)
    theta, p, innovation, applied = _update(
        theta, _upper(_symmetrize(cov)), model,
        (detection.range, detection.spatial_freq, detection.radial_vel),
        _noise_variances(noise), gate_threshold,
    )
    if not applied:
        return state, cov, np.array(innovation)
    # `cov` may be any matrix, so the posterior is always tested.
    return TargetState(*theta), _full(_psd(p)), np.array(innovation)


def run_tracker(
    frames: Simulation,
    node_index: int,
    cfg: EkfConfig,
    noise: NoiseConfig,
    dt: float = DEFAULT_FRAME_DURATION,
) -> Track:
    """Filter one node's detections into a local-frame track.

    `frames` is the scenario's `scene.Simulation`; frame k is its row k.
    The filter initializes from the node's first detection with a range
    of at least `MIN_UPDATE_RANGE` (position from the detection, zero
    velocity, variances `INIT_POS_VAR` and `INIT_VEL_VAR`), then predicts
    every frame and updates whenever a detection is present and the
    predicted range is at least `MIN_UPDATE_RANGE`.  A node with no such
    detection has no track: a ValueError naming it.
    Predict-only frames, and frames whose detection the gate rejected,
    still emit track points, flagged updated=False.
    Filtering happens in the node-local frame, where the radar sits at
    the identity pose.

    Each frame is one fused step on local floats: the CV predict, the
    innovation covariance S and its unrolled Cholesky factor, the
    whitened gain, the gate and the posterior, with both PSD guards,
    bit for bit the chain of `_predict`, `geometry._measure_at` and
    `_update` (the kernels of `ekf_predict` and `ekf_update`).  Only the
    measurement model is a call on every update; `_psd`, the jitter
    retry and the start's `_local_cartesian` are calls on their rare
    paths.

    The local measurement model cannot distinguish a target from its
    mirror image behind the array (identical range, spatial frequency,
    and Doppler), so states that cross into the back half-plane are
    folded to the front, where the field of view lives.
    """
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    rows = frames.detections[:, node_index].tolist()
    seen = frames.seen[:, node_index].tolist()
    # A start within MIN_UPDATE_RANGE would never move, so never update.
    start = next((k for k, (z, v) in enumerate(zip(rows, seen))
                  if v and z[0] >= MIN_UPDATE_RANGE), None)
    if start is None:
        raise ValueError(f"node {node_index} never detected the target at a range of at least "
                         f"{MIN_UPDATE_RANGE} m in {len(frames)} frames, so it has no track")
    q = q_pos, q_cross, q_vel = _process_noise_terms(dt, cfg.process_noise_accel)
    # Every covariance entering a predict is positive definite: the
    # diagonal initial one, or one that passed the PSD test, provably
    # would have (the update guard), or came from its eigh clip (the
    # reflection keeps that), so the bound applies.
    trace_bound = _predict_trace_bound(dt, q)
    r = r0, r1, r2 = _noise_variances(noise)
    update_bound = _update_guard_bound(q, r, trace_bound)
    # An infinite gate rejects nothing, as no gate does.
    gate = math.inf if cfg.gate_threshold is None else cfg.gate_threshold
    sqrt, hypot, isfinite = math.sqrt, math.hypot, math.isfinite
    x, y = _local_cartesian(rows[start][0], rows[start][1])
    vx = vy = 0.0
    p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = (
        INIT_POS_VAR, 0.0, 0.0, 0.0, INIT_POS_VAR, 0.0, 0.0, INIT_VEL_VAR, 0.0, INIT_VEL_VAR)
    updated = True
    states, covariances, flags = [], [], []
    for k in range(start, len(rows)):
        if k > start:
            # Predict: x += v dt, P <- F P F' + Q, from rows 0 and 1 of F P.
            x += vx * dt
            y += vy * dt
            a00, a01, a02, a03 = p00 + dt * p02, p01 + dt * p12, p02 + dt * p22, p03 + dt * p23
            a11, a12, a13 = p11 + dt * p13, p12 + dt * p23, p13 + dt * p33
            p00, p01, p02, p03 = a00 + dt * a02 + q_pos, a01 + dt * a03, a02 + q_cross, a03
            p11, p12, p13 = a11 + dt * a13 + q_pos, a12, a13 + q_cross
            p22 += q_vel
            p33 += q_vel
            if not p00 + p11 + p22 + p33 < trace_bound:
                p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = _psd(
                    (p00, p01, p02, p03, p11, p12, p13, p22, p23, p33))
            updated = False
            if seen[k] and hypot(x, y) >= MIN_UPDATE_RANGE:
                # The radar sits at the local frame's identity pose.
                pred_r, pred_omega, pred_v, h00, h01, h10, h11, h20, h21 = _measure_at(
                    0.0, 0.0, 1.0, 0.0, x, y, vx, vy)
                meas_r, meas_omega, meas_v = rows[k]
                e0 = meas_r - pred_r
                e1 = meas_omega - pred_omega
                e2 = meas_v - pred_v
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
                s00, s01, s02 = h00 * u0 + h01 * u1 + r0, h00 * v0 + h01 * v1, h00 * w0 + h01 * w1
                s11, s12 = h10 * v0 + h11 * v1 + r1, h10 * w0 + h11 * w1
                s22 = h20 * w0 + h21 * w1 + h00 * w2 + h01 * w3 + r2
                # S = L L', `_cholesky_3` unrolled; a pivot that is not
                # positive takes `_factor_innovation`'s jitter retry.
                d2 = 0.0
                if s00 > 0.0:
                    l00 = sqrt(s00)
                    l10, l20 = s01 / l00, s02 / l00
                    d1 = s11 - l10 * l10
                    if d1 > 0.0:
                        l11 = sqrt(d1)
                        l21 = (s12 - l20 * l10) / l11
                        d2 = s22 - l20 * l20 - l21 * l21
                if d2 > 0.0:
                    l22 = sqrt(d2)
                else:
                    l00, l10, l20, l11, l21, l22 = _factor_innovation(s00, s01, s02, s11, s12, s22)
                # The whitened innovation z = L^-1 e; |z|^2 is the gate's
                # squared Mahalanobis distance.
                z0 = e0 / l00
                z1 = (e1 - l10 * z0) / l11
                z2 = (e2 - l20 * z0 - l21 * z1) / l22
                if not z0 * z0 + z1 * z1 + z2 * z2 > gate:
                    updated = True
                    # The update guard, on the prior's trace.
                    guarded = (p00 + p11 + p22 + p33) * (
                        1.0 + (h00 * h00 + h01 * h01 + h10 * h10 + h11 * h11
                               + h20 * h20 + h21 * h21)) < update_bound
                    # Row i of the whitened gain W = B L^-T is L^-1 (ui, vi, wi).
                    g00 = u0 / l00
                    g01 = (v0 - l10 * g00) / l11
                    g02 = (w0 - l20 * g00 - l21 * g01) / l22
                    g10 = u1 / l00
                    g11 = (v1 - l10 * g10) / l11
                    g12 = (w1 - l20 * g10 - l21 * g11) / l22
                    g20 = u2 / l00
                    g21 = (v2 - l10 * g20) / l11
                    g22 = (w2 - l20 * g20 - l21 * g21) / l22
                    g30 = u3 / l00
                    g31 = (v3 - l10 * g30) / l11
                    g32 = (w3 - l20 * g30 - l21 * g31) / l22
                    # The posterior theta + W z, P - W W'.
                    x += g00 * z0 + g01 * z1 + g02 * z2
                    y += g10 * z0 + g11 * z1 + g12 * z2
                    vx += g20 * z0 + g21 * z1 + g22 * z2
                    vy += g30 * z0 + g31 * z1 + g32 * z2
                    p00 -= g00 * g00 + g01 * g01 + g02 * g02
                    p01 -= g00 * g10 + g01 * g11 + g02 * g12
                    p02 -= g00 * g20 + g01 * g21 + g02 * g22
                    p03 -= g00 * g30 + g01 * g31 + g02 * g32
                    p11 -= g10 * g10 + g11 * g11 + g12 * g12
                    p12 -= g10 * g20 + g11 * g21 + g12 * g22
                    p13 -= g10 * g30 + g11 * g31 + g12 * g32
                    p22 -= g20 * g20 + g21 * g21 + g22 * g22
                    p23 -= g20 * g30 + g21 * g31 + g22 * g32
                    p33 -= g30 * g30 + g31 * g31 + g32 * g32
                    if not guarded:
                        p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = _psd(
                            (p00, p01, p02, p03, p11, p12, p13, p22, p23, p33))
        if not (isfinite(x) and isfinite(y) and isfinite(vx) and isfinite(vy)):
            raise ValueError(f"EKF state must be finite, got {(x, y, vx, vy)!r}")
        if y < 0.0:
            # Reflect a behind-the-array state across the array line (cost-free):
            # diag(1, -1, 1, -1) flips y, vy and every entry pairing one with x or vx.
            y, vy, p01, p03, p12, p23 = -y, -vy, -p01, -p03, -p12, -p23
        states.append((x, y, vx, vy))
        covariances.append((p00, p01, p02, p03, p11, p12, p13, p22, p23, p33))
        flags.append(updated)
    count = len(flags)
    # Every frame from the start emits a point.  np.fromiter reads the
    # loop's floats in one pass, about twice as fast as np.asarray over
    # the list of tuples.
    return Track(
        node_index=node_index, frame="local", frame_index=np.arange(start, start + count),
        states=np.fromiter(chain.from_iterable(states), float, 4 * count),
        covariances=_full(
            np.fromiter(chain.from_iterable(covariances), float, 10 * count).reshape(count, 10)
        ),
        updated=flags,
    )


def transform_track(track: Track, p21: complex, phi21: float) -> Track:
    """Rigidly map a node-2 local track into node 1's frame.

    Positions rotate and translate; velocities rotate; covariances are
    conjugated by the block-diagonal rotation, all points at once.  The
    `updated` flags carry over.
    """
    rot2 = rotation_matrix(phi21)
    rot4 = np.zeros((4, 4))
    rot4[:2, :2] = rot2
    rot4[2:, 2:] = rot2
    p21 = complex(p21)
    cos, sin = math.cos(phi21), math.sin(phi21)
    x, y = track.states[:, 0], track.states[:, 1]
    states = np.empty_like(track.states)
    # p21 + e^(j phi21) z in the order of Python's complex product and sum.
    states[:, 0] = p21.real + (cos * x - sin * y)
    states[:, 1] = p21.imag + (cos * y + sin * x)
    # (rot2 @ v[..., None])[..., 0] rounds as rot2 @ v per point; v @ rot2.T does not.
    states[:, 2:] = (rot2 @ track.states[:, 2:, None])[..., 0]
    cov = rot4 @ track.covariances @ rot4.T
    return Track(
        node_index=track.node_index, frame="reference", frame_index=track.frame_index,
        states=states, covariances=0.5 * (cov + cov.transpose(0, 2, 1)), updated=track.updated,
    )


def track_level_fusion(track1: Track, track2_in_frame1: Track) -> Track:
    """Covariance-weighted per-frame combination of two aligned tracks.

    Fuses states on the intersection of the frame indices:
    x = (P1^-1 + P2^-1)^-1 (P1^-1 x1 + P2^-1 x2), with the same
    expression (without the x's) for the fused covariance.  Cross-
    correlation between the tracks is ignored.  A fused point is flagged
    updated when either input point was.
    """
    frame_index, rows1, rows2 = np.intersect1d(
        track1.frame_index, track2_in_frame1.frame_index, assume_unique=True,
        return_indices=True,
    )
    if not len(frame_index):
        raise ValueError("tracks share no common frames")
    cov1 = track1.covariances[rows1]
    total = cov1 + track2_in_frame1.covariances[rows2]
    # Gain form of (P1^-1 + P2^-1)^-1 (P1^-1 x1 + P2^-1 x2): one stacked
    # solve on P1+P2, stable when the inputs are nearly singular.
    try:
        gain = np.linalg.solve(total, cov1).transpose(0, 2, 1)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"singular track covariances: {exc}") from exc
    x1 = track1.states[rows1]
    fused = x1 + (gain @ (track2_in_frame1.states[rows2] - x1)[:, :, None])[:, :, 0]
    fused_cov = cov1 - gain @ cov1
    frame = track1.frame if track1.frame == track2_in_frame1.frame else "reference"
    return Track(
        frame=frame, frame_index=frame_index, states=fused,
        covariances=0.5 * (fused_cov + fused_cov.transpose(0, 2, 1)),
        updated=track1.updated[rows1] | track2_in_frame1.updated[rows2],
    )


def export_track_csv(track: Track, path: str | Path) -> list[str]:
    """Write a track as CSV: frame,x,y,vx,vy,p11,p22,p33,p44.

    Returns the float cells as written, eight per point (x .. p44), so a
    caller can reuse the text without formatting the floats again.
    """
    cells = float_cells(track.table())
    write_lines(path, f"# frame={track.frame}\nframe,x,y,vx,vy,p11,p22,p33,p44", csv_lines(
        map(str, track.frame_index.tolist()), *[iter(cells)] * 8
    ))
    return cells
