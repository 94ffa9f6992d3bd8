"""Per-node extended Kalman filtering and track-level fusion.

Each node runs an EKF with a constant-velocity motion model over its
own (range, spatial frequency, radial velocity) detections, producing
a track in the node's local frame.  Tracks can be rigidly transformed
into the reference frame and fused per frame with a covariance-
weighted combination, which serves as the smoothed multi-frame
benchmark for the one-shot estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import (
    Pose2D,
    TargetState,
    _local_cartesian,
    _measure_floats,
    measure,  # noqa: F401  (trace target: radarnet.tracking.measure)
    measurement_jacobian,  # noqa: F401  (trace target)
    rotation_matrix,
)
from .scene import Detection, MeasurementFrame, NoiseConfig, Simulation, write_csv

_LOCAL_POSE = Pose2D(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class EkfConfig:
    """EKF tuning: white-acceleration process noise and init variances.

    Updates are skipped when the predicted range falls below
    `min_range` (the linearization is unreliable that close) or, if a
    gate is configured, when the squared Mahalanobis innovation
    distance exceeds `gate_threshold`.
    """

    process_noise_accel: float = 1.0
    init_pos_var: float = 1.0
    init_vel_var: float = 3.5**2
    gate_threshold: float | None = None
    min_range: float = 0.5

    def __post_init__(self):
        # Infinity (and NaN, for the noise) would pass a bare comparison
        # and then break the filter deep inside.
        if not (math.isfinite(self.process_noise_accel) and self.process_noise_accel >= 0.0):
            raise ValueError("EkfConfig.process_noise_accel must be finite and >= 0")
        for name in ("init_pos_var", "init_vel_var"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"EkfConfig.{name} must be finite and > 0")
        # NaN fails both tests: a NaN gate never rejects, a NaN min_range skips every update.
        if self.gate_threshold is not None and not self.gate_threshold > 0.0:
            raise ValueError("EkfConfig.gate_threshold must be None or > 0")
        if not self.min_range >= 0.0:
            raise ValueError("EkfConfig.min_range must be >= 0")


@dataclass(frozen=True)
class TrackPoint:
    frame_index: int
    position: complex
    velocity: np.ndarray
    covariance: np.ndarray
    updated: bool = True


@dataclass
class Track:
    """Time-indexed state estimates from one node (or from fusion)."""

    frames: list[TrackPoint] = field(default_factory=list)
    node_index: int | None = None
    frame: str = "local"

    def __len__(self) -> int:
        return len(self.frames)

    def frame_indices(self) -> np.ndarray:
        return np.array([p.frame_index for p in self.frames], dtype=int)

    def positions(self) -> np.ndarray:
        """Positions as complex numbers z = x + j*y."""
        return np.array([p.position for p in self.frames], dtype=complex)

    def by_frame(self) -> dict[int, TrackPoint]:
        return {p.frame_index: p for p in self.frames}

    def table(self) -> np.ndarray:
        """The points as one (T, 8) array of rows x, y, vx, vy, p11, p22, p33, p44."""
        position = self.positions()
        velocity = np.array([p.velocity for p in self.frames]).reshape(-1, 2)
        variance = np.array([p.covariance for p in self.frames]).reshape(-1, 16)[:, ::5]
        return np.column_stack([position.real, position.imag, velocity, variance])


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


def _is_positive_definite_4(p: tuple) -> bool:
    """Whether the unrolled scalar Cholesky of p - 1e-12*trace(p)*I succeeds.

    `p` is the ten upper-triangle floats of a symmetric 4x4 matrix.
    """
    a00, a01, a02, a03, a11, a12, a13, a22, a23, a33 = p
    shift = 1e-12 * (a00 + a11 + a22 + a33)
    d0 = a00 - shift
    if not d0 > 0.0:
        return False
    l0 = math.sqrt(d0)
    l10, l20, l30 = a01 / l0, a02 / l0, a03 / l0
    d1 = a11 - shift - l10 * l10
    if not d1 > 0.0:
        return False
    l1 = math.sqrt(d1)
    l21 = (a12 - l20 * l10) / l1
    l31 = (a13 - l30 * l10) / l1
    d2 = a22 - shift - l20 * l20 - l21 * l21
    if not d2 > 0.0:
        return False
    l32 = (a23 - l30 * l20 - l31 * l21) / math.sqrt(d2)
    return a33 - shift - l30 * l30 - l31 * l31 - l32 * l32 > 0.0


def _project_psd(p: np.ndarray) -> np.ndarray:
    """Clip the tiny negative eigenvalues rounding can leave behind.

    Clipping lands on a small positive floor (relative to the largest
    eigenvalue) rather than exactly zero, so downstream information-
    form operations keep an invertible matrix.  A scalar Cholesky of
    sym - 1e-12*trace(sym)*I that succeeds proves every eigenvalue above
    1e-12*trace, hence above the floor, so only the matrices it rejects
    reach `eigh`.
    """
    sym = _symmetrize(p)
    if _is_positive_definite_4(_upper(sym)):
        return sym
    eigenvalues, vectors = np.linalg.eigh(sym)
    floor = 1e-12 * max(eigenvalues[-1], 0.0)
    if eigenvalues[0] > floor:
        return sym
    return _symmetrize((vectors * np.maximum(eigenvalues, floor)) @ vectors.T)


def _psd(p: tuple) -> tuple:
    """`_project_psd` on ten floats; only a failed scalar test builds an array."""
    return p if _is_positive_definite_4(p) else _upper(_project_psd(_full(p)))


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


def _cholesky_solve_3(factor: tuple, b0: float, b1: float, b2: float) -> tuple:
    """S^-1 b by forward and back substitution on S's Cholesky factor."""
    l00, l10, l20, l11, l21, l22 = factor
    y0 = b0 / l00
    y1 = (b1 - l10 * y0) / l11
    x2 = (b2 - l20 * y0 - l21 * y1) / l22 / l22
    x1 = (y1 - l21 * x2) / l11
    return (y0 - l10 * x1 - l20 * x2) / l00, x1, x2


def _predict(theta: tuple, p: tuple, dt: float, q: tuple) -> tuple[tuple, tuple]:
    """The CV prediction x += v*dt, P <- F P F' + Q on floats.

    `q` is (q_pos, q_cross, q_vel) from `_process_noise_terms`.
    """
    x, y, vx, vy = theta
    p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = p
    q_pos, q_cross, q_vel = q
    # Rows 0 and 1 of F P: position rows plus dt times the velocity rows.
    a00, a01, a02, a03 = p00 + dt * p02, p01 + dt * p12, p02 + dt * p22, p03 + dt * p23
    a11, a12, a13 = p11 + dt * p13, p12 + dt * p23, p13 + dt * p33
    return (x + vx * dt, y + vy * dt, vx, vy), _psd((
        a00 + dt * a02 + q_pos, a01 + dt * a03, a02 + q_cross, a03,
        a11 + dt * a13 + q_pos, a12, a13 + q_cross,
        p22 + q_vel, p23,
        p33 + q_vel,
    ))


def _update(
    theta: tuple, p: tuple, model: tuple, z, r: tuple, gate_threshold: float | None,
) -> tuple[tuple, tuple, tuple, bool]:
    """The EKF update of `theta` given the measurement model's output there.

    `model` is the nine floats `geometry._measure_floats` returns with
    the Jacobian; `z` is the detection's (range, spatial frequency,
    radial velocity) floats and `r` the three measurement noise
    variances.  Also returns the innovation and whether the gate let
    the update through.
    """
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
    k00, k01, k02 = _cholesky_solve_3(factor, u0, v0, w0)
    k10, k11, k12 = _cholesky_solve_3(factor, u1, v1, w1)
    k20, k21, k22 = _cholesky_solve_3(factor, u2, v2, w2)
    k30, k31, k32 = _cholesky_solve_3(factor, u3, v3, w3)
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


def _noise_variances(noise: NoiseConfig) -> tuple[float, float, float]:
    return noise.sigma_r**2, noise.sigma_omega**2, noise.sigma_v**2


def ekf_predict(
    state: TargetState, cov: np.ndarray, dt: float, cfg: EkfConfig
) -> tuple[TargetState, np.ndarray]:
    """Constant-velocity prediction: x += vx*dt, P <- F P F' + Q."""
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    theta, p = _predict(
        (state.x, state.y, state.vx, state.vy), _upper(_symmetrize(cov)), dt,
        _process_noise_terms(dt, cfg.process_noise_accel),
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
    theta, p, innovation, applied = _update(
        theta, _upper(_symmetrize(cov)), _measure_floats(radar, *theta, True),
        (detection.range, detection.spatial_freq, detection.radial_vel),
        _noise_variances(noise), gate_threshold,
    )
    if not applied:
        return state, cov, np.array(innovation)
    return TargetState(*theta), _full(p), np.array(innovation)


def _node_rows(frames: Simulation | list[MeasurementFrame], node_index: int) -> tuple:
    """The frame indices and one node's detections as (range, spatial
    frequency, radial velocity) float rows, None where it saw nothing."""
    if isinstance(frames, Simulation):
        rows = frames.detections[:, node_index].tolist()
        seen = frames.seen[:, node_index].tolist()
        return range(len(rows)), [row if v else None for row, v in zip(rows, seen)]
    detections = [frame.per_node[node_index] for frame in frames]
    return [frame.frame_index for frame in frames], [
        None if d is None else (d.range, d.spatial_freq, d.radial_vel) for d in detections
    ]


def run_tracker(
    frames: Simulation | list[MeasurementFrame],
    node_index: int,
    node_pose: Pose2D,
    cfg: EkfConfig,
    noise: NoiseConfig,
    dt: float = 0.150,
) -> Track:
    """Filter one node's detections into a local-frame track.

    `frames` is a `scene.Simulation` or a list of MeasurementFrame;
    both give the same track bit for bit.  The filter initializes from
    the node's first detection (position from the detection, zero
    velocity, configured variances), then predicts every frame and
    updates whenever a detection is present.  Predict-only frames, and
    frames whose detection the gate rejected, still emit track points,
    flagged updated=False.
    `node_pose` is kept as track metadata only; filtering happens in
    the node-local frame, where the radar sits at the identity pose.

    The local measurement model cannot distinguish a target from its
    mirror image behind the array (identical range, spatial frequency,
    and Doppler), so states that cross into the back half-plane are
    folded to the front, where the field of view lives.
    """
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    q = _process_noise_terms(dt, cfg.process_noise_accel)
    r = _noise_variances(noise)
    frame_indices, states, covariances, flags = [], [], [], []
    theta: tuple | None = None
    p: tuple = ()
    for k, z in zip(*_node_rows(frames, node_index)):
        updated = False
        if theta is None:
            if z is None:
                continue
            theta = (*_local_cartesian(z[0], z[1]), 0.0, 0.0)
            pos_var, vel_var = cfg.init_pos_var, cfg.init_vel_var
            p = (pos_var, 0.0, 0.0, 0.0, pos_var, 0.0, 0.0, vel_var, 0.0, vel_var)
            updated = True
        else:
            theta, p = _predict(theta, p, dt, q)
            if z is not None and math.hypot(theta[0], theta[1]) >= cfg.min_range:
                model = _measure_floats(_LOCAL_POSE, *theta, True)
                theta, p, _, updated = _update(theta, p, model, z, r, cfg.gate_threshold)
        if not all(map(math.isfinite, theta)):
            raise ValueError(f"EKF state must be finite, got {theta!r}")
        if theta[1] < 0.0:
            # Reflect a behind-the-array state across the array line (cost-free):
            # diag(1, -1, 1, -1) flips y, vy and every entry pairing one with x or vx.
            x, y, vx, vy = theta
            p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = p
            theta = (x, -y, vx, -vy)
            p = (p00, -p01, p02, -p03, p11, -p12, p13, p22, -p23, p33)
        frame_indices.append(k)
        states.append(theta)
        covariances.append(p)
        flags.append(updated)
    if not frame_indices:
        raise ValueError(f"node {node_index} produced no detections; track is empty")
    velocity = np.array(states)[:, 2:].copy()
    cov = _full(covariances)
    return Track(node_index=node_index, frame="local", frames=[
        TrackPoint(frame_index=k, position=complex(s[0], s[1]), velocity=velocity[t],
                   covariance=cov[t], updated=u)
        for t, (k, s, u) in enumerate(zip(frame_indices, states, flags))
    ])


def transform_track(track: Track, p21: complex, phi21: float) -> Track:
    """Rigidly map a node-2 local track into node 1's frame.

    Positions rotate and translate; velocities rotate; covariances are
    conjugated by the block-diagonal rotation, all points at once.
    """
    rot2 = rotation_matrix(phi21)
    rot4 = np.zeros((4, 4))
    rot4[:2, :2] = rot2
    rot4[2:, 2:] = rot2
    rot_c = complex(math.cos(phi21), math.sin(phi21))
    # (rot2 @ v[..., None])[..., 0] rounds as rot2 @ v per point; v @ rot2.T does not.
    velocity = (rot2 @ np.array([p.velocity for p in track.frames]).reshape(-1, 2, 1))[..., 0]
    cov = rot4 @ np.array([p.covariance for p in track.frames]).reshape(-1, 4, 4) @ rot4.T
    cov = 0.5 * (cov + cov.transpose(0, 2, 1))
    return Track(node_index=track.node_index, frame="reference", frames=[
        TrackPoint(frame_index=p.frame_index, position=p21 + rot_c * p.position,
                   velocity=velocity[t], covariance=cov[t])
        for t, p in enumerate(track.frames)
    ])


def track_level_fusion(track1: Track, track2_in_frame1: Track) -> Track:
    """Covariance-weighted per-frame combination of two aligned tracks.

    Fuses states on the intersection of the frame indices:
    x = (P1^-1 + P2^-1)^-1 (P1^-1 x1 + P2^-1 x2), with the same
    expression (without the x's) for the fused covariance.  Cross-
    correlation between the tracks is ignored.
    """
    by_frame2 = track2_in_frame1.by_frame()
    pairs = [(p1, by_frame2[p1.frame_index]) for p1 in track1.frames
             if p1.frame_index in by_frame2]
    if not pairs:
        raise ValueError("tracks share no common frames")
    cov1 = np.array([p1.covariance for p1, _ in pairs])
    total = cov1 + np.array([p2.covariance for _, p2 in pairs])
    # Gain form of (P1^-1 + P2^-1)^-1 (P1^-1 x1 + P2^-1 x2): one stacked
    # solve on P1+P2, stable when the inputs are nearly singular.
    try:
        gain = np.linalg.solve(total, cov1).transpose(0, 2, 1)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"singular track covariances: {exc}") from exc
    x1 = np.array([[p1.position.real, p1.position.imag, *p1.velocity.tolist()] for p1, _ in pairs])
    x2 = np.array([[p2.position.real, p2.position.imag, *p2.velocity.tolist()] for _, p2 in pairs])
    fused = x1 + (gain @ (x2 - x1)[:, :, None])[:, :, 0]
    fused_cov = cov1 - gain @ cov1
    fused_cov = 0.5 * (fused_cov + fused_cov.transpose(0, 2, 1))
    velocity = fused[:, 2:].copy()
    frame = track1.frame if track1.frame == track2_in_frame1.frame else "reference"
    return Track(frame=frame, frames=[
        TrackPoint(frame_index=p1.frame_index, position=complex(x, y),
                   velocity=velocity[t], covariance=fused_cov[t])
        for t, ((p1, _), (x, y)) in enumerate(zip(pairs, fused[:, :2].tolist()))
    ])


def export_track_csv(track: Track, path: str | Path) -> None:
    """Write a track as CSV: frame,x,y,vx,vy,p11,p22,p33,p44."""
    write_csv(path, f"# frame={track.frame}\nframe,x,y,vx,vy,p11,p22,p33,p44", (
        [k, *row] for k, row in zip(track.frame_indices().tolist(), track.table().tolist())
    ))


def track_csv_states(path: str | Path) -> dict[int, str]:
    """The "x,y,vx,vy" text of each frame of a track CSV `export_track_csv` wrote."""
    lines = Path(path).read_text().split("\n")[2:-1]
    return {
        int(frame): cells.rsplit(",", 4)[0]
        for frame, _, cells in (line.partition(",") for line in lines)
    }
