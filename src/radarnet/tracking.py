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
    detection_to_local_cartesian,
    IdealMeasurement,
    measure,
    measure_with_jacobian,
    measurement_jacobian,
    rotation_matrix,
)
from .scene import Detection, MeasurementFrame, NoiseConfig, write_csv

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
        if self.process_noise_accel < 0.0:
            raise ValueError("EkfConfig.process_noise_accel must be >= 0")
        for name in ("init_pos_var", "init_vel_var"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"EkfConfig.{name} must be > 0")
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


def process_noise(dt: float, accel_std: float) -> np.ndarray:
    """Discretized continuous white-acceleration covariance for the CV model.

    The rank-2 per-axis form keeps the filter strictly damped even in
    the vanishing-measurement-noise limit, where the rank-1 piecewise-
    constant variant degenerates into an undamped two-point
    differentiator.
    """
    q = accel_std * accel_std
    dt2 = dt * dt
    q_pos = q * dt2 * dt / 3.0
    q_cross = q * dt2 / 2.0
    q_vel = q * dt
    return np.array([
        [q_pos, 0.0, q_cross, 0.0],
        [0.0, q_pos, 0.0, q_cross],
        [q_cross, 0.0, q_vel, 0.0],
        [0.0, q_cross, 0.0, q_vel],
    ])


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


def _is_positive_definite_4(a: list, shift: float) -> bool:
    """Whether the unrolled scalar Cholesky of a - shift*I succeeds.

    Reads only the upper triangle of the symmetric 4x4 nested list `a`.
    """
    (a00, a01, a02, a03), (_, a11, a12, a13), (_, _, a22, a23), (_, _, _, a33) = a
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


def _is_positive_definite_3(a: list) -> bool:
    """Whether the unrolled scalar Cholesky of the symmetric 3x3 `a` succeeds."""
    (a00, a01, a02), (_, a11, a12), (_, _, a22) = a
    if not a00 > 0.0:
        return False
    l0 = math.sqrt(a00)
    l10, l20 = a01 / l0, a02 / l0
    d1 = a11 - l10 * l10
    if not d1 > 0.0:
        return False
    l21 = (a12 - l20 * l10) / math.sqrt(d1)
    return a22 - l20 * l20 - l21 * l21 > 0.0


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
    a = sym.tolist()
    if _is_positive_definite_4(a, 1e-12 * (a[0][0] + a[1][1] + a[2][2] + a[3][3])):
        return sym
    eigenvalues, vectors = np.linalg.eigh(sym)
    floor = 1e-12 * max(eigenvalues[-1], 0.0)
    if eigenvalues[0] > floor:
        return sym
    return _symmetrize((vectors * np.maximum(eigenvalues, floor)) @ vectors.T)


_EYE4 = np.eye(4)
_FOLD = np.diag([1.0, -1.0, 1.0, -1.0])


def _transition(dt: float) -> np.ndarray:
    f = np.eye(4)
    f[0, 2] = f[1, 3] = dt
    return f


def _measurement_noise(noise: NoiseConfig) -> np.ndarray:
    return np.diag([noise.sigma_r**2, noise.sigma_omega**2, noise.sigma_v**2])


def _predict(
    theta: tuple, cov: np.ndarray, dt: float, f: np.ndarray, q: np.ndarray
) -> tuple[tuple, np.ndarray]:
    """The CV prediction step on an (x, y, vx, vy) tuple of floats."""
    x, y, vx, vy = theta
    return (x + vx * dt, y + vy * dt, vx, vy), _project_psd(f @ cov @ f.T + q)


def _update(
    theta: tuple, cov: np.ndarray, model: tuple, detection: Detection, r: np.ndarray,
    gate_threshold: float | None,
) -> tuple[tuple, np.ndarray, np.ndarray, bool]:
    """The EKF update of `theta` given the measurement model's output there.

    `model` is (range, spatial frequency, radial velocity, Jacobian), as
    `measure_with_jacobian` returns it.  Also returns the innovation and
    whether the gate let the update through.
    """
    *predicted, h = model
    innovation = np.subtract(
        (detection.range, detection.spatial_freq, detection.radial_vel), predicted
    )
    hp = h @ cov
    s = _symmetrize(hp @ h.T + r)
    # A Cholesky proves S positive definite; one jitter retry absorbs the
    # rounding dust extreme noise scales can leave on a weak direction.
    if not _is_positive_definite_3(s.tolist()):
        s = s + (1e-12 * np.trace(s) / 3.0 + 1e-300) * np.eye(3)
        if not _is_positive_definite_3(s.tolist()):
            raise np.linalg.LinAlgError("singular innovation covariance")
    gain = np.linalg.solve(s, hp).T
    if gate_threshold is not None:
        mahalanobis_sq = float(innovation @ np.linalg.solve(s, innovation))
        if mahalanobis_sq > gate_threshold:
            return theta, cov, innovation, False
    posterior = tuple((np.array(theta) + gain @ innovation).tolist())
    identity_kh = _EYE4 - gain @ h
    cov_out = _project_psd(identity_kh @ cov @ identity_kh.T + gain @ r @ gain.T)
    return posterior, cov_out, innovation, True


def ekf_predict(
    state: TargetState, cov: np.ndarray, dt: float, cfg: EkfConfig
) -> tuple[TargetState, np.ndarray]:
    """Constant-velocity prediction: x += vx*dt, P <- F P F' + Q."""
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    q = process_noise(dt, cfg.process_noise_accel)
    theta, cov_out = _predict((state.x, state.y, state.vx, state.vy), cov, dt, _transition(dt), q)
    return TargetState(*theta), cov_out


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
    m = measure(radar, state)
    model = (m.range, m.spatial_freq, m.radial_vel, measurement_jacobian(radar, state))
    theta, cov_out, innovation, applied = _update(
        (state.x, state.y, state.vx, state.vy), cov, model, detection,
        _measurement_noise(noise), gate_threshold,
    )
    return (TargetState(*theta) if applied else state), cov_out, innovation


def run_tracker(
    frames: list[MeasurementFrame],
    node_index: int,
    node_pose: Pose2D,
    cfg: EkfConfig,
    noise: NoiseConfig,
    dt: float = 0.150,
) -> Track:
    """Filter one node's detections into a local-frame track.

    The filter initializes from the node's first detection (position
    from the detection, zero velocity, configured variances), then
    predicts every frame and updates whenever a detection is present.
    Predict-only frames, and frames whose detection the gate rejected,
    still emit track points, flagged updated=False.
    `node_pose` is kept as track metadata only; filtering happens in
    the node-local frame, where the radar sits at the identity pose.

    The local measurement model cannot distinguish a target from its
    mirror image behind the array (identical range, spatial frequency,
    and Doppler), so states that cross into the back half-plane are
    folded to the front, where the field of view lives.
    """
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    f = _transition(dt)
    q = process_noise(dt, cfg.process_noise_accel)
    r = _measurement_noise(noise)
    track = Track(node_index=node_index, frame="local")
    theta: tuple | None = None
    cov = np.zeros((4, 4))
    for frame in frames:
        det = frame.per_node[node_index]
        updated = False
        if theta is None:
            if det is None:
                continue
            pos = detection_to_local_cartesian(
                IdealMeasurement(det.range, det.spatial_freq, det.radial_vel)
            )
            theta = (float(pos[0]), float(pos[1]), 0.0, 0.0)
            cov = np.diag([cfg.init_pos_var, cfg.init_pos_var, cfg.init_vel_var, cfg.init_vel_var])
            updated = True
        else:
            theta, cov = _predict(theta, cov, dt, f, q)
            if det is not None and math.hypot(theta[0], theta[1]) >= cfg.min_range:
                model = measure_with_jacobian(_LOCAL_POSE, *theta)
                theta, cov, _, updated = _update(theta, cov, model, det, r, cfg.gate_threshold)
        if not all(map(math.isfinite, theta)):
            raise ValueError(f"EKF state must be finite, got {theta!r}")
        if theta[1] < 0.0:
            # Reflect a behind-the-array state across the array line (cost-free).
            theta, cov = (theta[0], -theta[1], theta[2], -theta[3]), _FOLD @ cov @ _FOLD
        track.frames.append(
            TrackPoint(
                frame_index=frame.frame_index,
                position=complex(theta[0], theta[1]),
                velocity=np.array(theta[2:]),
                covariance=cov.copy(),
                updated=updated,
            )
        )
    if not track.frames:
        raise ValueError(f"node {node_index} produced no detections; track is empty")
    return track


def transform_track(track: Track, p21: complex, phi21: float) -> Track:
    """Rigidly map a node-2 local track into node 1's frame.

    Positions rotate and translate; velocities rotate; covariances are
    conjugated by the block-diagonal rotation.
    """
    rot2 = rotation_matrix(phi21)
    rot4 = np.zeros((4, 4))
    rot4[:2, :2] = rot2
    rot4[2:, 2:] = rot2
    rot_c = complex(math.cos(phi21), math.sin(phi21))
    out = Track(node_index=track.node_index, frame="reference")
    for p in track.frames:
        out.frames.append(
            TrackPoint(
                frame_index=p.frame_index,
                position=p21 + rot_c * p.position,
                velocity=rot2 @ p.velocity,
                covariance=_symmetrize(rot4 @ p.covariance @ rot4.T),
            )
        )
    return out


def track_level_fusion(track1: Track, track2_in_frame1: Track) -> Track:
    """Covariance-weighted per-frame combination of two aligned tracks.

    Fuses states on the intersection of the frame indices:
    x = (P1^-1 + P2^-1)^-1 (P1^-1 x1 + P2^-1 x2), with the same
    expression (without the x's) for the fused covariance.  Cross-
    correlation between the tracks is ignored.
    """
    by_frame2 = track2_in_frame1.by_frame()
    out = Track(frame=track1.frame if track1.frame == track2_in_frame1.frame else "reference")
    for p1 in track1.frames:
        p2 = by_frame2.get(p1.frame_index)
        if p2 is None:
            continue
        # Gain form of (P1^-1 + P2^-1)^-1 (P1^-1 x1 + P2^-1 x2): a single
        # solve on P1+P2, stable when the inputs are nearly singular.
        total = p1.covariance + p2.covariance
        try:
            gain = np.linalg.solve(total, p1.covariance).T
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"singular track covariances: {exc}") from exc
        x1 = np.array([p1.position.real, p1.position.imag, p1.velocity[0], p1.velocity[1]])
        x2 = np.array([p2.position.real, p2.position.imag, p2.velocity[0], p2.velocity[1]])
        fused = x1 + gain @ (x2 - x1)
        fused_cov = p1.covariance - gain @ p1.covariance
        out.frames.append(
            TrackPoint(
                frame_index=p1.frame_index,
                position=complex(fused[0], fused[1]),
                velocity=fused[2:].copy(),
                covariance=_symmetrize(fused_cov),
            )
        )
    if not out.frames:
        raise ValueError("tracks share no common frames")
    return out


def export_track_csv(track: Track, path: str | Path) -> None:
    """Write a track as CSV: frame,x,y,vx,vy,p11,p22,p33,p44."""
    write_csv(path, f"# frame={track.frame}\nframe,x,y,vx,vy,p11,p22,p33,p44", (
        [p.frame_index, p.position.real, p.position.imag,
         *p.velocity.tolist(), *p.covariance.diagonal().tolist()]
        for p in track.frames
    ))
