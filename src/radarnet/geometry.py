"""Planar geometry and the exact radar measurement model.

Conventions used throughout the package:

- Global frame: right-handed x/y in meters, angles counter-clockwise
  from +x in radians.
- A node's antenna array lies along the unit vector (cos phi, sin phi);
  its boresight (broadside) is that vector rotated by +90 degrees,
  i.e. (-sin phi, cos phi).  A node with phi = 0 has a horizontal
  array and looks along +y.
- Node-local frame: array along local +x, boresight along local +y.
- A target at angle theta off boresight (positive toward the array's
  +x end) has spatial frequency omega = pi * sin(theta) for the
  half-wavelength virtual array assumed here.
- Radial velocity is the projection of the target velocity onto the
  node-to-target line of sight; positive means receding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Azimuth half field of view. Targets more than this far off boresight
# are not detected by the simulator.
FOV_HALF_ANGLE = math.radians(60.0)


def wrap_angle(angle: float) -> float:
    """Normalize an angle to [0, 2*pi)."""
    wrapped = math.fmod(angle, TWO_PI)
    if wrapped < 0.0:
        wrapped += TWO_PI
    return wrapped


def angle_difference(a: float, b: float) -> float:
    """Signed wrapped difference a - b, in (-pi, pi]."""
    d = math.fmod(a - b, TWO_PI)
    if d > math.pi:
        d -= TWO_PI
    elif d <= -math.pi:
        d += TWO_PI
    return d


def rotation_matrix(phi: float) -> np.ndarray:
    """Standard 2D counter-clockwise rotation matrix."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class Pose2D:
    """A radar node's position and array orientation in the global frame.

    phi is normalized to [0, 2*pi) at construction.
    """

    x: float
    y: float
    phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "phi", wrap_angle(float(self.phi)))

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])

    @property
    def array_direction(self) -> np.ndarray:
        """Unit vector along the antenna array."""
        return np.array([math.cos(self.phi), math.sin(self.phi)])

    @property
    def boresight(self) -> np.ndarray:
        """Unit vector along boresight (array direction rotated +90 deg)."""
        return np.array([-math.sin(self.phi), math.cos(self.phi)])


@dataclass(frozen=True)
class TargetState:
    """Instantaneous planar position and velocity of the point target."""

    x: float
    y: float
    vx: float = 0.0
    vy: float = 0.0

    def __post_init__(self):
        for name in ("x", "y", "vx", "vy"):
            value = getattr(self, name)
            if type(value) is not float:
                value = float(value)
                object.__setattr__(self, name, value)
            if not math.isfinite(value):
                raise ValueError(f"TargetState.{name} must be finite")

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])

    @property
    def velocity(self) -> np.ndarray:
        return np.array([self.vx, self.vy])

    @property
    def speed(self) -> float:
        return math.hypot(self.vx, self.vy)

    def as_vector(self) -> np.ndarray:
        return np.array([self.x, self.y, self.vx, self.vy])

    @classmethod
    def from_vector(cls, theta: np.ndarray) -> "TargetState":
        x, y, vx, vy = (float(v) for v in theta)
        return cls(x, y, vx, vy)


@dataclass(frozen=True)
class IdealMeasurement:
    """Noise-free (range, spatial frequency, radial velocity) triple."""

    range: float
    spatial_freq: float
    radial_vel: float


def _offset(radar: Pose2D, x: float, y: float) -> tuple[float, float, float]:
    """Target offset from the radar and its norm; rejects coincident input."""
    dx = x - radar.x
    dy = y - radar.y
    r = math.hypot(dx, dy)
    if r == 0.0:
        raise ValueError("target coincides with radar position; range is zero")
    return dx, dy, r


def _measure_floats(
    radar: Pose2D, x: float, y: float, vx: float, vy: float, jacobian: bool
) -> tuple[float, ...]:
    """The exact measurement model on floats, written once.

    Returns (range, spatial frequency, radial velocity) and, with
    `jacobian`, six more floats: the Jacobian entries h00, h01, h10,
    h11, h20, h21 w.r.t. (x, y, vx, vy).  The other six entries follow
    from them: h22 = h00 and h23 = h01 (the line-of-sight direction),
    and the velocity columns of the first two rows are zero.
    """
    dx, dy, r = _offset(radar, x, y)
    c, s = math.cos(radar.phi), math.sin(radar.phi)
    along_array = dx * c + dy * s
    vel_proj = vx * dx + vy * dy
    if not jacobian:
        return r, math.pi * along_array / r, vel_proj / r
    r2 = r * r
    r3 = r2 * r
    return (
        r, math.pi * along_array / r, vel_proj / r,
        dx / r, dy / r,
        math.pi * (c * r2 - along_array * dx) / r3,
        math.pi * (s * r2 - along_array * dy) / r3,
        (vx * r2 - vel_proj * dx) / r3,
        (vy * r2 - vel_proj * dy) / r3,
    )


def measure_with_jacobian(
    radar: Pose2D, x: float, y: float, vx: float, vy: float, jacobian: bool = True
) -> tuple[float, float, float, np.ndarray | None]:
    """Range, spatial frequency, radial velocity and their 3x4 Jacobian.

    The Jacobian is analytic, w.r.t. (x, y, vx, vy), and None unless
    `jacobian` is set.  Like `measure`, `measurement_jacobian` and the
    per-quantity `measure_*` functions, this is a view of the one float
    kernel the EKF step calls directly.
    """
    if not jacobian:
        return *_measure_floats(radar, x, y, vx, vy, False), None
    r, omega, radial_vel, h00, h01, h10, h11, h20, h21 = _measure_floats(
        radar, x, y, vx, vy, True
    )
    jac = np.array([
        [h00, h01, 0.0, 0.0],
        [h10, h11, 0.0, 0.0],
        [h20, h21, h00, h01],
    ])
    return r, omega, radial_vel, jac


def measure(radar: Pose2D, target: TargetState) -> IdealMeasurement:
    """All three ideal measurements of a target from one node."""
    return IdealMeasurement(
        *_measure_floats(radar, target.x, target.y, target.vx, target.vy, False)
    )


def measurement_jacobian(radar: Pose2D, state: TargetState) -> np.ndarray:
    """Jacobian of (range, spatial_freq, radial_vel) w.r.t. (x, y, vx, vy)."""
    return measure_with_jacobian(radar, state.x, state.y, state.vx, state.vy)[3]


def measure_range(radar: Pose2D, target: TargetState) -> float:
    """Euclidean distance from the radar to the target, in meters."""
    return measure(radar, target).range


def measure_radial_velocity(radar: Pose2D, target: TargetState) -> float:
    """Target velocity projected on the radar-to-target line of sight.

    Positive values mean the target is receding from the radar.
    """
    return measure(radar, target).radial_vel


def measure_spatial_frequency(radar: Pose2D, target: TargetState) -> float:
    """Spatial frequency pi*sin(theta) of the target, in radians.

    theta is the angle off boresight; the result lies in [-pi, pi].
    """
    return measure(radar, target).spatial_freq


def aoa_from_spatial_frequency(omega: float) -> float:
    """Angle off boresight theta = arcsin(omega/pi), in [-pi/2, pi/2]."""
    if abs(omega) > math.pi:
        raise ValueError(f"|spatial frequency| exceeds pi: {omega!r}")
    return math.asin(omega / math.pi)


def boresight_angle(dx: float, dy: float, c: float, s: float) -> float:
    """Angle off boresight of the offset (dx, dy) from a node whose
    array direction is (c, s) = (cos phi, sin phi), in (-pi, pi].

    The float form of `angle_off_boresight`, for callers that hold a
    node's cosine and sine already; the offset must be nonzero.
    """
    return math.atan2(dx * c + dy * s, -dx * s + dy * c)


def angle_off_boresight(radar: Pose2D, target: TargetState) -> float:
    """Angle between boresight and the line of sight, in (-pi, pi].

    |result| > pi/2 means the target is behind the array plane.
    """
    dx, dy, _ = _offset(radar, target.x, target.y)
    return boresight_angle(dx, dy, math.cos(radar.phi), math.sin(radar.phi))


def local_to_global(node: Pose2D, local_point) -> np.ndarray:
    """Map node-local coordinates to the global frame.

    Applies the rotation R(phi) followed by the translation to the
    node position.
    """
    p = np.asarray(local_point, dtype=float)
    return rotation_matrix(node.phi) @ p + node.position


def global_to_local(node: Pose2D, global_point) -> np.ndarray:
    """Inverse of local_to_global."""
    p = np.asarray(global_point, dtype=float)
    return rotation_matrix(-node.phi) @ (p - node.position)


def _local_cartesian(range_: float, spatial_freq: float) -> tuple[float, float]:
    """`detection_to_local_cartesian` on floats."""
    if not range_ > 0.0:
        raise ValueError(f"range must be positive, got {range_!r}")
    theta = aoa_from_spatial_frequency(spatial_freq)
    return range_ * math.sin(theta), range_ * math.cos(theta)


def detection_to_local_cartesian(m: IdealMeasurement) -> np.ndarray:
    """Convert a (range, spatial frequency) pair to node-local x/y.

    The point lies at distance `range` from the node, rotated theta =
    arcsin(spatial_freq/pi) off the local +y boresight toward local +x.
    Re-measuring the result from the identity pose reproduces the
    inputs exactly.
    """
    return np.array(_local_cartesian(m.range, m.spatial_freq))
