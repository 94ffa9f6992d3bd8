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


def finite_floats(record, names: tuple[str, ...]) -> None:
    """Store each of the frozen dataclass `record`'s fields `names` as a
    float; ValueError naming the first that is not finite."""
    for name in names:
        value = getattr(record, name)
        if type(value) is not float:
            value = float(value)
            object.__setattr__(record, name, value)
        if not math.isfinite(value):
            raise ValueError(f"{type(record).__name__}.{name} must be finite")


def elementwise(functions, *arrays: np.ndarray) -> np.ndarray:
    """Each of the `math` `functions` of the same-shape float `arrays`,
    element by element in Python, stacked on a new first axis.

    `math` rounds as the scalar code does; numpy's counterparts can round
    differently.  The arrays are turned into lists once for all functions.
    """
    args = [a.ravel().tolist() for a in arrays]
    return np.array([list(map(fn, *args)) for fn in functions]).reshape(
        (len(functions),) + arrays[0].shape
    )


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


@dataclass(frozen=True)
class TargetState:
    """Instantaneous planar position and velocity of the point target."""

    x: float
    y: float
    vx: float = 0.0
    vy: float = 0.0

    def __post_init__(self):
        finite_floats(self, ("x", "y", "vx", "vy"))

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
class Detection:
    """One node's (range, spatial frequency, radial velocity) triple: a
    simulated detection, noisy, or an ideal measurement."""

    range: float
    spatial_freq: float
    radial_vel: float

    def __post_init__(self):
        finite_floats(self, ("range", "spatial_freq", "radial_vel"))


def _measure_at(
    px: float, py: float, c: float, s: float,
    x: float, y: float, vx: float, vy: float,
) -> tuple[float, ...]:
    """The exact measurement model on floats, for a radar at (px, py)
    whose array direction is (c, s) = (cos phi, sin phi).

    Returns (range, spatial frequency, radial velocity) of the target
    (x, y, vx, vy) and six more floats: the Jacobian entries h00, h01,
    h10, h11, h20, h21 w.r.t. (x, y, vx, vy).  The other six entries
    follow from them: h22 = h00 and h23 = h01 (the line-of-sight
    direction), and the velocity columns of the first two rows are zero.  `measure`, `measurement_jacobian` and the EKF all
    call this one kernel.

    The EKF runs in the node-local frame, where the radar sits at the
    identity pose, and passes (0.0, 0.0, 1.0, 0.0), the exact floats of
    the identity pose's offset, cos 0 and sin 0.
    """
    dx = x - px
    dy = y - py
    r = math.hypot(dx, dy)
    if r == 0.0:
        raise ValueError("target coincides with radar position; range is zero")
    along_array = dx * c + dy * s
    vel_proj = vx * dx + vy * dy
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


def measure(radar: Pose2D, target: TargetState) -> Detection:
    """All three ideal measurements of a target from one node."""
    return Detection(*_measure_at(
        radar.x, radar.y, math.cos(radar.phi), math.sin(radar.phi),
        target.x, target.y, target.vx, target.vy,
    )[:3])


def measurement_jacobian(radar: Pose2D, state: TargetState) -> np.ndarray:
    """Jacobian of (range, spatial_freq, radial_vel) w.r.t. (x, y, vx, vy)."""
    _, _, _, h00, h01, h10, h11, h20, h21 = _measure_at(
        radar.x, radar.y, math.cos(radar.phi), math.sin(radar.phi),
        state.x, state.y, state.vx, state.vy,
    )
    return np.array([
        [h00, h01, 0.0, 0.0],
        [h10, h11, 0.0, 0.0],
        [h20, h21, h00, h01],
    ])


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


def boresight_angles(dx, dy, c, s) -> np.ndarray:
    """`boresight_angle` of broadcasting arrays, element by element with `math`."""
    return elementwise((math.atan2,), dx * c + dy * s, -dx * s + dy * c)[0]


def angle_off_boresight(radar: Pose2D, target: TargetState) -> float:
    """Angle between boresight and the line of sight, in (-pi, pi].

    |result| > pi/2 means the target is behind the array plane.
    """
    dx, dy = target.x - radar.x, target.y - radar.y
    if dx == 0.0 and dy == 0.0:
        raise ValueError("target coincides with radar position; range is zero")
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


def detection_to_local_cartesian(m: Detection) -> np.ndarray:
    """Convert a (range, spatial frequency) pair to node-local x/y.

    The point lies at distance `range` from the node, rotated theta =
    arcsin(spatial_freq/pi) off the local +y boresight toward local +x.
    Re-measuring the result from the identity pose reproduces the
    inputs exactly.
    """
    return np.array(_local_cartesian(m.range, m.spatial_freq))
