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


# Within this distance of a node a state is `near` it: the array model
# clamps its range there, and the float model refuses it.
_MIN_RANGE = 1e-12


def measurement_model(nodes: np.ndarray, state: np.ndarray) -> tuple[np.ndarray, ...]:
    """The exact measurement model, broadcast over nodes and states.

    `nodes` holds each node's x, y, pi cos phi and pi sin phi as rows
    (4, N, ...), `state` the target's x, y, vx, vy as (4, ...).  With
    the offset d = p - p_i, the range is r = sqrt(dx^2 + dy^2), the unit
    vector u = d/r, the spatial frequency (pi cos phi) ux + (pi sin phi) uy
    and the radial velocity vx ux + vy uy, each in that operation order.

    Returns the offsets and the unit vectors (2, N, ...), the predicted
    range, spatial frequency and radial velocity (3, N, ...), the
    directions (2, 2, N, ...) that u is projected on, each node's
    pi (cos phi, sin phi) then the velocity, and the mask (N, ...) of the
    states `near` a node, within `_MIN_RANGE` of it.  There r^2 is
    clamped to `_MIN_RANGE`^2, so every output stays finite.
    """
    offset = state[:2, None] - nodes[:2]
    squares = offset * offset
    r2 = squares[0] + squares[1]
    near = r2 < _MIN_RANGE * _MIN_RANGE
    if np.count_nonzero(near):
        r2 = np.maximum(r2, _MIN_RANGE * _MIN_RANGE)
    predicted = np.empty((3,) + r2.shape)
    unit = offset / np.sqrt(r2, out=predicted[0])
    directions = np.empty((2,) + unit.shape)
    directions[0] = nodes[2:]
    directions[1] = state[2:, None]
    product = directions * unit
    np.add(product[:, 0], product[:, 1], out=predicted[1:])
    return offset, unit, predicted, directions, near


def _measure_at(
    px: float, py: float, c: float, s: float,
    x: float, y: float, vx: float, vy: float,
) -> tuple[float, ...]:
    """`measurement_model` on floats, bit for bit, for one radar at
    (px, py) whose array direction is (c, s) = (cos phi, sin phi).

    Returns (range, spatial frequency, radial velocity) of the target
    (x, y, vx, vy) and six more floats: the Jacobian entries h00, h01,
    h10, h11, h20, h21 w.r.t. (x, y, vx, vy), that is ux, uy,
    (pi c - omega ux)/r, (pi s - omega uy)/r, (vx - v ux)/r and
    (vy - v uy)/r.  The other six entries follow from them: h22 = h00
    and h23 = h01 (the line-of-sight direction), and the velocity
    columns of the first two rows are zero.  `measure`,
    `measurement_jacobian` and the EKF all call this one kernel.  A
    target within `_MIN_RANGE` of the radar is a ValueError.

    The EKF runs in the node-local frame, where the radar sits at the
    identity pose, and passes (0.0, 0.0, 1.0, 0.0), the exact floats of
    the identity pose's offset, cos 0 and sin 0.
    """
    dx = x - px
    dy = y - py
    r2 = dx * dx + dy * dy
    if r2 < _MIN_RANGE * _MIN_RANGE:
        raise ValueError("target coincides with radar position; range is below 1e-12 m")
    r = math.sqrt(r2)
    ux = dx / r
    uy = dy / r
    pi_c = math.pi * c
    pi_s = math.pi * s
    omega = pi_c * ux + pi_s * uy
    vel = vx * ux + vy * uy
    return (
        r, omega, vel, ux, uy,
        (pi_c - omega * ux) / r, (pi_s - omega * uy) / r,
        (vx - vel * ux) / r, (vy - vel * uy) / r,
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


def boresight_angles(dx, dy, c, s) -> np.ndarray:
    """Angles off boresight, in (-pi, pi], of the offsets (dx, dy) from
    nodes whose array directions are (c, s) = (cos phi, sin phi),
    broadcasting, element by element with `math`; `angle_off_boresight`
    is its one-element case."""
    return elementwise((math.atan2,), dx * c + dy * s, -dx * s + dy * c)[0]


def angle_off_boresight(radar: Pose2D, target: TargetState) -> float:
    """Angle between boresight and the line of sight, in (-pi, pi].

    |result| > pi/2 means the target is behind the array plane.  The
    one-element case of `boresight_angles`.
    """
    dx, dy = target.x - radar.x, target.y - radar.y
    if dx == 0.0 and dy == 0.0:
        raise ValueError("target coincides with radar position; range is zero")
    return float(boresight_angles(np.array(dx), np.array(dy),
                                  math.cos(radar.phi), math.sin(radar.phi)))


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
