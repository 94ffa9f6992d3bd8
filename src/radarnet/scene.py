"""Scenario simulation: ground-truth trajectories and noisy detections.

A scenario is an N-node radar network watching a single moving point
target.  Each frame, every node that can see the target (within the
azimuth field of view and the maximum unambiguous range) emits a
detection: the ideal measurement triple plus independent zero-mean
Gaussian noise per modality.

Scenario configs serialize to JSON; angles appear in config files in
degrees (keys carry a _deg suffix) and in radians everywhere in code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .geometry import (
    FOV_HALF_ANGLE,
    Pose2D,
    TargetState,
    boresight_angle,
    measure,  # noqa: F401  (trace target: radarnet.scene.measure)
)

# Table-driven defaults for the desk-scale experiments: 150 ms frames,
# 600-frame sequences, 18.07 m maximum unambiguous range, and noise
# sigmas equal to the range / spatial-frequency / Doppler resolutions.
DEFAULT_FRAME_DURATION = 0.150
DEFAULT_NUM_FRAMES = 600
MAX_UNAMBIGUOUS_RANGE = 18.07
DEFAULT_SIGMA_R = 0.035
DEFAULT_SIGMA_OMEGA = math.pi / 4.0
DEFAULT_SIGMA_V = 0.1807

MAX_HUMAN_SPEED = 3.5

# Seed-stream identifiers so trajectory and measurement noise draws
# are independent for the same scenario seed.
_TRAJECTORY_STREAM = 0
_MEASUREMENT_STREAM = 1


class ConfigError(ValueError):
    """Invalid or incomplete scenario configuration."""


@dataclass(frozen=True)
class NoiseConfig:
    """Per-modality measurement noise standard deviations."""

    sigma_r: float = DEFAULT_SIGMA_R
    sigma_omega: float = DEFAULT_SIGMA_OMEGA
    sigma_v: float = DEFAULT_SIGMA_V

    def __post_init__(self):
        for name in ("sigma_r", "sigma_omega", "sigma_v"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"NoiseConfig.{name} must be > 0")


@dataclass(frozen=True)
class Detection:
    """One node's noisy (range, spatial frequency, radial velocity) triple."""

    range: float
    spatial_freq: float
    radial_vel: float

    def __post_init__(self):
        for name in ("range", "spatial_freq", "radial_vel"):
            value = getattr(self, name)
            if type(value) is not float:
                value = float(value)
                object.__setattr__(self, name, value)
            if not math.isfinite(value):
                raise ValueError(f"Detection.{name} must be finite")


@dataclass(frozen=True)
class TrajectorySpec:
    """Target motion specification.

    kind "straight": constant velocity speed*(cos heading, sin heading).
    kind "random": mean-reverting (Ornstein-Uhlenbeck style) velocity
    walk with correlation time `smoothness` seconds and speed clamped
    to `speed_cap`.
    """

    kind: str
    start: tuple[float, float]
    speed: float = 1.0
    heading: float = 0.0
    speed_cap: float = 1.0
    smoothness: float = 2.0

    def __post_init__(self):
        if self.kind not in ("straight", "random"):
            raise ConfigError(f"unknown trajectory kind: {self.kind!r}")
        limit = self.speed if self.kind == "straight" else self.speed_cap
        if not 0.0 < limit <= MAX_HUMAN_SPEED:
            raise ConfigError(
                f"trajectory speed must be in (0, {MAX_HUMAN_SPEED}] m/s, got {limit}"
            )
        if self.kind == "random" and not self.smoothness > 0.0:
            raise ConfigError("trajectory smoothness must be > 0")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulated scenario.

    Node 0 is the calibration reference and must be the origin pose.
    `calibration_trajectory`, when set, is the counterpart trajectory
    the experiment runner uses for the self-calibration stage.
    """

    name: str
    nodes: tuple[Pose2D, ...]
    trajectory: TrajectorySpec
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    frame_duration: float = DEFAULT_FRAME_DURATION
    num_frames: int = DEFAULT_NUM_FRAMES
    rng_seed: int = 0
    max_range: float = MAX_UNAMBIGUOUS_RANGE
    fov_half_angle: float = FOV_HALF_ANGLE
    calibration_trajectory: TrajectorySpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if self.num_frames < 2:
            raise ConfigError("num_frames must be >= 2")
        if not self.frame_duration > 0.0:
            raise ConfigError("frame_duration must be > 0")
        if len(self.nodes) < 2:
            raise ConfigError("scenario needs at least 2 nodes")
        ref = self.nodes[0]
        if abs(ref.x) > 1e-12 or abs(ref.y) > 1e-12 or ref.phi > 1e-12:
            raise ConfigError("node 1 must be the origin pose (0, 0, phi=0)")


@dataclass(frozen=True)
class MeasurementFrame:
    """Per-frame detections, one optional entry per node."""

    frame_index: int
    per_node: tuple[Detection | None, ...]


@dataclass(frozen=True, eq=False)
class Simulation:
    """A simulated scenario as arrays; frame k is row k of each.

    `truth` holds the (F, 4) target states (x, y, vx, vy), `detections`
    the (F, N, 3) noisy (range, spatial frequency, radial velocity)
    triples, NaN where a node cannot see the target, and `seen` the
    (F, N) visibility mask.  `len()` is the number of frames F.
    """

    truth: np.ndarray
    detections: np.ndarray
    seen: np.ndarray

    def __len__(self) -> int:
        return len(self.truth)

    def target_states(self) -> list[TargetState]:
        """`truth` as one TargetState per frame."""
        return [TargetState(*row) for row in self.truth.tolist()]

    def measurement_frames(self) -> list[MeasurementFrame]:
        """`detections` as one MeasurementFrame per frame, None where unseen."""
        return [
            MeasurementFrame(k, tuple(
                Detection(*det) if seen else None for det, seen in zip(dets, visible)
            ))
            for k, (dets, visible) in enumerate(
                zip(self.detections.tolist(), self.seen.tolist())
            )
        ]


def simulate(config: ScenarioConfig) -> Simulation:
    """A scenario's trajectory and per-node detections, deterministic in its seed.

    The array form of `generate_trajectory` followed by
    `synthesize_measurements`, bit for bit.
    """
    truth = _trajectory(
        config.trajectory, config.num_frames, config.frame_duration, config.rng_seed
    )
    return Simulation(truth, *_detect(truth, config))


def _trajectory(spec: TrajectorySpec, num_frames: int, dt: float, seed: int) -> np.ndarray:
    """`generate_trajectory` as an (F, 4) array."""
    if num_frames < 2:
        raise ConfigError("num_frames must be >= 2")
    if spec.kind == "straight":
        vx = spec.speed * math.cos(spec.heading)
        vy = spec.speed * math.sin(spec.heading)
        x0, y0 = spec.start
        elapsed = np.arange(num_frames) * dt
        truth = np.empty((num_frames, 4))
        truth[:, 0] = x0 + elapsed * vx
        truth[:, 1] = y0 + elapsed * vy
        truth[:, 2] = vx
        truth[:, 3] = vy
        return truth

    rng = np.random.default_rng([seed, _TRAJECTORY_STREAM])
    # Mean-reverting velocity walk with a weak critically-damped pull
    # toward the start point, so the target wanders inside a region of
    # a few meters (like a person pacing a marked area) instead of
    # drifting out of every field of view over a 90 s sequence.
    # Stationary per-axis velocity std is sized so the speed cap only
    # clips occasional excursions.
    gamma = 1.0 / spec.smoothness
    spring = 0.25 * gamma * gamma
    sigma_axis = spec.speed_cap / 2.5
    kick = sigma_axis * math.sqrt(2.0 * gamma * dt)
    # The initial velocity, then one kick per frame (the last unused),
    # each drawn in one call; the walk steps on floats per axis.
    n0, n1 = rng.standard_normal(2).tolist()
    kicks = rng.standard_normal((num_frames, 2))
    cx, cy = (float(v) for v in spec.start)
    px, py = cx, cy
    vx, vy = sigma_axis * n0, sigma_axis * n1
    states = []
    for k0, k1 in kicks.tolist():
        speed = math.hypot(vx, vy)
        if speed > spec.speed_cap:
            scale = spec.speed_cap / speed
            vx *= scale
            vy *= scale
        states.append((px, py, vx, vy))
        px = px + vx * dt
        py = py + vy * dt
        vx = vx - (gamma * vx + spring * (px - cx)) * dt + kick * k0
        vy = vy - (gamma * vy + spring * (py - cy)) * dt + kick * k1
    return np.array(states)


def _elementwise(fn, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`fn` of two same-shape float arrays, element by element in Python.

    For `math` functions whose numpy counterparts round differently.
    """
    return np.array(list(map(fn, a.ravel().tolist(), b.ravel().tolist()))).reshape(a.shape)


def _detect(truth: np.ndarray, config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """The (F, N, 3) detections and (F, N) visibility of (F, 4) truth rows.

    The exact measurement model and the visibility rule of `is_visible`,
    broadcast over frames and nodes with each element's operations in
    the scalar order; the range and angle use `math`.
    """
    if len(truth) != config.num_frames:
        raise ConfigError(
            f"truth length {len(truth)} != num_frames {config.num_frames}"
        )
    rng = np.random.default_rng([config.rng_seed, _MEASUREMENT_STREAM])
    draws = rng.standard_normal((len(truth), len(config.nodes), 3))
    noise = config.noise
    node_x = np.array([node.x for node in config.nodes], dtype=float)
    node_y = np.array([node.y for node in config.nodes], dtype=float)
    c = np.array([math.cos(node.phi) for node in config.nodes])
    s = np.array([math.sin(node.phi) for node in config.nodes])
    x, y, vx, vy = (truth[:, i, None] for i in range(4))
    dx = x - node_x
    dy = y - node_y
    r = _elementwise(math.hypot, dx, dy)
    along_array = dx * c + dy * s
    angle = _elementwise(math.atan2, along_array, -dx * s + dy * c)
    seen = (r != 0.0) & ~(r > config.max_range) & (np.abs(angle) <= config.fov_half_angle)
    detections = np.empty(draws.shape)
    with np.errstate(divide="ignore", invalid="ignore"):  # r = 0 only where unseen
        omega = math.pi * along_array / r + noise.sigma_omega * draws[..., 1]
        detections[..., 0] = r + noise.sigma_r * draws[..., 0]
        detections[..., 1] = np.minimum(math.pi, np.maximum(-math.pi, omega))
        detections[..., 2] = (vx * dx + vy * dy) / r + noise.sigma_v * draws[..., 2]
    detections[~seen] = np.nan
    return detections, seen


def generate_trajectory(
    spec: TrajectorySpec, num_frames: int, dt: float, seed: int
) -> list[TargetState]:
    """Generate `num_frames` target states, deterministic in `seed`.

    Positions integrate the per-frame velocity with step dt, so frame
    k+1 sits at p[k] + v[k]*dt.  A list view of `simulate`'s truth.
    """
    return [TargetState(*row) for row in _trajectory(spec, num_frames, dt, seed).tolist()]


def is_visible(
    node: Pose2D,
    target: TargetState,
    max_range: float = MAX_UNAMBIGUOUS_RANGE,
    fov_half_angle: float = FOV_HALF_ANGLE,
) -> bool:
    """True iff the target is within the node's range and azimuth FoV."""
    dx, dy = target.x - node.x, target.y - node.y
    r = math.hypot(dx, dy)
    if r == 0.0 or r > max_range:
        return False
    return abs(boresight_angle(dx, dy, math.cos(node.phi), math.sin(node.phi))) <= fov_half_angle


def synthesize_measurements(
    truth: list[TargetState], config: ScenarioConfig
) -> list[MeasurementFrame]:
    """Per-node noisy detections for every frame of a truth trajectory.

    Noise draws are independent across frames, nodes, and modalities;
    the spatial frequency is clamped to [-pi, pi] after noise addition.
    Nodes that cannot see the target contribute None.  The scenario's
    noise is drawn in one call, frame by frame, node by node, three
    draws each, whether or not the node sees the target.  A list view
    of `simulate`'s detections.
    """
    rows = np.array([(t.x, t.y, t.vx, t.vy) for t in truth]).reshape(-1, 4)
    return Simulation(rows, *_detect(rows, config)).measurement_frames()


# Built-in two-node geometries.  Node 0 is always the origin reference.
# C pins node 1 at (0 m, 7 m, 180 deg): the nodes face each other and
# the target region straddles the line between them.  A and B place the
# second node 7 m away with a 150 deg (facing, laterally offset) and a
# 90 deg relative orientation respectively, boresights converging on
# the shared target region; the trajectories below keep the target
# inside the common field of view for the full sequence.
_BUILTIN_NODES = {
    "A": (Pose2D(0.0, 0.0, 0.0), Pose2D(3.5, math.sqrt(49.0 - 3.5**2), math.radians(150.0))),
    "B": (Pose2D(0.0, 0.0, 0.0), Pose2D(7.0 / math.sqrt(2.0), 7.0 / math.sqrt(2.0), math.pi / 2.0)),
    "C": (Pose2D(0.0, 0.0, 0.0), Pose2D(0.0, 7.0, math.pi)),
}

_BUILTIN_TRAJECTORIES = {
    "A": {
        "straight": TrajectorySpec(
            "straight", start=(3.0, 2.2), speed=0.05, heading=math.radians(150.0)
        ),
        "random": TrajectorySpec("random", start=(1.0, 3.2), speed_cap=0.6),
    },
    "B": {
        "straight": TrajectorySpec(
            "straight", start=(2.8, 2.2), speed=0.045, heading=math.radians(135.0)
        ),
        "random": TrajectorySpec("random", start=(0.8, 4.4), speed_cap=0.7, smoothness=2.5),
    },
    "C": {
        "straight": TrajectorySpec(
            "straight", start=(-2.0, 2.6), speed=0.05, heading=math.radians(35.0)
        ),
        "random": TrajectorySpec("random", start=(0.0, 3.5), speed_cap=0.8),
    },
}


def builtin_scenario(name: str, trajectory: str = "straight", seed: int = 0) -> ScenarioConfig:
    """One of the built-in two-node scenarios A, B, or C.

    `trajectory` selects the evaluation trajectory kind; the other kind
    is attached as the calibration counterpart.
    """
    key = name.upper()
    if key not in _BUILTIN_NODES:
        raise ConfigError(f"unknown builtin scenario {name!r}; expected A, B, or C")
    if trajectory not in ("straight", "random"):
        raise ConfigError(f"unknown trajectory kind {trajectory!r}")
    other = "random" if trajectory == "straight" else "straight"
    return ScenarioConfig(
        name=key,
        nodes=_BUILTIN_NODES[key],
        trajectory=_BUILTIN_TRAJECTORIES[key][trajectory],
        rng_seed=seed,
        calibration_trajectory=_BUILTIN_TRAJECTORIES[key][other],
    )


def counterpart_trajectory(
    spec: TrajectorySpec, num_frames: int, dt: float
) -> TrajectorySpec:
    """Derive the opposite-kind trajectory for the calibration stage.

    Used when a config does not declare one explicitly: a straight
    spec's counterpart is a random walk started at the path midpoint;
    a random spec's counterpart is a straight crossing of the start
    point at the same nominal speed.
    """
    if spec.kind == "straight":
        half = 0.5 * spec.speed * num_frames * dt
        mid = (
            spec.start[0] + half * math.cos(spec.heading),
            spec.start[1] + half * math.sin(spec.heading),
        )
        return TrajectorySpec(
            "random", start=mid, speed_cap=min(MAX_HUMAN_SPEED, max(0.5, spec.speed))
        )
    length = min(4.5, 0.6 * spec.speed_cap * num_frames * dt)
    speed = length / (num_frames * dt)
    start = (spec.start[0] - 0.5 * length, spec.start[1])
    return TrajectorySpec("straight", start=start, speed=speed, heading=0.0)


# -- JSON config schema -------------------------------------------------

_REQUIRED_KEYS = ("name", "nodes", "trajectory")


def _trajectory_to_dict(spec: TrajectorySpec) -> dict:
    d: dict = {"kind": spec.kind, "start": list(spec.start)}
    if spec.kind == "straight":
        d["speed"] = spec.speed
        d["heading_deg"] = math.degrees(spec.heading)
    else:
        d["speed_cap"] = spec.speed_cap
        d["smoothness"] = spec.smoothness
    return d


def _section(value, where: str) -> dict:
    """`value` if it is a JSON object, else a ConfigError naming `where`."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    return value


def _number(section: dict, where: str, key: str, default=None, kind=float):
    """`section[key]` (or `default`) as a finite `kind`, else a ConfigError naming the field."""
    value = section.get(key, default)
    field = f"{where}.{key}" if where else key
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{field} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{field} must be finite, got {value!r}")
    return number


def _trajectory_from_dict(d, where: str = "trajectory") -> TrajectorySpec:
    d = _section(d, where)
    missing = [k for k in ("kind", "start") if k not in d]
    if missing:
        raise ConfigError(f"{where} section missing keys: {', '.join(missing)}")
    kind = d["kind"]
    try:
        start = tuple(float(v) for v in d["start"])
        if len(start) != 2 or not all(map(math.isfinite, start)):
            raise ValueError
    except (TypeError, ValueError):
        raise ConfigError(
            f"{where}.start must be two finite numbers [x, y], got {d['start']!r}"
        ) from None
    if kind == "straight":
        return TrajectorySpec(
            kind,
            start=start,
            speed=_number(d, where, "speed", 1.0),
            heading=math.radians(_number(d, where, "heading_deg", 0.0)),
        )
    return TrajectorySpec(
        kind,
        start=start,
        speed_cap=_number(d, where, "speed_cap", 1.0),
        smoothness=_number(d, where, "smoothness", 2.0),
    )


def scenario_to_dict(config: ScenarioConfig) -> dict:
    d = {
        "name": config.name,
        "seed": config.rng_seed,
        "frame_duration": config.frame_duration,
        "num_frames": config.num_frames,
        "max_range": config.max_range,
        "fov_half_angle_deg": math.degrees(config.fov_half_angle),
        "nodes": [
            {"x": n.x, "y": n.y, "phi_deg": math.degrees(n.phi)} for n in config.nodes
        ],
        "noise": {
            "sigma_r": config.noise.sigma_r,
            "sigma_omega": config.noise.sigma_omega,
            "sigma_v": config.noise.sigma_v,
        },
        "trajectory": _trajectory_to_dict(config.trajectory),
    }
    if config.calibration_trajectory is not None:
        d["calibration_trajectory"] = _trajectory_to_dict(config.calibration_trajectory)
    return d


def scenario_from_dict(d: dict) -> ScenarioConfig:
    d = _section(d, "config")
    missing = [k for k in _REQUIRED_KEYS if k not in d]
    if missing:
        raise ConfigError(f"config missing keys: {', '.join(missing)}")
    if not isinstance(d["nodes"], list):
        raise ConfigError(f"nodes must be a list of node objects, got {d['nodes']!r}")
    nodes = []
    for i, nd in enumerate(d["nodes"]):
        where = f"nodes[{i}]"
        nd = _section(nd, where)
        bad = [k for k in ("x", "y", "phi_deg") if k not in nd]
        if bad:
            raise ConfigError(f"{where} missing keys: {', '.join(bad)}")
        x, y, phi_deg = (_number(nd, where, k) for k in ("x", "y", "phi_deg"))
        nodes.append(Pose2D(x, y, math.radians(phi_deg)))
    noise_d = _section(d.get("noise", {}), "noise")
    noise = NoiseConfig(
        sigma_r=_number(noise_d, "noise", "sigma_r", DEFAULT_SIGMA_R),
        sigma_omega=_number(noise_d, "noise", "sigma_omega", DEFAULT_SIGMA_OMEGA),
        sigma_v=_number(noise_d, "noise", "sigma_v", DEFAULT_SIGMA_V),
    )
    calib = d.get("calibration_trajectory")
    return ScenarioConfig(
        name=str(d["name"]),
        nodes=tuple(nodes),
        trajectory=_trajectory_from_dict(d["trajectory"]),
        noise=noise,
        frame_duration=_number(d, "", "frame_duration", DEFAULT_FRAME_DURATION),
        num_frames=_number(d, "", "num_frames", DEFAULT_NUM_FRAMES, int),
        rng_seed=_number(d, "", "seed", 0, int),
        max_range=_number(d, "", "max_range", MAX_UNAMBIGUOUS_RANGE),
        fov_half_angle=math.radians(
            _number(d, "", "fov_half_angle_deg", math.degrees(FOV_HALF_ANGLE))
        ),
        calibration_trajectory=(
            None if calib is None else _trajectory_from_dict(calib, "calibration_trajectory")
        ),
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load a scenario config from a JSON file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return scenario_from_dict(raw)


def save_scenario(config: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(config), indent=2, sort_keys=True) + "\n")


def with_seed(config: ScenarioConfig, seed: int) -> ScenarioConfig:
    return replace(config, rng_seed=seed)


def write_csv(path: str | Path, header: str, rows) -> None:
    """Write `header` (one or more lines), then each row's cells joined by commas.

    Cells must be Python ints, floats or strings; each is written as its
    `str`, which for a float is the shortest repr that parses back to
    the same bits.
    """
    lines = [header]
    lines.extend(",".join(map(str, row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def export_measurements_csv(frames: Simulation | list[MeasurementFrame], path: str | Path) -> None:
    """Write detections as CSV rows frame,node,range,omega,vr."""
    if isinstance(frames, Simulation):
        k, node = np.nonzero(frames.seen)
        rows = zip(k.tolist(), node.tolist(), *frames.detections[k, node].T.tolist())
    else:
        rows = (
            (frame.frame_index, i, det.range, det.spatial_freq, det.radial_vel)
            for frame in frames
            for i, det in enumerate(frame.per_node)
            if det is not None
        )
    write_csv(path, "frame,node,range,omega,vr", rows)


def export_truth_csv(truth, path: str | Path) -> None:
    """Write ground-truth states as CSV rows frame,x,y,vx,vy.

    `truth` holds one TargetState or one (x, y, vx, vy) row per frame; a
    row's cells are floats or the strings to write for them.
    """
    write_csv(path, "frame,x,y,vx,vy", (
        (k, *((s.x, s.y, s.vx, s.vy) if isinstance(s, TargetState) else s))
        for k, s in enumerate(truth)
    ))
