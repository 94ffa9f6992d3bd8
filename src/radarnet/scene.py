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
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .geometry import (
    FOV_HALF_ANGLE,
    Detection,
    Pose2D,
    TargetState,
    angle_difference,
    boresight_angles,
    measure,  # noqa: F401  (trace target: radarnet.scene.measure)
    measurement_model,
)

# Desk-scale defaults used beyond the scenario dataclasses: 150 ms
# frames and an 18.07 m maximum unambiguous range.
DEFAULT_FRAME_DURATION = 0.150
MAX_UNAMBIGUOUS_RANGE = 18.07

MAX_HUMAN_SPEED = 3.5

# Seed-stream identifiers so trajectory and measurement noise draws
# are independent for the same scenario seed.
_TRAJECTORY_STREAM = 0
_MEASUREMENT_STREAM = 1


class ConfigError(ValueError):
    """Invalid or incomplete scenario configuration."""


@dataclass(frozen=True)
class NoiseConfig:
    """Per-modality measurement noise standard deviations.

    The defaults equal the desk-scale radar's range, spatial-frequency
    and Doppler resolutions.
    """

    sigma_r: float = 0.035
    sigma_omega: float = math.pi / 4.0
    sigma_v: float = 0.1807

    def __post_init__(self):
        for name in ("sigma_r", "sigma_omega", "sigma_v"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"NoiseConfig.{name} must be finite and > 0")
            # The filter and the solver use the variance; one that
            # underflows to 0 is theirs to handle.
            if not math.isfinite(value * value):
                raise ConfigError(f"NoiseConfig.{name} must have a finite square, got {value!r}")


# The JSON number keys of each trajectory kind; its keys are the kinds.
_TRAJECTORY_KEYS = {"straight": ("speed", "heading_deg"), "random": ("speed_cap", "smoothness")}
TRAJECTORY_KINDS = tuple(_TRAJECTORY_KEYS)


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
        if self.kind not in TRAJECTORY_KINDS:
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
    `max_range` must be > 0 and `fov_half_angle` in (0, pi/2].
    `calibration_trajectory`, when set, is the counterpart trajectory
    the experiment runner uses for the self-calibration stage.
    """

    name: str
    nodes: tuple[Pose2D, ...]
    trajectory: TrajectorySpec
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    frame_duration: float = DEFAULT_FRAME_DURATION
    num_frames: int = 600
    rng_seed: int = 0
    max_range: float = MAX_UNAMBIGUOUS_RANGE
    fov_half_angle: float = FOV_HALF_ANGLE
    calibration_trajectory: TrajectorySpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        # The name is the run directory's: one path component.
        name = self.name
        if type(name) is not str or name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ConfigError("name must be one path component (a non-empty string without "
                              f"'/' or '\\', not '.' or '..'), got {name!r}")
        if self.rng_seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.rng_seed}")
        if self.num_frames < 2:
            raise ConfigError("num_frames must be >= 2")
        if not self.frame_duration > 0.0:
            raise ConfigError("frame_duration must be > 0")
        if len(self.nodes) < 2:
            raise ConfigError("scenario needs at least 2 nodes")
        ref = self.nodes[0]
        if max(abs(ref.x), abs(ref.y), abs(angle_difference(ref.phi, 0.0))) > 1e-12:
            raise ConfigError("node 0 must be the origin pose (0, 0, phi=0)")
        if not self.max_range > 0.0:
            raise ConfigError(f"max_range must be > 0, got {self.max_range}")
        # pi*sin(theta) cannot tell a target behind the array from its
        # mirror in front, so the field of view stays in the front half.
        if not 0.0 < self.fov_half_angle <= math.pi / 2:
            raise ConfigError("fov_half_angle_deg must be in (0, 90], "
                              f"got {math.degrees(self.fov_half_angle)}")


@dataclass(frozen=True)
class MeasurementFrame:
    """Per-frame detections, one optional entry per node."""

    frame_index: int
    per_node: tuple[Detection | None, ...]


@dataclass(frozen=True, eq=False)
class Simulation:
    """A simulated scenario as arrays; frame k is row k of each.

    `truth` holds the (F, 4) target states (x, y, vx, vy) and
    `detections` the (F, N, 3) noisy (range, spatial frequency, radial
    velocity) triples, all NaN where a node cannot see the target.
    `len()` is the number of frames F.
    """

    truth: np.ndarray
    detections: np.ndarray

    def __len__(self) -> int:
        return len(self.truth)

    @property
    def seen(self) -> np.ndarray:
        """The (F, N) mask of the triples that are not all NaN, the
        detecting rows of `fusion.solve_frames`."""
        return ~np.isnan(self.detections).all(axis=-1)

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
    return Simulation(truth, _detect(truth, config))


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


def _sight(poses, states: np.ndarray, max_range: float, fov_half_angle: float):
    """The ideal triples (3, N, F) of `geometry.measurement_model` from the
    node `poses` to the (4, F) `states`, and the (N, F) mask of the states
    each node sees: not near it, no farther than `max_range`, and at most
    `fov_half_angle` off its boresight by `boresight_angles` of the
    model's offsets."""
    cs = np.array([[math.cos(pose.phi), math.sin(pose.phi)] for pose in poses]).T[..., None]
    position = np.array([[pose.x, pose.y] for pose in poses], dtype=float).T[..., None]
    # A target too far for r^2 to be finite is out of range.
    with np.errstate(over="ignore", invalid="ignore"):
        offset, _, predicted, _, near = measurement_model(
            np.concatenate((position, math.pi * cs)), states
        )
        angle = boresight_angles(*offset, *cs)
    seen = ~near & ~(predicted[0] > max_range) & (np.abs(angle) <= fov_half_angle)
    return predicted, seen


def _detect(truth: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """The (F, N, 3) detections of (F, 4) truth rows, NaN where unseen:
    the ideal triples and the visibility rule of `_sight`, plus noise."""
    if len(truth) != config.num_frames:
        raise ConfigError(
            f"truth length {len(truth)} != num_frames {config.num_frames}"
        )
    rng = np.random.default_rng([config.rng_seed, _MEASUREMENT_STREAM])
    draws = rng.standard_normal((len(truth), len(config.nodes), 3))
    noise = config.noise
    predicted, seen = _sight(config.nodes, truth.T, config.max_range, config.fov_half_angle)
    detections = predicted.T + np.array([noise.sigma_r, noise.sigma_omega, noise.sigma_v]) * draws
    detections[..., 1] = np.minimum(math.pi, np.maximum(-math.pi, detections[..., 1]))
    detections[~seen.T] = np.nan
    return detections


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
    """True iff the target is within the node's range and azimuth FoV: the
    one-element case of the simulator's visibility rule."""
    return bool(_sight((node,), target.as_vector()[:, None], max_range, fov_half_angle)[1][0, 0])


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
    return Simulation(rows, _detect(rows, config)).measurement_frames()


# Built-in two-node geometries.  Node 0 is always the origin reference.
# C pins node 1 at (0 m, 7 m, 180 deg): the nodes face each other and
# the target region straddles the line between them.  A and B place the
# second node 7 m away with a 150 deg (facing, laterally offset) and a
# 90 deg relative orientation respectively, boresights converging on
# the shared target region; the trajectories below keep the target
# inside the common field of view for the full sequence.
BUILTIN_NODES = {
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
    if key not in BUILTIN_NODES:
        raise ConfigError(f"unknown builtin scenario {name!r}; expected A, B, or C")
    if trajectory not in TRAJECTORY_KINDS:
        raise ConfigError(f"unknown trajectory kind {trajectory!r}")
    other = "random" if trajectory == "straight" else "straight"
    return ScenarioConfig(
        name=key,
        nodes=BUILTIN_NODES[key],
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

# The reader and the writer share one table of number keys per section
# (a trajectory's are `_TRAJECTORY_KEYS`).
_REQUIRED_KEYS = ("name", "nodes", "trajectory")
_SCENARIO_KEYS = ("frame_duration", "num_frames", "seed", "max_range", "fov_half_angle_deg")
_NODE_KEYS = ("x", "y", "phi_deg")
_NOISE_KEYS = ("sigma_r", "sigma_omega", "sigma_v")


def json_object(value, where: str) -> dict:
    """`value` if it is a JSON object, else a ConfigError naming `where`."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    return value


def json_number(section: dict, where: str, key: str, kind=float):
    """`section[key]` as a finite `kind`, else a ConfigError naming the field.

    The value must be a JSON number (not a string or a boolean); for an
    int `kind` it must be integral."""
    value = section.get(key)
    field = f"{where}.{key}" if where else key
    if type(value) not in (int, float):
        raise ConfigError(f"{field} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinite, or an int too large for a float
        raise ConfigError(f"{field} must be finite, got {value!r}")
    if kind is int and value != int(value):
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    return kind(value)


# Config keys read as integers, and the field each key fills where the
# names differ; a "_deg" key fills the radian field named without it.
_INTEGER_KEYS = ("num_frames", "seed")
_FIELD_NAMES = {"seed": "rng_seed"}


def _json_fields(section: dict, where: str, keys, other=()) -> dict:
    """The numbers `section` holds of `keys`, by field name: every key left
    out of the file takes its dataclass default.  A key of `section` in
    neither `keys` nor `other` is a ConfigError naming it."""
    unknown = [key for key in section if key not in keys and key not in other]
    if unknown:
        field = f"{where}.{unknown[0]}" if where else unknown[0]
        raise ConfigError(f"{field} is not a config key")
    fields = {}
    for key in keys:
        if key in section:
            value = json_number(section, where, key, int if key in _INTEGER_KEYS else float)
            if key.endswith("_deg"):
                key, value = key[:-4], math.radians(value)
            fields[_FIELD_NAMES.get(key, key)] = value
    return fields


def _json_numbers(record, keys) -> dict:
    """The inverse of `_json_fields`: the fields of `record` as the numbers of `keys`."""
    numbers = {}
    for key in keys:
        name = key.removesuffix("_deg")
        value = getattr(record, _FIELD_NAMES.get(name, name))
        numbers[key] = value if name == key else math.degrees(value)
    return numbers


def _trajectory_from_dict(d, where: str = "trajectory") -> TrajectorySpec:
    d = json_object(d, where)
    missing = [k for k in ("kind", "start") if k not in d]
    if missing:
        raise ConfigError(f"{where} section missing keys: {', '.join(missing)}")
    kind, start = d["kind"], d["start"]
    if type(start) is not list or len(start) != 2:
        raise ConfigError(f"{where}.start must be two finite numbers [x, y], got {start!r}")
    start = tuple(json_number({"start": value}, where, "start") for value in start)
    # An unknown kind reads every kind's keys, so that TrajectorySpec names the kind.
    keys = _TRAJECTORY_KEYS.get(kind, sum(_TRAJECTORY_KEYS.values(), ()))
    return TrajectorySpec(kind, start, **_json_fields(d, where, keys, ("kind", "start")))


def _trajectory_to_dict(spec: TrajectorySpec) -> dict:
    return {"kind": spec.kind, "start": list(spec.start),
            **_json_numbers(spec, _TRAJECTORY_KEYS[spec.kind])}


def scenario_to_dict(config: ScenarioConfig) -> dict:
    d = {
        "name": config.name,
        **_json_numbers(config, _SCENARIO_KEYS),
        "nodes": [_json_numbers(node, _NODE_KEYS) for node in config.nodes],
        "noise": _json_numbers(config.noise, _NOISE_KEYS),
        "trajectory": _trajectory_to_dict(config.trajectory),
    }
    if config.calibration_trajectory is not None:
        d["calibration_trajectory"] = _trajectory_to_dict(config.calibration_trajectory)
    return d


def scenario_from_dict(d: dict) -> ScenarioConfig:
    d = json_object(d, "config")
    missing = [k for k in _REQUIRED_KEYS if k not in d]
    if missing:
        raise ConfigError(f"config missing keys: {', '.join(missing)}")
    if not isinstance(d["nodes"], list):
        raise ConfigError(f"nodes must be a list of node objects, got {d['nodes']!r}")
    nodes = []
    for i, nd in enumerate(d["nodes"]):
        where = f"nodes[{i}]"
        nd = json_object(nd, where)
        bad = [k for k in _NODE_KEYS if k not in nd]
        if bad:
            raise ConfigError(f"{where} missing keys: {', '.join(bad)}")
        nodes.append(Pose2D(**_json_fields(nd, where, _NODE_KEYS)))
    noise = NoiseConfig(**_json_fields(json_object(d.get("noise", {}), "noise"), "noise",
                                       _NOISE_KEYS))
    trajectory = _trajectory_from_dict(d["trajectory"])
    numbers = _json_fields(d, "", _SCENARIO_KEYS,
                           _REQUIRED_KEYS + ("noise", "calibration_trajectory"))
    calib = d.get("calibration_trajectory")
    return ScenarioConfig(
        name=d["name"],
        nodes=tuple(nodes),
        trajectory=trajectory,
        noise=noise,
        calibration_trajectory=(
            None if calib is None else _trajectory_from_dict(calib, "calibration_trajectory")
        ),
        **numbers,
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load a scenario config from a JSON file."""
    return scenario_from_dict(read_json(path, "config"))


def save_scenario(config: ScenarioConfig, path: str | Path) -> None:
    write_json(path, scenario_to_dict(config))


def with_seed(config: ScenarioConfig, seed: int) -> ScenarioConfig:
    return replace(config, rng_seed=seed)


def float_cells(values) -> list[str]:
    """The text of every float in the array `values`, in C order.

    Each is the `str` of a Python float (from `.tolist()`, not a numpy
    scalar), the shortest repr that parses back to the same bits.
    """
    return list(map(str, np.ravel(values).tolist()))


def csv_lines(*columns):
    """Comma-joined lines taking one cell string from each of `columns` in turn.

    A column given w times as the same iterator puts w consecutive cells
    of it on each line, so `csv_lines(*[iter(cells)] * w)` cuts flat
    cells into rows of w.
    """
    return map(",".join, zip(*columns))


def write_lines(path: str | Path, header: str, lines) -> None:
    """Write `header` (one or more lines), then each of `lines`."""
    text = [header]
    text.extend(lines)
    Path(path).write_text("\n".join(text) + "\n")


def read_json(path: str | Path, what: str):
    """The JSON value in the file `path`; a ConfigError naming the `what`
    file if it is missing or is not valid UTF-8 JSON."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from None


def json_text(data) -> str:
    """`data` as JSON text: two-space indent, sorted keys."""
    return json.dumps(data, indent=2, sort_keys=True)


def write_json(path: str | Path, data) -> None:
    """Write `json_text(data)` and a final newline."""
    Path(path).write_text(json_text(data) + "\n")


def write_csv(path: str | Path, header: str, rows) -> None:
    """Write `header` (one or more lines), then each row's cells joined by commas.

    Cells must be Python ints, floats or strings; each is written as its
    `str`, which for a float is the shortest repr that parses back to
    the same bits.
    """
    write_lines(path, header, (",".join(map(str, row)) for row in rows))


def export_measurements_csv(sim: Simulation, path: str | Path) -> None:
    """Write a simulation's detections as CSV rows frame,node,range,omega,vr."""
    k, node = np.nonzero(sim.seen)
    cells = iter(float_cells(sim.detections[k, node]))
    write_lines(path, "frame,node,range,omega,vr", csv_lines(
        map(str, k.tolist()), map(str, node.tolist()), *[cells] * 3
    ))


def export_truth_csv(truth, path: str | Path) -> list[str]:
    """Write ground-truth states as CSV rows frame,x,y,vx,vy.

    `truth` holds one (x, y, vx, vy) row of floats per frame, as an
    (F, 4) array or a sequence of rows.  Returns the float cells as
    written, four per frame, so a caller can reuse the text.
    """
    cells = float_cells(truth)
    write_lines(path, "frame,x,y,vx,vy", csv_lines(
        map(str, range(len(cells) // 4)), *[iter(cells)] * 4
    ))
    return cells
