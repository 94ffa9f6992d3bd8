"""Closed-form pairwise self-calibration by least-squares track matching.

Two nodes that track a common target each produce a sequence of local
position estimates, written as complex numbers z[k] = x + j*y.  The
relative pose of node 2 in node 1's frame is the (p, phi) minimizing

    J(p, phi) = sum_k |z1[k] - p - exp(j*phi) * z2[k]|^2

which has a closed-form solution: phi is minus the phase of the inner
product of the centered tracks, and p aligns the centroids.  The
module also ships a brute-force grid/golden-section oracle used to
verify global optimality of the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import wrap_angle
from .scene import ConfigError, json_number, json_object, read_json, write_json

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class DegenerateTrackError(ValueError):
    """Raised when the relative orientation is undefined (zero-energy tracks)."""


@dataclass(frozen=True)
class CalibrationResult:
    """Estimated relative pose of node 2 in node 1's frame, plus fit stats."""

    p21: complex
    phi21: float
    j_min: float
    rmse: float
    num_frames: int


def _as_complex(track) -> np.ndarray:
    z = np.asarray(track, dtype=complex).ravel()
    if not np.all(np.isfinite(z.real)) or not np.all(np.isfinite(z.imag)):
        raise ValueError("track contains non-finite positions")
    return z


def _paired(track1, track2) -> tuple[np.ndarray, np.ndarray]:
    z1 = _as_complex(track1)
    z2 = _as_complex(track2)
    if z1.size != z2.size:
        raise ValueError(f"track length mismatch: {z1.size} vs {z2.size}")
    if z1.size == 0:
        raise ValueError("tracks are empty")
    return z1, z2


def calibration_cost(track1, track2, p: complex, phi: float) -> float:
    """Track-matching cost sum_k |z1[k] - p - exp(j*phi)*z2[k]|^2."""
    z1, z2 = _paired(track1, track2)
    residual = z1 - p - np.exp(1j * phi) * z2
    return float(np.sum(residual.real**2 + residual.imag**2))


def calibrate_pair(track1, track2) -> CalibrationResult:
    """Closed-form global minimizer of the track-matching cost.

    Both tracks must be frame-synchronized and of equal length K >= 2.
    Raises DegenerateTrackError when the centered tracks carry no
    shared energy (e.g. a stationary target), which leaves the
    relative orientation undefined.
    """
    z1, z2 = _paired(track1, track2)
    k = z1.size
    if k < 2:
        raise ValueError("calibration needs at least 2 paired frames")
    c1 = z1 - z1.mean()
    c2 = z2 - z2.mean()
    inner = np.vdot(c1, c2)  # conj(c1) . c2
    if inner == 0:
        raise DegenerateTrackError(
            "centered tracks have zero inner product; relative orientation undefined"
        )
    phi = wrap_angle(-np.angle(inner))
    p = z1.mean() - np.exp(1j * phi) * z2.mean()
    # The minimum cost ||c1||^2 + ||c2||^2 - 2|inner| is evaluated as the
    # residual sum at the optimum: identical in exact arithmetic, but free
    # of the catastrophic cancellation the catenated form suffers when the
    # fit is near-exact.
    j_min = calibration_cost(z1, z2, p, phi)
    return CalibrationResult(
        p21=complex(p),
        phi21=phi,
        j_min=j_min,
        rmse=math.sqrt(j_min / k),
        num_frames=k,
    )


def apply_calibration(result: CalibrationResult, track2) -> np.ndarray:
    """Transform node-2 local positions into node 1's frame."""
    z2 = _as_complex(track2)
    return result.p21 + np.exp(1j * result.phi21) * z2


def brute_force_calibration(
    track1,
    track2,
    phi_resolution: float = 1e-3,
    refine_tol: float = 1e-12,
) -> tuple[complex, float, float]:
    """Grid-search oracle for the closed-form solution.

    Sweeps phi over [0, 2*pi) at `phi_resolution`, solving p in closed
    form per phi (p = mean(z1) - exp(j*phi)*mean(z2), the centroid
    alignment that minimizes the cost for fixed phi), then refines the
    best candidate by golden-section search.  Every candidate is scored
    with the literal cost sum, independently of the closed-form pose
    identities.

    Returns (p, phi, cost).
    """
    z1, z2 = _paired(track1, track2)
    if z1.size < 2:
        raise ValueError("calibration needs at least 2 paired frames")
    m1 = z1.mean()
    m2 = z2.mean()

    def cost_at(phi: float) -> float:
        return calibration_cost(z1, z2, m1 - np.exp(1j * phi) * m2, phi)

    n = max(8, int(math.ceil(2.0 * math.pi / phi_resolution)))
    grid = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    costs = np.empty(n)
    # Chunked evaluation keeps the (phi x K) residual matrices small.
    chunk = max(1, 2_000_000 // max(1, z1.size))
    for lo in range(0, n, chunk):
        rot = np.exp(1j * grid[lo : lo + chunk])[:, None]
        p = m1 - rot * m2
        residual = z1[None, :] - p - rot * z2[None, :]
        costs[lo : lo + chunk] = np.sum(residual.real**2 + residual.imag**2, axis=1)
    best = int(np.argmin(costs))
    step = 2.0 * math.pi / n

    # Golden-section refine on the bracket around the best grid point.
    a = grid[best] - step
    b = grid[best] + step
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = cost_at(x1), cost_at(x2)
    while b - a > refine_tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = cost_at(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = cost_at(x2)
    phi = wrap_angle(0.5 * (a + b))
    return complex(m1 - np.exp(1j * phi) * m2), phi, cost_at(phi)


def result_to_dict(result: CalibrationResult) -> dict:
    return {
        "px": result.p21.real,
        "py": result.p21.imag,
        "phi_deg": math.degrees(result.phi21),
        "j_min": result.j_min,
        "rmse": result.rmse,
        "K": result.num_frames,
    }


def result_from_dict(d: dict) -> CalibrationResult:
    """The inverse of `result_to_dict`; a ConfigError naming the field unless
    `d` is an object of finite numbers with an integer K."""
    d = json_object(d, "calibration result")
    px, py, phi_deg, j_min, rmse = (
        json_number(d, "", key) for key in ("px", "py", "phi_deg", "j_min", "rmse")
    )
    k = json_number(d, "", "K", kind=int)
    return CalibrationResult(complex(px, py), wrap_angle(math.radians(phi_deg)), j_min, rmse, k)


def result_path(directory: str | Path, node: int) -> Path:
    """Where node `node`'s calibration result lives in a calibration directory.

    Node 1's is `result.json`; node i >= 2 has `result_node<i>.json`
    beside it.
    """
    return Path(directory) / ("result.json" if node == 1 else f"result_node{node}.json")


def save_result(result: CalibrationResult, path: str | Path) -> None:
    write_json(path, result_to_dict(result))


def load_result(path: str | Path) -> CalibrationResult:
    """A result `save_result` wrote; a ConfigError naming the file if it is
    missing, is not valid JSON or is not a valid result."""
    data = read_json(path, "calibration")
    try:
        return result_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"calibration file {path}: {exc}") from None
