"""The physics' invariances as metamorphic tests: the answer does not
depend on which node is called 0, nor on where the scene sits, which
way it faces, or which side of the node line it is viewed from.

The grid posterior is checked under a relabelling too, at one
estimate.  Iteration counts may change under a relabelling, a rigid transform or a
reflection (the LM's stop tests are not yet scale-aware), so these
tests compare states, covariances and, but for the reflection,
`converged`, and only print how many counts changed.
"""

import cmath
import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from radarnet.calibration import calibrate_pair
from radarnet.experiment import PIPELINE_PRIOR
from radarnet.fusion import (FusionObservation, ObservationEntry, frame_table,
                             posterior_covariance_grid, solve, solve_frames)
from radarnet.geometry import angle_difference
from radarnet.scene import Detection, builtin_scenario, simulate


BUILTINS = list(product("ABC", ("straight", "random")))


def all_node_table(name, kind):
    """Built-in `name`'s frames at seed 7 that every node detected, at the
    true poses, as a frame table, with the scenario's noise."""
    config = builtin_scenario(name, kind, seed=7)
    sim = simulate(config)
    return frame_table(config.nodes, sim.detections[sim.seen.all(axis=1)]), config.noise


def assert_same_estimates(moved, est, position_atol, velocity_atol, covariance_rtol,
                          converged=True):
    """Estimates `moved` against `est`, already carried into the same frame:
    states within the given tolerances, covariances within
    `covariance_rtol` of each frame's largest entry, the same NaN
    covariance rows and, unless `converged` is False, the same
    `converged` flags."""
    assert len(est) > 100
    np.testing.assert_allclose(moved.states[:, :2], est.states[:, :2], rtol=0, atol=position_atol)
    np.testing.assert_allclose(moved.states[:, 2:], est.states[:, 2:], rtol=0, atol=velocity_atol)
    if converged:
        np.testing.assert_array_equal(moved.converged, est.converged)
    nan_rows = np.isnan(est.covariances).any(axis=(1, 2))
    np.testing.assert_array_equal(np.isnan(moved.covariances).any(axis=(1, 2)), nan_rows)
    cov, other = est.covariances[~nan_rows], moved.covariances[~nan_rows]
    scale = np.abs(cov).max(axis=(1, 2))
    assert np.all(np.abs(other - cov).max(axis=(1, 2)) <= covariance_rtol * scale)


@pytest.mark.parametrize("name, kind", BUILTINS)
@pytest.mark.parametrize("mode", ["ml", "bayes"])
def test_solve_frames_ignores_the_node_order(name, kind, mode):
    table, noise = all_node_table(name, kind)
    prior = PIPELINE_PRIOR if mode == "bayes" else None
    est = solve_frames(table, noise, mode, prior)
    relabelled = solve_frames(table[:, ::-1], noise, mode, prior)
    assert_same_estimates(relabelled, est, 1e-6, 1e-3, 1e-4)


@pytest.mark.parametrize("name, kind", BUILTINS)
def test_grid_posterior_ignores_the_node_order(name, kind):
    # Every 50th all-node frame, relabelled and not, at the same estimate.
    config = builtin_scenario(name, kind, seed=7)
    sim = simulate(config)
    frames = np.flatnonzero(sim.seen.all(axis=1))[::50].tolist()
    assert len(frames) >= 6
    for k in frames:
        entries = tuple(ObservationEntry(node, Detection(*det))
                        for node, det in zip(config.nodes, sim.detections[k].tolist()))
        est = solve(FusionObservation(entries), config.noise, "bayes", PIPELINE_PRIOR)
        cov, relabelled = (
            posterior_covariance_grid(FusionObservation(order), config.noise, PIPELINE_PRIOR, est)
            for order in (entries, entries[::-1]))
        assert np.abs(relabelled - cov).max() <= 1e-9 * np.abs(cov).max()


# The rigid transform of every node pose: a rotation by ROTATION about
# the origin, then a shift by SHIFT.
ROTATION = 0.7
SHIFT = (13.5, -8.25)


@pytest.mark.parametrize("name, kind", BUILTINS)
@pytest.mark.parametrize("mode", ["ml", "bayes"])
def test_solve_frames_moves_with_a_rigid_transform(name, kind, mode):
    # The detections are relative to the nodes and stay as they are.  The
    # Bayes prior centres on the closed-form start, which moves with the
    # nodes, and is isotropic in position and in velocity (PriorConfig).
    assert PIPELINE_PRIOR.sigma_x == PIPELINE_PRIOR.sigma_y
    assert PIPELINE_PRIOR.sigma_vx == PIPELINE_PRIOR.sigma_vy
    table, noise = all_node_table(name, kind)
    prior = PIPELINE_PRIOR if mode == "bayes" else None
    est = solve_frames(table, noise, mode, prior)
    c, s = math.cos(ROTATION), math.sin(ROTATION)
    rotation = np.array([[c, -s], [s, c]])
    moved_table = table.copy()
    moved_table[..., :2] = table[..., :2] @ rotation.T + SHIFT
    moved_table[..., 2] += ROTATION
    moved = solve_frames(moved_table, noise, mode, prior)

    # Carry the moved estimates back: states by the inverse transform,
    # covariances by T' C T with T = diag(R, R).
    back = np.zeros((4, 4))
    back[:2, :2] = back[2:, 2:] = rotation
    states = np.concatenate([(moved.states[:, :2] - SHIFT) @ rotation,
                             moved.states[:, 2:] @ rotation], axis=1)
    returned = replace(moved, states=states,
                       covariances=back.T @ moved.covariances @ back)
    changed = np.count_nonzero(moved.iterations != est.iterations)
    print(f"{name} {kind} {mode}: iteration count changed on {changed} of {len(est)} frames")
    assert_same_estimates(returned, est, 1e-6, 1e-3, 1e-4)


@pytest.mark.parametrize("name, kind", BUILTINS)
@pytest.mark.parametrize("mode", ["ml", "bayes"])
def test_solve_frames_reflects_with_a_mirrored_scene(name, kind, mode):
    # Every node reflects across the node 0-1 line, at angle alpha.  The
    # reflection reverses the array, so each heading phi turns to
    # 2 alpha - phi + pi, which keeps the boresight a quarter turn
    # counter-clockwise of the array, and each target then sits as far
    # off boresight on the other side: every spatial frequency changes
    # sign, ranges and radial velocities stay.  The Bayes prior is
    # isotropic (PriorConfig) and centres on the closed-form start, which
    # reflects with the nodes.
    table, noise = all_node_table(name, kind)
    prior = PIPELINE_PRIOR if mode == "bayes" else None
    est = solve_frames(table, noise, mode, prior)
    origin = table[0, 0, :2]
    dx, dy = table[0, 1, :2] - origin
    alpha = math.atan2(dy, dx)
    c, s = math.cos(2.0 * alpha), math.sin(2.0 * alpha)
    # Symmetric, and its own inverse.
    mirror = np.array([[c, s], [s, -c]])
    mirrored = table.copy()
    mirrored[..., :2] = (table[..., :2] - origin) @ mirror + origin
    mirrored[..., 2] = 2.0 * alpha - table[..., 2] + math.pi
    mirrored[..., 4] = -table[..., 4]
    moved = solve_frames(mirrored, noise, mode, prior)

    # Reflect the moved estimates back: covariances by T C T' with
    # T = diag(M, M).
    back = np.zeros((4, 4))
    back[:2, :2] = back[2:, 2:] = mirror
    states = np.concatenate([(moved.states[:, :2] - origin) @ mirror + origin,
                             moved.states[:, 2:] @ mirror], axis=1)
    returned = replace(moved, states=states,
                       covariances=back @ moved.covariances @ back.T)
    changed = np.flatnonzero(moved.iterations != est.iterations).tolist()
    flipped = np.flatnonzero(moved.converged != est.converged).tolist()
    print(f"{name} {kind} {mode}: iteration count changed on {len(changed)} of {len(est)} "
          f"frames {changed}; converged flipped on frames {flipped}")
    # Over the 6,430 frames the largest moves were 6.6e-9 m, 7.2e-5 m/s
    # and a relative 1.9e-5 of a covariance: the rigid transform's
    # tolerances hold them with a margin of 5 or more.
    assert_same_estimates(returned, est, 1e-6, 1e-3, 1e-4, converged=False)


def test_calibrate_pair_swapped_gives_the_inverse_pose():
    # A noisy 200-point pair: track 2 is track 1 seen from pose (p0, phi0).
    rng = np.random.default_rng(16)
    z1 = 3.0 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
    p0, phi0 = complex(4.0, -2.5), 2.2
    z2 = cmath.exp(-1j * phi0) * (z1 - p0)
    z1 = z1 + 0.1 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
    z2 = z2 + 0.1 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))

    forward, backward = calibrate_pair(z1, z2), calibrate_pair(z2, z1)

    assert abs(forward.p21 - p0) < 0.1
    assert abs(backward.p21 - (-cmath.exp(-1j * forward.phi21) * forward.p21)) < 1e-12
    assert abs(angle_difference(backward.phi21, -forward.phi21)) < 1e-12
