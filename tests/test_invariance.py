"""The physics' invariances as metamorphic tests: the answer does not
depend on which node is called 0.

Iteration counts may change under a relabelling (the LM's stop tests
are not yet scale-aware), so these tests compare states, covariances
and `converged`, never counts.
"""

import cmath
from itertools import product

import numpy as np
import pytest

from radarnet.calibration import calibrate_pair
from radarnet.experiment import PIPELINE_PRIOR
from radarnet.fusion import frame_table, solve_frames
from radarnet.geometry import angle_difference
from radarnet.scene import builtin_scenario, simulate


@pytest.mark.parametrize("name, kind", list(product("ABC", ("straight", "random"))))
@pytest.mark.parametrize("mode", ["ml", "bayes"])
def test_solve_frames_ignores_the_node_order(name, kind, mode):
    config = builtin_scenario(name, kind, seed=7)
    sim = simulate(config)
    table = frame_table(config.nodes, sim.detections[sim.seen.all(axis=1)])
    prior = PIPELINE_PRIOR if mode == "bayes" else None
    est = solve_frames(table, config.noise, mode, prior)
    relabelled = solve_frames(table[:, ::-1], config.noise, mode, prior)

    assert len(est) > 100
    np.testing.assert_allclose(relabelled.states[:, :2], est.states[:, :2], rtol=0, atol=1e-6)
    np.testing.assert_allclose(relabelled.states[:, 2:], est.states[:, 2:], rtol=0, atol=1e-3)
    np.testing.assert_array_equal(relabelled.converged, est.converged)
    nan_rows = np.isnan(est.covariances).any(axis=(1, 2))
    np.testing.assert_array_equal(np.isnan(relabelled.covariances).any(axis=(1, 2)), nan_rows)
    # Relative to each frame's largest covariance entry.
    cov, moved = est.covariances[~nan_rows], relabelled.covariances[~nan_rows]
    scale = np.abs(cov).max(axis=(1, 2))
    assert np.all(np.abs(moved - cov).max(axis=(1, 2)) <= 1e-4 * scale)


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
