"""Closed-form pairwise calibration against brute-force and algebraic oracles."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radarnet.calibration import (
    CalibrationResult,
    DegenerateTrackError,
    apply_calibration,
    brute_force_calibration,
    calibrate_pair,
    calibration_cost,
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from radarnet.geometry import angle_difference, wrap_angle


def random_track(rng, k=600, scale=3.0):
    return scale * (rng.standard_normal(k) + 1j * rng.standard_normal(k))


def forward_pair(rng, k=600, noise=0.0):
    """track1 plus its exact image under a random rigid motion, plus noise."""
    track1 = random_track(rng, k)
    p0 = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
    phi0 = rng.uniform(0, 2 * math.pi)
    track2 = cmath.exp(-1j * phi0) * (track1 - p0)
    if noise > 0.0:
        track1 = track1 + noise * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
        track2 = track2 + noise * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    return track1, track2, p0, phi0


class TestCost:
    def test_identical_tracks_zero(self):
        z = random_track(np.random.default_rng(0), 50)
        assert calibration_cost(z, z, 0.0, 0.0) == 0.0

    def test_single_term(self):
        assert calibration_cost([1 + 0j], [0j], 0.0, 0.0) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            calibration_cost([1j, 2j], [1j], 0.0, 0.0)

    def test_cost_at_estimate_equals_j_min(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            z1, z2, _, _ = forward_pair(rng, k=200, noise=0.05)
            res = calibrate_pair(z1, z2)
            cost = calibration_cost(z1, z2, res.p21, res.phi21)
            assert cost == pytest.approx(res.j_min, abs=1e-9)


class TestCalibratePair:
    def test_identity(self):
        z = random_track(np.random.default_rng(2), 100)
        res = calibrate_pair(z, z)
        assert abs(res.p21) < 1e-12
        assert min(res.phi21, 2 * math.pi - res.phi21) < 1e-12
        assert res.j_min < 1e-18
        assert res.rmse == math.sqrt(res.j_min / 100)

    @given(st.integers(0, 5_000))
    @settings(max_examples=50, derandomize=True, deadline=None)
    def test_exact_recovery(self, case):
        rng = np.random.default_rng(case)
        z1, z2, p0, phi0 = forward_pair(rng, k=600)
        res = calibrate_pair(z1, z2)
        assert abs(res.p21 - p0) < 1e-9
        assert abs(angle_difference(res.phi21, phi0)) < 1e-9
        assert res.j_min < 1e-18

    def test_rmse_definition_bit_exact(self):
        rng = np.random.default_rng(3)
        z1, z2, _, _ = forward_pair(rng, noise=0.1)
        res = calibrate_pair(z1, z2)
        assert res.rmse == math.sqrt(res.j_min / res.num_frames)

    def test_degenerate_stationary_target(self):
        z1 = np.full(10, 1.0 + 2.0j)
        z2 = np.full(10, -0.5 + 0.5j)
        with pytest.raises(DegenerateTrackError):
            calibrate_pair(z1, z2)

    def test_too_short(self):
        with pytest.raises(ValueError):
            calibrate_pair([1j], [2j])

    @pytest.mark.parametrize("z1, z2, message", [
        ([1j, complex(math.nan, 0.0)], [2j, 1.0], "non-finite"),
        ([1j, 1.0], [2j, complex(0.0, math.inf)], "non-finite"),
        ([], [], "empty"),
    ])
    def test_bad_tracks_rejected(self, z1, z2, message):
        with pytest.raises(ValueError, match=message):
            calibrate_pair(z1, z2)

    def test_brute_force_too_short(self):
        with pytest.raises(ValueError, match="at least 2 paired frames"):
            brute_force_calibration([1j], [2j])

    def test_symmetry_inverse_transform(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            z1, z2, _, _ = forward_pair(rng, k=300, noise=0.08)
            fwd = calibrate_pair(z1, z2)
            rev = calibrate_pair(z2, z1)
            assert abs(angle_difference(rev.phi21, -fwd.phi21)) < 1e-9
            expected_p = -cmath.exp(-1j * fwd.phi21) * fwd.p21
            assert abs(rev.p21 - expected_p) < 1e-9
            assert rev.j_min == pytest.approx(fwd.j_min, rel=1e-9, abs=1e-12)

    def test_equivariance_under_common_rigid_motion(self):
        # Remapping both local frames by the same rigid motion (g, psi)
        # keeps the fit quality and transforms the pose covariantly:
        # phi' = phi, p' = g + e^{j psi} p - e^{j phi} g.
        rng = np.random.default_rng(5)
        z1, z2, _, _ = forward_pair(rng, k=400, noise=0.05)
        base = calibrate_pair(z1, z2)
        g = complex(1.7, -0.4)
        psi = 2.1
        rot = cmath.exp(1j * psi)
        moved = calibrate_pair(g + rot * z1, g + rot * z2)
        assert moved.j_min == pytest.approx(base.j_min, rel=1e-9, abs=1e-12)
        assert moved.rmse == pytest.approx(base.rmse, rel=1e-9, abs=1e-12)
        assert abs(angle_difference(moved.phi21, base.phi21)) < 1e-9
        expected_p = g + rot * base.p21 - cmath.exp(1j * base.phi21) * g
        assert abs(moved.p21 - expected_p) < 1e-9

    def test_consistency_improves_with_track_length(self):
        # With iid per-frame position noise the pose error shrinks as
        # 1/sqrt(K).  The per-trial win probability of K=600 over K=50 is
        # then 12/13 ~ 0.923 (ratio of Rayleigh scales), so assert a win
        # rate safely above chance plus the expected ~sqrt(12) mean shrink.
        rng = np.random.default_rng(6)
        wins = 0
        trials = 200
        long_errs = []
        short_errs = []
        for _ in range(trials):
            z1, z2, p0, _ = forward_pair(rng, k=600, noise=0.2)
            long_err = abs(calibrate_pair(z1, z2).p21 - p0)
            short_err = abs(calibrate_pair(z1[:50], z2[:50]).p21 - p0)
            long_errs.append(long_err)
            short_errs.append(short_err)
            wins += long_err < short_err
        assert wins / trials >= 0.85
        assert np.mean(long_errs) < np.mean(short_errs) / 2.0


class TestApplyCalibration:
    def test_identity_result(self):
        z = random_track(np.random.default_rng(7), 30)
        res = CalibrationResult(p21=0j, phi21=0.0, j_min=0.0, rmse=0.0, num_frames=30)
        np.testing.assert_allclose(apply_calibration(res, z), z)

    def test_overlay_residual_equals_j_min(self):
        rng = np.random.default_rng(8)
        z1, z2, _, _ = forward_pair(rng, k=250, noise=0.1)
        res = calibrate_pair(z1, z2)
        overlay = apply_calibration(res, z2)
        total = float(np.sum(np.abs(z1 - overlay) ** 2))
        assert total == pytest.approx(res.j_min, rel=1e-9, abs=1e-12)

    def test_exact_match_centroid(self):
        rng = np.random.default_rng(9)
        z1, z2, _, _ = forward_pair(rng, k=120)
        res = calibrate_pair(z1, z2)
        overlay = apply_calibration(res, z2)
        assert abs(overlay.mean() - z1.mean()) < 1e-9


class TestBruteForceOracle:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            z1, z2, _, _ = forward_pair(rng, k=200, noise=0.1)
            res = calibrate_pair(z1, z2)
            p, phi, cost = brute_force_calibration(z1, z2)
            assert abs(angle_difference(phi, res.phi21)) < 1e-6
            assert abs(p - res.p21) < 1e-6
            assert cost >= res.j_min - 1e-9

    def test_two_point_tracks(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            z1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            res = calibrate_pair(z1, z2)
            p, phi, cost = brute_force_calibration(z1, z2)
            assert abs(angle_difference(phi, res.phi21)) < 1e-6
            assert cost >= res.j_min - 1e-9


class TestSerialization:
    def test_round_trip(self, tmp_path):
        res = CalibrationResult(
            p21=complex(0.29, 6.96),
            phi21=wrap_angle(math.radians(184.4)),
            j_min=19.07,
            rmse=math.sqrt(19.07 / 600),
            num_frames=600,
        )
        path = tmp_path / "calibration.json"
        save_result(res, path)
        loaded = load_result(path)
        assert loaded.p21 == pytest.approx(res.p21, abs=1e-12)
        assert loaded.phi21 == pytest.approx(res.phi21, abs=1e-12)
        assert loaded.num_frames == 600

    def test_dict_fields(self):
        res = CalibrationResult(1 + 2j, 0.5, 4.0, math.sqrt(4.0 / 9), 9)
        d = result_to_dict(res)
        assert set(d) == {"px", "py", "phi_deg", "j_min", "rmse", "K"}
        assert result_from_dict(d).p21 == res.p21
