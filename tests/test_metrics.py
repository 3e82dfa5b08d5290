"""Metric definitions against closed forms and brute-force recomputation."""

import numpy as np
import pytest

from tgdkit.metrics import (
    ProbeReport,
    Roi,
    ensemble_bias,
    ensemble_cov,
    hallucination_probe,
    load_rois,
    mse,
    psnr,
    save_rois,
)
from tgdkit.model import NetworkConfig, build_network

from oracles import ensemble_bias_loop, ensemble_cov_loop


def roi_of(shape, n, seed=0):
    rng = np.random.default_rng(seed)
    total = int(np.prod(shape))
    flat = rng.choice(total, size=n, replace=False)
    voxels = np.stack(np.unravel_index(flat, shape), axis=1)
    return Roi(voxels)


class TestMsePsnr:
    def test_mse_identical_zero(self):
        x = np.random.default_rng(0).standard_normal((3, 4))
        assert mse(x, x) == 0.0

    def test_mse_hand_case(self):
        assert mse(np.array([0.0, 2.0]), np.array([0.0, 0.0])) == 2.0

    def test_psnr_identical_inf(self):
        x = np.ones((2, 2))
        assert psnr(x, x, peak=1.0) == float("inf")

    def test_psnr_value(self):
        a = np.zeros((2, 2))
        b = np.full((2, 2), 0.5)
        assert psnr(a, b, peak=1.0) == pytest.approx(10 * np.log10(1 / 0.25))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros(2), np.zeros(3))


class TestEnsembleBias:
    def test_truth_equals_realizations(self):
        truth = np.random.default_rng(1).uniform(1, 2, (3, 5, 5))
        roi = roi_of(truth.shape, 8)
        assert ensemble_bias([truth, truth.copy()], roi, truth) == pytest.approx(0.0)

    def test_hand_case_minus_twenty_percent(self):
        shape = (1, 2, 2)
        roi = Roi([[0, 0, 0]])
        r1 = np.full(shape, 2.0)
        r2 = np.full(shape, 2.0)
        truth = np.full(shape, 2.5)
        assert ensemble_bias([r1, r2], roi, truth) == pytest.approx(-20.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        truth = rng.uniform(1, 3, (4, 6, 6))
        reals = [truth + rng.normal(0, 0.2, truth.shape) for _ in range(5)]
        roi = roi_of(truth.shape, 10, seed=3)
        expected = ensemble_bias_loop(reals, roi.voxels, truth)
        assert ensemble_bias(reals, roi, truth) == pytest.approx(expected, abs=1e-6)

    def test_invariant_to_adding_mean_realization(self):
        rng = np.random.default_rng(4)
        truth = rng.uniform(1, 3, (2, 4, 4))
        reals = [truth + rng.normal(0, 0.1, truth.shape) for _ in range(4)]
        roi = roi_of(truth.shape, 6, seed=5)
        base = ensemble_bias(reals, roi, truth)
        mean_real = np.mean(reals, axis=0)
        extended = ensemble_bias(reals + [mean_real], roi, truth)
        assert extended == pytest.approx(base, abs=1e-9)

    def test_empty_roi_rejected(self):
        with pytest.raises(ValueError):
            Roi(np.zeros((0, 3)))


class TestEnsembleCov:
    def test_identical_realizations_zero(self):
        x = np.random.default_rng(6).uniform(1, 2, (2, 4, 4))
        roi = roi_of(x.shape, 6)
        assert ensemble_cov([x, x.copy(), x.copy()], roi) == pytest.approx(0.0)

    def test_two_realization_closed_form(self):
        c, d = 3.0, 0.4
        shape = (1, 3, 3)
        roi = roi_of(shape, 5)
        got = ensemble_cov([np.full(shape, c + d), np.full(shape, c - d)], roi)
        # sample std of {c+d, c-d} is |d|*sqrt(2)
        assert got == pytest.approx(abs(d) * np.sqrt(2) / c * 100.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        reals = [rng.uniform(1, 3, (3, 5, 5)) for _ in range(6)]
        roi = roi_of(reals[0].shape, 12, seed=8)
        expected = ensemble_cov_loop(reals, roi.voxels)
        assert ensemble_cov(reals, roi) == pytest.approx(expected, abs=1e-6)

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        reals = [rng.uniform(1, 3, (2, 4, 4)) for _ in range(4)]
        roi = roi_of(reals[0].shape, 6, seed=10)
        base = ensemble_cov(reals, roi)
        scaled = ensemble_cov([7.5 * r for r in reals], roi)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_single_realization_rejected(self):
        roi = roi_of((1, 2, 2), 2)
        with pytest.raises(ValueError, match="2 realizations"):
            ensemble_cov([np.ones((1, 2, 2))], roi)

    def test_zero_grand_mean_rejected(self):
        roi = roi_of((1, 2, 2), 2)
        with pytest.raises(ValueError, match="grand mean"):
            ensemble_cov([np.zeros((1, 2, 2)), np.zeros((1, 2, 2))], roi)


class TestHallucinationProbe:
    def test_same_net_zero_deltas(self):
        net = build_network(NetworkConfig(depth=3, channels=4), seed=0)
        vol = np.random.default_rng(11).uniform(0, 1, (3, 8, 8)).astype(np.float32)
        truth = vol.copy()
        roi = roi_of(vol.shape, 5, seed=12)
        rep = hallucination_probe(net, net, vol, truth, roi)
        assert rep.roi_mse_delta == 0.0
        assert rep.mean_shift_delta == 0.0

    def test_truth_equal_output_zero_mse(self):
        net = build_network(NetworkConfig(depth=3, channels=4), seed=1)
        for b in net.blocks:
            b.conv.weights[:] = 0
            if b.conv.bias is not None:
                b.conv.bias[:] = 0
        vol = np.random.default_rng(13).uniform(0, 1, (3, 8, 8)).astype(np.float32)
        roi = roi_of(vol.shape, 5, seed=14)
        rep = hallucination_probe(net, net, vol, vol, roi)
        assert rep.roi_mse_before == 0.0
        assert rep.roi_mse_after == 0.0

    def test_report_serializes(self):
        rep = ProbeReport(1.0, 0.5, 0.2, -0.1)
        doc = rep.to_dict()
        assert doc["roi_mse_delta"] == pytest.approx(-0.5)
        assert doc["mean_shift_delta"] == pytest.approx(-0.1)


class TestRoiIo:
    def test_round_trip(self, tmp_path):
        rois = {
            "lesion": roi_of((3, 6, 6), 4),
            "background": roi_of((3, 6, 6), 7, seed=1),
        }
        p = tmp_path / "rois.json"
        save_rois(rois, p)
        loaded = load_rois(p)
        assert set(loaded) == {"lesion", "background"}
        np.testing.assert_array_equal(loaded["lesion"].voxels, rois["lesion"].voxels)

    def test_out_of_bounds_checked_at_use(self):
        roi = Roi([[5, 0, 0]])
        with pytest.raises(ValueError, match="out of bounds"):
            roi.values(np.zeros((2, 2, 2)))
