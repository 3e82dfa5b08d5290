"""Kernel-importance scoring against brute-force oracles and closed cases."""

import numpy as np
import pytest

from tgdkit.kse import (
    KseConfig,
    density_metric,
    drop_kernels,
    kernel_entropy,
    kernel_sparsity,
    kse_scores,
)
from tgdkit.masking import build_masks
from tgdkit.model import NetworkConfig, build_network, network_hash

from oracles import (
    density_metric_bruteforce,
    entropy_from_dm,
    kse_layer_bruteforce,
    sparsity_loop,
)


class TestKseConfig:
    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            KseConfig(alpha=alpha)


class TestKernelSparsity:
    def test_zero_weights(self):
        assert kernel_sparsity(np.zeros((3, 2, 3, 3)), 0) == 0.0

    def test_two_kernel_hand_case(self):
        w = np.zeros((2, 2, 3, 3))
        w[0, 1, 0, 0] = -2.0   # |.| sums to 2.0
        w[1, 1] = 3.0 / 9.0    # |.| sums to 3.0
        assert kernel_sparsity(w, 1) == pytest.approx(5.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((8, 4, 3, 3))
        for c in range(4):
            assert kernel_sparsity(w, c) == pytest.approx(
                sparsity_loop(w, c), abs=1e-6
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            kernel_sparsity(np.zeros((2, 2, 3, 3)), 2)


class TestDensityMetric:
    def test_identical_kernels_zero(self):
        w = np.ones((4, 1, 3, 3))
        np.testing.assert_array_equal(density_metric(w, 0, 2), np.zeros(4))

    def test_two_kernels_single_entry_delta(self):
        delta = 0.7
        w = np.zeros((2, 1, 3, 3))
        w[1, 0, 2, 2] = delta
        np.testing.assert_allclose(density_metric(w, 0, 1), [delta, delta])

    @pytest.mark.parametrize("n,k", [(5, 3), (6, 1), (16, 15), (9, 4)])
    def test_matches_bruteforce(self, n, k):
        rng = np.random.default_rng(n * 31 + k)
        w = rng.standard_normal((n, 3, 3, 3))
        for c in range(3):
            np.testing.assert_allclose(
                density_metric(w, c, k),
                density_metric_bruteforce(w, c, k),
                rtol=1e-12,
            )

    def test_k_clamped_to_n_minus_1(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((3, 1, 3, 3))
        np.testing.assert_allclose(
            density_metric(w, 0, 99), density_metric(w, 0, 2)
        )


class TestKernelEntropy:
    def test_single_output_map(self):
        assert kernel_entropy(np.ones((1, 2, 3, 3)), 0, KseConfig()) == 0.0

    def test_identical_kernels_uniform_convention(self):
        w = np.full((4, 1, 3, 3), 2.5)
        assert kernel_entropy(w, 0, KseConfig()) == pytest.approx(2.0)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((5, 4, 3, 3))
        cfg = KseConfig(k_neighbors=3)
        for c in range(4):
            expected = entropy_from_dm(density_metric_bruteforce(w, c, 3))
            assert kernel_entropy(w, c, cfg) == pytest.approx(expected, abs=1e-6)

    def test_entropy_bounds(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 9, 16):
            w = rng.standard_normal((n, 2, 3, 3))
            e = kernel_entropy(w, 0, KseConfig())
            assert 0.0 <= e <= np.log2(n) + 1e-12


class TestKseScores:
    def test_zero_channel_scores_zero(self):
        rng = np.random.default_rng(4)
        net = build_network(NetworkConfig(depth=3, channels=4), seed=0)
        net.blocks[1].conv.weights[:, 2] = 0.0
        report = kse_scores(net)
        assert report.layers[1].kse[2] == 0.0

    def test_alpha_zero_is_sqrt_of_normalized_sparsity(self):
        rng = np.random.default_rng(5)
        net = build_network(NetworkConfig(depth=4, channels=5), seed=1)
        report = kse_scores(net, KseConfig(alpha=0.0))
        for lk in report.layers:
            s = lk.sparsity
            np.testing.assert_allclose(lk.kse, np.sqrt((s - s.min()) / (s.max() - s.min())))

    def test_full_report_matches_end_to_end_bruteforce(self):
        net = build_network(NetworkConfig(depth=4, channels=6), seed=2)
        cfg = KseConfig(alpha=1.0, k_neighbors=5)
        report = kse_scores(net, cfg)
        for i, block in enumerate(net.blocks):
            s, e, kse = kse_layer_bruteforce(block.conv.weights, 1.0, 5)
            lk = report.layers[i]
            np.testing.assert_allclose(lk.sparsity, s, atol=1e-6)
            np.testing.assert_allclose(lk.entropy, e, atol=1e-6)
            np.testing.assert_allclose(lk.kse, kse, atol=1e-6)

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for seed in range(4):
            net = build_network(
                NetworkConfig(depth=int(rng.integers(3, 6)), channels=int(rng.integers(2, 9))),
                seed=seed,
            )
            for lk in kse_scores(net).layers:
                assert np.all(lk.kse >= 0.0) and np.all(lk.kse <= 1.0)

    def test_sparsity_scaling_does_not_lower_rank(self):
        net = build_network(NetworkConfig(depth=3, channels=5), seed=3)
        before = kse_scores(net)
        c = 2
        rank_before = (before.layers[1].sparsity < before.layers[1].sparsity[c]).sum()
        net.blocks[1].conv.weights[:, c] *= 3.0
        after = kse_scores(net)
        rank_after = (after.layers[1].sparsity < after.layers[1].sparsity[c]).sum()
        assert rank_after >= rank_before

    def test_output_permutation_invariance(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((6, 4, 3, 3))
        perm = rng.permutation(6)
        for c in range(4):
            assert kernel_sparsity(w, c) == pytest.approx(kernel_sparsity(w[perm], c))
            dm_a = np.sort(density_metric(w, c, 3))
            dm_b = np.sort(density_metric(w[perm], c, 3))
            np.testing.assert_allclose(dm_a, dm_b, rtol=1e-10)

    def test_report_serializes(self):
        net = build_network(NetworkConfig(depth=3, channels=3), seed=4)
        doc = kse_scores(net).to_dict()
        assert doc["source"] == network_hash(net)
        assert len(doc["layers"]) == 3


class TestDropKernels:
    def make_net(self, seed=5):
        return build_network(NetworkConfig(depth=4, channels=6), seed=seed)

    def test_threshold_zero_drops_nothing(self):
        net = self.make_net()
        res = drop_kernels(net, kse_scores(net), 0.0)
        assert res.dropped_fraction == 0.0
        assert network_hash(res.network) == network_hash(net)

    def test_threshold_above_one_drops_all_scored(self):
        net = self.make_net()
        res = drop_kernels(net, kse_scores(net), 1.000001)
        for i in range(1, net.depth - 1):
            assert not res.network.blocks[i].conv.weights.any()
        # first and last layers never touched
        assert res.network.blocks[0].conv.weights.any()
        assert res.network.blocks[-1].conv.weights.any()

    def test_fraction_nondecreasing_in_threshold(self):
        net = self.make_net()
        report = kse_scores(net)
        fracs = [drop_kernels(net, report, t).dropped_fraction for t in (0.3, 0.4, 0.5, 0.6)]
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))

    @pytest.mark.parametrize("seed", range(6))
    def test_drops_exactly_the_maps_that_masks_retrain(self, seed):
        # one redundancy rule: block i's zeroed input columns are the output
        # channels block i-1 retrains, at any threshold
        rng = np.random.default_rng(seed)
        net = build_network(
            NetworkConfig(depth=int(rng.integers(3, 7)), channels=int(rng.integers(2, 9))),
            seed=seed,
        )
        report = kse_scores(net)
        total = sum(b.conv.weights.size for b in net.blocks)
        for threshold in (0.0, *rng.uniform(0.0, 1.0, 4), 1.5):
            masks = build_masks(net, report, threshold)
            res = drop_kernels(net, report, threshold)
            dropped = 0
            for i in range(1, net.depth - 1):
                before = net.blocks[i].conv.weights
                after = res.network.blocks[i].conv.weights
                zeroed = ~after.any(axis=(0, 2, 3))
                np.testing.assert_array_equal(zeroed, masks.conv_masks[i - 1] == 1)
                np.testing.assert_array_equal(after[:, ~zeroed], before[:, ~zeroed])
                dropped += after[:, zeroed].size
            assert res.dropped_fraction == dropped / total

    def test_stale_report_rejected(self):
        net = self.make_net()
        report = kse_scores(net)
        net.blocks[1].conv.weights[0, 0, 0, 0] += 1.0
        with pytest.raises(ValueError, match="different network"):
            drop_kernels(net, report, 0.3)

    def test_negative_threshold_rejected(self):
        net = self.make_net()
        with pytest.raises(ValueError):
            drop_kernels(net, kse_scores(net), -0.1)
