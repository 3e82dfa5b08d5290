"""Mask construction and the exactness of the masked update path."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import PerLayerAdam
from tgdkit.kse import kse_scores
from tgdkit.masking import MaskedAdam, MaskSet, all_ones_masks, build_masks
from tgdkit.model import (
    NetworkConfig,
    array_table,
    build_network,
    network_arrays,
    network_hash,
)
from tgdkit.training import train_step


def toy_net(seed=0, depth=4, channels=3):
    return build_network(NetworkConfig(depth=depth, channels=channels), seed=seed)


class TestBuildMasks:
    def test_threshold_zero_freezes_everything(self):
        net = toy_net()
        masks = build_masks(net, kse_scores(net), 0.0, last_layer_frozen=True)
        for m in masks.conv_masks:
            assert not m.any()
        for m in masks.bn_masks:
            assert m is None or not m.any()

    def test_threshold_above_one_frees_everything(self):
        net = toy_net()
        masks = build_masks(net, kse_scores(net), 1.000001, last_layer_frozen=False)
        for m in masks.conv_masks:
            assert m.all()

    def test_downstream_scores_map_to_upstream_channels(self):
        net = toy_net(depth=3, channels=3)
        report = kse_scores(net)
        report.layers[1].kse = np.array([0.2, 0.5, 0.1])
        masks = build_masks(net, report, 0.3, last_layer_frozen=True)
        np.testing.assert_array_equal(masks.conv_masks[0], [1, 0, 1])

    def test_bn_shares_conv_mask(self):
        net = toy_net(depth=4)
        masks = build_masks(net, kse_scores(net), 0.5)
        for i, block in enumerate(net.blocks):
            if block.bn is None:
                assert masks.bn_masks[i] is None
            else:
                np.testing.assert_array_equal(masks.bn_masks[i], masks.conv_masks[i])

    def test_last_layer_flag(self):
        net = toy_net()
        frozen = build_masks(net, kse_scores(net), 0.5, last_layer_frozen=True)
        free = build_masks(net, kse_scores(net), 0.5, last_layer_frozen=False)
        assert not frozen.conv_masks[-1].any()
        assert free.conv_masks[-1].all()

    def test_stale_report_rejected(self):
        net = toy_net()
        report = kse_scores(net)
        net.blocks[0].conv.weights[0, 0, 0, 0] += 1.0
        with pytest.raises(ValueError, match="different network"):
            build_masks(net, report, 0.3)

    def test_serializes_to_json(self):
        net = toy_net()
        masks = build_masks(net, kse_scores(net), 0.3)
        doc = masks.to_dict()
        assert doc["threshold"] == 0.3
        assert doc["source"] == network_hash(net)
        assert sorted(doc) == ["bn_masks", "conv_masks", "source", "threshold"]


def random_grads(net, rng):
    """Random gradients for the trained arrays, in table order."""
    return [rng.standard_normal(a.shape).astype(np.float32) for a in trained(net)]


# table name -> the field PerLayerAdam reads off a block's gradients
ORACLE_FIELDS = {"conv.weight": "weights", "conv.bias": "bias", "bn.gamma": "gamma",
                 "bn.beta": "beta"}


def per_block(net, grads):
    """The table-order gradients as PerLayerAdam's per-block view with
    ``.weights/.bias/.gamma/.beta`` (None where a block has no such array)."""
    blocks = [SimpleNamespace(weights=None, bias=None, gamma=None, beta=None)
              for _ in net.blocks]
    for (i, name, _), g in zip(array_table(net.config, trained_only=True), grads):
        setattr(blocks[i], ORACLE_FIELDS[name], g)
    return blocks


def channel_masks(net, pattern):
    """One mask per block, cycling ``pattern`` over its output channels."""
    return [
        np.resize(np.array(pattern, np.uint8), b.conv.out_channels) for b in net.blocks
    ]


def trained(net):
    return [a for _, _, a in network_arrays(net, trained_only=True)]


def per_channel(net, masks):
    """(array, its block's mask) for every trained array."""
    return [(a, masks[i]) for i, _, a in network_arrays(net, trained_only=True)]


class TestMaskedUpdate:
    def test_all_zero_mask_is_a_no_op(self):
        net = toy_net(seed=1)
        before = network_hash(net)
        opt = MaskedAdam(net, channel_masks(net, [0]), 1e-2, weight_decay=1e-4)
        opt.step(net, random_grads(net, np.random.default_rng(0)))
        assert network_hash(net) == before

    def test_all_one_mask_equals_unmasked(self):
        rng = np.random.default_rng(1)
        masked, plain = toy_net(seed=2), toy_net(seed=2)
        opt_m = MaskedAdam(masked, channel_masks(masked, [1]), 1e-2, weight_decay=1e-5)
        opt_p = MaskedAdam(plain, all_ones_masks(plain), 1e-2, weight_decay=1e-5)
        for _ in range(3):
            grads = random_grads(plain, rng)
            opt_m.step(masked, grads)
            opt_p.step(plain, grads)
        assert network_hash(masked) == network_hash(plain)
        np.testing.assert_array_equal(opt_m.m, opt_p.m)
        np.testing.assert_array_equal(opt_m.v, opt_p.v)

    def test_mixed_mask_matches_per_channel_reference(self):
        start = toy_net(seed=3, channels=2)
        masked, plain = start.copy(), start.copy()
        masks = channel_masks(start, [1, 0])
        grads = random_grads(start, np.random.default_rng(2))
        MaskedAdam(masked, masks, 1e-2).step(masked, grads)
        MaskedAdam(plain, all_ones_masks(plain), 1e-2).step(plain, grads)
        for (a, mask), s, p in zip(per_channel(masked, masks), trained(start), trained(plain)):
            # retrained channels move exactly as the unmasked step moves them
            np.testing.assert_array_equal(a[mask == 1], p[mask == 1])
            # frozen channels are bit-identical to their start
            np.testing.assert_array_equal(a[mask == 0], s[mask == 0])
            assert not np.array_equal(a[mask == 1], s[mask == 1])

    def test_masked_step_equals_unmasked_step_plus_restore(self):
        start = toy_net(seed=4, channels=4)
        masks = channel_masks(start, [1, 0])
        grads = random_grads(start, np.random.default_rng(3))
        masked, plain = start.copy(), start.copy()
        MaskedAdam(masked, masks, 1e-2, weight_decay=1e-5).step(masked, grads)
        MaskedAdam(plain, all_ones_masks(plain), 1e-2, weight_decay=1e-5).step(plain, grads)
        for (p, mask), s in zip(per_channel(plain, masks), trained(start)):
            p[mask == 0] = s[mask == 0]
        assert network_hash(masked) == network_hash(plain)

    def test_frozen_moments_not_advanced(self):
        net = toy_net(seed=5)
        opt = MaskedAdam(net, channel_masks(net, [0, 1]), 1e-3)
        opt.m[:] = 0.5
        opt.v[:] = 0.25
        opt.step(net, random_grads(net, np.random.default_rng(4)))
        assert np.all(opt.m[opt.keep] == 0.5) and np.all(opt.v[opt.keep] == 0.25)
        assert not np.any(opt.m[~opt.keep] == 0.5)

    def test_bad_mask_length_rejected(self):
        net = toy_net()
        masks = channel_masks(net, [1])
        masks[1] = np.ones(net.blocks[1].conv.out_channels - 1, np.uint8)
        with pytest.raises(ValueError, match="mask length"):
            MaskedAdam(net, masks, 1e-3)


class TestMaskedBnUpdate:
    def train_steps(self, net, masks, n, seed):
        """``n`` masked training steps on random data, with running stats."""
        rng = np.random.default_rng(seed)
        opt = MaskedAdam(net, masks, 1e-2)
        for _ in range(n):
            x = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
            train_step(net, opt, x, x[:, 1:2])

    def test_all_zero_mask_freezes_affine_and_stats(self):
        net = toy_net(seed=6)
        before = network_hash(net)
        self.train_steps(net, channel_masks(net, [0]), 1, seed=5)
        assert network_hash(net) == before

    def test_all_one_mask_is_standard_step(self):
        rng = np.random.default_rng(6)
        bn_a, bn_b = toy_net(seed=7), toy_net(seed=7)
        grads = random_grads(bn_a, rng)
        MaskedAdam(bn_a, channel_masks(bn_a, [1]), 1e-2).step(bn_a, grads)
        MaskedAdam(bn_b, all_ones_masks(bn_b), 1e-2).step(bn_b, grads)
        for a, b in zip(bn_a.blocks, bn_b.blocks):
            if a.bn is not None:
                np.testing.assert_array_equal(a.bn.gamma, b.bn.gamma)
                np.testing.assert_array_equal(a.bn.beta, b.bn.beta)

    def test_mixed_mask_longitudinal_freeze(self):
        net = toy_net(seed=8, channels=4)
        masks = channel_masks(net, [1, 0])
        start = net.copy()
        self.train_steps(net, masks, 100, seed=7)
        for before, after, mask in zip(start.blocks, net.blocks, masks):
            if after.bn is None:
                continue
            for name in ("gamma", "beta", "running_mean", "running_var"):
                a, b = getattr(before.bn, name), getattr(after.bn, name)
                np.testing.assert_array_equal(b[mask == 0], a[mask == 0])
            assert not np.array_equal(after.bn.gamma[mask == 1], before.bn.gamma[mask == 1])


class TestMaskedAdamMatchesPerLayerReference:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        depth=st.integers(3, 4),
        channels=st.integers(1, 4),
        input_slices=st.sampled_from([1, 3]),
        masked=st.booleans(),
        weight_decay=st.sampled_from([0.0, 1e-5]),
        steps=st.integers(1, 20),
    )
    def test_bit_identical_to_per_layer_reference(
        self, seed, depth, channels, input_slices, masked, weight_decay, steps
    ):
        rng = np.random.default_rng(seed)
        net = build_network(NetworkConfig(depth, channels, input_slices), seed=seed)
        for a in trained(net):
            a[...] = rng.standard_normal(a.shape)
        masks = None
        if masked:
            masks = [rng.integers(0, 2, b.conv.out_channels).astype(np.uint8)
                     for b in net.blocks]
        flat, ref = net.copy(), net.copy()
        opt = MaskedAdam(flat, masks or all_ones_masks(flat), 1e-2, weight_decay)
        oracle = PerLayerAdam(ref, masks, 1e-2, weight_decay)
        for _ in range(steps):
            grads = random_grads(net, rng)
            opt.step(flat, grads)
            oracle.step(ref, per_block(ref, grads))
        for a, b in zip(trained(flat), trained(ref)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        m_ref, v_ref = oracle.moments()
        assert opt.m.tobytes() == m_ref.tobytes()
        assert opt.v.tobytes() == v_ref.tobytes()


class TestRemask:
    def test_unchanged_weights_give_identical_masks(self):
        net = toy_net(seed=8)
        first = build_masks(net, kse_scores(net), 0.4, last_layer_frozen=True)
        again = build_masks(net, kse_scores(net), 0.4, last_layer_frozen=True)
        for a, b in zip(first.conv_masks, again.conv_masks):
            np.testing.assert_array_equal(a, b)

    def test_changed_weights_report_difference(self):
        net = toy_net(seed=9, channels=6)
        first = build_masks(net, kse_scores(net), 0.5)
        rng = np.random.default_rng(10)
        for b in net.blocks:
            b.conv.weights = b.conv.weights + rng.standard_normal(
                b.conv.weights.shape
            ).astype(np.float32)
        second = build_masks(net, kse_scores(net), 0.5)
        diff = sum(
            int(np.sum(a != b)) for a, b in zip(first.conv_masks, second.conv_masks)
        )
        total = sum(m.size for m in first.conv_masks)
        assert 0 <= diff <= total
        assert second.source == network_hash(net)


class TestMaskSetValidation:
    def test_non_binary_mask_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            MaskSet([np.array([0, 2], np.uint8)], 0.3, "x")


class TestForwardNeutrality:
    def test_mask_construction_leaves_forward_untouched(self):
        # masks act only on the update path: building them must not change
        # the network or its outputs in any way
        from tgdkit.model import forward

        net = toy_net(seed=12)
        x = np.random.default_rng(0).standard_normal((2, 3, 8, 8)).astype(np.float32)
        h_before = network_hash(net)
        out_before = forward(net, x)
        build_masks(net, kse_scores(net), 0.4)
        assert network_hash(net) == h_before
        np.testing.assert_array_equal(forward(net, x), out_before)
