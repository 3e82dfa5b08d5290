"""Network construction, forward semantics, and weight-file round trips."""

import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tgdkit import model
from tgdkit.model import (
    BadMagicError,
    NetworkConfig,
    ShapeMismatchError,
    TruncatedFileError,
    UnsupportedVersionError,
    WeightFileError,
    _param_arrays,
    array_table,
    backward,
    build_network,
    denoise_volume,
    forward,
    forward_train,
    load_weights,
    network_hash,
    num_parameters,
    save_weights,
)
from tgdkit.ops import batchnorm_forward, conv2d_forward, relu_forward

from oracles import central_difference, rel_err


def saved_3x4(path) -> bytes:
    """Save a 3x4 net with an empty version tag to ``path``; its bytes."""
    save_weights(build_network(NetworkConfig(depth=3, channels=4), seed=0), path)
    return path.read_bytes()


# Damage to a saved_3x4 file. The header's depth field sits at offset 8 and
# the first array name at offset 32 (magic, five header words, the empty
# tag, the array count, the name length).
CORRUPTIONS = {
    "nan_weight": lambda raw: raw[:-4] + struct.pack("<f", float("nan")),
    "depth_0": lambda raw: raw[:8] + struct.pack("<I", 0) + raw[12:],
    "non_utf8_name": lambda raw: raw[:32] + b"\xff" + raw[33:],
    "trailing_byte": lambda raw: raw + b"\x00",
}


def cast_network(net, dtype):
    """Rebind every block array of ``net`` to ``dtype``."""
    for b in net.blocks:
        b.conv.weights = b.conv.weights.astype(dtype)
        if b.conv.bias is not None:
            b.conv.bias = b.conv.bias.astype(dtype)
        if b.bn is not None:
            for name in ("gamma", "beta", "running_mean", "running_var"):
                setattr(b.bn, name, getattr(b.bn, name).astype(dtype))


def zero_net(config, seed=0):
    net = build_network(config, seed)
    for b in net.blocks:
        b.conv.weights[:] = 0
        if b.conv.bias is not None:
            b.conv.bias[:] = 0
    return net


class TestBuild:
    def test_default_architecture_and_parameter_count(self):
        cfg = NetworkConfig()
        net = build_network(cfg, seed=1)
        assert net.depth == 8
        assert sum(b.bn is not None for b in net.blocks) == 6
        assert net.blocks[0].relu and net.blocks[0].bn is None
        assert not net.blocks[-1].relu and net.blocks[-1].bn is None
        assert net.blocks[-1].conv.out_channels == 1
        # closed-form: first conv with bias, interior convs + 2-parameter BN,
        # final conv with bias
        ch, sl = cfg.channels, cfg.input_slices
        expected = (ch * sl * 9 + ch)
        expected += (cfg.depth - 2) * (ch * ch * 9 + 2 * ch)
        expected += (1 * ch * 9 + 1)
        assert num_parameters(net) == expected

    def test_same_seed_bit_identical(self):
        a = build_network(NetworkConfig(4, 8, 3), seed=7)
        b = build_network(NetworkConfig(4, 8, 3), seed=7)
        assert network_hash(a) == network_hash(b)

    def test_minimal_depth_runs(self):
        net = build_network(NetworkConfig(depth=3, channels=4), seed=0)
        out = forward(net, np.zeros((1, 3, 5, 5), dtype=np.float32))
        assert out.shape == (1, 1, 5, 5)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(depth=2)
        with pytest.raises(ValueError):
            NetworkConfig(input_slices=2)
        with pytest.raises(ValueError):
            NetworkConfig(channels=0)


class TestForward:
    def test_zero_net_is_identity_on_center_slice(self):
        rng = np.random.default_rng(0)
        for h, w in [(3, 3), (5, 8), (16, 16)]:
            x = rng.standard_normal((2, 3, h, w)).astype(np.float32)
            net = zero_net(NetworkConfig(depth=4, channels=6))
            out = forward(net, x)
            np.testing.assert_array_equal(out[:, 0], x[:, 1])

    def test_batch_independence_infer(self):
        rng = np.random.default_rng(1)
        net = build_network(NetworkConfig(depth=4, channels=6), seed=3)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        both = forward(net, x)
        one = forward(net, x[:1])
        two = forward(net, x[1:])
        np.testing.assert_allclose(both, np.concatenate([one, two]), atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_infer_with_the_batch_statistics_is_train(self, dtype):
        # infer mode is train mode with the statistics substituted: once
        # every batchnorm block holds its batch's, the two give one output
        rng = np.random.default_rng(4)
        net = build_network(NetworkConfig(depth=5, channels=8), seed=4)
        cast_network(net, dtype)
        for block in net.blocks[1:-1]:
            block.bn.gamma = rng.uniform(0.5, 2.0, 8).astype(dtype)
            block.bn.beta = rng.standard_normal(8).astype(dtype)
        x = rng.standard_normal((3, 3, 11, 13)).astype(dtype)
        _, caches = forward_train(net, x)
        for block, cache in zip(net.blocks, caches):
            if block.bn is not None:
                block.bn.running_mean = cache.bn_stats.mean
                block.bn.running_var = cache.bn_stats.var
        assert forward(net, x, "infer").tobytes() == forward(net, x, "train").tobytes()

    def test_matches_straight_line_composition(self):
        rng = np.random.default_rng(2)
        net = build_network(NetworkConfig(depth=5, channels=5), seed=9)
        # randomize running stats so infer-mode BN is non-trivial
        for b in net.blocks:
            if b.bn is not None:
                b.bn.running_mean = rng.standard_normal(b.bn.channels).astype(np.float32)
                b.bn.running_var = (
                    rng.uniform(0.5, 2.0, b.bn.channels).astype(np.float32)
                )
        x = rng.standard_normal((2, 3, 7, 7)).astype(np.float32)

        h = x
        for b in net.blocks:
            h = conv2d_forward(h, b.conv)
            if b.bn is not None:
                h, _ = batchnorm_forward(h, b.bn, "infer")
            if b.relu:
                h = relu_forward(h)
        ref = h + x[:, 1:2]

        np.testing.assert_array_equal(forward(net, x), ref)

    def test_translation_consistency_interior(self):
        rng = np.random.default_rng(3)
        depth = 3
        net = build_network(NetworkConfig(depth=depth, channels=6), seed=5)
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        shifted = np.roll(x, 1, axis=3)
        out = forward(net, x)
        out_shifted = forward(net, shifted)
        m = depth + 1  # border columns feel the zero padding; skip them
        np.testing.assert_allclose(
            out_shifted[:, :, :, m:-m], np.roll(out, 1, axis=3)[:, :, :, m:-m],
            atol=1e-5,
        )

    def test_wrong_channel_count_rejected(self):
        net = build_network(NetworkConfig(depth=3, channels=4), seed=0)
        with pytest.raises(ValueError, match="input must be"):
            forward(net, np.zeros((1, 5, 6, 6), dtype=np.float32))


class TestBackward:
    def test_full_net_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        net64 = build_network(NetworkConfig(depth=3, channels=3), seed=11)
        cast_network(net64, np.float64)
        x = rng.standard_normal((2, 3, 5, 5))
        target = rng.standard_normal((2, 1, 5, 5))

        def loss(net):
            y, _ = forward_train(net, x)
            return float(((y - target) ** 2).mean())

        y, caches = forward_train(net64, x)
        grad_y = 2.0 * (y - target) / y.size
        names = [(i, name) for i, name, _ in array_table(net64.config, trained_only=True)]
        grads = dict(zip(names, backward(net64, caches, grad_y)))

        w1 = net64.blocks[1].conv.weights

        def loss_of_w1(wv):
            probe = net64.copy()
            probe.blocks[1].conv.weights = wv
            return loss(probe)

        fd = central_difference(loss_of_w1, w1)
        assert rel_err(grads[1, "conv.weight"], fd, floor=1e-4).max() < 1e-4

        g1 = net64.blocks[1].bn.gamma

        def loss_of_gamma(gv):
            probe = net64.copy()
            probe.blocks[1].bn.gamma = gv
            return loss(probe)

        fd_g = central_difference(loss_of_gamma, g1)
        assert rel_err(grads[1, "bn.gamma"], fd_g, floor=1e-4).max() < 1e-4

    @pytest.mark.parametrize("depth,channels,slices", [(3, 1, 1), (4, 5, 3), (6, 2, 5)])
    def test_gradients_have_the_trained_table_shapes(self, depth, channels, slices):
        config = NetworkConfig(depth, channels, slices)
        net = build_network(config, seed=0)
        x = np.random.default_rng(0).standard_normal((2, slices, 5, 5)).astype(np.float32)
        y, caches = forward_train(net, x)
        shapes = [g.shape for g in backward(net, caches, np.ones_like(y))]
        assert shapes == [shape for _, _, shape in array_table(config, trained_only=True)]

    def test_train_caches_hold_no_patch_matrix(self):
        # the backward pass rebuilds each conv's patch matrix from the cached
        # input, so nothing cached is wider than one activation
        rng = np.random.default_rng(6)
        net = build_network(NetworkConfig(depth=5, channels=16), seed=3)
        x = rng.standard_normal((8, 3, 24, 24)).astype(np.float32)
        _, caches = forward_train(net, x)
        activation = 8 * 16 * 24 * 24
        for i, cache in enumerate(caches):
            for field in dataclasses.fields(cache):
                value = getattr(cache, field.name)
                if dataclasses.is_dataclass(value):
                    arrays = dataclasses.asdict(value).values()
                else:
                    arrays = [] if value is None else [value]
                for a in arrays:
                    assert a.size <= activation, (i, field.name, a.shape)

    def test_bn_block_caches_hold_one_activation(self):
        # a batchnorm block holds its centered batchnorm input, which the
        # backward reads in place of the input, and no conv output; only
        # block 0 holds an array, its own input, the network input, from
        # which the backward rebuilds block 1's input
        rng = np.random.default_rng(6)
        net = build_network(NetworkConfig(depth=5, channels=16), seed=3)
        x = rng.standard_normal((8, 3, 24, 24)).astype(np.float32)
        _, caches = forward_train(net, x)
        for i, cache in enumerate(caches):
            held = [
                f.name for f in dataclasses.fields(cache)
                if isinstance(getattr(cache, f.name), np.ndarray)
            ]
            assert held == (["x"] if i == 0 else []), i
        assert caches[0].x is x
        for cache in caches[1:-1]:
            assert cache.bn_stats.centered.shape == (8, 16, 24, 24)

    def test_blocks_without_batchnorm_cache_no_conv_output(self):
        # block 0 holds only the network input, from which the backward
        # rebuilds its ReLU output; a batchnorm block's conv output is its
        # batchnorm input, held centered in its BnStats; the last block's
        # output is the prediction, which no backward step rebuilds, so it
        # holds nothing
        net = build_network(NetworkConfig(depth=5, channels=16), seed=3)
        x = np.random.default_rng(6).standard_normal((8, 3, 24, 24)).astype(np.float32)
        _, caches = forward_train(net, x)
        assert [f.name for f in dataclasses.fields(caches[0])] == ["x", "bn_stats"]
        assert [cache.x is None for cache in caches] == [False] + [True] * 4
        assert [cache.bn_stats is None for cache in caches] == [True] + [False] * 3 + [True]
        last = caches[-1]
        assert (last.x, last.bn_stats) == (None, None)

    def test_forward_peaks_hold_no_batchnorm_input(self):
        # a 5x16 net at 64x64, batch 8, in activations of [8, 16, 64, 64]
        # float32: batchnorm and the ReLU write into the conv output, and a
        # conv holds one row band of a sample's patch matrix (22 rows, 0.39
        # activations; the whole matrix is 1.13). forward_train reads 5.32
        # and forward 2.52 in both modes; the bounds are those plus 5 %
        rng = np.random.default_rng(6)
        net = build_network(NetworkConfig(depth=5, channels=16), seed=3)
        x = rng.standard_normal((8, 3, 64, 64)).astype(np.float32)
        activation = x.nbytes * 16 // 3
        runs = {
            "forward_train": lambda: forward_train(net, x),
            "train": lambda: forward(net, x, "train"),
            "infer": lambda: forward(net, x, "infer"),
        }
        peaks = {}
        for name, run in runs.items():
            tracemalloc.start()
            try:
                run()
                peaks[name] = tracemalloc.get_traced_memory()[1] / activation
            finally:
                tracemalloc.stop()
        assert peaks["forward_train"] < 5.6, peaks
        assert peaks["train"] < 2.65 and peaks["infer"] < 2.65, peaks

    def test_backward_only_reads_its_caches(self):
        net = build_network(NetworkConfig(depth=5, channels=16), seed=3)
        x = np.random.default_rng(6).standard_normal((8, 3, 24, 24)).astype(np.float32)
        y, caches = forward_train(net, x)

        def held():  # every value the caches hold, and those of their BnStats
            out = []
            for cache in caches:
                for value in vars(cache).values():
                    out += vars(value).values() if dataclasses.is_dataclass(value) else [value]
            return out

        def data(values):
            return [None if v is None else v.tobytes() for v in values]

        before = held()
        before_data = data(before)
        first = backward(net, caches, np.ones_like(y))
        second = backward(net, caches, np.ones_like(y))
        assert data(second) == data(first)
        after = held()
        assert len(after) == len(before) and all(b is a for a, b in zip(before, after))
        assert data(after) == before_data

    def test_step_peak_is_below_seven_activations(self):
        # one train step, forward plus backward, of a 5x16 net at 64x64,
        # batch 8, in activations of [8, 16, 64, 64] float32. The forward
        # holds the network input and each batchnorm block's centered
        # input; the backward rebuilds every block input above block 0 and
        # keeps only their sign masks, and writes each input gradient over
        # the rebuilt input; a conv holds one row band of a sample's patch
        # matrix. It reads 6.43; the bound is that plus 5 %
        rng = np.random.default_rng(6)
        net = build_network(NetworkConfig(depth=5, channels=16), seed=3)
        x = rng.standard_normal((8, 3, 64, 64)).astype(np.float32)
        activation = x.nbytes * 16 // 3
        tracemalloc.start()
        try:
            y, caches = forward_train(net, x)
            backward(net, caches, np.ones_like(y))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6.75 * activation, peak / activation

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_grad_weights_read_the_forward_block_inputs_bitwise(self, monkeypatch, dtype):
        # the inputs the backward rebuilds are the forward's block outputs,
        # byte for byte, at an odd shape and with gamma != 1, beta != 0
        rng = np.random.default_rng(8)
        net = build_network(NetworkConfig(depth=5, channels=5), seed=4)
        cast_network(net, dtype)
        for b in net.blocks:
            if b.bn is not None:
                b.bn.gamma = rng.standard_normal(5).astype(dtype)
                b.bn.beta = rng.standard_normal(5).astype(dtype)
        x = rng.standard_normal((3, 3, 11, 13)).astype(dtype)
        want, h = [], x
        for b in net.blocks:
            want.append(h)
            h = conv2d_forward(h, b.conv)
            if b.bn is not None:
                h, _ = batchnorm_forward(h, b.bn, "train")
            if b.relu:
                h = relu_forward(h)
        seen = []
        grad_weights = model.conv2d_backward

        def recorded(block_input, params, grad_out):
            seen.append(block_input.tobytes())
            return grad_weights(block_input, params, grad_out)

        monkeypatch.setattr(model, "conv2d_backward", recorded)
        y, caches = forward_train(net, x)
        backward(net, caches, np.ones_like(y))
        assert seen[::-1] == [a.tobytes() for a in want]

    def test_input_gradient_of_first_block_is_not_computed(self, monkeypatch):
        calls = []
        grad_input = model.conv2d_grad_input

        def counted(params, grad_out, out=None):
            calls.append(params.in_channels)
            return grad_input(params, grad_out, out)

        monkeypatch.setattr(model, "conv2d_grad_input", counted)
        net = build_network(NetworkConfig(depth=4, channels=5), seed=1)
        x = np.random.default_rng(2).standard_normal((2, 3, 6, 6)).astype(np.float32)
        y, caches = forward_train(net, x)
        backward(net, caches, np.ones_like(y))
        assert calls == [5, 5, 5]  # blocks 3, 2, 1; block 0 eats 3 slices


class TestDenoiseVolume:
    def test_zero_net_passes_volume_through(self):
        rng = np.random.default_rng(5)
        vol = rng.standard_normal((5, 8, 8)).astype(np.float32)
        net = zero_net(NetworkConfig(depth=3, channels=4))
        np.testing.assert_array_equal(denoise_volume(net, vol), vol)

    def test_edge_slices_replicated(self):
        # with an identity-passthrough net the first and last slices come
        # back unchanged even though their neighborhoods are clamped
        vol = np.arange(4 * 3 * 3, dtype=np.float32).reshape(4, 3, 3)
        net = zero_net(NetworkConfig(depth=3, channels=2))
        out = denoise_volume(net, vol)
        np.testing.assert_array_equal(out, vol)


class TestWeightFile:
    def test_round_trip_bit_exact(self, tmp_path):
        net = build_network(NetworkConfig(depth=4, channels=5), seed=13, version_tag="v1")
        # make running stats non-default so they are exercised too
        rng = np.random.default_rng(6)
        for b in net.blocks:
            if b.bn is not None:
                b.bn.running_mean = rng.standard_normal(b.bn.channels).astype(np.float32)
                b.bn.running_var = rng.uniform(0.5, 2, b.bn.channels).astype(np.float32)
        p = tmp_path / "net.tgdw"
        save_weights(net, p)
        loaded = load_weights(p)
        assert loaded.version_tag == "v1"
        assert loaded.config == net.config
        assert network_hash(loaded) == network_hash(net)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.tgdw"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(BadMagicError, match="bad magic"):
            load_weights(p)

    def test_bad_version(self, tmp_path):
        net = build_network(NetworkConfig(depth=3, channels=2), seed=0)
        p = tmp_path / "net.tgdw"
        save_weights(net, p)
        raw = bytearray(p.read_bytes())
        raw[4] = 99
        p.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersionError):
            load_weights(p)

    def test_truncation(self, tmp_path):
        net = build_network(NetworkConfig(depth=3, channels=2), seed=0)
        p = tmp_path / "net.tgdw"
        save_weights(net, p)
        p.write_bytes(p.read_bytes()[:-10])
        with pytest.raises(TruncatedFileError):
            load_weights(p)

    def test_depth_mismatch_names_layer(self, tmp_path):
        net8 = build_network(NetworkConfig(depth=8, channels=4), seed=0)
        p = tmp_path / "net8.tgdw"
        save_weights(net8, p)
        with pytest.raises(ShapeMismatchError, match="block02"):
            load_weights(p, expect=NetworkConfig(depth=3, channels=4))

    def test_header_that_disagrees_with_the_arrays_names_both_configs(self, tmp_path):
        # the channels field (offset 12) claims 8 over a 3x4 net's arrays,
        # which match the expected config entry by entry
        p = tmp_path / "net.tgdw"
        raw = saved_3x4(p)
        p.write_bytes(raw[:12] + struct.pack("<I", 8) + raw[16:])
        with pytest.raises(ShapeMismatchError, match="channels=8.*channels=4"):
            load_weights(p, expect=NetworkConfig(depth=3, channels=4))

    def test_truncation_at_every_offset(self, tmp_path):
        raw = saved_3x4(tmp_path / "net.tgdw")
        p = tmp_path / "cut.tgdw"
        for n in range(len(raw)):
            p.write_bytes(raw[:n])
            with pytest.raises(TruncatedFileError):
                load_weights(p)

    @pytest.mark.parametrize("damage", sorted(CORRUPTIONS))
    def test_corrupt_file_is_weight_file_error(self, tmp_path, damage):
        p = tmp_path / "net.tgdw"
        p.write_bytes(CORRUPTIONS[damage](saved_3x4(p)))
        with pytest.raises(WeightFileError):
            load_weights(p)

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        depth=st.integers(3, 4),
        channels=st.integers(1, 3),
        slices=st.sampled_from([1, 3, 5]),
        tag=st.text(max_size=12),
        data=st.data(),
    )
    def test_round_trip_bit_exact_for_any_values(
        self, tmp_path, depth, channels, slices, tag, data
    ):
        net = build_network(NetworkConfig(depth, channels, slices), seed=0, version_tag=tag)
        finite = st.floats(width=32, allow_nan=False, allow_infinity=False)
        # a running variance must be > 0, or the file is rejected
        positive = st.floats(width=32, min_value=0.0, exclude_min=True, allow_infinity=False)
        for name, a in _param_arrays(net):
            values = positive if name.endswith("running_var") else finite
            a[...] = data.draw(hnp.arrays(np.float32, a.shape, elements=values))
        p = tmp_path / "net.tgdw"
        save_weights(net, p)
        loaded = load_weights(p)
        assert (loaded.config, loaded.version_tag) == (net.config, tag)
        for (name, a), (_, b) in zip(_param_arrays(net), _param_arrays(loaded)):
            assert a.tobytes() == b.tobytes(), name
            assert b.dtype == np.float32 and b.flags.writeable and b.flags.owndata, name

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_running_variance_is_weight_file_error(self, tmp_path, value):
        net = build_network(NetworkConfig(depth=4, channels=3), seed=0)
        net.blocks[2].bn.running_var[1] = value
        save_weights(net, tmp_path / "net.tgdw")
        with pytest.raises(WeightFileError, match=r"block02\.bn: running_var"):
            load_weights(tmp_path / "net.tgdw")

    @settings(
        max_examples=400, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_any_single_byte_change_loads_or_is_weight_file_error(self, tmp_path, data):
        raw = bytearray(saved_3x4(tmp_path / "net.tgdw"))
        offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
        raw[offset] = data.draw(st.integers(0, 255).filter(lambda v: v != raw[offset]))
        p = tmp_path / "changed.tgdw"
        p.write_bytes(bytes(raw))
        try:
            load_weights(p)
        except WeightFileError:
            pass
