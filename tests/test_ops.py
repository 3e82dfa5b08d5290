"""Layer-op tests: trivial cases, loop-nest oracles, and finite differences."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgdkit import ops
from tgdkit.masking import commit_running_stats
from tgdkit.model import NetworkConfig, backward, build_network, forward, forward_train
from tgdkit.ops import (
    BatchNormParams,
    ConvParams,
    _band_rows,
    _im2col,
    batchnorm_backward,
    batchnorm_forward,
    batchnorm_relu_output,
    conv2d_backward,
    conv2d_forward,
    conv2d_grad_input,
    relu_backward,
    relu_forward,
)

from oracles import batchnorm_twopass, central_difference, conv2d_loop, rel_err


def conv_grads(x, params, g):
    """(grad_input, grad_weights, grad_bias) of conv2d_forward on x."""
    gw, gb = conv2d_backward(x, params, g)
    return conv2d_grad_input(params, g), gw, gb


def rand_conv(rng, n, c, dtype=np.float64, bias=True):
    return ConvParams(
        rng.standard_normal((n, c, 3, 3)).astype(dtype),
        rng.standard_normal(n).astype(dtype) if bias else None,
    )


class TestConvForward:
    def test_zero_input_gives_bias(self):
        x = np.zeros((1, 1, 3, 3), dtype=np.float32)
        params = ConvParams(
            np.ones((2, 1, 3, 3), dtype=np.float32),
            np.array([1.5, -2.0], dtype=np.float32),
        )
        out = conv2d_forward(x, params)
        assert np.all(out[0, 0] == 1.5)
        assert np.all(out[0, 1] == -2.0)

    def test_identity_kernel_passes_input_through(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 1, 6, 7)).astype(np.float32)
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        out = conv2d_forward(x, ConvParams(w, np.zeros(1, dtype=np.float32)))
        np.testing.assert_array_equal(out, x)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 5, 5))
        params = rand_conv(rng, 3, 2)
        out = conv2d_forward(x, params)
        ref = conv2d_loop(x, params.weights, params.bias)
        np.testing.assert_allclose(out, ref, atol=1e-6)

    @pytest.mark.parametrize("case", range(8))
    def test_matches_loop_oracle_random_shapes(self, case):
        rng = np.random.default_rng(100 + case)
        b, c, n = rng.integers(1, 4), rng.integers(1, 5), rng.integers(1, 5)
        h, w = rng.integers(3, 8), rng.integers(3, 8)
        x = rng.standard_normal((b, c, h, w))
        params = rand_conv(rng, int(n), int(c), bias=bool(case % 2))
        np.testing.assert_allclose(
            conv2d_forward(x, params),
            conv2d_loop(x, params.weights, params.bias),
            atol=1e-6,
        )

    def test_channel_mismatch_rejected(self):
        x = np.zeros((1, 3, 4, 4), dtype=np.float32)
        params = rand_conv(np.random.default_rng(0), 2, 2)
        with pytest.raises(ValueError, match="channels"):
            conv2d_forward(x, params)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        params = rand_conv(rng, 4, 3, dtype=np.float32)
        a = conv2d_forward(x, params)
        b = conv2d_forward(x, params)
        np.testing.assert_array_equal(a, b)


class TestConvBackward:
    def test_zero_cotangent(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 4, 4))
        params = rand_conv(rng, 3, 2)
        gx, gw, gb = conv_grads(x, params, np.zeros((1, 3, 4, 4)))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_single_pixel_grad_weights_is_outer_product(self):
        # One nonzero input pixel at (1, 1) and one nonzero grad pixel at
        # (1, 1): only the kernel center taps the input, so grad_w has the
        # product at its center and zeros elsewhere.
        x = np.zeros((1, 1, 3, 3))
        x[0, 0, 1, 1] = 2.0
        g = np.zeros((1, 1, 3, 3))
        g[0, 0, 1, 1] = 5.0
        params = ConvParams(np.zeros((1, 1, 3, 3)), np.zeros(1))
        _, gw, gb = conv_grads(x, params, g)
        expected = np.zeros((1, 1, 3, 3))
        expected[0, 0, 1, 1] = 10.0
        np.testing.assert_array_equal(gw, expected)
        np.testing.assert_array_equal(gb, [5.0])

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 2, 4, 4))
        params = rand_conv(rng, 3, 2)
        g = rng.standard_normal((2, 3, 4, 4))

        def loss_of_x(xv):
            return float((conv2d_forward(xv, params) * g).sum())

        def loss_of_w(wv):
            return float(
                (conv2d_forward(x, ConvParams(wv, params.bias)) * g).sum()
            )

        gx, gw, gb = conv_grads(x, params, g)
        assert rel_err(gx, central_difference(loss_of_x, x)).max() < 1e-4
        assert rel_err(gw, central_difference(loss_of_w, params.weights)).max() < 1e-4
        np.testing.assert_allclose(gb, g.sum(axis=(0, 2, 3)), rtol=1e-12)

    def test_no_bias_layer_returns_none(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 2, 4, 4))
        params = rand_conv(rng, 2, 2, bias=False)
        _, _, gb = conv_grads(x, params, np.ones((1, 2, 4, 4)))
        assert gb is None

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 2, 4, 4))
        params = rand_conv(rng, 2, 2)
        with pytest.raises(ValueError):
            conv_grads(x, params, np.zeros((1, 2, 5, 4)))


def padded_patches(a):
    """[B, 9C, H*W] patch matrices of [B, C, H, W] a from an np.pad copy."""
    b, c, h, w = a.shape
    ap = np.pad(a, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty((b, c, 3, 3, h, w), a.dtype)
    for i in range(3):
        for j in range(3):
            cols[:, :, i, j] = ap[:, :, i : i + h, j : j + w]
    return cols.reshape(b, 9 * c, h * w)


def batched_conv(x, params, g):
    """(y, grad_weights, grad_input) from one [B, 9C, HW] patch matrix for the
    whole batch, one batched GEMM per op; grad_weights is ``patches @ g.T``
    summed over the batch and transposed."""

    def forward(a, weights, bias):
        wmat = weights.reshape(len(weights), -1).astype(a.dtype, copy=False)
        y = np.matmul(wmat, padded_patches(a))
        if bias is not None:
            y += bias.astype(a.dtype, copy=False)[:, None]
        return y.reshape(a.shape[0], len(weights), *a.shape[2:])

    b, n, h, w = g.shape
    y = forward(x, params.weights, params.bias)
    gw = np.matmul(padded_patches(x), g.reshape(b, n, h * w).transpose(0, 2, 1)).sum(axis=0).T
    w_flip = np.ascontiguousarray(params.weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return y, gw.reshape(params.weights.shape), forward(g, w_flip, None)


def assert_matches_batched_gemm(c, h, w, b, n, dtype):
    """The three conv ops equal :func:`batched_conv` byte for byte."""
    rng = np.random.default_rng(100 * b + n)
    x = rng.standard_normal((b, c, h, w)).astype(dtype)
    g = rng.standard_normal((b, n, h, w)).astype(dtype)
    params = rand_conv(rng, n, c, dtype=dtype)
    y, gw, gx = batched_conv(x, params, g)
    assert conv2d_forward(x, params).tobytes() == y.tobytes()
    assert conv2d_backward(x, params, g)[0].tobytes() == gw.tobytes()
    assert conv2d_grad_input(params, g).tobytes() == gx.tobytes()


class TestConvWorkspace:
    """The per-call scratch buffers: each conv call reuses its padded-sample
    buffer and its patch buffer across its samples, so a stale value left by
    an earlier sample would show against a batched reference."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 16])
    @pytest.mark.parametrize("b", [1, 3, 8])
    def test_per_sample_patches_match_batched_gemm_bitwise(self, b, n, dtype):
        # n=1 is the last layer, whose per-sample product is a GEMV; the odd
        # widths are where a kernel's column tail can round differently
        assert_matches_batched_gemm(5, 11, 13, b, n, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 16])
    @pytest.mark.parametrize("b", [1, 3, 8])
    @pytest.mark.parametrize(
        "c,h,w",
        [
            (16, 24, 24),  # the interior blocks of a train step
            (3, 24, 24),  # block 0, which eats three slices
            (16, 24, 1),
            (16, 24, 2),
            (27, 3, 5),  # pins cols @ g.T: float64 g @ cols.T rounds otherwise here
        ],
    )
    def test_training_shapes_match_batched_gemm_bitwise(self, c, h, w, b, n, dtype):
        assert_matches_batched_gemm(c, h, w, b, n, dtype)

    def test_forward_holds_no_batch_wide_patch_matrix(self):
        rng = np.random.default_rng(9)
        b, c, n, h, w = 8, 16, 16, 64, 64
        x = rng.standard_normal((b, c, h, w)).astype(np.float32)
        params = rand_conv(rng, n, c, dtype=np.float32)
        tracemalloc.start()
        try:
            conv2d_forward(x, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < b * 9 * c * h * w * x.itemsize


conv_cases = given(
    seed=st.integers(0, 2**32 - 1),
    b=st.integers(1, 3),
    c=st.integers(1, 4),
    n=st.integers(1, 4),
    h=st.integers(1, 6),
    w=st.integers(1, 6),
)


def assert_close(a, b, scale):
    """Equal up to float64 rounding of sums whose terms have magnitude ``scale``."""
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * (1.0 + np.max(scale)))


class TestConvProperties:
    """float64 properties over random shapes: the conv is bilinear in
    (x, W), and conv2d_backward is its adjoint in each argument."""

    @settings(max_examples=60, deadline=None)
    @conv_cases
    def test_linear_in_input(self, seed, b, c, n, h, w):
        rng = np.random.default_rng(seed)
        params = rand_conv(rng, n, c, bias=False)
        x1, x2 = rng.standard_normal((2, b, c, h, w))
        alpha, beta = rng.standard_normal(2)
        y1, y2 = conv2d_forward(x1, params), conv2d_forward(x2, params)
        y = conv2d_forward(alpha * x1 + beta * x2, params)
        scale = abs(alpha) * np.abs(y1).max() + abs(beta) * np.abs(y2).max()
        assert_close(y, alpha * y1 + beta * y2, 9 * c * scale)

    @settings(max_examples=60, deadline=None)
    @conv_cases
    def test_linear_in_weights(self, seed, b, c, n, h, w):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((b, c, h, w))
        w1, w2 = (rand_conv(rng, n, c, bias=False).weights for _ in range(2))
        alpha, beta = rng.standard_normal(2)
        y1 = conv2d_forward(x, ConvParams(w1))
        y2 = conv2d_forward(x, ConvParams(w2))
        y = conv2d_forward(x, ConvParams(alpha * w1 + beta * w2))
        scale = abs(alpha) * np.abs(y1).max() + abs(beta) * np.abs(y2).max()
        assert_close(y, alpha * y1 + beta * y2, 9 * c * scale)

    @settings(max_examples=60, deadline=None)
    @conv_cases
    def test_backward_is_adjoint(self, seed, b, c, n, h, w):
        # <conv(x, W) + bias, g> = <x, grad_x> + <bias, grad_b>
        #                        = <W, grad_w> + <bias, grad_b>
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((b, c, h, w))
        params = rand_conv(rng, n, c)
        g = rng.standard_normal((b, n, h, w))
        y = conv2d_forward(x, params)
        gx, gw, gb = conv_grads(x, params, g)
        bias_term = float(params.bias @ gb)
        scale = 9 * c * (np.abs(x).max() * np.abs(params.weights).max() + 1) * np.abs(g).sum()
        assert_close(float((y * g).sum()), float((x * gx).sum()) + bias_term, scale)
        assert_close(
            float((y * g).sum()), float((params.weights * gw).sum()) + bias_term, scale
        )


def make_bn(c, dtype=np.float64, gamma=None, beta=None):
    return BatchNormParams(
        gamma=np.ones(c, dtype) if gamma is None else np.asarray(gamma, dtype),
        beta=np.zeros(c, dtype) if beta is None else np.asarray(beta, dtype),
        running_mean=np.zeros(c, dtype),
        running_var=np.ones(c, dtype),
    )


class TestBatchNormForward:
    def test_train_mode_normalizes(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 3, 8, 8))
        y, stats = batchnorm_forward(x, make_bn(3), "train")
        mean = y.mean(axis=(0, 2, 3))
        var = y.var(axis=(0, 2, 3))
        assert np.abs(mean).max() < 1e-5
        assert np.abs(var - 1.0).max() < 1e-4
        assert stats is not None

    def test_infer_mode_uses_running_stats(self):
        params = make_bn(2, gamma=[2.0, 2.0], beta=[3.0, 3.0])
        const = 7.0
        params.running_mean[:] = const
        x = np.full((2, 2, 3, 3), const)
        y, stats = batchnorm_forward(x, params, "infer")
        np.testing.assert_allclose(y, 3.0, atol=1e-6)
        assert stats is None

    def test_matches_twopass_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 4, 5, 6))
        params = make_bn(4, gamma=rng.standard_normal(4), beta=rng.standard_normal(4))
        y, _ = batchnorm_forward(x, params, "train")
        ref = batchnorm_twopass(x, params.gamma, params.beta, params.epsilon)
        np.testing.assert_allclose(y, ref, atol=1e-6)

    def test_ema_update_returned_not_applied(self):
        # the forward leaves the running stats alone; the one EMA step
        # happens in commit_running_stats
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 2, 4, 4))
        params = make_bn(2)
        params.running_mean[:] = rng.standard_normal(2)
        params.running_var[:] = rng.uniform(0.5, 2.0, 2)
        old_mean, old_var = params.running_mean.copy(), params.running_var.copy()
        _, stats = batchnorm_forward(x, params, "train")
        np.testing.assert_array_equal(params.running_mean, old_mean)
        np.testing.assert_array_equal(params.running_var, old_var)
        commit_running_stats(params, stats, np.ones(2, np.uint8))
        np.testing.assert_allclose(
            params.running_mean, 0.9 * old_mean + 0.1 * stats.mean, rtol=1e-12
        )
        np.testing.assert_allclose(
            params.running_var, 0.9 * old_var + 0.1 * stats.var, rtol=1e-12
        )

    def test_tiny_batch_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            batchnorm_forward(np.zeros((1, 2, 1, 1)), make_bn(2), "train")

    def test_variance_underflow_guarded(self):
        x = np.full((2, 1, 2, 2), 5.0)
        y, _ = batchnorm_forward(x, make_bn(1), "train")
        assert np.all(np.isfinite(y))


class TestBatchNormBackward:
    def test_zero_cotangent(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 2, 3, 3))
        params = make_bn(2)
        _, stats = batchnorm_forward(x, params, "train")
        gx, gg, gb = batchnorm_backward(params, stats, np.zeros_like(x))
        assert not gx.any() and not gg.any() and not gb.any()

    def test_grad_beta_is_sum_of_grad_out(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 3, 4, 4))
        g = rng.standard_normal(x.shape)
        params = make_bn(3)
        _, stats = batchnorm_forward(x, params, "train")
        _, _, gb = batchnorm_backward(params, stats, g)
        np.testing.assert_allclose(gb, g.sum(axis=(0, 2, 3)), rtol=1e-12)

    @pytest.mark.parametrize("seed", [20, 21])
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 1, 2, 2))
        params = make_bn(1, gamma=rng.standard_normal(1), beta=rng.standard_normal(1))
        g = rng.standard_normal(x.shape)
        _, stats = batchnorm_forward(x, params, "train")
        gx, gg, gb = batchnorm_backward(params, stats, g)

        def loss_of_x(xv):
            yv, _ = batchnorm_forward(xv, params, "train")
            return float((yv * g).sum())

        def loss_of_gamma(gv):
            p = BatchNormParams(
                gv, params.beta, params.running_mean, params.running_var
            )
            yv, _ = batchnorm_forward(x, p, "train")
            return float((yv * g).sum())

        assert rel_err(gx, central_difference(loss_of_x, x)).max() < 1e-4
        assert rel_err(gg, central_difference(loss_of_gamma, params.gamma)).max() < 1e-4


def bn_forward_expressions(x, params, mode):
    """batchnorm_forward as plain expressions, one temporary per operator:
    (y, mean, var), the statistics None in infer mode. Both modes share the
    normalize expression; infer mode feeds it the running statistics."""
    dt = x.dtype
    gamma = params.gamma.astype(dt, copy=False)[None, :, None, None]
    beta = params.beta.astype(dt, copy=False)[None, :, None, None]
    eps = dt.type(params.epsilon)
    if mode == "infer":
        mean = params.running_mean.astype(dt, copy=False)
        var = params.running_var.astype(dt, copy=False)
        xc = x - mean[None, :, None, None]
    else:
        m = x.shape[0] * x.shape[2] * x.shape[3]
        mean = x.mean(axis=(0, 2, 3))
        xc = x - mean[None, :, None, None]
        var = (xc * xc).sum(axis=(0, 2, 3)) / m
    inv_std = 1.0 / np.sqrt(var + eps)
    y = gamma * xc * inv_std[None, :, None, None] + beta
    return (y, None, None) if mode == "infer" else (y, mean, var)


def bn_backward_expressions(x, params, mean, var, grad_out):
    """batchnorm_backward as plain expressions: (grad_x, grad_gamma, grad_beta)."""
    dt = x.dtype
    m = x.shape[0] * x.shape[2] * x.shape[3]
    inv_std = (1.0 / np.sqrt(var + dt.type(params.epsilon)))[None, :, None, None]
    x_hat = (x - mean[None, :, None, None]) * inv_std
    grad_gamma = (grad_out * x_hat).sum(axis=(0, 2, 3))
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    g_hat = grad_out * params.gamma.astype(dt, copy=False)[None, :, None, None]
    sum_g = g_hat.sum(axis=(0, 2, 3), keepdims=True)
    sum_gx = (g_hat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
    grad_x = (inv_std / m) * (m * g_hat - sum_g - x_hat * sum_gx)
    return grad_x, grad_gamma, grad_beta


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(3, 5, 11, 13), (8, 16, 24, 24)])
class TestBatchNormMatchesExpressionsBitwise:
    """The batchnorm passes write into reused buffers; they must give the
    bytes of the plain expressions they replace."""

    def setup_case(self, shape, dtype):
        rng = np.random.default_rng(shape[1])
        c = shape[1]
        x = (3.0 * rng.standard_normal(shape) + 0.5).astype(dtype)
        params = BatchNormParams(
            gamma=rng.standard_normal(c).astype(dtype),
            beta=rng.standard_normal(c).astype(dtype),
            running_mean=rng.standard_normal(c).astype(dtype),
            running_var=rng.uniform(0.1, 3.0, c).astype(dtype),
        )
        return rng, x, params

    def test_train_forward(self, shape, dtype):
        _, x, params = self.setup_case(shape, dtype)
        y, stats = batchnorm_forward(x, params, "train")
        want, mean, var = bn_forward_expressions(x, params, "train")
        assert y.tobytes() == want.tobytes()
        assert stats.mean.tobytes() == mean.tobytes()
        assert stats.var.tobytes() == var.tobytes()
        assert stats.centered.tobytes() == (x - mean[None, :, None, None]).tobytes()

    def test_infer_forward(self, shape, dtype):
        _, x, params = self.setup_case(shape, dtype)
        y, _ = batchnorm_forward(x, params, "infer")
        assert y.tobytes() == bn_forward_expressions(x, params, "infer")[0].tobytes()

    def test_infer_with_the_batch_statistics_is_train(self, shape, dtype):
        _, x, params = self.setup_case(shape, dtype)
        y, stats = batchnorm_forward(x, params, "train")
        params.running_mean, params.running_var = stats.mean, stats.var
        assert batchnorm_forward(x, params, "infer")[0].tobytes() == y.tobytes()

    def test_relu_output_rebuild(self, shape, dtype):
        # the backward's rebuild of a batchnorm + ReLU output, here from
        # channels with batch means of both signs
        rng, x, params = self.setup_case(shape, dtype)
        x += np.resize(np.array([-4.0, 2.0], dtype), shape[1])[None, :, None, None]
        y, stats = batchnorm_forward(x, params, "train")
        assert (stats.mean < 0).any() and (stats.mean > 0).any()
        assert (params.gamma != 1).all() and (params.beta != 0).all()
        have = batchnorm_relu_output(params, stats)
        assert have.dtype == dtype
        assert have.tobytes() == relu_forward(y).tobytes()

    def test_backward(self, shape, dtype):
        rng, x, params = self.setup_case(shape, dtype)
        g = rng.standard_normal(shape).astype(dtype)
        _, stats = batchnorm_forward(x, params, "train")
        have = batchnorm_backward(params, stats, g)
        want = bn_backward_expressions(x, params, stats.mean, stats.var, g)
        for a, b in zip(have, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestRelu:
    def test_forward_definition(self):
        np.testing.assert_array_equal(
            relu_forward(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0]
        )

    def test_backward_definition(self):
        out = relu_backward(np.array([False, True]), np.array([5.0, 5.0]))
        np.testing.assert_array_equal(out, [0.0, 5.0])

    def test_backward_takes_a_bool_mask(self):
        with pytest.raises(TypeError, match="bool"):
            relu_backward(np.array([-1.0, 2.0]), np.array([5.0, 5.0]))
        with pytest.raises(ValueError, match="shape"):
            relu_backward(np.array([False, True]), np.array([5.0, 5.0, 5.0]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_matches_where_bitwise(self, dtype):
        # every pair of special values, then random bit patterns, which
        # include NaNs with payloads and both signs
        info = np.finfo(dtype)
        special = np.array(
            [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0,
             info.smallest_subnormal, -info.smallest_subnormal,
             info.tiny / 2, -info.tiny / 2, info.max, -info.max],
            dtype,
        )
        assert np.signbit(special[3]) and np.isnan(special[3])
        x, g = np.meshgrid(special, special)
        bits = np.dtype(f"u{info.bits // 8}")
        rng = np.random.default_rng(12)
        rx, rg = rng.integers(0, np.iinfo(bits).max, (2, 4, 3, 7, 5), bits, True)
        for x, g in ((x, g), (rx.view(dtype), rg.view(dtype))):
            want = np.where(x > 0, g, 0)
            have = relu_backward(x > 0, g)
            assert have.dtype == want.dtype == dtype
            assert have.tobytes() == want.tobytes()

    def test_finite_difference_away_from_kink(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(40)
        x = x[np.abs(x) > 1e-3]
        g = rng.standard_normal(x.shape)

        def loss(xv):
            return float((relu_forward(xv) * g).sum())

        grad = relu_backward(x > 0, g)
        assert rel_err(grad, central_difference(loss, x)).max() < 1e-4


class TestPatchMatrix:
    @pytest.mark.parametrize("rows", [None, 1, 2, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "h,w", [(1, 1), (1, 2), (1, 13), (11, 1), (11, 2), (2, 1), (11, 13)]
    )
    def test_matches_padded_copy_bitwise(self, h, w, dtype, rows):
        # one row (H = 1) has its vertical taps all in the zero border; at
        # W = 1 both side taps are all wrapped, at W = 2 every other one.
        # Entries of +-0 and NaN show a zero left out or a sign lost. Each
        # band is its columns of the sample's whole patch matrix
        x = np.random.default_rng(h * w).standard_normal((3, 4, h, w)).astype(dtype)
        x.flat[::5] = -0.0
        x.flat[1::7] = np.nan
        want = padded_patches(x)
        got, heights = [[] for _ in x], []
        for k, pixels, band in _im2col(x, rows):
            assert band.tobytes() == want[k][:, pixels].tobytes(), (k, pixels)
            assert band.shape[1] % w == 0
            got[k].append(band.copy())
            heights.append(band.shape[1] // w)
        # a sample's bands, in order, are its whole patch matrix, in whole
        # rows, at most ``rows`` of them, with heights that differ by one at most
        for k, bands in enumerate(got):
            assert np.concatenate(bands, axis=1).tobytes() == want[k].tobytes(), k
        assert max(heights) <= (rows or h) and max(heights) - min(heights) <= 1


class TestRowBands:
    """Where conv2d_forward cuts a patch matrix into row bands.
    ``tests/test_parity.py`` checks that every band the rule cuts gives the
    whole image's bytes."""

    def test_online_shapes_are_banded(self):
        # 16 channels at 128x128 (the N2N step and the infer pass on a full
        # slice) and 64 channels at 64x64 (the default net) run in bands;
        # a small image, a width off the 16-column kernel blocks and an
        # output of fewer than 16 channels run whole
        assert _band_rows(16, 16, 128, 128, 4) < 128
        assert _band_rows(64, 64, 64, 64, 4) < 64
        assert _band_rows(16, 16, 24, 24, 4) == 24
        assert _band_rows(16, 16, 100, 100, 4) == 100
        assert _band_rows(16, 1, 128, 128, 4) == 128

    def test_acceptance_networks_run_as_one_band(self, monkeypatch):
        # each network of tests/test_acceptance.py at the size it runs at,
        # and criterion 02's largest float64 op shape: none of their convs is
        # banded, so the criteria run the one-band conv they always ran
        seen = []

        def spy(x, rows=None):
            seen.append((x.shape, rows))
            return im2col(x, rows)

        im2col = ops._im2col
        monkeypatch.setattr(ops, "_im2col", spy)
        nets = [
            (NetworkConfig(depth=5, channels=16), 24),  # criteria 05-07, train-small
            (NetworkConfig(depth=4, channels=8), 16),  # criteria 01, 03
            (NetworkConfig(depth=3, channels=4), 16),  # criterion 10
        ]
        rng = np.random.default_rng(0)
        for config, size in nets:
            net = build_network(config, seed=0)
            x = rng.standard_normal((8, config.input_slices, size, size)).astype(np.float32)
            y, caches = forward_train(net, x)
            backward(net, caches, np.ones_like(y))
            forward(net, x, "infer")
        x = rng.standard_normal((3, 3, 5, 5))
        conv_grads(x, rand_conv(rng, 3, 3), np.ones((3, 3, 5, 5)))
        assert seen and all(rows in (None, shape[2]) for shape, rows in seen), seen


def bn_case(dtype, shape=(3, 5, 11, 13)):
    rng = np.random.default_rng(31)
    c = shape[1]
    x = (2.0 * rng.standard_normal(shape) + 0.5).astype(dtype)
    params = BatchNormParams(
        gamma=rng.standard_normal(c).astype(dtype),
        beta=rng.standard_normal(c).astype(dtype),
        running_mean=rng.standard_normal(c).astype(dtype),
        running_var=rng.uniform(0.1, 3.0, c).astype(dtype),
    )
    return rng, x, params


def outputs(result):
    """The bytes of an op's result, a tuple of arrays, or BnStats and None."""
    if result is None:
        return [None]
    if isinstance(result, np.ndarray):
        return [result.tobytes()]
    if isinstance(result, tuple):
        return [b for r in result for b in outputs(r)]
    return outputs((result.mean, result.var, result.centered))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestOutBuffers:
    """An op given ``out=`` writes its result there and returns it, with the
    bytes of the call without it; where the op allows, ``out`` may be the
    input it replaces."""

    @staticmethod
    def assert_writes_into(op, args, like, aliased=None):
        want = outputs(op(*args))
        out = np.full_like(like, np.nan)
        have = op(*args, out=out)
        first = have[0] if isinstance(have, tuple) else have
        assert first is out and outputs(have) == want
        if aliased is not None:  # args[aliased] is the out buffer
            args = list(args)
            args[aliased] = buf = args[aliased].copy()
            have = op(*args, out=buf)
            first = have[0] if isinstance(have, tuple) else have
            assert first is buf and outputs(have) == want

    def test_conv2d_forward(self, dtype):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((3, 5, 11, 13)).astype(dtype)
        params = rand_conv(rng, 4, 5, dtype=dtype)
        self.assert_writes_into(conv2d_forward, (x, params), np.empty((3, 4, 11, 13), dtype))

    def test_conv2d_grad_input(self, dtype):
        rng = np.random.default_rng(33)
        g = rng.standard_normal((3, 4, 11, 13)).astype(dtype)
        params = rand_conv(rng, 4, 5, dtype=dtype)
        self.assert_writes_into(
            conv2d_grad_input, (params, g), np.empty((3, 5, 11, 13), dtype)
        )

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_batchnorm_forward(self, dtype, mode):
        _, x, params = bn_case(dtype)
        self.assert_writes_into(
            lambda x, out=None: batchnorm_forward(x, params, mode, out=out), (x,), x, 0
        )

    def test_batchnorm_backward(self, dtype):
        rng, x, params = bn_case(dtype)
        _, stats = batchnorm_forward(x, params, "train")
        g = rng.standard_normal(x.shape).astype(dtype)
        self.assert_writes_into(batchnorm_backward, (params, stats, g), x, 2)

    def test_relu_forward(self, dtype):
        x = np.random.default_rng(34).standard_normal((3, 5, 11, 13)).astype(dtype)
        x.flat[::3] = -0.0
        self.assert_writes_into(relu_forward, (x,), x, 0)

    def test_conv2d_forward_rejects_an_out_over_its_input(self, dtype):
        # the whole input, or a run of memory that shares part of it
        rng = np.random.default_rng(35)
        run = rng.standard_normal(2 * 4 * 5 * 6 + 7).astype(dtype)
        x, shifted = run[:-7].reshape(2, 4, 5, 6), run[7:].reshape(2, 4, 5, 6)
        params = rand_conv(rng, 4, 4, dtype=dtype)
        before = run.tobytes()
        for out in (x, shifted):
            with pytest.raises(ValueError, match="overlap"):
                conv2d_forward(x, params, out=out)
        assert run.tobytes() == before

    @pytest.mark.parametrize("bad", ["shape", "dtype", "strides"])
    def test_an_out_of_another_layout_is_rejected(self, dtype, bad):
        x = np.random.default_rng(36).standard_normal((2, 4, 5, 6)).astype(dtype)
        out = {
            "shape": np.empty((2, 4, 5, 7), dtype),
            "dtype": np.empty(x.shape, np.float16),
            "strides": np.empty((2, 4, 5, 12), dtype)[..., ::2],
        }[bad]
        with pytest.raises(ValueError, match="out must be"):
            relu_forward(x, out=out)
        with pytest.raises(ValueError, match="out must be"):
            conv2d_forward(x, rand_conv(np.random.default_rng(0), 4, 4, dtype=dtype), out=out)
