"""Dense-tensor layer ops with hand-written forward and backward passes.

Every op writes its result into a new buffer, or into the ``out=`` buffer
the caller passes, and writes nothing else: an ``out`` that is one of the
op's inputs (where the op allows that) is the only input it mutates, and
the result's bytes are the same either way. Identical inputs give
bit-identical outputs. Arrays are NCHW, kernels are fixed at 3x3 with zero
padding 1 so spatial size is preserved. Compute dtype follows the input
dtype (float32 for training, float64 for gradient checks).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

KERNEL_SIZE = 3


@dataclass
class ConvParams:
    """3x3 convolution weights [N_out, C_in, 3, 3] and optional bias [N_out]."""

    weights: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.weights)
        if w.ndim != 4 or w.shape[2:] != (KERNEL_SIZE, KERNEL_SIZE):
            raise ValueError(f"conv weights must be [N, C, 3, 3], got {w.shape}")
        if self.bias is not None and np.asarray(self.bias).shape != (w.shape[0],):
            raise ValueError(
                f"conv bias must be [N]={w.shape[0]}, got {np.asarray(self.bias).shape}"
            )

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]


@dataclass
class BatchNormParams:
    """Per-channel affine batch normalization with running statistics."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    # the same for every layer; the weight file stores neither
    momentum: ClassVar[float] = 0.1  # EMA weight of a batch in the running stats
    epsilon: ClassVar[float] = 1e-5

    def __post_init__(self):
        c = np.asarray(self.gamma).shape
        for name in ("beta", "running_mean", "running_var"):
            if np.asarray(getattr(self, name)).shape != c:
                raise ValueError(f"batchnorm {name} shape != gamma shape {c}")
        if np.any(np.asarray(self.running_var) <= 0.0):
            raise ValueError("running_var must be strictly positive")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


@dataclass
class BnStats:
    """A train-mode forward's batch statistics, for the running-stat update
    (``masking.commit_running_stats``), and its centered input ``x - mean``,
    which the backward pass and the output rebuild read in place of x."""

    mean: np.ndarray
    var: np.ndarray
    centered: np.ndarray


def _output(out: np.ndarray | None, shape: tuple, dtype) -> np.ndarray:
    """``out``, checked to be a C-contiguous array of ``shape`` and ``dtype``,
    or a new one when it is None: the buffer an op writes its result into."""
    if out is None:
        return np.empty(shape, dtype)
    if out.shape != shape or out.dtype != dtype or not out.flags.c_contiguous:
        raise ValueError(
            f"out must be a C-contiguous {np.dtype(dtype)} array of shape {shape}, "
            f"got {out.dtype} {out.shape}"
        )
    return out


# A conv's patch band is kept to about half of a core's 2 MiB L2, so that
# _im2col's writes and the GEMM's reads of it stay in that cache.
BAND_BYTES = 1 << 20


def _band_rows(c: int, n: int, h: int, w: int, itemsize: int) -> int:
    """Image rows per patch band of a C -> N conv on H x W images: H (one
    band, the whole image) unless bands of whole rows, each at most
    BAND_BYTES, give every band's GEMM the OpenBLAS kernel of the whole
    image's GEMM, and so its bytes. That holds only where

    - W % 16 == 0, so every band is a whole number of the kernel's column
      blocks and none runs a tail kernel;
    - N >= 16;
    - every band, the shortest included, has L * N * 9C > 10**6 for its L
      pixels, which keeps it out of the small-matrix kernel.

    ``tools/bands.py`` sweeps this rule against the one-band conv.
    """
    depth = c * KERNEL_SIZE * KERNEL_SIZE
    rows = max(1, BAND_BYTES // (depth * w * itemsize))
    bands = -(-h // rows)
    if bands == 1 or w % 16 or n < 16 or (h // bands) * w * n * depth <= 10**6:
        return h
    return -(-h // bands)


def _im2col(
    x: np.ndarray, rows: int | None = None
) -> Iterator[tuple[int, slice, np.ndarray]]:
    """Yield ``(sample, pixels, band)`` for each band of each sample of
    [B, C, H, W] x: ``band`` is the [C*9, r*W] patch matrix, for a padded
    3x3 window, of the r whole image rows whose flat pixel indices are the
    slice ``pixels``. A sample is cut into bands of at most ``rows`` rows
    (None: the whole image, one band), whose heights differ by at most one.
    All bands share one buffer, so a yielded band is valid until the next
    one is requested.

    Row c*9 + (i*3 + j) holds channel c shifted by kernel tap (i, j), so a
    GEMM against the [N, C*9] weight matrix computes the band's output
    pixels. Each channel of the sample is copied as one flat run of H*W
    values into the middle of a zero-bordered run of H*W + 2(W+1); tap
    (i, j) of output pixel p is then place p + i*W + j of that run. A
    strided view lays those runs out in row order, and one copy of its
    band's columns fills the band buffer.

    Rows above and below the sample read the zero border. A side tap reads
    the neighbouring row's end value where it should read the padding, at
    column 0 for j = 0 and column W-1 for j = 2; each of the two is zeroed
    again in the band buffer, in one strided write.
    """
    x = np.ascontiguousarray(x)
    _, c, h, w = x.shape
    k = KERNEL_SIZE
    hw = h * w
    bands = -(-h // (rows or h))
    # padded[c, w + 1 + p] = x[b, c] read flat at p, zero outside x
    padded = np.zeros((c, hw + 2 * (w + 1)), x.dtype)
    s_c, s = padded.strides
    taps = np.ndarray((c, k, k, h, w), x.dtype, padded, 0, (s_c, w * s, s, w * s, s))
    centre = padded[:, w + 1 : w + 1 + hw]
    buf = np.empty(c * k * k * -(-h // bands) * w, x.dtype)
    views = []  # (a band's pixels, its taps, its [C, 3, 3, r, W] buffer, its matrix)
    for i in range(bands):
        r0, r1 = i * h // bands, (i + 1) * h // bands
        block = buf[: c * k * k * (r1 - r0) * w].reshape(c, k, k, r1 - r0, w)
        views.append((slice(r0 * w, r1 * w), taps[:, :, :, r0:r1], block,
                      block.reshape(c * k * k, -1)))
    for b, sample in enumerate(x):
        centre[...] = sample.reshape(c, hw)
        for pixels, band_taps, block, band in views:
            block[...] = band_taps
            block[:, :, 0, :, 0] = 0
            block[:, :, k - 1, :, w - 1] = 0
            yield b, pixels, band


def conv2d_forward(
    x: np.ndarray, params: ConvParams, out: np.ndarray | None = None
) -> np.ndarray:
    """Cross-correlate [B, C, H, W] with params, zero padding 1, stride 1.

    Returns the [B, N, H, W] output, bias added per output channel when
    present. Each sample's patch matrix is built and multiplied one band of
    whole image rows at a time (``_band_rows``), each band's GEMM writing
    its own columns of the output. A band of a large image stays in L2; its
    whole patch matrix (9.0 MiB at 16 channels and 128x128) would be
    written and read back through L3. Bands are cut only where they take
    none of OpenBLAS's column-tail or small-matrix kernels, which would
    round otherwise; smaller images run as one band. ``out`` must not
    overlap x.
    """
    if x.ndim != 4:
        raise ValueError(f"conv input must be [B, C, H, W], got shape {x.shape}")
    if x.shape[1] != params.in_channels:
        raise ValueError(
            f"conv input has {x.shape[1]} channels, weights expect "
            f"{params.in_channels}"
        )
    b, c, h, w = x.shape
    n = params.out_channels
    out = _output(out, (b, n, h, w), x.dtype)
    if np.may_share_memory(out, x):
        raise ValueError("conv output must not overlap its input")
    wmat = params.weights.reshape(n, -1).astype(x.dtype, copy=False)
    y = out.reshape(b, n, h * w)
    for k, pixels, band in _im2col(x, _band_rows(c, n, h, w, x.dtype.itemsize)):
        np.matmul(wmat, band, out=y[k, :, pixels])
    if params.bias is not None:
        y += params.bias.astype(x.dtype, copy=False)[:, None]
    return out


def conv2d_backward(
    x: np.ndarray, params: ConvParams, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Parameter gradients of conv2d_forward on input x: (grad_weights,
    grad_bias). Each sample's patch matrix is rebuilt, its product taken
    as ``cols @ g.T`` ([9C, N]), and the batch sum transposed once. OpenBLAS
    runs that orientation faster than ``g @ cols.T`` at the training shapes
    (at 16 channels, 24x24, float32, about 47 against 80 us per sample on
    one AVX-512 thread, OpenBLAS 0.3.31). The patch matrix is one band, the
    whole image: this GEMM sums over the pixels, so bands would split that
    sum and change its bytes.

    grad_bias is None when the layer has no bias. The input gradient is
    :func:`conv2d_grad_input`, which needs no x.
    """
    b, n, h, w = grad_out.shape
    c = params.in_channels
    if x.shape != (b, c, h, w) or n != params.out_channels:
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not fit input {x.shape} "
            f"and weights {params.weights.shape}"
        )
    gmat = grad_out.reshape(b, n, h * w)
    per = np.empty((b, c * KERNEL_SIZE * KERNEL_SIZE, n), np.result_type(gmat, x))
    for per_k, g_k, (_, _, cols) in zip(per, gmat, _im2col(x)):
        np.matmul(cols, g_k.T, out=per_k)
    grad_w = per.sum(axis=0).T.reshape(n, c, KERNEL_SIZE, KERNEL_SIZE)
    grad_b = grad_out.sum(axis=(0, 2, 3)) if params.bias is not None else None
    return grad_w, grad_b


def conv2d_grad_input(
    params: ConvParams, grad_out: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Gradient of conv2d_forward wrt its input: the correlation of grad_out
    with the 180-degree-rotated kernels, output and input channel roles
    exchanged."""
    w_flip = np.ascontiguousarray(
        params.weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    )
    return conv2d_forward(grad_out, ConvParams(w_flip), out)


def batchnorm_forward(
    x: np.ndarray, params: BatchNormParams, mode: str = "train",
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, BnStats | None]:
    """Normalize [B, C, H, W] per channel; ``out`` may be x.

    Train mode uses biased batch statistics over (B, H, W) and returns them,
    with the centered input it builds on the way, as the BnStats the
    backward pass takes; the running statistics are left as they are. Infer
    mode puts the stored running statistics through the same normalize
    step, so given a batch's statistics it gives train mode's bytes, and
    returns stats=None.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    if x.ndim != 4 or x.shape[1] != params.channels:
        raise ValueError(
            f"batchnorm input shape {x.shape} incompatible with C={params.channels}"
        )
    m = x.shape[0] * x.shape[2] * x.shape[3]
    if mode == "train" and m < 2:
        raise ValueError("train mode needs >= 2 samples per channel")
    out = _output(out, x.shape, x.dtype)
    if mode == "infer":
        rm = params.running_mean.astype(x.dtype, copy=False)[None, :, None, None]
        xc = np.subtract(x, rm, out=out)
        return _scale_shift(xc, params, params.running_var, out=xc), None

    mean = x.mean(axis=(0, 2, 3))
    xc = x - mean[None, :, None, None]
    y = np.multiply(xc, xc, out=out)
    var = y.sum(axis=(0, 2, 3)) / m  # np.var's own steps, centering once
    # in the buffer that held xc * xc
    return _scale_shift(xc, params, var, out=y), BnStats(mean, var, xc)


def _scale_shift(xc: np.ndarray, params: BatchNormParams, var: np.ndarray, out: np.ndarray):
    """gamma * xc * inv_std + beta for the centered input xc, written into
    ``out``: the one normalize step of both batchnorm_forward modes and of
    batchnorm_relu_output, so that given the same statistics all three give
    the same bytes."""
    dt = xc.dtype
    inv_std = 1.0 / np.sqrt(var.astype(dt, copy=False) + dt.type(params.epsilon))
    np.multiply(params.gamma.astype(dt, copy=False)[None, :, None, None], xc, out=out)
    out *= inv_std[None, :, None, None]
    out += params.beta.astype(dt, copy=False)[None, :, None, None]
    return out


def batchnorm_relu_output(params: BatchNormParams, stats: BnStats) -> np.ndarray:
    """``relu_forward(batchnorm_forward(x, params, "train")[0])`` byte for
    byte, from the BnStats that forward returned, in one new buffer.

    The backward pass rebuilds a batchnorm block's output with it, so the
    forward need not keep that output beside the block's centered input.
    """
    y = _scale_shift(stats.centered, params, stats.var, out=np.empty_like(stats.centered))
    return np.maximum(y, 0, out=y)


def batchnorm_backward(
    params: BatchNormParams, stats: BnStats, grad_out: np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients of the train-mode forward that returned ``stats``, whose
    centered input it reads: (grad_input, grad_gamma, grad_beta). The input
    gradient is built in ``out``, which may be grad_out."""
    xc = stats.centered
    if grad_out.shape != xc.shape:
        raise ValueError(f"grad_out shape {grad_out.shape} != input shape {xc.shape}")
    dt = xc.dtype
    m = xc.shape[0] * xc.shape[2] * xc.shape[3]
    inv_std = (1.0 / np.sqrt(stats.var + dt.type(params.epsilon)))[None, :, None, None]
    x_hat = np.multiply(xc, inv_std)

    prod = np.multiply(grad_out, x_hat)
    grad_gamma = prod.sum(axis=(0, 2, 3))
    grad_beta = grad_out.sum(axis=(0, 2, 3))

    gamma = params.gamma.astype(dt, copy=False)[None, :, None, None]
    g_hat = np.multiply(grad_out, gamma, out=_output(out, xc.shape, dt))
    sum_g = g_hat.sum(axis=(0, 2, 3), keepdims=True)
    np.multiply(g_hat, x_hat, out=prod)
    sum_gx = prod.sum(axis=(0, 2, 3), keepdims=True)
    # grad_x = (inv_std / m) * (m * g_hat - sum_g - x_hat * sum_gx), built in g_hat
    grad_x = np.multiply(m, g_hat, out=g_hat)
    grad_x -= sum_g
    grad_x -= np.multiply(x_hat, sum_gx, out=prod)
    np.multiply(inv_std / m, grad_x, out=grad_x)
    return grad_x, grad_gamma, grad_beta


def relu_forward(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise max(0, x); ``out`` may be x."""
    return np.maximum(x, 0, out=_output(out, x.shape, x.dtype))


def relu_backward(positive: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Pass gradient where the forward input was strictly positive.

    ``positive`` is the bool mask ``x > 0`` of the forward input x; the
    forward output is > 0 at the same places, so its mask serves as well.
    Equal byte for byte to ``np.where(positive, grad_out, 0)``: the
    gradient's bits are ANDed with all-ones where positive and with zero
    (+0.0) elsewhere, which has no data-dependent branch to mispredict.
    """
    if positive.dtype != np.bool_:
        raise TypeError(f"relu mask must be bool, got {positive.dtype}")
    if grad_out.shape != positive.shape:
        raise ValueError(f"grad_out shape {grad_out.shape} != mask shape {positive.shape}")
    bits = np.dtype(f"i{grad_out.itemsize}")
    keep = positive.view(np.int8).astype(bits)
    np.negative(keep, out=keep)
    keep &= grad_out.view(bits)
    return keep.view(grad_out.dtype)
