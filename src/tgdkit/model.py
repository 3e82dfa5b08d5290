"""Residual denoising network: stacked 3x3 conv blocks with a skip to the
center input slice.

Block 0 is conv + ReLU, interior blocks are conv + batchnorm + ReLU (no conv
bias, the BN beta covers it), and the final block is a bias-only conv down to
one channel with no activation. The network eats a few consecutive 2D slices
as channels and predicts the center slice, so the output is input-sized and a
zero-weight network is exactly the identity on that slice.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .ops import (
    BatchNormParams,
    BnStats,
    ConvParams,
    batchnorm_backward,
    batchnorm_forward,
    batchnorm_relu_output,
    conv2d_backward,
    conv2d_forward,
    conv2d_grad_input,
    relu_backward,
    relu_forward,
)

WEIGHT_MAGIC = b"TGDW"
WEIGHT_VERSION = 1


class WeightFileError(Exception):
    """Problem reading or validating a weight file."""


class BadMagicError(WeightFileError):
    pass


class UnsupportedVersionError(WeightFileError):
    pass


class TruncatedFileError(WeightFileError):
    pass


class ShapeMismatchError(WeightFileError):
    pass


class NonFiniteOutputError(ArithmeticError):
    """Finite weights overflowed float32 into a non-finite output or KSE score."""


@dataclass(frozen=True)
class NetworkConfig:
    depth: int = 8
    channels: int = 64
    input_slices: int = 3

    def __post_init__(self):
        if self.depth < 3:
            raise ValueError(f"depth must be >= 3, got {self.depth}")
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if self.input_slices < 1 or self.input_slices % 2 == 0:
            raise ValueError(
                f"input_slices must be odd and positive, got {self.input_slices}"
            )


@dataclass
class Block:
    """One conv stage: conv, optional batchnorm, optional ReLU."""

    conv: ConvParams
    bn: BatchNormParams | None
    relu: bool


@dataclass
class Network:
    blocks: list[Block]
    config: NetworkConfig
    version_tag: str = ""

    @property
    def depth(self) -> int:
        return len(self.blocks)

    def copy(self) -> "Network":
        return copy.deepcopy(self)


def has_batchnorm(index: int, depth: int) -> bool:
    """Interior blocks are conv + batchnorm + ReLU, with no conv bias."""
    return 0 < index < depth - 1


# committed by masking.commit_running_stats each step, not stepped by the optimizer
COMMITTED = ("bn.running_mean", "bn.running_var")


def array_table(config: NetworkConfig, trained_only: bool = False):
    """Yield (block, name, shape) of every array a network of ``config``
    persists, in weight-file order: the one description of the layout.

    A name is ``<part>.<field>`` of the block's ``conv`` or ``bn``. Every
    array has the block's output channel on axis 0, so one per-channel mask
    covers them all. ``trained_only`` leaves out the COMMITTED arrays.
    """
    d, ch = config.depth, config.channels
    for i in range(d):
        c_in = config.input_slices if i == 0 else ch
        c_out = 1 if i == d - 1 else ch
        yield i, "conv.weight", (c_out, c_in, 3, 3)
        if has_batchnorm(i, d):
            names = ("bn.gamma", "bn.beta", "bn.running_mean", "bn.running_var")
        else:
            names = ("conv.bias",)
        for name in names:
            if not (trained_only and name in COMMITTED):
                yield i, name, (c_out,)


def _field(name: str) -> tuple[str, str]:
    """A table name's (block attribute, params field)."""
    part, field = name.split(".")
    return part, "weights" if field == "weight" else field


def network_arrays(net: Network, trained_only: bool = False):
    """Yield (block, name, array) along ``net``'s array table, read through
    the blocks on every walk, so a rebound block field is seen."""
    for i, name, _ in array_table(net.config, trained_only):
        part, field = _field(name)
        yield i, name, getattr(getattr(net.blocks[i], part), field)


def _assemble(config: NetworkConfig, arrays: list, version_tag: str) -> Network:
    """Group arrays in table order into blocks; a rejected value names its block."""
    parts = [{"conv": {}, "bn": {}} for _ in range(config.depth)]
    for (i, name, _), arr in zip(array_table(config), arrays):
        part, field = _field(name)
        parts[i][part][field] = arr
    blocks = []
    for i, p in enumerate(parts):
        try:
            bn = BatchNormParams(**p["bn"]) if p["bn"] else None
        except ValueError as e:
            raise ValueError(f"block{i:02d}.bn: {e}") from e
        blocks.append(Block(ConvParams(**p["conv"]), bn, relu=i < config.depth - 1))
    return Network(blocks, config, version_tag)


def build_network(config: NetworkConfig, seed: int, version_tag: str = "") -> Network:
    """Deterministically initialize a network from a seed.

    Conv weights are He fan-in normal, drawn in table order; biases are
    zero, batchnorm starts at gamma=1 / beta=0 with unit running variance.
    """
    rng = np.random.default_rng(seed)
    arrays = []
    for _, name, shape in array_table(config):
        if name == "conv.weight":
            std = np.sqrt(2.0 / (shape[1] * 9))
            arrays.append((rng.standard_normal(shape) * std).astype(np.float32))
        else:
            fill = 1.0 if name in ("bn.gamma", "bn.running_var") else 0.0
            arrays.append(np.full(shape, fill, np.float32))
    return _assemble(config, arrays, version_tag)


def num_parameters(net: Network) -> int:
    """Trainable parameter count (weights, biases, gamma, beta)."""
    return sum(a.size for _, _, a in network_arrays(net, trained_only=True))


@dataclass
class BlockCache:
    """What the backward pass reads of one block's train-mode forward.

    Block 0 holds only its input, the network input. A batchnorm block
    holds only its BnStats, whose centered input is its one activation.
    The last block holds nothing. The backward rebuilds every other block
    input from the block below: block 1's as ``relu(conv0(x))``, a
    batchnorm block's output from its BnStats.
    """

    x: np.ndarray | None  # the network input at block 0, else None
    bn_stats: BnStats | None


def _check_input(net: Network, x: np.ndarray) -> None:
    if x.ndim != 4 or x.shape[1] != net.config.input_slices:
        raise ValueError(
            f"input must be [B, {net.config.input_slices}, H, W], got {x.shape}"
        )
    if x.shape[2] < 3 or x.shape[3] < 3:
        raise ValueError(f"spatial size must be >= 3x3, got {x.shape[2:]}")


def _run(net: Network, x: np.ndarray, mode: str, want_cache: bool):
    center = net.config.input_slices // 2
    h = x
    caches: list[BlockCache] = []
    for block in net.blocks:
        bn_stats = None  # the block below's, freed before the conv when not cached
        h = conv2d_forward(h, block.conv)
        # batchnorm and ReLU write into the conv output's buffer
        if block.bn is not None:
            h, bn_stats = batchnorm_forward(h, block.bn, mode, out=h)
        if want_cache:
            caches.append(BlockCache(None if caches else x, bn_stats))
        if block.relu:
            relu_forward(h, out=h)
    h += x[:, center : center + 1]
    return h, caches


def forward(net: Network, x: np.ndarray, mode: str = "infer") -> np.ndarray:
    """Run the network on [B, slices, H, W]; output is [B, 1, H, W].

    The residual head adds the center input slice to the last conv output.
    Train mode normalizes by batch statistics (running stats are never
    mutated here); infer mode uses the stored running statistics.
    """
    _check_input(net, x)
    y, _ = _run(net, x, mode, want_cache=False)
    return y


def forward_train(net: Network, x: np.ndarray) -> tuple[np.ndarray, list[BlockCache]]:
    """Train-mode forward that also returns the per-block caches
    :func:`backward` needs (block 0's input and every batchnorm block's
    BnStats).
    """
    _check_input(net, x)
    return _run(net, x, "train", want_cache=True)


def backward(net: Network, caches: list[BlockCache], grad_y: np.ndarray) -> list[np.ndarray]:
    """Backprop grad_y (d loss / d output) through a cached train-mode forward.

    Returns the trained arrays' gradients in ``array_table`` order. Neither
    the residual branch nor the gradient wrt the network input reaches a
    parameter, so neither is computed. The blocks' parameters must be those
    of the forward. The caches are only read, so a second call gives the
    same bytes.

    Every block input above block 0 is rebuilt, byte for byte, from the
    block below just before the block's grad-weights; then only its sign
    mask is kept, until the ReLU backward of the block below has read it,
    and the block's input gradient is written over the rebuilt input. The
    batchnorm backward builds its input gradient in the buffer the ReLU
    backward returned. A batchnorm block is read only through its BnStats.
    The cached activations stay until the caller drops the caches: freeing
    them earlier lowers no peak, and made the allocator hand heap pages
    back and fault them in again on every step.
    """
    if len(caches) != len(net.blocks):
        raise ValueError("cache/block count mismatch; pass the caches of forward_train")
    grads: dict[tuple[int, str], np.ndarray] = {}
    g = grad_y
    for i in range(len(net.blocks) - 1, -1, -1):
        block, cache = net.blocks[i], caches[i]
        if block.relu:
            g = relu_backward(positive, g)
            del positive  # freed before the batchnorm backward allocates
        if block.bn is not None:  # after the ReLU backward, so g is ours
            g, grads[i, "bn.gamma"], grads[i, "bn.beta"] = batchnorm_backward(
                block.bn, cache.bn_stats, g, out=g
            )
        if i == 0:
            x = cache.x
        elif i == 1:  # block 0 holds only its input
            x = conv2d_forward(caches[0].x, net.blocks[0].conv)
            relu_forward(x, out=x)
        else:
            x = batchnorm_relu_output(net.blocks[i - 1].bn, caches[i - 1].bn_stats)
        grads[i, "conv.weight"], grads[i, "conv.bias"] = conv2d_backward(x, block.conv, g)
        if i > 0:
            positive = x > 0
            g = conv2d_grad_input(block.conv, g, out=x)
            del x  # g's one name, so the ReLU backward frees it
    return [grads[i, name] for i, name, _ in array_table(net.config, trained_only=True)]


def denoise_volume(net: Network, volume: np.ndarray) -> np.ndarray:
    """Denoise an [S, H, W] stack slice by slice (infer mode).

    Each output slice sees ``input_slices`` consecutive slices centered on
    it; the edge slices are replicated so the output keeps the input depth.
    A non-finite output voxel raises NonFiniteOutputError.
    """
    if volume.ndim != 3:
        raise ValueError(f"volume must be [S, H, W], got {volume.shape}")
    batch = volume_to_samples(volume, net.config.input_slices)
    with np.errstate(over="ignore", invalid="ignore"):
        out = forward(net, batch.astype(np.float32, copy=False), "infer")
    if not np.isfinite(out).all():
        raise NonFiniteOutputError("non-finite values in the denoised volume")
    return out[:, 0]


def volume_to_samples(volume: np.ndarray, input_slices: int) -> np.ndarray:
    """[S, H, W] -> [S, input_slices, H, W] sliding slice windows with edge
    replication, one sample centered on every slice."""
    s = volume.shape[0]
    half = input_slices // 2
    idx = np.clip(np.arange(s)[:, None] + np.arange(-half, half + 1)[None, :], 0, s - 1)
    return volume[idx]


def _param_arrays(net: Network) -> list[tuple[str, np.ndarray]]:
    """All persisted arrays in file order, with their file names."""
    return [(f"block{i:02d}.{name}", arr) for i, name, arr in network_arrays(net)]


def network_hash(net: Network) -> str:
    """sha256 over every persisted array's name, shape and raw bytes."""
    h = hashlib.sha256()
    for name, arr in _param_arrays(net):
        h.update(name.encode())
        h.update(str(arr.shape).encode())
        h.update(np.ascontiguousarray(arr, dtype=np.float32).tobytes())
    return h.hexdigest()


def save_weights(net: Network, path) -> None:
    """Write the little-endian binary weight file (magic, config, shape
    table, then raw float32 arrays in file order)."""
    items = _param_arrays(net)
    tag = net.version_tag.encode()
    c = net.config
    header = (WEIGHT_VERSION, c.depth, c.channels, c.input_slices, len(tag))
    with open(path, "wb") as f:
        f.write(WEIGHT_MAGIC)
        f.write(struct.pack("<IIIII", *header))
        f.write(tag)
        f.write(struct.pack("<I", len(items)))
        for name, arr in items:
            nb = name.encode()
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        for _, arr in items:
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_weights(path, expect: NetworkConfig | None = None) -> Network:
    """Read a weight file back into a Network; round-trips bit-exactly.

    The array table is checked once, against ``expect`` (the config the
    caller requires) or else the header's config, before any data is read;
    the first array that disagrees is named in the error. Every declared
    length is bounded by the bytes left in the file. The blocks get float32
    copies. An unreadable file, a corrupt header or name, non-finite data, a
    non-positive running variance or trailing bytes raise WeightFileError.
    """
    try:
        with open(path, "rb") as f:
            buf = f.read()
    except OSError as e:
        raise WeightFileError(f"{path}: unreadable weight file: {e}") from e
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if n > len(buf) - pos:
            raise TruncatedFileError(f"truncated weight file while reading {what}")
        pos += n
        return buf[pos - n : pos]

    if take(4, "magic") != WEIGHT_MAGIC:
        raise BadMagicError("bad magic: not a weight file")
    version, depth, channels, slices, tag_len = struct.unpack("<IIIII", take(20, "header"))
    if version != WEIGHT_VERSION:
        raise UnsupportedVersionError(
            f"unsupported weight file version {version} (expected {WEIGHT_VERSION})"
        )
    try:  # a non-UTF-8 tag or name and an invalid config are ValueErrors
        tag = take(tag_len, "version tag").decode()
        config = NetworkConfig(depth, channels, slices)
        (n_items,) = struct.unpack("<I", take(4, "array count"))
        table = []
        for _ in range(n_items):
            (name_len,) = struct.unpack("<I", take(4, "name length"))
            name = take(name_len, "array name").decode()
            (ndim,) = struct.unpack("<I", take(4, "ndim"))
            table.append((name, struct.unpack(f"<{ndim}I", take(4 * ndim, "shape"))))
    except ValueError as e:
        raise WeightFileError(f"corrupt weight file header: {e}") from e
    want = expect or config
    _check_table(table, want)
    if config != want:
        raise ShapeMismatchError(f"header says {config}, but the arrays are those of {want}")

    arrays = []
    for name, shape in table:
        arr = np.frombuffer(take(4 * math.prod(shape), f"data of {name}"), dtype="<f4")
        if not np.isfinite(arr).all():
            raise WeightFileError(f"non-finite values in {name}")
        arrays.append(arr.reshape(shape).astype(np.float32))
    if pos != len(buf):
        raise WeightFileError(f"{len(buf) - pos} trailing bytes after the weight data")
    try:
        return _assemble(config, arrays, tag)
    except ValueError as e:  # a non-positive running variance
        raise WeightFileError(f"invalid weight values: {e}") from e


def _check_table(table, config: NetworkConfig) -> None:
    """Match a file's array table entry by entry against ``config``'s; the
    first disagreement ends the walk, so a huge config is never expanded."""
    expected = ((f"block{i:02d}.{n}", shape) for i, n, shape in array_table(config))
    for have, want in itertools.zip_longest(table, expected):
        if have != want:
            raise ShapeMismatchError(
                f"shape mismatch at {(want or have)[0]}: file has {have}, expected {want}"
            )
