"""Spans recorded from outside the package under test.

A shim replaces a module-level function name with a wrapper that records one
span per call: name, start, end and the index of the enclosing span. Shims
are installed by the benchmark for a traced repetition and removed after it,
so no file of the package changes and untraced repetitions run the original
functions. Spans stay in memory until the run ends.

Callers look a name up in their own module (``from .model import
forward_train`` binds ``tgdkit.training.forward_train``), so each span lists
every namespace its function is called through.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _conv_work(net, b: int, h: int, w: int) -> tuple[float, float]:
    """FLOPs and materialized bytes of one forward pass over every conv
    layer: a 3x3 layer is a GEMM of [N, 9C] by [9C, B*H*W], reading a
    float32 patch matrix of 9C rows and writing N output rows."""
    px = b * h * w
    flops = sum(2.0 * px * blk.conv.weights.size for blk in net.blocks)
    nbytes = sum(
        4.0 * px * (9 * blk.conv.in_channels + blk.conv.out_channels)
        for blk in net.blocks
    )
    return flops, nbytes


def _count_forward_train(c, args, kwargs):
    net, x = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 1, "x")
    b, _, h, w = x.shape
    flops, nbytes = _conv_work(net, b, h, w)
    c["ops.conv.calls"] += len(net.blocks)
    c["training.steps"] += 1
    c["training.samples"] += b
    c["ops.conv.train_flops"] += flops
    c["ops.conv.train_bytes"] += nbytes


def _count_backward(c, args, kwargs):
    # grad-weights and grad-input are one GEMM each per layer; grad-input
    # packs a patch matrix of grad_out (9N rows) and writes C rows
    net, g = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 2, "grad_y")
    b, _, h, w = g.shape
    flops, _ = _conv_work(net, b, h, w)
    c["ops.conv.calls"] += len(net.blocks)
    c["ops.conv.train_flops"] += 2.0 * flops
    c["ops.conv.train_bytes"] += sum(
        4.0 * b * h * w * (9 * blk.conv.out_channels + blk.conv.in_channels)
        for blk in net.blocks
    )


def _count_denoise(c, args, kwargs):
    net, vol = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 1, "volume")
    s, h, w = vol.shape
    flops, nbytes = _conv_work(net, s, h, w)
    c["ops.conv.calls"] += len(net.blocks)
    c["model.slices_denoised"] += s
    c["ops.conv.infer_flops"] += flops
    c["ops.conv.infer_bytes"] += nbytes


def _count_masked_update(c, args, kwargs):
    params, mask = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 3, "mask")
    per_channel = params.weights[0].size + (params.bias is not None)
    n = params.out_channels
    c["masking.adam_entries"] += per_channel * n
    c["masking.adam_useful"] += per_channel * (n if mask is None else int(mask.sum()))


def _count_masked_bn_update(c, args, kwargs):
    params, mask = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 3, "bn_mask")
    n = params.channels
    c["masking.adam_entries"] += 2 * n
    c["masking.adam_useful"] += 2 * (n if mask is None else int(mask.sum()))


def _count_kse(c, args, kwargs):
    net = _arg(args, kwargs, 0, "net")
    c["kse.channels_scored"] += sum(blk.conv.in_channels for blk in net.blocks)


def _count_simulated(c, args, kwargs):
    c["phantom.voxels_simulated"] += _arg(args, kwargs, 0, "activity").size


def _count_hashed(c, args, kwargs):
    c["cli.sha256_file.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# span name -> (defining module, function, namespaces it is called through,
# counter). A name the package no longer has is skipped, and its metrics
# read 0, so the benchmark keeps running across refactors.
SHIMS = {
    "model.forward_train": ("model", "forward_train", ("training",), _count_forward_train),
    "model.backward": ("model", "backward", ("training",), _count_backward),
    "model.denoise_volume": (
        "model", "denoise_volume", ("model", "training", "cli", "metrics"), _count_denoise,
    ),
    "model.save_weights": ("model", "save_weights", ("model", "cli"), None),
    "model.load_weights": ("model", "load_weights", ("model", "cli"), None),
    "model.network_hash": (
        "model", "network_hash", ("model", "training", "kse", "masking", "cli"), None,
    ),
    "ops.batchnorm_forward": ("ops", "batchnorm_forward", ("model",), None),
    "ops.batchnorm_backward": ("ops", "batchnorm_backward", ("model",), None),
    "ops.relu_forward": ("ops", "relu_forward", ("model",), None),
    "ops.relu_backward": ("ops", "relu_backward", ("model",), None),
    "training.mse_loss": ("training", "mse_loss", ("training",), None),
    "masking.masked_update": ("masking", "masked_update", ("training",), _count_masked_update),
    "masking.masked_bn_update": (
        "masking", "masked_bn_update", ("training",), _count_masked_bn_update,
    ),
    "masking.commit_running_stats": ("masking", "commit_running_stats", ("training",), None),
    "masking.build_masks": ("masking", "build_masks", ("masking", "training", "cli"), None),
    "kse.kse_scores": ("kse", "kse_scores", ("kse", "masking", "training", "cli"), _count_kse),
    "kse.drop_kernels": ("kse", "drop_kernels", ("kse", "cli"), None),
    "phantom.build_dataset": ("phantom", "build_dataset", ("phantom", "cli"), None),
    "phantom.make_study": ("phantom", "make_study", ("phantom", "cli"), None),
    "phantom.save_study": ("phantom", "save_study", ("phantom", "cli"), None),
    "phantom.load_study": ("phantom", "load_study", ("phantom", "cli"), None),
    "phantom.simulate_counts": ("phantom", "simulate_counts", ("phantom",), _count_simulated),
    "metrics.ensemble_bias": ("metrics", "ensemble_bias", ("metrics", "cli"), None),
    "metrics.ensemble_cov": ("metrics", "ensemble_cov", ("metrics", "cli"), None),
    "metrics.mse": ("metrics", "mse", ("metrics", "cli"), None),
    "cli.write_manifest": ("cli", "write_manifest", ("cli",), None),
    "cli.sha256_file": ("cli", "sha256_file", ("cli",), _count_hashed),
}

# the conv has no function of its own in the model: its time is what the
# model's passes spend outside BN and ReLU
CONV_PARENTS = ("model.forward_train", "model.backward", "model.denoise_volume")


class Tracer:
    """Records spans and counts for the repetitions it is installed for."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if count is not None:
                count(self.counts, args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return shim

    def install(self) -> None:
        self.missing = []
        for name, (home, attr, namespaces, count) in SHIMS.items():
            fn = getattr(importlib.import_module(f"tgdkit.{home}"), attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            shim = self._wrap(name, fn, count)
            for ns in namespaces:
                mod = importlib.import_module(f"tgdkit.{ns}")
                if getattr(mod, attr, None) is fn:
                    self._patched.append((mod, attr, fn))
                    setattr(mod, attr, shim)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched = []

    def reset(self) -> tuple[list[list], dict[str, float]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts


def summarize(spans: list[list]) -> dict:
    """Inclusive time and call count per span name, self time of the conv,
    and the step times of every training loop in one repetition."""
    child = [0.0] * len(spans)
    total: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    for name, start, end, parent in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
    conv_self = sum(
        (end - start) - child[i]
        for i, (name, start, end, _) in enumerate(spans)
        if name in CONV_PARENTS
    )
    # a step runs from one forward_train start to the next one issued by the
    # same operation, so the gap after the last step of a loop is not a step
    steps_ms, last = [], {}
    for name, start, _, parent in spans:
        if name == "model.forward_train":
            if parent in last:
                steps_ms.append((start - last[parent]) * 1e3)
            last[parent] = start
    return {"total": dict(total), "calls": dict(calls), "conv_self": conv_self,
            "steps_ms": steps_ms}


def dump(path, reps: list[list[list]]) -> None:
    """Write every span of every traced repetition as JSON lines."""
    with open(path, "w") as f:
        for r, spans in enumerate(reps):
            for name, start, end, parent in spans:
                f.write(json.dumps({"rep": r, "name": name, "start": start,
                                    "end": end, "parent": parent}) + "\n")
