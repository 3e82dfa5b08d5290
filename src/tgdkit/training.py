"""Training protocols over the residual denoiser.

Three entry points share one deterministic loop:

* train_scratch      - all parameters trainable (optionally warm-started)
* finetune_tgd       - scores the pre-trained net, builds channel masks at a
                       threshold, and retrains only the masked-in channels
* online_n2n         - masked fine-tuning on a single study using its two
                       equal-count noise realizations as mutual targets

Every protocol is a pure function of (config, data bytes, seed): batch
order comes from one seeded generator and nothing else draws randomness, so
identical calls give bit-identical weights. The masked and unmasked paths
run the same arithmetic, which makes the all-ones-mask trajectory equal the
unmasked trajectory exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .kse import KseConfig, kse_scores
from .masking import MaskedAdam, MaskSet, all_ones_masks, build_masks, commit_running_stats
from .model import (
    Network,
    NetworkConfig,
    backward,
    build_network,
    denoise_volume,
    forward_train,
    network_arrays,
    network_hash,
    volume_to_samples,
)
from .ops import ConvWorkspace
from .phantom import json_text

MODES = ("scratch", "tgd_finetune", "n2n_online")
DEFAULT_EPOCHS = {"scratch": 500, "tgd_finetune": 500, "n2n_online": 150}
DEFAULT_LR = {"scratch": 1e-3, "tgd_finetune": 1e-4, "n2n_online": 1e-4}


class NonFiniteLossError(ArithmeticError):
    """A training batch gave a NaN or infinite loss."""


@dataclass
class TrainConfig:
    mode: str = "scratch"
    epochs: int | None = None  # None -> DEFAULT_EPOCHS[mode], set when built
    batch_size: int = 8
    learning_rate: float | None = None  # None -> DEFAULT_LR[mode], likewise
    weight_decay: float = 1e-5
    seed: int = 0
    kse_threshold: float | None = None
    last_layer_frozen: bool = True
    kse: KseConfig = field(default_factory=KseConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.epochs is None:
            self.epochs = DEFAULT_EPOCHS[self.mode]
        if self.learning_rate is None:
            self.learning_rate = DEFAULT_LR[self.mode]
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.learning_rate < math.inf:  # NaN fails every comparison
            raise ValueError("learning_rate must be finite and positive")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be finite and >= 0")
        if self.kse_threshold is not None and not 0 <= self.kse_threshold < math.inf:
            raise ValueError("kse_threshold must be finite and >= 0")


@dataclass
class TrainRecord:
    config: dict
    epoch_losses: list[float]
    val_mse: float | None
    wall_time_s: float
    final_hash: str

    def to_jsonl(self) -> str:
        """One line per epoch plus a summary line.

        Wall time is deliberately left out: the serialized record must be
        byte-identical across reruns (it lives in the run manifest instead).
        """
        summary = {
            "summary": True,
            "mode": self.config["mode"],
            "config": self.config,
            "val_mse": self.val_mse,
            "final_hash": self.final_hash,
        }
        lines = [
            json_text({"epoch": i, "loss": loss}, None)
            for i, loss in enumerate(self.epoch_losses)
        ]
        lines.append(json_text(summary, None))
        return "\n".join(lines) + "\n"


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient wrt pred."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float((diff.astype(np.float64) ** 2).mean())
    grad = (2.0 / diff.size) * diff
    return loss, grad


def pairs_to_arrays(
    pairs: list[tuple[np.ndarray, np.ndarray]], input_slices: int
) -> tuple[np.ndarray, np.ndarray]:
    """Expand (noisy volume, target volume) pairs into per-slice training
    samples X [M, input_slices, H, W], Y [M, 1, H, W]."""
    xs, ys = [], []
    for x_vol, y_vol in pairs:
        if x_vol.shape != y_vol.shape:
            raise ValueError(
                f"input/target volume shapes differ: {x_vol.shape} vs {y_vol.shape}"
            )
        xs.append(volume_to_samples(x_vol, input_slices))
        ys.append(y_vol[:, None])
    return (
        np.concatenate(xs).astype(np.float32, copy=False),
        np.concatenate(ys).astype(np.float32, copy=False),
    )


def _train_loop(
    net: Network,
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    conv_masks: list[np.ndarray],
) -> list[float]:
    """Shared SGD loop; mutates net in place and returns per-epoch losses.
    Only the channels ``conv_masks`` sets train. A batch whose loss is not
    finite raises NonFiniteLossError before it changes the network."""
    m = x.shape[0]
    opt = MaskedAdam(net, conv_masks, config.learning_rate, config.weight_decay)
    rng = np.random.default_rng(config.seed)
    ws = ConvWorkspace()
    losses = []
    for _ in range(config.epochs):
        perm = rng.permutation(m)
        epoch_loss = 0.0
        for start in range(0, m, config.batch_size):
            idx = perm[start : start + config.batch_size]
            xb, yb = x[idx], y[idx]
            pred, caches = forward_train(net, xb, ws)
            loss, grad_y = mse_loss(pred, yb)
            if not math.isfinite(loss):
                raise NonFiniteLossError(
                    f"loss is {loss} in epoch {len(losses)}: non-finite data or weights"
                )
            for blk, cache, mask in zip(net.blocks, caches, conv_masks):
                if blk.bn is not None:
                    commit_running_stats(blk.bn, cache.bn_stats, mask)
            opt.step(net, backward(net, caches, grad_y, ws))
            epoch_loss += loss * len(idx)
        losses.append(epoch_loss / m)
    return losses


def eval_pairs_mse(net: Network, pairs: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """Mean MSE of denoised volumes against their target volumes (infer mode)."""
    total, count = 0.0, 0
    for x_vol, y_vol in pairs:
        out = denoise_volume(net, x_vol)
        total += float(((out - y_vol) ** 2).astype(np.float64).sum())
        count += out.size
    return total / count


def _resolve_pairs(dataset) -> tuple[list, list]:
    """Accepts a DenoiseDataset or a plain list of (input, target) volumes."""
    if hasattr(dataset, "pairs"):
        return dataset.pairs("train"), dataset.pairs("val")
    return list(dataset), []


def _fit(
    net: Network, config: TrainConfig, dataset, mode: str, generation: int | None = None
) -> tuple[Network, TrainRecord, MaskSet | None]:
    """The body of every protocol: train a copy of ``net`` and record the
    run. ``config`` must be for the calling protocol's ``mode``, whose
    defaults it holds. With a mask ``generation``, only the channels that
    pass the KSE masks at ``config.kse_threshold`` train; without one, all of
    them do (the all-ones masks). Zero epochs train nothing and return an
    unchanged copy. The freeze contract is checked afterwards."""
    if config.mode != mode:
        raise ValueError(f"{mode} training got a config for mode {config.mode!r}")
    train_pairs, val_pairs = _resolve_pairs(dataset)
    if not train_pairs:
        raise ValueError("dataset is empty")
    masks = None
    if generation is not None:
        if config.kse_threshold is None:
            raise ValueError(f"{config.mode} training requires kse_threshold")
        masks = build_masks(
            net, kse_scores(net, config.kse), config.kse_threshold,
            config.last_layer_frozen, generation,
        )
    conv_masks = all_ones_masks(net) if masks is None else masks.conv_masks
    tuned = net.copy()
    x, y = pairs_to_arrays(train_pairs, tuned.config.input_slices)
    t0 = time.perf_counter()
    losses = _train_loop(tuned, x, y, config, conv_masks)
    wall = time.perf_counter() - t0
    _assert_frozen_exact(net, tuned, conv_masks)
    val = eval_pairs_mse(tuned, val_pairs) if val_pairs else None
    record = TrainRecord(asdict(config), losses, val, wall, network_hash(tuned))
    return tuned, record, masks


def train_scratch(
    config: TrainConfig, dataset, initial: Network | None = None
) -> tuple[Network, TrainRecord]:
    """Train every parameter on (noisy input, high-count target) pairs.

    ``initial`` warm-starts from an existing network instead of a fresh
    seed-initialized one; the input network is never mutated.
    """
    if initial is None:
        initial = build_network(config.network, config.seed)
    net, record, _ = _fit(initial, config, dataset, "scratch")
    return net, record


def _assert_frozen_exact(before: Network, after: Network, conv_masks: list) -> None:
    """Hard internal check of the freeze contract after a full run."""
    for (i, name, a), (_, _, b) in zip(network_arrays(before), network_arrays(after)):
        frozen = conv_masks[i] == 0
        if not np.array_equal(a[frozen], b[frozen]):
            raise RuntimeError(f"frozen {name} moved in block {i}")


def finetune_tgd(
    net: Network, config: TrainConfig, dataset, generation: int = 1
) -> tuple[Network, TrainRecord, MaskSet]:
    """Adapt a pre-trained net to new data, retraining only the channels
    whose downstream feature maps score below the KSE threshold."""
    return _fit(net, config, dataset, "tgd_finetune", generation)


def online_n2n(
    net: Network,
    config: TrainConfig,
    realization_a: np.ndarray,
    realization_b: np.ndarray,
    generation: int = 1,
) -> tuple[Network, TrainRecord]:
    """Masked fine-tuning on one study: each equal-count realization serves
    as the other's target, so no clean reference is needed.

    The realization labels are interchangeable: the pair is ordered
    canonically by content before training, so swapping the arguments gives
    a bit-identical trajectory.
    """
    if realization_a.shape != realization_b.shape:
        raise ValueError(
            f"realization shapes differ: {realization_a.shape} vs {realization_b.shape}"
        )
    if realization_b.tobytes() < realization_a.tobytes():
        realization_a, realization_b = realization_b, realization_a
    pairs = [(realization_a, realization_b), (realization_b, realization_a)]
    tuned, record, _ = _fit(net, config, pairs, "n2n_online", generation)
    return tuned, record
