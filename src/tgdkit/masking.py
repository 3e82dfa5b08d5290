"""Binary per-channel gradient masks and the masked optimizer step.

A mask entry of 1 means "retrain this output channel", 0 means "freeze it".
Masks are derived from KSE scores of the next layer's input feature maps:
the kernels of layer i-1 that produce a redundant input of layer i are the
ones allowed to move. Masks act only on the update path; the forward pass
never sees them.

A block's one conv mask covers every array ``model.array_table`` lists for
it. The optimizer step is a single flat Adam update over the trained arrays,
with the masks expanded once into a keep-vector along the table. An unmasked
run is the all-ones mask and takes the same path.

The freeze contract is exact: a frozen channel's weights, bias, batchnorm
affine terms, running statistics and optimizer moments are bit-identical
after any number of masked steps. Frozen values are always carried through
with np.where copies, never recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kse import KseReport
from .model import Network, has_batchnorm, network_arrays
from .ops import BatchNormParams, BnStats
from .phantom import json_text


@dataclass
class MaskSet:
    """Per-block channel masks plus the provenance needed to audit them."""

    conv_masks: list[np.ndarray]
    threshold: float
    source: str
    generation: int = 1

    def __post_init__(self):
        for m in self.conv_masks:
            if not np.isin(m, (0, 1)).all():
                raise ValueError("mask entries must be 0 or 1")

    @property
    def bn_masks(self) -> list[np.ndarray | None]:
        """A block's batchnorm shares its conv mask; None where it has none."""
        n = len(self.conv_masks)
        return [m if has_batchnorm(i, n) else None for i, m in enumerate(self.conv_masks)]

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "source": self.source,
            "generation": self.generation,
            "conv_masks": [[int(v) for v in m] for m in self.conv_masks],
            "bn_masks": [
                None if m is None else [int(v) for v in m] for m in self.bn_masks
            ],
        }

    def to_json(self) -> str:
        return json_text(self.to_dict())

    def retrained_fraction(self) -> float:
        total = sum(m.size for m in self.conv_masks)
        on = sum(int(m.sum()) for m in self.conv_masks)
        return on / total


def build_masks(
    net: Network,
    report: KseReport,
    threshold: float,
    last_layer_frozen: bool = True,
    generation: int = 1,
) -> MaskSet:
    """Map next-layer input KSE scores onto this layer's output channels.

    Output channel n of block i feeds input channel n of block i+1, so block
    i's mask is block i+1's ``report.redundant`` vector. The batchnorm that
    sits right after a conv shares its channel mask. The last block has no
    downstream scores; it is frozen outright or fully trainable per the flag.
    """
    redundant = report.redundant(net, threshold)
    conv_masks = [r.astype(np.uint8) for r in redundant[1:]]
    last = net.blocks[-1].conv.out_channels
    conv_masks.append(np.full(last, 0 if last_layer_frozen else 1, np.uint8))
    return MaskSet(conv_masks, float(threshold), report.source, generation)


def all_ones_masks(net: Network) -> list[np.ndarray]:
    """Masks that retrain every channel: an unmasked run."""
    return [np.ones(blk.conv.out_channels, np.uint8) for blk in net.blocks]


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class MaskedAdam:
    """Adam over every trained array of a network as one flat vector.

    The arrays are laid out along ``model.array_table(trained_only=True)``,
    so a block's conv mask expands into whole channel runs of each of its
    arrays and one keep-vector freezes them all. Weight decay covers the
    conv entries only. The flat moments live here; the network keeps its
    own arrays and each step writes into them in place. An unmasked run
    passes ``all_ones_masks(net)``.
    """

    def __init__(
        self,
        net: Network,
        conv_masks: list[np.ndarray],
        lr: float,
        weight_decay: float = 0.0,
    ):
        if len(conv_masks) != net.depth:
            raise ValueError(f"{len(conv_masks)} masks for {net.depth} blocks")
        keep, decay, sizes = [], [], []
        for i, name, arr in network_arrays(net, trained_only=True):
            mask = conv_masks[i]
            if len(mask) != len(arr):
                raise ValueError(
                    f"mask length {len(mask)} != output channels {len(arr)} in block {i}"
                )
            sizes.append(arr.size)
            keep.append(np.repeat(mask == 0, arr.size // len(mask)))
            wd = weight_decay if name.startswith("conv.") else 0.0
            decay.append(np.full(arr.size, wd, arr.dtype))
        self.lr = lr
        self.t = 0
        self.offsets = np.cumsum(sizes)[:-1]
        self.keep = np.concatenate(keep)
        self.decay = np.concatenate(decay)
        self.m = np.zeros(sum(sizes), np.float32)
        self.v = np.zeros_like(self.m)

    def step(self, net: Network, grads: list[np.ndarray]) -> None:
        """One Adam step on ``model.backward``'s table-order gradients. Where
        ``keep`` is true the parameter and both moments are carried through
        unchanged (the moments must not even decay, or a later unfreeze
        would apply stale momentum)."""
        params = [a for _, _, a in network_arrays(net, trained_only=True)]
        p = np.concatenate([a.ravel() for a in params])
        g = np.concatenate([a.ravel() for a in grads]) + self.decay * p
        self.t += 1
        m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**self.t)
        v_hat = v / (1.0 - ADAM_BETA2**self.t)
        p_new = p - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        p_new = np.where(self.keep, p, p_new)
        self.m = np.where(self.keep, self.m, m)
        self.v = np.where(self.keep, self.v, v)
        for a, chunk in zip(params, np.split(p_new, self.offsets)):
            a[...] = chunk.reshape(a.shape)


def commit_running_stats(
    params: BatchNormParams, stats: BnStats, bn_mask: np.ndarray
) -> None:
    """One EMA step of the running statistics towards a train-mode forward's
    batch statistics, new = (1 - momentum) * old + momentum * batch.

    Frozen channels keep their old running mean/var bit-identically: a frozen
    kernel must behave at inference exactly as it did before retraining, so
    its statistics must not drift either.
    """
    keep = bn_mask == 0
    mom = stats.mean.dtype.type(params.momentum)

    def ema(old: np.ndarray, batch: np.ndarray) -> np.ndarray:
        new = (1 - mom) * old.astype(batch.dtype, copy=False) + mom * batch
        return np.where(keep, old, new.astype(old.dtype, copy=False))

    params.running_mean = ema(params.running_mean, stats.mean)
    params.running_var = ema(params.running_var, stats.var)
