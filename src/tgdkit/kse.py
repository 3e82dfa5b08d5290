"""Kernel sparsity/entropy (KSE) scoring of conv-layer input feature maps.

For input channel c of a conv layer with weights [N, C, 3, 3]:

* sparsity  s_c = sum over outputs n of the entrywise L1 norm of kernel (n, c)
* entropy   e_c = Shannon entropy (bits) of the kernels' k-nearest-neighbor
  density metrics, normalized to a distribution
* kse_c     = sqrt(s~_c / (1 + alpha * e~_c)) with s~, e~ min-max normalized
  to [0, 1] within the layer

Low KSE marks a feature map whose kernels are weak and mutually similar,
i.e. redundant and safe to retrain. Scores are pure functions of the
weights; scoring never mutates a network.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .model import Network, NonFiniteOutputError, network_hash


@dataclass(frozen=True)
class KseConfig:
    alpha: float = 1.0
    k_neighbors: int = 5

    def __post_init__(self):
        if not 0 <= self.alpha < math.inf:  # NaN fails every comparison
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.k_neighbors < 1:
            raise ValueError(f"k_neighbors must be >= 1, got {self.k_neighbors}")


def kernel_sparsity(weights: np.ndarray, c: int) -> float:
    """L1 mass of all kernels reading input channel c."""
    n_in = weights.shape[1]
    if not 0 <= c < n_in:
        raise IndexError(f"channel {c} out of range for C={n_in}")
    return float(np.abs(weights[:, c]).sum())


def density_metric(weights: np.ndarray, c: int, k: int) -> np.ndarray:
    """Per-kernel sum of Euclidean distances to its k nearest neighbors.

    Distances are over the flattened 3x3 kernels of channel c; k is clamped
    to N-1.
    """
    n = weights.shape[0]
    if n < 2:
        raise ValueError("density metric needs at least 2 output maps")
    flat = weights[:, c].reshape(n, -1).astype(np.float64)
    diff = flat[:, None, :] - flat[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return np.sort(dist, axis=1)[:, : min(k, n - 1)].sum(axis=1)


def kernel_entropy(weights: np.ndarray, c: int, config: KseConfig) -> float:
    """Entropy (bits) of the normalized density metrics for channel c.

    Degenerate cases: a single output map has zero entropy; identical
    kernels (all distances zero) count as a uniform distribution, log2(N),
    so maximal entropy marks them as redundant.
    """
    n = weights.shape[0]
    if n < 2:
        return 0.0
    dm = density_metric(weights, c, config.k_neighbors)
    total = dm.sum()
    if total == 0.0:
        return float(np.log2(n))
    p = dm / total
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def _minmax(values: np.ndarray) -> np.ndarray:
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


@dataclass
class LayerKse:
    sparsity: np.ndarray
    entropy: np.ndarray
    kse: np.ndarray


@dataclass
class KseReport:
    """Input-channel scores of every conv layer; ``layers[i]`` is block i's."""

    layers: list[LayerKse]
    config: KseConfig
    source: str

    def redundant(self, net: Network, threshold: float) -> list[np.ndarray]:
        """The redundancy rule: per conv layer, which input feature maps score
        strictly below the threshold. Masks and kernel drops both read it.
        The report must have been computed from ``net``."""
        if not np.isfinite(threshold) or threshold < 0:
            raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
        if self.source != network_hash(net):
            raise ValueError("report was computed from a different network")
        return [lk.kse < threshold for lk in self.layers]

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "alpha": self.config.alpha,
            "k_neighbors": self.config.k_neighbors,
            "layers": [
                {
                    "layer": i,
                    "sparsity": [float(v) for v in lk.sparsity],
                    "entropy": [float(v) for v in lk.entropy],
                    "kse": [float(v) for v in lk.kse],
                }
                for i, lk in enumerate(self.layers)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)


def kse_scores(net: Network, config: KseConfig | None = None) -> KseReport:
    """Score every conv layer's input channels; normalization is per layer.

    Constant raw sequences normalize to all zeros, so a layer whose channels
    are indistinguishable gets uniformly minimal scores. A non-finite raw
    score (huge weights overflow float32) raises NonFiniteOutputError.
    """
    config = config or KseConfig()
    layers = []
    for i, block in enumerate(net.blocks):
        w = block.conv.weights
        with np.errstate(over="ignore", invalid="ignore"):
            s = np.array([kernel_sparsity(w, c) for c in range(w.shape[1])])
            e = np.array([kernel_entropy(w, c, config) for c in range(w.shape[1])])
        if not (np.isfinite(s).all() and np.isfinite(e).all()):
            raise NonFiniteOutputError(f"layer {i} has non-finite raw KSE scores")
        kse = np.sqrt(_minmax(s) / (1.0 + config.alpha * _minmax(e)))
        layers.append(LayerKse(s, e, kse))
    return KseReport(layers, config, network_hash(net))


@dataclass
class DropResult:
    network: Network
    dropped_fraction: float


def drop_kernels(net: Network, report: KseReport, threshold: float) -> DropResult:
    """Zero every interior-layer kernel column whose input feature map scores
    below the threshold; a diagnostic for how much the low-KSE maps matter.

    The first layer reads raw image slices and the last layer is the
    single-channel output head, so both are left untouched. The
    dropped fraction is over all conv weight entries in the network.
    """
    redundant = report.redundant(net, threshold)
    out = net.copy()
    total = sum(b.conv.weights.size for b in net.blocks)
    dropped = 0
    for i in range(1, net.depth - 1):
        w = out.blocks[i].conv.weights
        w[:, redundant[i]] = 0
        dropped += w[:, redundant[i]].size
    return DropResult(out, dropped / total)
