"""Quantitative evaluation: ROI ensemble statistics and image-fidelity
measures for denoised realizations.

Ensemble bias is the percent deviation of the mean lesion value (averaged
over noise realizations) from the high-quality truth; ensemble CoV is the
ROI-averaged per-voxel standard deviation across realizations over the ROI
grand mean, in percent. The standard deviation uses the sample (R-1)
convention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import Network, denoise_volume
from .phantom import DataFileError, _read_sidecar, has_kind


@dataclass
class Roi:
    voxels: np.ndarray  # [K, 3] (slice, y, x)

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels, dtype=np.int64)
        if self.voxels.ndim != 2 or self.voxels.shape[1] != 3 or len(self.voxels) == 0:
            raise ValueError("voxels must be a nonempty [K, 3] index list")

    def check_bounds(self, shape) -> None:
        upper = np.asarray(shape)
        if (self.voxels < 0).any() or (self.voxels >= upper).any():
            raise ValueError(f"roi voxels out of bounds for shape {tuple(shape)}")

    def values(self, volume: np.ndarray) -> np.ndarray:
        self.check_bounds(volume.shape)
        s, y, x = self.voxels.T
        return volume[s, y, x]


def save_rois(rois: dict[str, Roi], path) -> None:
    doc = {name: [[int(i) for i in v] for v in roi.voxels] for name, roi in rois.items()}
    Path(path).write_text(json.dumps(doc, sort_keys=True, allow_nan=False))


def load_rois(path, shape: tuple[int, ...] | None = None) -> dict[str, Roi]:
    """The ROIs a ``save_rois`` file names: each a nonempty list of integer
    (s, y, x) triples, inside a volume of ``shape`` when one is given. A
    malformed file is a DataFileError."""
    out = {}
    for name, voxels in _read_sidecar(Path(path)).items():
        try:
            if not has_kind(voxels, list[list[int]]):
                raise ValueError("not a list of integer index triples")
            out[name] = Roi(voxels)
            if shape is not None:
                out[name].check_bounds(shape)
        except (OverflowError, ValueError) as e:
            raise DataFileError(f"{path}: roi {name!r}: {e}") from e
    return out


def mse(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(((a.astype(np.float64) - b.astype(np.float64)) ** 2).mean())


def psnr(a: np.ndarray, b: np.ndarray, peak: float) -> float:
    """Peak signal-to-noise ratio in dB; identical inputs give +inf."""
    err = mse(a, b)
    if err == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak * peak / err))


def ensemble_bias(
    realizations: list[np.ndarray], roi: Roi, truth: np.ndarray
) -> float:
    """Percent deviation of the realization-averaged lesion mean from truth."""
    if not realizations:
        raise ValueError("need at least one realization")
    lesion_means = [float(roi.values(r).mean()) for r in realizations]
    t = float(roi.values(truth).mean())
    if t == 0.0:
        raise ValueError("truth mean over the roi is zero; bias undefined")
    return (float(np.mean(lesion_means)) - t) / t * 100.0


def ensemble_cov(realizations: list[np.ndarray], roi: Roi) -> float:
    """ROI-mean per-voxel ensemble std over the ROI grand mean, in percent."""
    if len(realizations) < 2:
        raise ValueError("coefficient of variation needs >= 2 realizations")
    stack = np.stack([roi.values(r).astype(np.float64) for r in realizations])
    grand_mean = float(stack.mean())
    if grand_mean == 0.0:
        raise ValueError("roi grand mean is zero; CoV undefined")
    std = stack.std(axis=0, ddof=1)
    return float(std.mean()) / grand_mean * 100.0


@dataclass
class ProbeReport:
    """Before/after comparison of a net on a structure it never trained on."""

    roi_mse_before: float
    roi_mse_after: float
    mean_shift_before: float
    mean_shift_after: float

    @property
    def roi_mse_delta(self) -> float:
        return self.roi_mse_after - self.roi_mse_before

    @property
    def mean_shift_delta(self) -> float:
        return abs(self.mean_shift_after) - abs(self.mean_shift_before)

    def to_dict(self) -> dict:
        return {
            "roi_mse_before": self.roi_mse_before,
            "roi_mse_after": self.roi_mse_after,
            "roi_mse_delta": self.roi_mse_delta,
            "mean_shift_before": self.mean_shift_before,
            "mean_shift_after": self.mean_shift_after,
            "mean_shift_delta": self.mean_shift_delta,
        }


def hallucination_probe(
    net_before: Network,
    net_after: Network,
    noisy_volume: np.ndarray,
    truth: np.ndarray,
    roi: Roi,
) -> ProbeReport:
    """Denoise with both nets and compare ROI fidelity to the truth.

    Negative deltas mean the adapted net distorts the probed structure less
    than the original net did.
    """
    out_before = denoise_volume(net_before, noisy_volume)
    out_after = denoise_volume(net_after, noisy_volume)
    t_vals = roi.values(truth).astype(np.float64)
    b_vals = roi.values(out_before).astype(np.float64)
    a_vals = roi.values(out_after).astype(np.float64)
    return ProbeReport(
        roi_mse_before=float(((b_vals - t_vals) ** 2).mean()),
        roi_mse_after=float(((a_vals - t_vals) ** 2).mean()),
        mean_shift_before=float(b_vals.mean() - t_vals.mean()),
        mean_shift_after=float(a_vals.mean() - t_vals.mean()),
    )
