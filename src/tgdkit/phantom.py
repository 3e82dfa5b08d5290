"""Synthetic count-limited imaging data: phantoms, scan simulation, thinning.

A phantom is a stack of slices holding a nonnegative "activity" image built
from ellipses, hot lesions and a smooth random texture. A scan realization
scales the activity to a count budget, draws independent Poisson counts per
voxel, then smooths with an in-plane Gaussian PSF and rescales back to
activity units. Smoothing after the draw is what gives the noise its spatial
correlation: a wider PSF means coarser noise grain, which is exactly the
property a denoiser keys on. Every random draw flows from an explicit seed,
so a manifest reproduces a dataset byte for byte. The Gaussian (PSF and
texture) reproduces SciPy's ``ndimage.gaussian_filter`` (reflect mode,
truncated at 4 sigma) bit for bit, so manifests written when tgdkit used
SciPy regenerate the same bytes.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

# fractions of the full count budget used for noise-adaptive training inputs
# (short acquisitions vs. the full-length target)
DATASET_COUNT_LEVELS = (0.05, 0.075, 0.1, 0.15, 0.2, 0.3)

# defaults of a phantom and of a study, which gen-data's config fields share
SLICES = 5
N_LESIONS = 2
LESION_RADIUS = 3.0
LESION_CONTRAST = 2.0
STUDY_COUNT_LEVELS = (1.0,)
N_REALIZATIONS = 1

# slice-profile modulation: geometry shrinks parabolically away from the
# center slice so neighboring slices are similar but not identical
SLICE_MODULATION = 0.1

TEXTURE_AMPLITUDE = 0.15
TEXTURE_SMOOTHING = 4.0

# pixels the background ROI keeps clear of interior ellipses and lesions
BACKGROUND_MARGIN = 3.0


class DataFileError(ValueError):
    """An input file is malformed: an unreadable JSON file or one that lacks
    a key or holds a value of the wrong type, a file entry outside its
    directory, or a volume of the wrong size or with non-finite values."""


@dataclass(frozen=True)
class Ellipse:
    center: tuple[float, float]  # (y, x)
    axes: tuple[float, float]    # (a, b) in pixels
    intensity: float


@dataclass(frozen=True)
class Lesion:
    center: tuple[float, float]
    radius: float
    contrast: float  # multiplier over the local background

    def __post_init__(self):
        if not self.radius > 0:  # NaN fails every comparison
            raise ValueError(f"radius must be > 0, got {self.radius}")
        if not 0 <= self.contrast < math.inf:
            raise ValueError(f"contrast must be finite and >= 0, got {self.contrast}")


@dataclass(frozen=True)
class PhantomSpec:
    height: int
    width: int
    slices: int = SLICES
    ellipses: tuple[Ellipse, ...] = ()
    lesions: tuple[Lesion, ...] = ()
    seed: int = 0

    def __post_init__(self):
        for side in ("height", "width", "slices"):
            if getattr(self, side) < 1:
                raise ValueError(f"{side} must be >= 1, got {getattr(self, side)}")
        for e in self.ellipses:
            if e.intensity < 0:
                raise ValueError("ellipse intensity must be >= 0")
        for l in self.lesions:
            y, x = l.center
            if not (l.radius <= y <= self.height - 1 - l.radius and
                    l.radius <= x <= self.width - 1 - l.radius):
                raise ValueError(f"lesion at {l.center} r={l.radius} out of bounds")

    @staticmethod
    def from_dict(d: dict) -> "PhantomSpec":
        return PhantomSpec(
            height=d["height"],
            width=d["width"],
            slices=d.get("slices", SLICES),
            seed=d.get("seed", 0),
            ellipses=tuple(
                Ellipse(tuple(e["center"]), tuple(e["axes"]), e["intensity"])
                for e in d.get("ellipses", ())
            ),
            lesions=tuple(
                Lesion(tuple(l["center"]), l["radius"], l["contrast"])
                for l in d.get("lesions", ())
            ),
        )


@dataclass(frozen=True)
class ScanProtocol:
    psf_sigma: float
    count_budget: float
    seed: int = 0  # the root make_study derives each scan's seed from

    def __post_init__(self):
        if not 0 < self.psf_sigma < math.inf:  # NaN fails every comparison
            raise ValueError("psf_sigma must be finite and positive")
        if not 0 < self.count_budget < math.inf:
            raise ValueError("count_budget must be finite and positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @staticmethod
    def from_dict(d: dict) -> "ScanProtocol":
        return ScanProtocol(d["psf_sigma"], d["count_budget"], d.get("seed", 0))


def _slice_factor(s: int, n_slices: int) -> float:
    if n_slices == 1:
        return 1.0
    c = (n_slices - 1) / 2.0
    u = (s - c) / max(c, 1.0)
    return 1.0 - SLICE_MODULATION * u * u


def _shapes(spec: PhantomSpec):
    """Boolean [S, H, W] rasterizers ``ellipse(e, grow=0, shrink=1)`` and
    ``disk(lesion, grow=0)``. Each slice scales the axes or radius by its
    slice factor; the result is multiplied by ``shrink``, then ``grow``
    pixels are added (the background ROI's margins)."""
    yy, xx = np.mgrid[0 : spec.height, 0 : spec.width].astype(np.float64)
    f = np.array([_slice_factor(s, spec.slices) for s in range(spec.slices)])
    f = f[:, None, None]

    def ellipse(e: Ellipse, grow: float = 0.0, shrink: float = 1.0) -> np.ndarray:
        a, b = (axis * f * shrink + grow for axis in e.axes)
        return ((yy - e.center[0]) / a) ** 2 + ((xx - e.center[1]) / b) ** 2 <= 1.0

    def disk(l: Lesion, grow: float = 0.0) -> np.ndarray:
        r = l.radius * f + grow
        return (yy - l.center[0]) ** 2 + (xx - l.center[1]) ** 2 <= r * r

    return ellipse, disk


def _gaussian_blur(x: np.ndarray, sigma: float) -> np.ndarray:
    """Smooth each slice of a float64 [S, H, W] stack with a Gaussian of
    width ``sigma``, equal bit for bit to SciPy's
    ``gaussian_filter(x, (0, sigma, sigma))``.

    The kernel has radius ``int(4 sigma + 0.5)`` and SciPy's normalized
    weights. Borders reflect (``d c b a | a b c d | d c b a``, repeated when
    the radius exceeds the axis). H is filtered, then W, and each output
    adds its centre tap first, then the tap pairs from the outermost in,
    the order SciPy's ``correlate1d`` sums them in.
    """
    radius = int(4.0 * sigma + 0.5)
    if radius == 0:  # a one-tap kernel is the identity; sigma**2 may underflow
        return x
    taps = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * taps**2)
    weights = weights / weights.sum()
    for axis in (1, 2):
        n = x.shape[axis]
        fold = np.arange(-radius, n + radius) % (2 * n)
        padded = np.moveaxis(x, axis, 0)[np.minimum(fold, 2 * n - 1 - fold)]
        out = padded[radius:radius + n] * weights[radius]
        for k in range(radius, 0, -1):
            left, right = padded[radius - k:radius - k + n], padded[radius + k:radius + k + n]
            out += (left + right) * weights[radius + k]
        x = np.moveaxis(out, 0, axis)
    return np.ascontiguousarray(x)


def generate_phantom(spec: PhantomSpec) -> np.ndarray:
    """Rasterize the spec into an [S, H, W] activity stack (float32).

    Ellipse intensities accumulate additively, lesions multiply the
    underlying background, and a smooth seeded texture field modulates the
    whole stack so flat regions still carry learnable structure.
    """
    ellipse, disk = _shapes(spec)
    vol = np.zeros((spec.slices, spec.height, spec.width), dtype=np.float64)
    for e in spec.ellipses:
        vol[ellipse(e)] += e.intensity
    for l in spec.lesions:
        vol[disk(l)] *= l.contrast
    if spec.ellipses:
        rng = np.random.default_rng(spec.seed)
        noise = rng.standard_normal(vol.shape)
        texture = _gaussian_blur(noise, TEXTURE_SMOOTHING)
        peak = np.abs(texture).max()
        if peak > 0:
            vol *= 1.0 + TEXTURE_AMPLITUDE * texture / peak
    return vol.astype(np.float32)


def _count_scale(activity: np.ndarray, count_budget: float) -> float:
    """Activity-to-expected-counts factor: the budget is per slice."""
    total = float(activity.sum())
    if total == 0.0:
        return 0.0
    return count_budget * activity.shape[0] / total


def simulate_counts(
    activity: np.ndarray, protocol: ScanProtocol, seed: int
) -> tuple[np.ndarray, float]:
    """Draw raw Poisson counts (pre-PSF) and return them with the scale."""
    if np.any(activity < 0):
        raise ValueError("activity must be nonnegative")
    scale = _count_scale(activity, protocol.count_budget)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(activity.astype(np.float64) * scale)
    return counts, scale


def _image_from_counts(counts: np.ndarray, scale: float, psf_sigma: float) -> np.ndarray:
    if scale == 0.0:
        return np.zeros(counts.shape, dtype=np.float32)
    smoothed = _gaussian_blur(counts.astype(np.float64), psf_sigma)
    return (smoothed / scale).astype(np.float32)


def simulate_scan(
    activity: np.ndarray, protocol: ScanProtocol, seed: int
) -> np.ndarray:
    """One noisy realization of the activity, in activity units.

    E[output] is the PSF-blurred activity at any count budget; lower budgets
    just get noisier. Zero activity yields exactly zero.
    """
    counts, scale = simulate_counts(activity, protocol, seed)
    return _image_from_counts(counts, scale, protocol.psf_sigma)


def thin(count_image: np.ndarray, p: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a count image into two independent lower-count halves.

    Each count is routed to the first half with probability p, else to the
    second; the halves sum back to the input exactly and are independent
    Poisson fields with means p*lam and (1-p)*lam.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    counts = np.asarray(count_image)
    if not np.issubdtype(counts.dtype, np.integer):
        if not np.all(counts == np.floor(counts)):
            raise ValueError("thinning is defined on integer counts")
        counts = counts.astype(np.int64)
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    rng = np.random.default_rng(seed)
    half1 = rng.binomial(counts, p)
    return half1, counts - half1


def split_scan(
    activity: np.ndarray, protocol: ScanProtocol, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate one acquisition and rebin it into two equal-count halves.

    Returns (full_image, half1, half2), all PSF-smoothed and rescaled to
    activity units so each half is an unbiased image of the blurred
    activity, just twice as noisy as the full scan.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(7,))
    s_counts, s_thin = [int(c.generate_state(1)[0]) for c in ss.spawn(2)]
    counts, scale = simulate_counts(activity, protocol, seed=s_counts)
    h1, h2 = thin(counts, 0.5, s_thin)
    full = _image_from_counts(counts, scale, protocol.psf_sigma)
    r1 = _image_from_counts(h1, scale * 0.5, protocol.psf_sigma)
    r2 = _image_from_counts(h2, scale * 0.5, protocol.psf_sigma)
    return full, r1, r2


def level_key(fraction: float) -> str:
    return format(float(fraction), ".6g")


def level_keys(count_levels) -> list[str]:
    """The key of each count level. Levels must be finite and positive, and
    no two may share a key, which would keep only the last one's scans."""
    if not all(0 < frac < math.inf for frac in count_levels):
        raise ValueError(f"count_levels must be finite and positive, got {list(count_levels)}")
    keys = [level_key(frac) for frac in count_levels]
    if len(set(keys)) < len(keys):
        raise ValueError(f"count_levels must be distinct to 6 significant digits: {keys}")
    return keys


@dataclass
class Study:
    """One phantom's ground truth plus noisy realizations keyed by count level."""

    truth: np.ndarray                      # [S, H, W]
    realizations: dict[str, np.ndarray]    # key -> [R, S, H, W]
    protocol: ScanProtocol
    metadata: dict = field(default_factory=dict)


def _seeded_scan(truth, protocol: ScanProtocol, fraction: float, spawn_key: tuple):
    """One realization at fraction*count_budget and its seed, which
    ``spawn_key`` derives from the protocol seed."""
    ss = np.random.SeedSequence(entropy=protocol.seed, spawn_key=spawn_key)
    seed = int(ss.generate_state(1)[0])
    level = ScanProtocol(
        protocol.psf_sigma, protocol.count_budget * fraction, protocol.seed
    )
    return simulate_scan(truth, level, seed=seed), seed


def make_study(
    spec: PhantomSpec,
    protocol: ScanProtocol,
    count_levels: tuple[float, ...] = STUDY_COUNT_LEVELS,
    n_realizations: int = N_REALIZATIONS,
    n2n_split: bool = False,
) -> Study:
    """Generate a study: for each level fraction, n independent realizations
    at budget fraction*count_budget. With n2n_split, also rebin one full-budget
    acquisition into two equal-count halves under the key "n2n"."""
    if n_realizations < 1:
        raise ValueError(f"n_realizations must be >= 1, got {n_realizations}")
    keys = level_keys(count_levels)
    truth = generate_phantom(spec)
    realizations: dict[str, np.ndarray] = {}
    meta_levels: dict[str, dict] = {}
    for li, (frac, key) in enumerate(zip(count_levels, keys)):
        scans = [
            _seeded_scan(truth, protocol, frac, (spec.seed, li, r))
            for r in range(n_realizations)
        ]
        realizations[key] = np.stack([vol for vol, _ in scans])
        meta_levels[key] = {"fraction": frac, "seeds": [seed for _, seed in scans]}
    metadata = {
        "spec": asdict(spec),
        "protocol": asdict(protocol),
        "levels": meta_levels,
    }
    if n2n_split:
        ss = np.random.SeedSequence(entropy=protocol.seed, spawn_key=(spec.seed, 913))
        s = int(ss.generate_state(1)[0])
        full, r1, r2 = split_scan(truth, protocol, seed=s)
        realizations["n2n"] = np.stack([r1, r2])
        realizations["full"] = full[None]
        metadata["n2n_seed"] = s
    return Study(truth, realizations, protocol, metadata)


@dataclass
class StudyPair:
    """Training material from one phantom: noisy inputs per level, one target."""

    phantom_id: int
    truth: np.ndarray
    target: np.ndarray
    inputs: dict[str, np.ndarray]  # level key -> [S, H, W]


@dataclass
class DenoiseDataset:
    """Train and validation phantoms; ``manifest`` regenerates them."""

    train: list[StudyPair]
    val: list[StudyPair]
    manifest: dict = field(default_factory=dict)

    def pairs(self, split: str = "train") -> list[tuple[np.ndarray, np.ndarray]]:
        """(noisy input volume, target volume) over every phantom and level."""
        studies = self.train if split == "train" else self.val
        out = []
        for sp in studies:
            for key in sorted(sp.inputs):
                out.append((sp.inputs[key], sp.target))
        return out


def build_dataset(
    specs: list[PhantomSpec],
    protocol: ScanProtocol,
    count_levels: tuple[float, ...] = DATASET_COUNT_LEVELS,
    n_val: int = 0,
) -> DenoiseDataset:
    """Per phantom: one full-budget target scan plus one noisy input per
    count level. The train/val split is by phantom, never by slice."""
    if not count_levels:
        raise ValueError("count_levels must be nonempty")
    if not 0 <= n_val <= len(specs):
        raise ValueError("n_val out of range")
    keys = level_keys(count_levels)
    studies: list[StudyPair] = []
    for pid, spec in enumerate(specs):
        truth = generate_phantom(spec)
        target, _ = _seeded_scan(truth, protocol, 1.0, (spec.seed, 0))
        inputs = {
            key: _seeded_scan(truth, protocol, frac, (spec.seed, 1 + li))[0]
            for li, (frac, key) in enumerate(zip(count_levels, keys))
        }
        studies.append(StudyPair(pid, truth, target, inputs))
    split = len(specs) - n_val
    manifest = {
        "protocol": asdict(protocol),
        "count_levels": list(count_levels),
        "n_val": n_val,
        "specs": [asdict(s) for s in specs],
    }
    return DenoiseDataset(studies[:split], studies[split:], manifest)


def random_phantom_spec(
    rng: np.random.Generator,
    height: int,
    width: int,
    slices: int = SLICES,
    n_lesions: int = N_LESIONS,
    lesion_radius: float = LESION_RADIUS,
    lesion_contrast: float = LESION_CONTRAST,
) -> PhantomSpec:
    """Draw a plausible random phantom: one big body ellipse, a couple of
    interior ellipses, and hot lesions inside the body."""
    if n_lesions < 0:
        raise ValueError(f"n_lesions must be >= 0, got {n_lesions}")
    cy, cx = height / 2.0, width / 2.0
    body_a = height * rng.uniform(0.30, 0.40)
    body_b = width * rng.uniform(0.30, 0.40)
    ellipses = [
        Ellipse(
            (cy + rng.uniform(-2, 2), cx + rng.uniform(-2, 2)),
            (body_a, body_b),
            rng.uniform(0.8, 1.2),
        )
    ]
    for _ in range(int(rng.integers(1, 3))):
        ellipses.append(
            Ellipse(
                (cy + rng.uniform(-0.4, 0.4) * body_a, cx + rng.uniform(-0.4, 0.4) * body_b),
                (body_a * rng.uniform(0.2, 0.45), body_b * rng.uniform(0.2, 0.45)),
                rng.uniform(0.3, 0.8),
            )
        )
    lesions = []
    for _ in range(n_lesions):
        lesions.append(
            Lesion(
                (
                    cy + rng.uniform(-0.5, 0.5) * body_a,
                    cx + rng.uniform(-0.5, 0.5) * body_b,
                ),
                lesion_radius,
                lesion_contrast,
            )
        )
    return PhantomSpec(
        height, width, slices, tuple(ellipses), tuple(lesions),
        seed=int(rng.integers(0, 2**31 - 1)),
    )


def _voxels(mask: np.ndarray, empty: str) -> np.ndarray:
    """[K, 3] (s, y, x) indices of the set voxels in raster order."""
    idx = np.argwhere(mask).astype(np.int64, copy=False)
    if not len(idx):
        raise ValueError(empty)
    return idx


def lesion_voxels(spec: PhantomSpec) -> np.ndarray:
    """[K, 3] (s, y, x) indices of every voxel inside any lesion disk."""
    _, disk = _shapes(spec)
    mask = np.zeros((spec.slices, spec.height, spec.width), dtype=bool)
    for l in spec.lesions:
        mask |= disk(l)
    return _voxels(mask, "spec has no lesion voxels")


def background_voxels(spec: PhantomSpec) -> np.ndarray:
    """[K, 3] indices inside the first (body) ellipse, BACKGROUND_MARGIN
    pixels clear of the other ellipses and of any lesion."""
    if not spec.ellipses:
        raise ValueError("spec has no background ellipse")
    ellipse, disk = _shapes(spec)
    mask = ellipse(spec.ellipses[0], shrink=0.8)
    for e in spec.ellipses[1:]:
        mask &= ~ellipse(e, grow=BACKGROUND_MARGIN)
    for l in spec.lesions:
        mask &= ~disk(l, grow=BACKGROUND_MARGIN)
    return _voxels(mask, "background region is empty")


def save_dataset(dataset: DenoiseDataset, directory) -> None:
    """One subdirectory per phantom (raw float32 tensors + meta), plus a
    dataset manifest sufficient to regenerate everything from seeds."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    entries = []
    for sp in dataset.train + dataset.val:
        entries.append(f"phantom_{sp.phantom_id:03d}")
        volumes = {"truth": ("truth.f32", sp.truth), "target": ("target.f32", sp.target)}
        volumes.update({key: (f"input_{key}.f32", v) for key, v in sp.inputs.items()})
        _save_volumes(
            d / entries[-1] / "meta.json", volumes,
            phantom_id=sp.phantom_id, levels=sorted(sp.inputs),
        )
    (d / "dataset.json").write_text(json_text({**dataset.manifest, "phantom_dirs": entries}))


def load_dataset(directory) -> DenoiseDataset:
    """A stored dataset, whose phantoms must all have one shape."""
    d = Path(directory)
    doc = read_json(d / "dataset.json", phantom_dirs=list)
    studies = []
    for name in doc["phantom_dirs"]:
        meta, (truth, target, *inputs) = _load_volumes(
            _inside(d, name, "phantom_dirs entry") / "meta.json",
            lambda m: [(key, m["shape"]) for key in ("truth", "target", *m["levels"])],
            phantom_id=int, levels=list,
        )
        studies.append(
            StudyPair(meta["phantom_id"], truth, target, dict(zip(meta["levels"], inputs)))
        )
    shapes = sorted({sp.truth.shape for sp in studies})
    if len(shapes) > 1:
        raise DataFileError(f"{d}: phantoms of more than one shape: {shapes}")
    n_val = doc.get("n_val", 0)
    if type(n_val) is not int or not 0 <= n_val <= len(studies):
        raise DataFileError(f"{d / 'dataset.json'}: bad n_val {n_val!r}")
    split = len(studies) - n_val
    return DenoiseDataset(
        studies[:split],
        studies[split:],
        {k: v for k, v in doc.items() if k != "phantom_dirs"},
    )


def save_study(study: Study, directory) -> None:
    """Raw little-endian float32 tensors plus a JSON sidecar manifest."""
    volumes = {"truth": ("truth.f32", study.truth)}
    volumes.update({key: (f"real_{key}.f32", v) for key, v in study.realizations.items()})
    _save_volumes(
        Path(directory) / "study.json", volumes,
        realization_shapes={k: list(v.shape) for k, v in study.realizations.items()},
        protocol=asdict(study.protocol),
        metadata=study.metadata,
    )


def load_study(directory) -> Study:
    """A stored study. Every realization stack must be ``[R >= 1, *truth.shape]``
    (R = 2 for the "n2n" halves), and its optional ``metadata.levels`` must
    map each count level to an object with a numeric ``fraction``."""
    path = Path(directory) / "study.json"
    meta, (truth, *stacks) = _load_volumes(
        path, lambda m: [("truth", m["shape"]), *m["realization_shapes"].items()],
        realization_shapes=dict, protocol=dict,
    )
    try:
        protocol = ScanProtocol.from_dict(meta["protocol"])
    except (KeyError, TypeError, ValueError) as e:
        raise DataFileError(f"{path}: bad protocol: {e!r}") from e
    metadata = meta.get("metadata", {})
    if type(metadata) is not dict:
        raise DataFileError(f"{path}: 'metadata' is not a dict")
    levels = metadata.get("levels") or {}
    if type(levels) is not dict or not all(
        type(v) is dict and has_kind(v.get("fraction"), float) for v in levels.values()
    ):
        raise DataFileError(f"{path}: bad metadata.levels {levels!r}")
    realizations = dict(zip(meta["realization_shapes"], stacks))
    for key, stack in realizations.items():
        n = stack.shape[0] if stack.ndim else 0
        if stack.shape[1:] != truth.shape or n < 1 or key == "n2n" and n != 2:
            raise DataFileError(
                f"{path}: realizations {key!r} have shape {list(stack.shape)}, expected "
                f"[{2 if key == 'n2n' else 'R >= 1'}, {', '.join(map(str, truth.shape))}]"
            )
    return Study(truth, realizations, protocol, metadata)


def _save_volumes(path: Path, volumes: dict[str, tuple[str, np.ndarray]], **doc) -> None:
    """The on-disk container of a phantom and of a study: ``volumes`` (key ->
    (file name, array)) as raw little-endian float32 beside the JSON sidecar
    ``path``, which holds ``doc``, the ``files`` map and the truth's shape.
    The sidecar is encoded first, so a value JSON cannot hold writes nothing."""
    files = {key: name for key, (name, _) in volumes.items()}
    sidecar = json_text({**doc, "files": files, "shape": list(volumes["truth"][1].shape)})
    path.parent.mkdir(parents=True, exist_ok=True)
    for name, vol in volumes.values():
        (path.parent / name).write_bytes(np.ascontiguousarray(vol, dtype="<f4").tobytes())
    path.write_text(sidecar)


def _load_volumes(path: Path, keys, **kinds: type) -> tuple[dict, list[np.ndarray]]:
    """A ``_save_volumes`` sidecar with ``kinds`` keys, and the volumes
    ``keys(sidecar)`` lists as (files key, shape) pairs, in that order. Each
    must be a file inside the sidecar's directory, of that size, and finite."""
    doc = read_json(path, shape=list, files=dict, **kinds)
    volumes = []
    for key, shape in keys(doc):
        name = doc["files"].get(key) if isinstance(key, str) else None
        f = _inside(path.parent, name, f"files[{key!r}]")
        if not has_kind(shape, list[int]) or min(shape, default=0) < 0:
            raise DataFileError(f"{f}: bad shape {shape!r}")
        try:
            raw = f.read_bytes()
        except OSError as e:
            raise DataFileError(f"{f}: unreadable: {e}") from e
        if len(raw) != 4 * math.prod(shape):
            raise DataFileError(
                f"{f}: expected {math.prod(shape)} float32 values, got {len(raw) / 4:g}"
            )
        vol = np.frombuffer(raw, dtype="<f4")
        if not np.isfinite(vol).all():
            raise DataFileError(f"{f}: non-finite values")
        volumes.append(vol.reshape(shape).copy())
    return doc, volumes


def read_json(path: Path, **kinds: type) -> dict:
    """A JSON input file: an object whose ``kinds`` keys hold values of
    those kinds (see ``has_kind``). Anything else is a DataFileError. This
    is the one JSON reader of tgdkit."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as e:  # JSON and UTF-8 errors are ValueErrors
        raise DataFileError(f"{path}: not a readable JSON file: {e}") from e
    if not isinstance(doc, dict):
        raise DataFileError(f"{path}: not a JSON object")
    for key, kind in kinds.items():
        if not has_kind(doc.get(key), kind):
            raise DataFileError(f"{path}: {key!r} is missing or not a {kind.__name__}")
    return doc


def json_text(doc, indent: int | None = 2) -> str:
    """The one JSON encoder of tgdkit: sorted keys, and strict, so a NaN or
    an infinity is a ValueError. ``indent=None`` gives one compact line.
    No trailing newline."""
    return json.dumps(doc, indent=indent, sort_keys=True, allow_nan=False)


def has_kind(value, kind) -> bool:
    """Whether a JSON value is of ``kind``: a type, ``list[kind]`` or a
    union such as ``int | None``. JSON true and false are not ints, an int
    is also a float, and NaN and the infinities are not floats at all."""
    return _kind_check(kind)(value)


@functools.cache
def _kind_check(kind) -> Callable[[object], bool]:
    """The test :func:`has_kind` applies for ``kind``, resolved once, so a
    long list is checked without taking its item kind apart per element."""
    args = get_args(kind)
    if get_origin(kind) is list:
        item = _kind_check(args[0])
        return lambda v: type(v) is list and all(map(item, v))
    if args:
        checks = tuple(map(_kind_check, args))
        return lambda v: any(check(v) for check in checks)
    if kind is float:
        return lambda v: type(v) is int or type(v) is float and math.isfinite(v)
    return lambda v: type(v) is kind


def is_bare_name(name) -> bool:
    """Whether ``name`` names an entry of a directory: a non-empty string
    with no separator that is neither "." nor ".."."""
    return isinstance(name, str) and name not in ("", "..") and Path(name).name == name


def _inside(directory: Path, name, what: str) -> Path:
    """``directory / name`` for a sidecar entry, which must be a bare file
    or directory name: a stored dataset or study never points outside its
    own directory."""
    if not is_bare_name(name):
        raise DataFileError(f"{directory}: {what} {name!r} is not a name inside it")
    return directory / name
