"""tgdkit: selective fine-tuning of a convolutional denoiser via gradient masks.

The package trains a small residual denoising network from scratch, scores
each conv layer's input feature maps by kernel sparsity and entropy (KSE),
freezes the kernels behind high-scoring maps with binary gradient masks, and
retrains only the rest. A synthetic Poisson-count phantom pipeline stands in
for scanner data so every experiment is reproducible from seeds.
"""

__version__ = "0.1.0"

from .kse import KseConfig, KseReport, drop_kernels, kse_scores  # noqa: E402
from .masking import MaskSet, build_masks  # noqa: E402
from .model import (  # noqa: E402
    Network,
    NetworkConfig,
    build_network,
    denoise_volume,
    forward,
    load_weights,
    save_weights,
)
from .training import (  # noqa: E402
    TrainConfig,
    TrainRecord,
    finetune_tgd,
    online_n2n,
    train_scratch,
)

__all__ = [
    "KseConfig",
    "KseReport",
    "MaskSet",
    "Network",
    "NetworkConfig",
    "TrainConfig",
    "TrainRecord",
    "build_masks",
    "build_network",
    "denoise_volume",
    "drop_kernels",
    "finetune_tgd",
    "forward",
    "kse_scores",
    "load_weights",
    "online_n2n",
    "save_weights",
    "train_scratch",
]
