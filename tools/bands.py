"""Check the conv's row-band rule against the one-band conv, byte for byte.

``ops._band_rows`` cuts a large image's patch matrix into row bands only at
shapes where, it claims, every band's GEMM rounds as the whole image's does.
This sweeps that claim over a grid of (C, N, H, W, dtype) that holds every
conv shape the tests, ``tools/parity.py``, the benchmark workloads and the
README run, and prints one JSON object: the numpy, BLAS build and Python it
ran under, the number of configs the rule bands, and each of those whose
banded output differs from the one-band conv's:

    PYTHONPATH=src:tools python tools/bands.py

Configs the rule leaves as one band run the one-band path itself and are
not computed. ``tests/test_parity.py`` runs the sweep at 1 and at the
default BLAS thread count, one process each, since OpenBLAS reads the count
at import.
"""

from __future__ import annotations

import itertools
import json
import sys

import numpy as np

from parity import fingerprint
from tgdkit.ops import ConvParams, _band_rows, _im2col, conv2d_forward

CHANNELS = (1, 2, 3, 4, 5, 6, 8, 9, 16, 17, 24, 32, 48, 64)
SIZES = ((16, 16), (24, 24), (32, 32), (48, 48), (64, 64), (100, 100),
         (128, 128), (64, 128), (128, 64), (80, 96))
DTYPES = (np.float32, np.float64)


def one_band(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """conv2d_forward without bias, one GEMM per sample's whole patch matrix."""
    b, _, h, w = x.shape
    n = params.out_channels
    wmat = params.weights.reshape(n, -1).astype(x.dtype, copy=False)
    y = np.empty((b, n, h * w), x.dtype)
    for k, _, cols in _im2col(x):
        np.matmul(wmat, cols, out=y[k])
    return y.reshape(b, n, h, w)


def sweep() -> dict:
    """The banded configs of the grid, and those whose bytes differ."""
    banded, differ = 0, []
    for dtype, c, n, (h, w) in itertools.product(DTYPES, CHANNELS, CHANNELS, SIZES):
        if _band_rows(c, n, h, w, np.dtype(dtype).itemsize) == h:
            continue
        banded += 1
        rng = np.random.default_rng([c, n, h, w])
        x = rng.standard_normal((1, c, h, w)).astype(dtype)
        params = ConvParams(rng.standard_normal((n, c, 3, 3)).astype(dtype))
        if conv2d_forward(x, params).tobytes() != one_band(x, params).tobytes():
            differ.append([np.dtype(dtype).name, c, n, h, w])
    return {"fingerprint": fingerprint(), "banded": banded, "differ": differ}


def main() -> int:
    json.dump(sweep(), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
