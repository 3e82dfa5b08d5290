"""Print one JSON object of hashes that pins tgdkit's outputs at fixed seeds.

Run it at two commits and diff the output; any difference is a change in
what tgdkit computes or writes:

    PYTHONPATH=src python tools/parity.py > parity.json

``tests/parity.json`` holds ``pin()``: these hashes with the
``fingerprint()`` they were made under. ``tests/test_parity.py`` checks it at
1 and at the default BLAS thread count. Regenerate it only in a change that
means to change outputs, and list the changed keys with the reason:

    PYTHONPATH=src:tools python -c "import parity; parity.write_pin()"

It covers the four training protocols (scratch, a warm start, TGD
fine-tuning, online N2N) on a 5x16 net at weight decay 1e-5 and 0, with
their network hashes, validation MSEs, records, masks and KSE reports; the
kernel drops (network hash, dropped fraction) and masks of the weight decay
1e-5 scratch net at every ``cli.SWEEP_THRESHOLDS`` value; and every file
the README's CLI flow writes (gen-data -> train -> kse-report ->
tgd-finetune -> n2n -> prune-eval -> evaluate). Manifests are hashed
without their timestamps and wall times, and with the temporary working
directory replaced by a fixed name. The gen-data configs set every optional
key in one run and none in the other, including a test study that sets
none of its own keys and a ``phantoms.n_lesions`` it must not inherit.
It also pins two train steps (predictions, loss, gradients), the trained
network and an infer pass at the shape of an N2N run on a full slice (a
6x16 net on 128x128 slices, batch 8) and of the default 8x64 net, masked,
at 64x64, batch 8; and, at an odd spatial shape (11x13) where a BLAS
kernel's column tail can round differently, the three conv ops and one
forward and backward of a 5x5 net and of a 3x5 net, whose one batchnorm
block sits on the batchnorm-less block 0, in float32 and float64.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from tgdkit import cli
from tgdkit.kse import KseConfig, drop_kernels, kse_scores
from tgdkit.masking import MaskedAdam, all_ones_masks, build_masks
from tgdkit.model import (
    NetworkConfig, backward, build_network, denoise_volume, forward, forward_train,
    network_hash,
)
from tgdkit.ops import ConvParams, conv2d_backward, conv2d_forward, conv2d_grad_input
from tgdkit.phantom import ScanProtocol, build_dataset, make_study, random_phantom_spec
from tgdkit.training import (
    TrainConfig, finetune_tgd, online_n2n, pairs_to_arrays, train_scratch, train_step,
)

NET = NetworkConfig(depth=5, channels=16, input_slices=3)
FULL_SLICE_NET = NetworkConfig(depth=6, channels=16, input_slices=3)
DEFAULT_NET = NetworkConfig()  # 8x64
ODD_NET = NetworkConfig(depth=5, channels=5, input_slices=3)
MIN_NET = NetworkConfig(depth=3, channels=5, input_slices=3)  # one batchnorm block
CLI_NET = {"depth": 4, "channels": 8, "input_slices": 3}
VOLATILE = ("created_utc", "wall_time_s")
PIN = Path(__file__).resolve().parent.parent / "tests" / "parity.json"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def protocols() -> dict:
    """The four protocols through the Python API, at two weight decays."""
    rng = np.random.default_rng(3)
    specs = [random_phantom_spec(rng, 24, 24, slices=3) for _ in range(3)]
    dataset = build_dataset(specs, ScanProtocol(1.5, 2e5, seed=4), (0.1, 0.3), n_val=1)
    study = make_study(
        random_phantom_spec(rng, 24, 24, slices=3), ScanProtocol(1.5, 2e5, seed=5),
        n2n_split=True,
    )
    halves = study.realizations["n2n"]
    out = {}
    for wd in (1e-5, 0.0):
        common = dict(weight_decay=wd, batch_size=4, network=NET, seed=1)
        base, rec = train_scratch(TrainConfig(mode="scratch", epochs=10, **common), dataset)
        warm, warm_rec = train_scratch(
            TrainConfig(mode="scratch", epochs=2, learning_rate=5e-4, **common),
            dataset, initial=base,
        )
        masked = dict(kse_threshold=0.5, kse=KseConfig(alpha=0.5, k_neighbors=3), **common)
        tuned, tgd_rec, masks = finetune_tgd(
            base, TrainConfig(mode="tgd_finetune", epochs=4, **masked), dataset
        )
        n2n, n2n_rec = online_n2n(
            base, TrainConfig(mode="n2n_online", epochs=4, **masked), halves[0], halves[1]
        )
        runs = {"scratch": (base, rec), "warm": (warm, warm_rec),
                "tgd": (tuned, tgd_rec), "n2n": (n2n, n2n_rec)}
        for name, (net, record) in runs.items():
            key = f"wd={wd:g}/{name}"
            out[f"{key}/network_hash"] = network_hash(net)
            out[f"{key}/val_mse"] = record.val_mse
            out[f"{key}/record.jsonl"] = sha(record.to_jsonl().encode())
        out[f"wd={wd:g}/tgd/masks.json"] = sha(masks.to_json().encode())
        out[f"wd={wd:g}/tgd/retrained_fraction"] = masks.retrained_fraction()
        report = kse_scores(base)
        out[f"wd={wd:g}/scratch/kse_report.json"] = sha(report.to_json().encode())
        if wd == 1e-5:
            for t in cli.SWEEP_THRESHOLDS:
                at = f"wd={wd:g}/scratch/phi={t:g}"
                dropped = drop_kernels(base, report, t)
                out[f"{at}/drop/network_hash"] = network_hash(dropped.network)
                out[f"{at}/drop/dropped_fraction"] = dropped.dropped_fraction
                masks = build_masks(base, report, t)
                out[f"{at}/masks.json"] = sha(masks.to_json().encode())
    return out


def full_slice_steps() -> dict:
    """Two Adam steps and an infer pass of a 6x16 net at 128x128, batch 8,
    on the two N2N halves of one study, each the other's target."""
    rng = np.random.default_rng(11)
    study = make_study(
        random_phantom_spec(rng, 128, 128, slices=4), ScanProtocol(1.5, 2e5, seed=6),
        n2n_split=True,
    )
    a, b = study.realizations["n2n"]
    x, y = pairs_to_arrays([(a, b), (b, a)], FULL_SLICE_NET.input_slices)
    net = build_network(FULL_SLICE_NET, seed=2)
    opt = MaskedAdam(net, all_ones_masks(net), lr=1e-3)
    out = {}
    for step in range(2):
        key = f"full_slice/step={step}"
        out[f"{key}/pred"] = sha(forward(net, x, "train").tobytes())
        out[f"{key}/loss"], grads = train_step(net, opt, x, y)
        out[f"{key}/grads"] = sha(b"".join(g.tobytes() for g in grads))
    out["full_slice/network_hash"] = network_hash(net)
    out["full_slice/infer"] = sha(denoise_volume(net, a).tobytes())
    return out


def default_net_steps() -> dict:
    """Two KSE-masked Adam steps (phi = 0.5, last layer frozen) and an
    infer pass of the default 8x64 net at 64x64, batch 8: the 64-channel
    convs, whose patch matrices are too large for one L2-sized band."""
    rng = np.random.default_rng(17)
    study = make_study(
        random_phantom_spec(rng, 64, 64, slices=4), ScanProtocol(1.5, 2e5, seed=8),
        n2n_split=True,
    )
    a, b = study.realizations["n2n"]
    x, y = pairs_to_arrays([(a, b), (b, a)], DEFAULT_NET.input_slices)
    net = build_network(DEFAULT_NET, seed=3)
    masks = build_masks(net, kse_scores(net), 0.5)
    opt = MaskedAdam(net, masks.conv_masks, lr=1e-3)
    out = {}
    for step in range(2):
        key = f"default_net/step={step}"
        out[f"{key}/pred"] = sha(forward(net, x, "train").tobytes())
        out[f"{key}/loss"], grads = train_step(net, opt, x, y)
        out[f"{key}/grads"] = sha(b"".join(g.tobytes() for g in grads))
    out["default_net/network_hash"] = network_hash(net)
    out["default_net/infer"] = sha(denoise_volume(net, a).tobytes())
    return out


def odd_shape_convs() -> dict:
    """Conv forward, grad-weights and grad-input at an odd spatial shape
    (5 channels, 11x13, batch 3) with 1 and 16 output channels, in float32
    and float64. A patch layout that keeps every byte only at some widths
    changes these hashes even when the networks above, all at even widths,
    do not."""
    out = {}
    for dtype in (np.float32, np.float64):
        for n in (1, 16):
            rng = np.random.default_rng(n)
            x = rng.standard_normal((3, 5, 11, 13)).astype(dtype)
            g = rng.standard_normal((3, n, 11, 13)).astype(dtype)
            params = ConvParams(
                rng.standard_normal((n, 5, 3, 3)).astype(dtype),
                rng.standard_normal(n).astype(dtype),
            )
            key = f"conv/{np.dtype(dtype).name}/n={n}"
            out[f"{key}/forward"] = sha(conv2d_forward(x, params).tobytes())
            out[f"{key}/grad_weights"] = sha(conv2d_backward(x, params, g)[0].tobytes())
            out[f"{key}/grad_input"] = sha(conv2d_grad_input(params, g).tobytes())
    return out


def odd_shape_step(config: NetworkConfig, name: str) -> dict:
    """The prediction and every gradient of one train-mode forward and
    backward of a ``config`` net at 11x13, batch 3, in float32 and float64,
    with gamma != 1 and beta != 0: the blocks' rebuilt inputs at an odd
    shape, through the whole backward."""
    out = {}
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(13)
        net = build_network(config, seed=5)
        for blk in net.blocks:
            blk.conv.weights = blk.conv.weights.astype(dtype)
            if blk.conv.bias is not None:
                blk.conv.bias = rng.standard_normal(blk.conv.bias.shape).astype(dtype)
            if blk.bn is not None:
                blk.bn.gamma = rng.standard_normal(blk.bn.channels).astype(dtype)
                blk.bn.beta = rng.standard_normal(blk.bn.channels).astype(dtype)
        x = rng.standard_normal((3, config.input_slices, 11, 13)).astype(dtype)
        pred, caches = forward_train(net, x)
        grads = backward(net, caches, rng.standard_normal(pred.shape).astype(dtype))
        key = f"{name}/{np.dtype(dtype).name}"
        out[f"{key}/pred"] = sha(pred.tobytes())
        out[f"{key}/grads"] = sha(b"".join(g.tobytes() for g in grads))
    return out


def gen_configs() -> dict[str, dict]:
    """Two gen-data configs: one sets every optional key, one sets none."""
    common = {
        "seed": 7,
        "image": {"height": 32, "width": 32, "slices": 5},
        "protocol": {"psf_sigma": 1.5, "count_budget": 200000},
    }
    return {
        "full": {
            **common,
            "phantoms": {"n_train": 3, "n_val": 1, "n_lesions": 1,
                         "lesion_radius": 2.5, "lesion_contrast": 3.0},
            "count_levels": [0.1, 0.3],
            "test_studies": [
                {"name": "probe", "n_realizations": 3, "count_levels": [1.0],
                 "n2n_split": True, "n_lesions": 3,
                 "ood_lesion": {"center": [8.0, 22.0], "radius": 4.5, "contrast": 4.0}},
                {"name": "plain"},
            ],
        },
        "minimal": {
            **common,
            "phantoms": {"n_train": 2},
            "test_studies": [{"name": "probe", "n2n_split": True, "n_realizations": 2}],
        },
    }


def run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"tgdkit {' '.join(argv)} exited {code}")


def hash_tree(root: Path, work: Path) -> dict:
    """sha256 of every file under ``root``, keyed by its path below ``work``."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            doc = json.loads(data)
            for key in VOLATILE:
                doc.pop(key, None)
            data = json.dumps(doc, sort_keys=True).replace(str(work), "<work>").encode()
        out[str(path.relative_to(work))] = sha(data)
    return out


def cli_flow(work: Path) -> dict:
    """The README's CLI flow, run in ``work`` for each gen-data config."""
    out = {}
    for name, gen in gen_configs().items():
        d = work / name
        d.mkdir()
        (d / "gen.json").write_text(json.dumps(gen))
        run_cli(["gen-data", str(d / "gen.json"), "--out", str(d / "data")])
        train = {"dataset": str(d / "data" / "dataset"), "seed": 0, "epochs": 3,
                 "batch_size": 8, "network": CLI_NET}
        (d / "train.json").write_text(json.dumps(train))
        run_cli(["train", str(d / "train.json"), "--out", str(d / "v1")])
        weights = str(d / "v1" / "weights.tgdw")
        run_cli(["kse-report", weights, "--out", str(d / "kse")])
        ft = {**train, "weights": weights, "epochs": 1}
        (d / "ft.json").write_text(json.dumps(ft))
        run_cli(["tgd-finetune", str(d / "ft.json"), "--phi", "0.5",
                 "--freeze-last-layer", "--out", str(d / "tgd")])
        probe = str(d / "data" / "studies" / "probe")
        n2n = {"study": probe, "weights": weights, "seed": 0, "batch_size": 8,
               "phi": 0.5, "network": CLI_NET}
        (d / "n2n.json").write_text(json.dumps(n2n))
        run_cli(["n2n", str(d / "n2n.json"), "--epochs", "2", "--out", str(d / "n2n")])
        run_cli(["prune-eval", weights, probe, "--out", str(d / "prune")])
        run_cli(["evaluate", str(d / "tgd" / "weights.tgdw"), probe, "--out", str(d / "eval")])
        for run in ("data", "v1", "kse", "tgd", "n2n", "prune", "eval"):
            out.update(hash_tree(d / run, work))
    return out


def hashes() -> dict:
    """Every pinned output, keyed by what it is."""
    result = protocols()
    result.update(full_slice_steps())
    result.update(default_net_steps())
    result.update(odd_shape_convs())
    result.update(odd_shape_step(ODD_NET, "odd_shape_step"))
    result.update(odd_shape_step(MIN_NET, "min_depth_step"))
    with tempfile.TemporaryDirectory(prefix="tgdkit-parity-") as tmp:
        result.update(cli_flow(Path(os.path.realpath(tmp))))
    return result


def fingerprint() -> dict:
    """The numpy, BLAS build and Python the hashes were made under. The
    repository promises bit-identical reruns, not bit-identical results
    across builds, so a pin made under another fingerprint says nothing."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "openblas": blas.get("openblas configuration"),
        "python": platform.python_version(),
    }


def pin() -> dict:
    """``hashes()`` with the ``fingerprint()`` they were made under."""
    return {"fingerprint": fingerprint(), "hashes": hashes()}


def write_pin() -> None:
    """Write ``pin()`` to ``tests/parity.json``."""
    PIN.write_text(json.dumps(pin(), indent=1, sort_keys=True) + "\n")


def main() -> int:
    json.dump(hashes(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
