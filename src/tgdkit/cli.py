"""Reproducible experiment front-end.

gen-data, train, tgd-finetune and n2n read a JSON config (flags override
file values); kse-report, prune-eval and evaluate read no config file and
take their inputs as arguments and flags. Every subcommand writes its
outputs plus a run manifest into one output directory, and exits 0 on
success, 2 on config problems, 3 on data/weight problems. A command
computes all of its outputs and checks its output paths before it creates
the output directory, so a run that fails in either leaves nothing behind.
An error raised while the files are written (an output path that is a
dangling symlink, say) can leave the outputs written before it and no
manifest, which is written last. The manifest's ``config`` holds the
resolved config (gen-data echoes ``phantoms`` and ``test_studies`` as given,
so their code defaults apply), or for the commands without a config file
their arguments, so a run can be reproduced byte for byte from the manifest
alone. The manifest hashes the file each input and output entry names; for a
dataset or a study that is its JSON sidecar only, not the volumes. Every
JSON file written is strict JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path
from typing import get_args

import numpy as np

from . import __version__
from .kse import KseConfig, drop_kernels, kse_scores
from .masking import build_masks
from .metrics import (
    Roi,
    ensemble_bias,
    ensemble_cov,
    load_rois,
    mse,
    psnr,
    save_rois,
)
from .model import (
    NetworkConfig,
    NonFiniteOutputError,
    WeightFileError,
    denoise_volume,
    load_weights,
    save_weights,
)
from .phantom import (
    DATASET_COUNT_LEVELS,
    DataFileError,
    Lesion,
    ScanProtocol,
    background_voxels,
    build_dataset,
    has_kind,
    is_bare_name,
    json_text,
    lesion_voxels,
    load_dataset,
    load_study,
    make_study,
    random_phantom_spec,
    read_json,
    save_dataset,
    save_study,
)
from .training import (
    NonFiniteLossError, TrainConfig, finetune_tgd, online_n2n, train_scratch,
)

SWEEP_THRESHOLDS = (0.3, 0.4, 0.5, 0.6)


class ConfigError(Exception):
    pass


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_config(path) -> dict:
    try:
        return read_json(Path(path))
    except DataFileError as e:
        raise ConfigError(str(e)) from e


_REQUIRED = object()


def need(cfg: dict, field: str, kind, default=_REQUIRED, where: str = "config"):
    """The value at dotted path ``field``, which must be a JSON value of
    ``kind`` (see ``has_kind``); if unset, ``default``, else a ConfigError
    naming the field."""
    node = cfg
    for part in field.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is _REQUIRED:
                raise ConfigError(f"missing field: {field} (in {where})")
            return default
        node = node[part]
    if not has_kind(node, kind):
        name = str(kind) if get_args(kind) else kind.__name__
        raise ConfigError(f"field {field} must be {name}, got {node!r} (in {where})")
    return node


def _config_hash(doc: dict) -> str:
    return hashlib.sha256(json_text(doc, None).encode()).hexdigest()


def write_manifest(
    out: Path, subcommand: str, resolved: dict, inputs: dict, outputs: dict,
    wall_time_s: float | None = None,
) -> None:
    doc = {
        "tool": "tgdkit",
        "version": __version__,
        "subcommand": subcommand,
        "config": resolved,
        "inputs": {k: {"path": str(p), "sha256": sha256_file(p)} for k, p in inputs.items()},
        "outputs": {k: {"path": str(p), "sha256": sha256_file(p)} for k, p in outputs.items()},
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if wall_time_s is not None:
        doc["wall_time_s"] = wall_time_s
    (out / "manifest.json").write_text(json_text(doc) + "\n")


def write_run(
    args, resolved: dict, inputs: dict,
    outputs: dict[str, tuple[str, str | Callable[[Path], None]]],
    message: Callable[[Path], str], wall_time_s: float | None = None,
) -> int:
    """The one place a command writes: called once its work is done, it
    creates the out dir, writes every output and the manifest, and prints
    ``message(out)``. ``outputs`` maps each manifest output key to its file
    under the out dir and either the file's text or a writer called with
    the file's path. The manifest names the subcommand that ran. An output
    path that is an existing directory is a ConfigError before anything is
    written."""
    digest = _config_hash(resolved)  # also rejects non-finite config values
    if args.out:
        out = Path(args.out)
    else:
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        out = Path("runs") / f"{args.subcommand}-{stamp}-{digest[:8]}"
    written = {key: out / name for key, (name, _) in outputs.items()}
    for target in (*written.values(), out / "manifest.json"):
        if os.path.isdir(target):
            raise ConfigError(f"output {target} is a directory")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {out}: {e.strerror}") from e
    for key, (_, content) in outputs.items():
        if isinstance(content, str):
            written[key].write_text(content)
        else:
            content(written[key])
    write_manifest(out, args.subcommand, resolved, inputs, written, wall_time_s)
    print(message(out))
    return 0


def given(cfg: dict, kinds: dict, section: str | None = None) -> dict:
    """The fields of ``kinds`` (name -> kind, as in ``need``) that a config
    or one of its sections sets; the config dataclasses hold the defaults
    of the rest."""
    node = need(cfg, section, dict, {}) if section else cfg
    where = section or "config"
    return {f: need(node, f, k, where=where) for f, k in kinds.items() if f in node}


def check_known(node, schema, path: str = "") -> None:
    """A ConfigError naming the first key of config ``node`` that ``schema``
    does not list, as a dotted path. A schema maps each key to the kind of
    its value (as in ``need``), to the schema of a section, or to a
    one-item list holding the schema of each entry of a list. A value of
    the wrong type is left to ``need``."""
    if isinstance(schema, list) and isinstance(node, list):
        for i, entry in enumerate(node):
            check_known(entry, schema[0], f"{path}{i}.")
    elif isinstance(schema, dict) and isinstance(node, dict):
        for key, value in node.items():
            if key not in schema:
                raise ConfigError(f"unknown field: {path}{key}")
            check_known(value, schema[key], f"{path}{key}.")


TRAIN_FIELDS = {
    "epochs": int | None, "batch_size": int, "learning_rate": float | None,
    "weight_decay": float, "seed": int, "kse_threshold": float | None,
    "last_layer_frozen": bool, "phi": float | None, "freeze_last_layer": bool,
}
# "phi"/"freeze_last_layer" are the config-file spellings of two fields;
# manifests echo the field names, and replaying a manifest must work too
SPELLINGS = {"phi": "kse_threshold", "freeze_last_layer": "last_layer_frozen"}
TRAIN_SECTIONS = {
    "kse": {"alpha": float, "k_neighbors": int},
    "network": {"depth": int, "channels": int, "input_slices": int},
}


def _train_config(cfg: dict, args, mode: str) -> TrainConfig:
    """The run's TrainConfig. A key the command does not read is a
    ConfigError; ``mode`` may be set (a manifest echoes it) only to the
    command's own mode."""
    sections = {s: given(cfg, kinds, s) for s, kinds in TRAIN_SECTIONS.items()}
    if cfg.get("mode", mode) != mode:
        raise ConfigError(f"field mode must be {mode!r} here, got {cfg['mode']!r}")
    known = {"mode": str, "study" if mode == "n2n_online" else "dataset": str,
             **TRAIN_FIELDS, **TRAIN_SECTIONS}
    if mode != "scratch":
        known["weights"] = str
    check_known(cfg, known)
    for spelling, field_name in SPELLINGS.items():
        if spelling in cfg and field_name in cfg:
            raise ConfigError(f"config sets both {spelling} and {field_name}")
    kw = {SPELLINGS.get(k, k): v for k, v in given(cfg, TRAIN_FIELDS).items()}
    for flag in ("epochs", "seed", *SPELLINGS):
        if getattr(args, flag, None) is not None:
            kw[SPELLINGS.get(flag, flag)] = getattr(args, flag)
    return TrainConfig(
        mode=mode,
        kse=KseConfig(**sections["kse"]),
        network=NetworkConfig(**sections["network"]),
        **kw,
    )


def _study_at_level(args):
    """The command line's study and count level: ``--level``, else the
    study's highest count level, its numerically largest realization key.
    The n2n halves and the "full" scan they were split from are not count
    levels."""
    study = load_study(args.study)
    level = args.level or max(filter(_is_number, study.realizations), key=float, default=None)
    if level is None:
        keys = ", ".join(sorted(study.realizations)) or "none"
        raise DataFileError(f"study has no count levels (keys: {keys}); choose one with --level")
    if level not in study.realizations:
        raise DataFileError(f"study has no count level {level!r}")
    return Path(args.study), study, level


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------- gen-data

LESION_FIELDS = {"lesion_radius": float, "lesion_contrast": float}
GEN_DATA_FIELDS = {
    "seed": int,
    "image": {"height": int, "width": int, "slices": int},
    # the manifest echoes protocol.seed, which must be the top-level seed
    "protocol": {"psf_sigma": float, "count_budget": float, "seed": int},
    "phantoms": {"n_train": int, "n_val": int, "n_lesions": int, **LESION_FIELDS},
    "count_levels": list[float],
    "test_studies": [{
        "name": str, "n_lesions": int, "count_levels": list[float],
        "n_realizations": int, "n2n_split": bool,
        "ood_lesion": {"center": list[float], "radius": float, "contrast": float},
    }],
}


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    check_known(cfg, GEN_DATA_FIELDS)
    seed = need(cfg, "seed", int)
    protocol_seed = need(cfg, "protocol.seed", int, seed)
    if protocol_seed != seed:
        raise ConfigError(f"field protocol.seed must equal seed ({seed}), got {protocol_seed}")
    h = need(cfg, "image.height", int)
    w = need(cfg, "image.width", int)
    slices = need(cfg, "image.slices", int, 5)
    protocol = ScanProtocol(
        psf_sigma=float(need(cfg, "protocol.psf_sigma", float)),
        count_budget=float(need(cfg, "protocol.count_budget", float)),
        seed=seed,
    )
    n_train = need(cfg, "phantoms.n_train", int)
    if n_train < 1:
        raise ConfigError(f"field phantoms.n_train must be >= 1, got {n_train}")
    n_val = need(cfg, "phantoms.n_val", int, 0)
    levels = tuple(need(cfg, "count_levels", list[float], list(DATASET_COUNT_LEVELS)))
    resolved = {
        "seed": seed,
        "image": {"height": h, "width": w, "slices": slices},
        "protocol": protocol.to_dict(),
        "phantoms": cfg.get("phantoms", {}),
        "count_levels": list(levels),
        "test_studies": need(cfg, "test_studies", list[dict], []),
    }
    # each study is written to studies/<name>, so a name must stay inside
    # --out and name one study
    names = [need(t, "name", str, where="test_studies entry") for t in resolved["test_studies"]]
    for name in names:
        if not is_bare_name(name):
            raise ConfigError(f"test study name {name!r} is not a bare directory name")
    if len(set(names)) < len(names):
        raise ConfigError(f"test study names are not unique: {names}")

    # checked although no lesion may be drawn, which would check them
    lesions = given(cfg, LESION_FIELDS, "phantoms")
    if not lesions.get("lesion_radius", 1) > 0:
        raise ConfigError(
            "field phantoms.lesion_radius: lesion radius must be > 0, "
            f"got {lesions['lesion_radius']}"
        )
    if not lesions.get("lesion_contrast", 0) >= 0:
        raise ConfigError(
            "field phantoms.lesion_contrast must be finite and >= 0, "
            f"got {lesions['lesion_contrast']}"
        )

    rng = np.random.default_rng(seed)
    n_lesions = given(cfg, {"n_lesions": int}, "phantoms")
    specs = [
        random_phantom_spec(rng, h, w, slices=slices, **lesions, **n_lesions)
        for _ in range(n_train + n_val)
    ]
    dataset = build_dataset(specs, protocol, levels, n_val=n_val)
    outputs = {
        "dataset": ("dataset/dataset.json", lambda p: save_dataset(dataset, p.parent))
    }
    for name, tcfg in zip(names, resolved["test_studies"]):
        # a test study draws its own lesion count, not the dataset's
        spec = random_phantom_spec(
            rng, h, w, slices=slices, **lesions, **given(tcfg, {"n_lesions": int})
        )
        ood = need(tcfg, "ood_lesion", dict | None, None)
        if ood is not None:
            where = f"ood_lesion of test study {name!r}"
            radius = float(need(ood, "radius", float, where=where))
            contrast = float(need(ood, "contrast", float, where=where))
            if not radius > 0:
                raise ConfigError(f"field radius must be > 0, got {radius} (in {where})")
            if not 0 <= contrast < math.inf:
                raise ConfigError(
                    f"field contrast must be finite and >= 0, got {contrast} (in {where})"
                )
            extra = Lesion(tuple(need(ood, "center", list[float], where=where)), radius, contrast)
            try:
                spec = replace(spec, lesions=spec.lesions + (extra,))
            except ValueError as e:
                raise ConfigError(f"{e} (in {where})") from e
        study = make_study(spec, protocol, **given(tcfg, {
            "count_levels": list[float], "n_realizations": int, "n2n_split": bool,
        }))
        try:
            rois = {
                "lesion": Roi(lesion_voxels(spec)),
                "background": Roi(background_voxels(spec)),
            }
        except ValueError as e:
            raise ConfigError(f"test study {name!r}: {e}") from e
        if ood is not None:
            ood_only = replace(spec, lesions=(extra,))
            rois["ood_lesion"] = Roi(lesion_voxels(ood_only))

        def write_study(path, study=study, rois=rois):
            save_study(study, path.parent)
            save_rois(rois, path.parent / "rois.json")

        outputs[f"study:{name}"] = (f"studies/{name}/study.json", write_study)
    return write_run(
        args, resolved, {}, outputs, lambda out: f"dataset written to {out}"
    )


# ------------------------------------------------ train, tgd-finetune, n2n


def cmd_training(args, mode: str) -> int:
    """One training run of any protocol: from scratch or TGD fine-tuning
    on a dataset, or online N2N on a study's two-realization split."""
    cfg = load_config(args.config)
    source = "study" if mode == "n2n_online" else "dataset"
    source_dir = Path(need(cfg, source, str))
    tc = _train_config(cfg, args, mode)
    resolved = {source: str(source_dir), **asdict(tc)}
    if mode != "scratch":
        resolved["weights"] = str(Path(need(cfg, "weights", str)))
    inputs = {source: source_dir / f"{source}.json"}

    if mode == "n2n_online":
        study = load_study(source_dir)
        if "n2n" not in study.realizations:
            raise DataFileError("study has no 'n2n' split (generate with n2n_split: true)")
    else:
        dataset = load_dataset(source_dir)
    masks = None
    if mode == "scratch":
        net, record = train_scratch(tc, dataset)
    else:
        inputs["weights"] = Path(resolved["weights"])
        base = load_weights(inputs["weights"], expect=tc.network)
        if mode == "tgd_finetune":
            net, record, masks = finetune_tgd(base, tc, dataset)
        else:
            halves = study.realizations["n2n"]
            net, record = online_n2n(base, tc, halves[0], halves[1])

    name = "n2n" if mode == "n2n_online" else mode
    net.version_tag = f"{name}-seed{tc.seed}"
    outputs = {
        "weights": ("weights.tgdw", lambda p: save_weights(net, p)),
        "record": ("record.jsonl", record.to_jsonl()),
    }
    if masks is not None:
        outputs["masks"] = ("masks.json", masks.to_json())
    return write_run(
        args, resolved, inputs, outputs,
        lambda out: f"final weights {record.final_hash[:12]} -> {out}", record.wall_time_s,
    )


# -------------------------------------------------------------- kse-report


def cmd_kse_report(args) -> int:
    net = load_weights(args.weights)
    kse = KseConfig(**given(vars(args), {"alpha": float, "k_neighbors": int}))
    report = kse_scores(net, kse)
    sweep = []
    for t in SWEEP_THRESHOLDS:
        res = drop_kernels(net, report, t)
        masks = build_masks(net, report, t, last_layer_frozen=True)
        sweep.append(
            {
                "threshold": t,
                "dropped_fraction": res.dropped_fraction,
                "retrained_fraction": masks.retrained_fraction(),
            }
        )
    table = "\n".join(["threshold  dropped%  retrained%", *(
        f"{row['threshold']:>9.2f}  {row['dropped_fraction'] * 100:>7.1f}"
        f"  {row['retrained_fraction'] * 100:>9.1f}"
        for row in sweep
    )])
    resolved = {
        "weights": str(args.weights),
        "alpha": kse.alpha,
        "k_neighbors": kse.k_neighbors,
        "thresholds": list(SWEEP_THRESHOLDS),
    }
    return write_run(
        args, resolved, {"weights": Path(args.weights)},
        {
            "kse_report": ("kse_report.json", report.to_json() + "\n"),
            "sweep": ("sweep.json", json_text({"sweep": sweep}) + "\n"),
            "sweep_table": ("sweep.txt", table + "\n"),
        },
        lambda out: table,
    )


# -------------------------------------------------------------- prune-eval


def cmd_prune_eval(args) -> int:
    net = load_weights(args.weights)
    study_dir, study, level = _study_at_level(args)
    noisy = study.realizations[level][0]

    report = kse_scores(net)
    reference = denoise_volume(net, noisy)
    rows = []
    for t in args.thresholds:
        res = drop_kernels(net, report, t)
        output = denoise_volume(res.network, noisy)
        rows.append(
            {
                "threshold": t,
                "dropped_fraction": res.dropped_fraction,
                "mse_vs_reference": mse(output, reference),
                "mse_vs_truth": mse(output, study.truth),
            }
        )
    table = "\n".join(["threshold  dropped%  mse_vs_reference  mse_vs_truth", *(
        f"{r['threshold']:>9.2f}  {r['dropped_fraction'] * 100:>7.1f}"
        f"  {r['mse_vs_reference']:>16.6g}  {r['mse_vs_truth']:>12.6g}"
        for r in rows
    )])
    resolved = {
        "weights": str(args.weights),
        "study": str(study_dir),
        "level": level,
        "thresholds": list(args.thresholds),
    }
    return write_run(
        args, resolved,
        {"weights": Path(args.weights), "study": study_dir / "study.json"},
        {
            "report": ("prune_eval.json", json_text({"rows": rows}) + "\n"),
            "table": ("prune_eval.txt", table + "\n"),
        },
        lambda out: table,
    )


# ---------------------------------------------------------------- evaluate


def cmd_evaluate(args) -> int:
    net = load_weights(args.weights)
    study_dir, study, level = _study_at_level(args)
    rois_path = Path(args.rois) if args.rois else study_dir / "rois.json"
    if not rois_path.exists():
        raise ConfigError(f"missing ROI file: {rois_path}")
    rois = load_rois(rois_path, study.truth.shape)
    stack = study.realizations[level]

    denoised = [denoise_volume(net, stack[r]) for r in range(stack.shape[0])]
    psnr_db = float(
        np.mean([psnr(d, study.truth, peak=float(study.truth.max())) for d in denoised])
    )
    report: dict = {
        "level": level,
        "n_realizations": len(denoised),
        "mse_vs_truth": float(np.mean([mse(d, study.truth) for d in denoised])),
        # infinite when every denoised volume equals the truth (zero MSE)
        "psnr_db": psnr_db if np.isfinite(psnr_db) else None,
    }
    if "lesion" in rois:
        report["lesion_bias_pct"] = ensemble_bias(denoised, rois["lesion"], study.truth)
    if "background" in rois:
        if len(denoised) >= 2:
            report["background_cov_pct"] = ensemble_cov(denoised, rois["background"])
        else:
            report["background_cov_pct"] = None  # needs >= 2 realizations
    display = [
        ("Lesion Bias (%)", report.get("lesion_bias_pct")),
        ("Background CoV (%)", report.get("background_cov_pct")),
        ("MSE vs truth", report["mse_vs_truth"]),
        ("PSNR (dB)", report["psnr_db"]),
    ]
    table = "\n".join([f"{'Metric':<22}{'Value':>12}", *(
        f"{name:<22}{'n/a' if value is None else f'{value:.4g}':>12}"
        for name, value in display
    )])
    resolved = {
        "weights": str(args.weights),
        "study": str(study_dir),
        "rois": str(rois_path),
        "level": level,
    }
    return write_run(
        args, resolved,
        {"weights": Path(args.weights), "study": study_dir / "study.json", "rois": rois_path},
        {
            "metrics": ("metrics.json", json_text(report) + "\n"),
            "table": ("metrics.txt", table + "\n"),
        },
        lambda out: table,
    )


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tgdkit",
        description="Selective fine-tuning of a convolutional denoiser "
        "via kernel-importance gradient masks.",
    )
    p.add_argument("--version", action="version", version=f"tgdkit {__version__}")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add_common(sp):
        sp.add_argument("--out", help="output directory (default: runs/<auto>)")

    def add_train_flags(sp):
        sp.add_argument("config", help="JSON config file")
        sp.add_argument("--epochs", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None)
        add_common(sp)

    def add_mask_flags(sp):
        add_train_flags(sp)
        sp.add_argument("--phi", type=float, default=None, help="KSE threshold")
        freeze = sp.add_mutually_exclusive_group()
        freeze.add_argument(
            "--freeze-last-layer", dest="freeze_last_layer",
            action="store_true", default=None,
        )
        freeze.add_argument(
            "--no-freeze-last-layer", dest="freeze_last_layer", action="store_false"
        )

    sp = sub.add_parser("gen-data", help="generate a phantom dataset and test studies")
    sp.add_argument("config")
    add_common(sp)
    sp.set_defaults(func=cmd_gen_data)

    sp = sub.add_parser("train", help="train a denoiser from scratch")
    add_train_flags(sp)
    sp.set_defaults(func=partial(cmd_training, mode="scratch"))

    sp = sub.add_parser("tgd-finetune", help="masked fine-tuning of a pre-trained net")
    add_mask_flags(sp)
    sp.set_defaults(func=partial(cmd_training, mode="tgd_finetune"))

    sp = sub.add_parser("n2n", help="online adaptation on one study's noise split")
    add_mask_flags(sp)
    sp.set_defaults(func=partial(cmd_training, mode="n2n_online"))

    sp = sub.add_parser("kse-report", help="score a net and sweep drop thresholds")
    sp.add_argument("weights")
    # unset flags stay off args, so KseConfig's defaults apply
    sp.add_argument("--alpha", type=float, default=argparse.SUPPRESS)
    sp.add_argument("--k-neighbors", type=int, default=argparse.SUPPRESS)
    add_common(sp)
    sp.set_defaults(func=cmd_kse_report)

    sp = sub.add_parser("prune-eval", help="drop low-score kernels and measure impact")
    sp.add_argument("weights")
    sp.add_argument("study")
    sp.add_argument(
        "--thresholds", type=float, nargs="+", default=list(SWEEP_THRESHOLDS)
    )
    sp.add_argument("--level", default=None, help="count-level key in the study")
    add_common(sp)
    sp.set_defaults(func=cmd_prune_eval)

    sp = sub.add_parser("evaluate", help="ensemble bias/CoV/MSE of a net on a study")
    sp.add_argument("weights")
    sp.add_argument("study")
    sp.add_argument("--rois", default=None, help="ROI JSON (default: study dir)")
    sp.add_argument("--level", default=None)
    add_common(sp)
    sp.set_defaults(func=cmd_evaluate)
    return p


def _check_out_dir(out: Path) -> None:
    """Fail before a command's work when ``--out`` cannot become a
    directory: the first existing path among it and its parents must be
    one."""
    for path in (out, *out.parents):
        if os.path.exists(path):
            if not os.path.isdir(path):
                raise ConfigError(
                    f"cannot create output directory {out}: {path} is not a directory"
                )
            return


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out:
            _check_out_dir(Path(args.out))
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DataFileError, WeightFileError, NonFiniteLossError, NonFiniteOutputError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
