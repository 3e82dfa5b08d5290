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
manifest, which is written last. Every config file is read by
``read_config`` into its dataclass, and the manifest's ``config`` holds that
dataclass with every field, defaults included (or for the commands without
a config file their arguments), so a run can be reproduced byte for byte
from the manifest alone. The manifest hashes the file each input and output
entry names; for a dataset or a study that is its JSON sidecar only, not
the volumes. Every JSON file written is strict JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from collections.abc import Callable
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from functools import partial
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

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
    LESION_CONTRAST,
    LESION_RADIUS,
    N_LESIONS,
    N_REALIZATIONS,
    SLICES,
    STUDY_COUNT_LEVELS,
    DataFileError,
    Lesion,
    PhantomSpec,
    ScanProtocol,
    background_voxels,
    build_dataset,
    has_kind,
    is_bare_name,
    json_text,
    lesion_voxels,
    level_keys,
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


def read_config(doc, cls, path: str = ""):
    """The config dataclass ``cls`` read from ``doc``, the JSON object at
    dotted ``path`` in a config file. A field reads the key of its name or
    of the ``spelling`` in its metadata, not both. A section dataclass
    recurses (an absent one reads as ``{}``), ``X | None`` reads null, a
    tuple a JSON list, and a leaf a JSON value of its kind (see
    ``has_kind``); an int read for a float becomes a float. Every error is
    a ConfigError naming the dotted path; ``cls``'s checks begin each
    message with the field it rejects, which the error turns into a path."""
    if type(doc) is not dict:
        raise ConfigError(f"field {path} must be an object, got {doc!r}")
    prefix = f"{path}." if path else ""
    keys = {key for f in fields(cls) for key in (f.name, f.metadata.get("spelling")) if key}
    for key in doc:
        if key not in keys:
            raise ConfigError(f"unknown field: {prefix}{key}")
    hints = get_type_hints(cls)
    kw, used = {}, {}
    for f in fields(cls):
        spelled = [key for key in (f.name, f.metadata.get("spelling")) if key in doc]
        if len(spelled) > 1:
            raise ConfigError(f"field {prefix}{f.name} is set twice, also as {prefix}{spelled[1]}")
        kind = hints[f.name]
        if spelled:
            used[f.name] = spelled[0]
            kw[f.name] = _read(doc[spelled[0]], kind, prefix + spelled[0])
        elif is_dataclass(kind):
            kw[f.name] = read_config({}, kind, prefix + f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing field: {prefix}{f.name}")
    try:
        return cls(**kw)
    except ValueError as e:
        name, _, rest = str(e).partition(" ")
        raise ConfigError(f"field {prefix}{used.get(name, name)} {rest}") from e


def _read(value, kind, path: str):
    """The value of the config field at dotted ``path``, of type ``kind``,
    read from JSON ``value`` as ``read_config`` describes."""
    args = get_args(kind)
    if value is None and type(None) in args:
        return None
    if get_origin(kind) is tuple:  # tuple[X, ...], or of a fixed size as tuple[X, X]
        size = "" if args[-1] is Ellipsis else f" of {len(args)}"
        if type(value) is not list or size and len(value) != len(args):
            raise ConfigError(f"field {path} must be a list{size}, got {value!r}")
        return tuple(_read(item, args[0], f"{path}.{i}") for i, item in enumerate(value))
    section = next(filter(is_dataclass, (kind, *args)), None)
    if section is not None:
        return read_config(value, section, path)
    if not has_kind(value, kind):
        raise ConfigError(f"field {path} must be {kind if args else kind.__name__}, got {value!r}")
    return float(value) if type(value) is int and float in (kind, *args) else value


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
    written, and an OSError while writing is one naming the path."""
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
    try:
        for key, (_, content) in outputs.items():
            target = written[key]
            if isinstance(content, str):
                target.write_text(content)
            else:
                content(target)
        target = out / "manifest.json"
        write_manifest(out, args.subcommand, resolved, inputs, written, wall_time_s)
    except OSError as e:
        raise ConfigError(f"cannot write output {e.filename or target}: {e.strerror}") from e
    print(message(out))
    return 0


def _train_config(cfg: dict, mode: str) -> tuple[dict[str, Path], TrainConfig]:
    """A training run's input paths (its ``dataset`` or ``study``, and the
    ``weights`` it starts from), taken out of its config ``cfg``, and its
    TrainConfig, read from the rest. ``mode`` may be set (a manifest echoes
    it) only to the command's own mode."""
    keys = ["study" if mode == "n2n_online" else "dataset", "weights"][: 1 + (mode != "scratch")]
    paths = {}
    for key in keys:
        if key not in cfg:
            raise ConfigError(f"missing field: {key}")
        paths[key] = Path(_read(cfg.pop(key), str, key))
    tc = read_config({"mode": mode, **cfg}, TrainConfig)
    if tc.mode != mode:
        raise ConfigError(f"field mode must be {mode!r} here, got {tc.mode!r}")
    return paths, tc


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

def _at_least(config, **bounds) -> None:
    """A ValueError naming the first field of ``config`` below its bound."""
    for name, low in bounds.items():
        if getattr(config, name) < low:
            raise ValueError(f"{name} must be >= {low}, got {getattr(config, name)}")


@dataclass(frozen=True)
class ImageConfig:
    height: int
    width: int
    slices: int = SLICES

    def __post_init__(self):
        PhantomSpec(self.height, self.width, self.slices)  # its size checks


@dataclass(frozen=True)
class PhantomsConfig:
    n_train: int
    n_val: int = 0
    n_lesions: int = N_LESIONS
    lesion_radius: float = LESION_RADIUS
    lesion_contrast: float = LESION_CONTRAST

    def __post_init__(self):
        _at_least(self, n_train=1, n_val=0, n_lesions=0)
        try:  # a drawn lesion's checks, made even when none is drawn
            Lesion((0.0, 0.0), self.lesion_radius, self.lesion_contrast)
        except ValueError as e:
            raise ValueError(f"lesion_{e}")


@dataclass(frozen=True)
class TestStudyConfig:
    name: str  # the study is written to studies/<name> below --out
    n_lesions: int = N_LESIONS  # the study's own, not the dataset's
    count_levels: tuple[float, ...] = STUDY_COUNT_LEVELS
    n_realizations: int = N_REALIZATIONS
    n2n_split: bool = False
    ood_lesion: Lesion | None = None  # added to the drawn lesions

    def __post_init__(self):
        if not is_bare_name(self.name):
            raise ValueError(f"name must be a bare directory name, got {self.name!r}")
        _at_least(self, n_lesions=0, n_realizations=1)
        level_keys(self.count_levels)


@dataclass(frozen=True)
class GenDataConfig:
    seed: int
    image: ImageConfig
    protocol: ScanProtocol  # its seed is ``seed``, which it defaults to
    phantoms: PhantomsConfig
    count_levels: tuple[float, ...] = DATASET_COUNT_LEVELS
    test_studies: tuple[TestStudyConfig, ...] = ()

    def __post_init__(self):
        if (got := self.protocol.seed) != self.seed:
            raise ValueError(f"protocol.seed must equal seed ({self.seed}), got {got}")
        if not level_keys(self.count_levels):
            raise ValueError("count_levels must be nonempty")
        names = [study.name for study in self.test_studies]
        for i, study in enumerate(self.test_studies):
            if study.name in names[:i]:
                raise ValueError(f"test_studies.{i}.name must be unique, got {study.name!r} again")
            if study.ood_lesion is not None:
                try:
                    PhantomSpec(self.image.height, self.image.width, lesions=(study.ood_lesion,))
                except ValueError as e:
                    raise ValueError(f"test_studies.{i}.ood_lesion must be in the image: {e}")


def _gen_data_config(doc: dict) -> GenDataConfig:
    """gen-data's config, whose ``protocol.seed`` defaults to ``seed``."""
    if type(doc.get("protocol")) is dict and "seed" in doc:
        doc = {**doc, "protocol": {"seed": doc["seed"], **doc["protocol"]}}
    return read_config(doc, GenDataConfig)


def cmd_gen_data(args) -> int:
    config = _gen_data_config(load_config(args.config))
    image, phantoms, protocol = config.image, config.phantoms, config.protocol
    rng = np.random.default_rng(config.seed)

    draw = partial(  # draw(n_lesions) -> one phantom's spec
        random_phantom_spec, rng, image.height, image.width, image.slices,
        lesion_radius=phantoms.lesion_radius, lesion_contrast=phantoms.lesion_contrast,
    )
    specs = [draw(phantoms.n_lesions) for _ in range(phantoms.n_train + phantoms.n_val)]
    dataset = build_dataset(specs, protocol, config.count_levels, n_val=phantoms.n_val)
    outputs = {"dataset": ("dataset/dataset.json", lambda p: save_dataset(dataset, p.parent))}
    for test in config.test_studies:
        spec = draw(test.n_lesions)
        ood = test.ood_lesion
        if ood is not None:
            spec = replace(spec, lesions=spec.lesions + (ood,))
        study = make_study(spec, protocol, test.count_levels, test.n_realizations, test.n2n_split)
        try:
            rois = {"lesion": Roi(lesion_voxels(spec)), "background": Roi(background_voxels(spec))}
        except ValueError as e:
            raise ConfigError(f"test study {test.name!r}: {e}") from e
        if ood is not None:
            rois["ood_lesion"] = Roi(lesion_voxels(replace(spec, lesions=(ood,))))

        def write_study(path, study=study, rois=rois):
            save_study(study, path.parent)
            save_rois(rois, path.parent / "rois.json")

        outputs[f"study:{test.name}"] = (f"studies/{test.name}/study.json", write_study)
    return write_run(args, asdict(config), {}, outputs, lambda out: f"dataset written to {out}")


# ------------------------------------------------ train, tgd-finetune, n2n


def cmd_training(args, mode: str) -> int:
    """One training run of any protocol: from scratch or TGD fine-tuning
    on a dataset, or online N2N on a study's two-realization split."""
    paths, tc = _train_config(load_config(args.config), mode)
    flags = {f.name: getattr(args, f.name, None) for f in fields(tc)}  # named after fields
    tc = replace(tc, **{name: value for name, value in flags.items() if value is not None})
    resolved = {**{key: str(path) for key, path in paths.items()}, **asdict(tc)}
    source, source_dir = next(iter(paths.items()))  # the dataset or the study
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
        inputs["weights"] = paths["weights"]
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
    kse = KseConfig(**{f.name: getattr(args, f.name) for f in fields(KseConfig) if f.name in args})
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
        sp.add_argument(
            "--phi", dest="kse_threshold", type=float, default=None, help="KSE threshold"
        )
        freeze = sp.add_mutually_exclusive_group()
        freeze.add_argument(
            "--freeze-last-layer", dest="last_layer_frozen",
            action="store_true", default=None,
        )
        freeze.add_argument(
            "--no-freeze-last-layer", dest="last_layer_frozen", action="store_false"
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
