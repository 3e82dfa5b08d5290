"""The benchmark's workloads, driven through tgdkit's public API.

Each workload draws every input from its seed in ``setup`` and then runs one
repetition of its protocol per call to ``run``. A repetition is a short list
of operations (a protocol call or a CLI command each). The benchmark times
every operation, checks its outputs, and counts an operation that raised or
failed a check as failed. Repetitions of one seed must agree bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tgdkit import cli, kse, masking, model, phantom, training
from tgdkit.model import NetworkConfig
from tgdkit.phantom import ScanProtocol
from tgdkit.training import TrainConfig


class OpFailed(Exception):
    """An operation raised; the rest of its repetition depends on it."""


@dataclass
class Rep:
    """Timings, work counts and checked outputs of one repetition."""

    run_s: float = 0.0
    train_samples: int = 0
    train_s: float = 0.0
    denoise_rates: list[float] = field(default_factory=list)  # slices/s samples
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)  # final_loss, val_mse, ...

    def op(self, name: str, tracer, fn, *args, **kwargs):
        """Run and time one operation; a traced run records it as a span."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = fn(*args, **kwargs)
            else:
                with tracer.span(name):
                    out = fn(*args, **kwargs)
        except Exception as e:  # any exception is a failed operation
            self.failed += 1
            self.problems.append(f"{name}: {type(e).__name__}: {e}")
            raise OpFailed(name) from e
        dt = time.perf_counter() - t0
        self.run_s += dt
        return out, dt

    def check(self, name: str, checks) -> None:
        """Run an operation's output checks; a failed check, or one that
        cannot read the output, makes the operation a failed one."""
        try:
            problems = checks()
        except Exception as e:  # a missing or malformed output
            problems = [f"{type(e).__name__}: {e}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)


def strict_json(text: str):
    """Parse JSON, rejecting the NaN/Infinity extensions Python writes."""
    def reject(const):
        raise ValueError(f"non-standard JSON constant {const}")

    return json.loads(text, parse_constant=reject)


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def finite_net(net) -> bool:
    return all(np.isfinite(arr).all() for _, arr in model._param_arrays(net))


def fingerprint(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def reference_forward(net, x: np.ndarray, mode: str) -> np.ndarray:
    """The network's forward pass in float64, written independently of
    tgdkit.ops: each 3x3 conv is a sum of nine shifted channel contractions."""
    x = x.astype(np.float64)
    _, _, hh, ww = x.shape
    h = x
    for blk in net.blocks:
        w = blk.conv.weights.astype(np.float64)
        hp = np.pad(h, ((0, 0), (0, 0), (1, 1), (1, 1)))
        out = sum(
            np.einsum("nc,bchw->bnhw", w[:, :, i, j], hp[:, :, i:i + hh, j:j + ww],
                      optimize=True)
            for i in range(3) for j in range(3)
        )
        if blk.conv.bias is not None:
            out = out + blk.conv.bias[None, :, None, None]
        if blk.bn is not None:
            bn = blk.bn
            if mode == "train":
                mean, var = out.mean(axis=(0, 2, 3)), out.var(axis=(0, 2, 3))
            else:
                mean, var = bn.running_mean, bn.running_var
            scale = bn.gamma / np.sqrt(var.astype(np.float64) + bn.epsilon)
            out = (out - mean[None, :, None, None]) * scale[None, :, None, None]
            out = out + bn.beta[None, :, None, None]
        if blk.relu:
            out = np.maximum(out, 0.0)
        h = out
    center = net.config.input_slices // 2
    return h + x[:, center:center + 1]


def forward_problems(net, x: np.ndarray) -> list[str]:
    """tgdkit's float32 forward, in both modes, against the float64 reference.
    The tolerance allows float32 rounding in any summation order."""
    problems = []
    for mode in ("train", "infer"):
        ref = reference_forward(net, x, mode)
        err = float(np.abs(model.forward(net, x, mode) - ref).max() / np.abs(ref).max())
        if not err <= 1e-4:
            problems.append(f"{mode}-mode forward is off the float64 reference by {err:.3g}")
    return problems


def check_record(record, epochs: int) -> list[str]:
    problems = []
    if len(record.epoch_losses) != epochs:
        problems.append(f"{len(record.epoch_losses)} epoch losses, expected {epochs}")
    if not all(math.isfinite(v) for v in record.epoch_losses):
        problems.append("non-finite epoch loss")
    return problems


def freeze_problems(base, tuned, masks) -> list[str]:
    """The freeze contract, checked from outside: every channel the mask
    freezes is bit-identical in the base and tuned nets."""
    problems = []
    for i, (a, b) in enumerate(zip(base.blocks, tuned.blocks)):
        frozen = masks.conv_masks[i] == 0
        arrays = [("conv.weights", a.conv.weights, b.conv.weights)]
        if a.conv.bias is not None:
            arrays.append(("conv.bias", a.conv.bias, b.conv.bias))
        if a.bn is not None:
            if not np.array_equal(masks.bn_masks[i], masks.conv_masks[i]):
                problems.append(f"bn mask differs from conv mask in block {i}")
            arrays += [(f"bn.{k}", getattr(a.bn, k), getattr(b.bn, k))
                       for k in ("gamma", "beta", "running_mean", "running_var")]
        problems += [
            f"frozen {what} moved in block {i}"
            for what, x, y in arrays
            if not bitwise_equal(x[frozen], y[frozen])
        ]
    return problems


class _Workload:
    name = ""

    def __init__(self, seed: int, toy: bool):
        self.seed = seed
        self.toy = toy
        self.first: dict = {}  # outputs of the first repetition

    def agree(self, values: dict) -> list[str]:
        """Every repetition of one seed must reproduce the first exactly."""
        return [
            f"{k} differs from the first repetition: {v!r} != {self.first[k]!r}"
            for k, v in values.items()
            if self.first.setdefault(k, v) != v
        ]


class TrainSmall(_Workload):
    """train_scratch at the acceptance fixtures' shape: 5x16 net, 24x24
    images, 3 slices, 13 phantoms (3 held out), six count levels, batch 8;
    then denoising the validation volumes with the net it returns."""

    name = "train-small"

    def setup(self, work: Path) -> str:
        size, n, n_val, self.epochs = (24, 13, 3, 4) if not self.toy else (12, 3, 1, 1)
        rng = np.random.default_rng(self.seed)
        specs = [phantom.random_phantom_spec(rng, size, size, slices=3) for _ in range(n)]
        self.dataset = phantom.build_dataset(
            specs, ScanProtocol(1.5, 1e5, seed=self.seed), n_val=n_val
        )
        self.config = TrainConfig(
            mode="scratch", epochs=self.epochs, batch_size=8, seed=self.seed,
            network=NetworkConfig(5, 16, 3) if not self.toy else NetworkConfig(3, 4, 3),
        )
        pairs = self.dataset.pairs("train") + self.dataset.pairs("val")
        return fingerprint(*(a for pair in pairs for a in pair))

    def run(self, rep: Rep, tracer, work: Path) -> None:
        (net, record), _ = rep.op(
            "train_scratch", tracer, training.train_scratch, self.config, self.dataset
        )
        rep.train_samples += self.epochs * sum(
            x.shape[0] for x, _ in self.dataset.pairs("train")
        )
        rep.train_s += record.wall_time_s
        rep.values.update(final_loss=record.epoch_losses[-1], val_mse=record.val_mse)

        def check_protocol():
            problems = check_record(record, self.epochs)
            if not finite_net(net):
                problems.append("non-finite weights")
            if record.final_hash != model.network_hash(net):
                problems.append("record hash does not match the returned net")
            if not self.first:  # once a run: the reference is slow
                x, _ = training.pairs_to_arrays(
                    self.dataset.pairs("val")[:1], net.config.input_slices
                )
                problems += forward_problems(net, x[:4])
            return problems + self.agree({**rep.values, "hash": record.final_hash})

        rep.check(self.name, check_protocol)

        def denoise_val():
            outs = []
            for sp in self.dataset.val:
                for key in sorted(sp.inputs):
                    t0 = time.perf_counter()
                    out = model.denoise_volume(net, sp.inputs[key])
                    # one sample per volume: the volumes are alike and each
                    # takes milliseconds, so a median over them is steadier
                    # than one total a repetition
                    rep.denoise_rates.append(out.shape[0] / (time.perf_counter() - t0))
                    outs.append((out, sp))
            return outs

        outs, _ = rep.op("denoise_val", tracer, denoise_val)
        rep.values["eval_mse_vs_truth"] = float(np.mean([
            ((out.astype(np.float64) - sp.truth.astype(np.float64)) ** 2).mean()
            for out, sp in outs
        ]))

        def check_denoise():
            # the same reduction as training.eval_pairs_mse, so the
            # protocol's own validation MSE must come out bit for bit
            sq = sum(float(((out - sp.target) ** 2).astype(np.float64).sum())
                     for out, sp in outs)
            val_mse = sq / sum(out.size for out, _ in outs)
            problems = []
            if val_mse != record.val_mse:
                problems.append(f"val MSE {val_mse!r} != record {record.val_mse!r}")
            if not math.isfinite(rep.values["eval_mse_vs_truth"]):
                problems.append("non-finite MSE against the truth")
            return problems + self.agree({"eval_mse_vs_truth": rep.values["eval_mse_vs_truth"]})

        rep.check("denoise_val", check_denoise)


class CliStudyEval(_Workload):
    """The README flow through ``tgdkit.cli.main`` at 128x128x5: gen-data
    (a probe study with realizations and an n2n split), a short n2n, then
    evaluate and prune-eval at an explicit level, with a 6x16 net trained
    during setup."""

    name = "cli-study-eval"
    # evaluate and prune-eval default to max(study.realizations), which
    # compares the keys as strings and picks "n2n" over the count levels
    LEVEL = "0.25"
    N_REALIZATIONS = 6
    THRESHOLDS = (0.3, 0.4, 0.5, 0.6)
    PHI = 0.5  # n2n's KSE threshold

    def setup(self, work: Path) -> str:
        work.mkdir(parents=True, exist_ok=True)
        self.size, self.slices = (128, 5) if not self.toy else (24, 3)
        self.epochs = 1
        self.net_cfg = NetworkConfig(6, 16, 3) if not self.toy else NetworkConfig(3, 4, 3)
        rng = np.random.default_rng(self.seed)
        specs = [phantom.random_phantom_spec(rng, 32, 32, slices=5) for _ in range(4)]
        dataset = phantom.build_dataset(
            specs, ScanProtocol(1.5, 1e5, seed=self.seed), count_levels=(0.1, 0.3), n_val=1
        )
        base, record = training.train_scratch(
            TrainConfig(mode="scratch", epochs=3, batch_size=8, seed=self.seed,
                        network=self.net_cfg),
            dataset,
        )
        self.base_val_mse = record.val_mse
        self.weights = work / "base.tgdw"
        model.save_weights(base, self.weights)
        # the mask n2n trains under, rebuilt from the written weights to
        # check the freeze contract on its output
        self.base = model.load_weights(self.weights)
        self.masks = masking.build_masks(
            self.base, kse.kse_scores(self.base, kse.KseConfig()), self.PHI
        )
        return cli.sha256_file(self.weights)

    def run(self, rep: Rep, tracer, work: Path) -> None:
        work.mkdir(parents=True, exist_ok=True)
        data, tuned, ev, prune = (work / d for d in ("data", "n2n", "eval", "prune"))
        study = self.study = data / "studies" / "probe"
        gen = {
            "seed": self.seed,
            "image": {"height": self.size, "width": self.size, "slices": self.slices},
            "protocol": {"psf_sigma": 1.5, "count_budget": 2e5},
            "phantoms": {"n_train": 1, "n_val": 0},
            "count_levels": [0.1],
            "test_studies": [{
                "name": "probe", "n_realizations": self.N_REALIZATIONS,
                "count_levels": [float(self.LEVEL)], "n2n_split": True,
                "ood_lesion": {"center": [0.3 * self.size, 0.65 * self.size],
                               "radius": max(2.0, 0.05 * self.size), "contrast": 4.0},
            }],
        }
        n2n = {
            "study": str(study), "weights": str(self.weights), "seed": self.seed,
            "epochs": self.epochs, "batch_size": 8, "phi": self.PHI,
            "network": {"depth": self.net_cfg.depth, "channels": self.net_cfg.channels,
                        "input_slices": self.net_cfg.input_slices},
        }
        (work / "gen.json").write_text(json.dumps(gen))
        (work / "n2n.json").write_text(json.dumps(n2n))
        rep.values["val_mse"] = self.base_val_mse

        self.command(rep, tracer, "gen-data", [str(work / "gen.json"), "--out", str(data)],
                     data, lambda: [])
        self.command(rep, tracer, "n2n", [str(work / "n2n.json"), "--out", str(tuned)],
                     tuned, lambda: self.check_n2n(rep, tuned))
        dt = self.command(
            rep, tracer, "evaluate",
            [str(tuned / "weights.tgdw"), str(study), "--level", self.LEVEL, "--out", str(ev)],
            ev, lambda: self.check_evaluate(rep, ev),
        )
        dt += self.command(
            rep, tracer, "prune-eval",
            [str(self.weights), str(study), "--level", self.LEVEL, "--out", str(prune),
             "--thresholds", *map(str, self.THRESHOLDS)],
            prune, lambda: self.check_prune(prune),
        )
        # evaluate denoises every realization; prune-eval a reference and
        # one volume per threshold
        slices = (self.N_REALIZATIONS + 1 + len(self.THRESHOLDS)) * self.slices
        rep.denoise_rates.append(slices / dt)

    def command(self, rep: Rep, tracer, sub: str, argv: list[str], out: Path, checks) -> float:
        """One CLI command in-process, its stdout kept off the report; a
        nonzero exit code fails it and ends the repetition."""
        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main([sub, *argv])

        code, dt = rep.op(f"cli.{sub}", tracer, call)
        if code != 0:
            rep.check(f"cli.{sub}", lambda: [f"exit code {code}"])
            raise OpFailed(sub)
        rep.check(f"cli.{sub}", lambda: self.manifest_problems(out) + checks())
        return dt

    @staticmethod
    def manifest_problems(out: Path) -> list[str]:
        """The manifest is strict JSON and hashes every input and output
        as they are on disk."""
        doc = strict_json((out / "manifest.json").read_text())
        return [
            f"manifest sha256 of {kind} {name} does not match the file"
            for kind in ("inputs", "outputs")
            for name, entry in doc[kind].items()
            if cli.sha256_file(entry["path"]) != entry["sha256"]
        ]

    def check_n2n(self, rep: Rep, out: Path) -> list[str]:
        lines = [strict_json(line) for line in (out / "record.jsonl").read_text().splitlines()]
        losses = [line["loss"] for line in lines[:-1]]
        final_hash = lines[-1]["final_hash"]
        rep.values["final_loss"] = losses[-1]
        rep.train_samples += self.epochs * 2 * self.slices  # both realizations
        rep.train_s += strict_json((out / "manifest.json").read_text())["wall_time_s"]
        net = model.load_weights(out / "weights.tgdw")
        problems = []
        if len(losses) != self.epochs or not all(math.isfinite(v) for v in losses):
            problems.append(f"bad epoch losses {losses}")
        if not finite_net(net):
            problems.append("non-finite weights")
        if final_hash != model.network_hash(net):
            problems.append("record hash does not match the written weights")
        problems += freeze_problems(self.base, net, self.masks)
        if not 0.0 < self.masks.retrained_fraction() < 1.0:
            problems.append(f"mask is not partial: {self.masks.retrained_fraction()}")
        if not self.first:  # once a run: the reference is slow
            study = phantom.load_study(self.study)
            vol = study.realizations[self.LEVEL][0]
            problems += forward_problems(net, training.volume_to_samples(vol, 3))
        return problems + self.agree({"final_loss": losses[-1], "hash": final_hash})

    def check_evaluate(self, rep: Rep, out: Path) -> list[str]:
        doc = strict_json((out / "metrics.json").read_text())
        rep.values["eval_mse_vs_truth"] = doc["mse_vs_truth"]
        problems = []
        if doc["level"] != self.LEVEL or doc["n_realizations"] != self.N_REALIZATIONS:
            problems.append(f"evaluated {doc['n_realizations']} x {doc['level']}")
        for k in ("mse_vs_truth", "psnr_db", "lesion_bias_pct", "background_cov_pct"):
            if not isinstance(doc.get(k), float) or not math.isfinite(doc[k]):
                problems.append(f"{k} is {doc.get(k)!r}")
        return problems + self.agree({"eval_mse_vs_truth": doc["mse_vs_truth"]})

    def check_prune(self, out: Path) -> list[str]:
        rows = strict_json((out / "prune_eval.json").read_text())["rows"]
        fractions = [r["dropped_fraction"] for r in rows]
        problems = []
        if [r["threshold"] for r in rows] != list(self.THRESHOLDS):
            problems.append("prune-eval rows do not match the thresholds")
        if fractions != sorted(fractions):
            problems.append(f"dropped fraction decreases with threshold: {fractions}")
        if not all(math.isfinite(r["mse_vs_truth"]) for r in rows):
            problems.append("non-finite prune-eval MSE")
        return problems


WORKLOADS = {w.name: w for w in (TrainSmall, CliStudyEval)}
