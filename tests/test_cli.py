"""End-to-end CLI tests: exit codes, manifests, reproducibility."""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import asdict, fields, is_dataclass
from functools import partial
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tgdkit
from tgdkit import cli
from tgdkit.cli import main, sha256_file
from tgdkit.kse import kse_scores
from tgdkit.masking import MaskSet, all_ones_masks
from tgdkit.model import NetworkConfig, build_network, load_weights, network_hash, save_weights
from tgdkit.phantom import ScanProtocol, Study, json_text, save_study
from tgdkit.metrics import Roi, save_rois
from tgdkit.training import TrainConfig, TrainRecord

from test_model import CORRUPTIONS, saved_3x4

NET = {"depth": 3, "channels": 4, "input_slices": 3}


def strict_json(text):
    """json.loads that rejects NaN and +-Infinity, which are not JSON."""

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def gen_config(tmp, **overrides):
    cfg = {
        "seed": 5,
        "image": {"height": 16, "width": 16, "slices": 3},
        "protocol": {"psf_sigma": 1.2, "count_budget": 5e4},
        "phantoms": {"n_train": 2, "n_val": 1, "n_lesions": 1},
        "count_levels": [0.1, 0.3],
        "test_studies": [
            {"name": "probe", "n_realizations": 3, "count_levels": [1.0], "n2n_split": True}
        ],
    }
    cfg.update(overrides)
    p = tmp / "gen.json"
    p.write_text(json.dumps(cfg))
    return p


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset + one scratch-trained net shared by the tests."""
    tmp = tmp_path_factory.mktemp("cliws")
    assert main(["gen-data", str(gen_config(tmp)), "--out", str(tmp / "data")]) == 0
    train_cfg = {
        "dataset": str(tmp / "data" / "dataset"),
        "seed": 2,
        "epochs": 5,
        "batch_size": 4,
        "network": NET,
    }
    (tmp / "train.json").write_text(json.dumps(train_cfg))
    assert main(["train", str(tmp / "train.json"), "--out", str(tmp / "base")]) == 0
    return tmp


class TestGenData:
    def test_valid_config_writes_manifest(self, workspace):
        manifest = json.loads((workspace / "data" / "manifest.json").read_text())
        assert manifest["subcommand"] == "gen-data"
        assert manifest["outputs"]
        assert (workspace / "data" / "dataset" / "dataset.json").exists()
        assert (workspace / "data" / "studies" / "probe" / "rois.json").exists()

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        assert main(["gen-data", str(gen_config(tmp_path)), "--out", str(tmp_path / "again")]) == 0
        a = workspace / "data" / "dataset"
        b = tmp_path / "again" / "dataset"
        for fa in sorted(a.rglob("*.f32")):
            fb = b / fa.relative_to(a)
            assert fa.read_bytes() == fb.read_bytes(), fa.name

    def test_missing_field_names_it(self, tmp_path, capsys):
        cfg = {"seed": 1, "image": {"height": 16, "width": 16}}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        assert main(["gen-data", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "protocol.psf_sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_failing_run_writes_nothing(self, tmp_path, capsys, seed):
        # on a 12x12 image the background ROI's margins cover the whole
        # body, which is found only after the dataset and study are built
        cfg = gen_config(
            tmp_path, seed=seed,
            image={"height": 12, "width": 12, "slices": 3},
            phantoms={"n_train": 1, "n_lesions": 2},
            test_studies=[{"name": "probe", "n_lesions": 2}],
        )
        assert main(["gen-data", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "test study 'probe': background region is empty" in capsys.readouterr().err
        assert not list(tmp_path.rglob("dataset.json"))
        assert not list(tmp_path.rglob("study.json"))

    @pytest.mark.parametrize(
        "section,field,value,named",
        [
            ("phantoms", "n_train", -1, "phantoms.n_train"),
            ("phantoms", "n_lesions", -1, "n_lesions"),
            ("phantoms", "lesion_radius", -3, "phantoms.lesion_radius"),
            ("phantoms", "lesion_contrast", -2, "lesion_contrast"),
            ("test_studies", "n_realizations", 0, "n_realizations"),
            ("test_studies", "count_levels", [0], "count_levels"),
            (None, "count_levels", [0], "count_levels"),
            ("image", "slices", 0, "slices"),
            (None, "seed", -1, "seed"),
        ],
        ids=[
            "n_train", "n_lesions", "lesion_radius", "lesion_contrast",
            "n_realizations", "study_count_levels", "count_levels", "slices", "seed",
        ],
    )
    def test_count_or_size_below_its_minimum_is_config_error_and_writes_nothing(
        self, tmp_path, capsys, section, field, value, named
    ):
        cfg = gen_config(tmp_path)
        doc = json.loads(cfg.read_text())
        node = doc[section] if section else doc
        (node[0] if section == "test_studies" else node)[field] = value
        cfg.write_text(json.dumps(doc))
        assert main(["gen-data", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"{named} must be" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [cfg]

    @pytest.mark.parametrize("levels", [[0.1, 0.1], [0.1, 0.1000001]], ids=["same", "same_key"])
    @pytest.mark.parametrize("study", [False, True], ids=["dataset", "test_study"])
    def test_levels_of_one_level_key_are_config_error_and_write_nothing(
        self, tmp_path, capsys, study, levels
    ):
        # a level's scans are stored under its level key, so a second level
        # with the same key would replace the first
        cfg = gen_config(tmp_path)
        doc = json.loads(cfg.read_text())
        (doc["test_studies"][0] if study else doc)["count_levels"] = levels
        cfg.write_text(json.dumps(doc))
        assert main(["gen-data", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "count_levels must be distinct" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [cfg]

    @pytest.mark.parametrize(
        "change,named",
        [
            ({"contrast": -1}, "field test_studies.0.ood_lesion.contrast must be finite and >= 0"),
            ({"radius": 0}, "field test_studies.0.ood_lesion.radius must be > 0"),
            ({"center": [1, 1]}, "field test_studies.0.ood_lesion must be in the image"),
        ],
        ids=["contrast", "radius", "center"],
    )
    def test_bad_ood_lesion_is_config_error_naming_it_and_the_study(
        self, tmp_path, capsys, change, named
    ):
        ood = {"center": [8.0, 8.0], "radius": 2.0, "contrast": 3.0, **change}
        cfg = gen_config(tmp_path, test_studies=[{"name": "probe", "ood_lesion": ood}])
        assert main(["gen-data", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {named}" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [cfg]

    @pytest.mark.parametrize(
        "names", [["../x"], ["a/b"], [""], ["."], [".."], ["probe", "probe"]],
        ids=["parent", "nested", "empty", "dot", "dotdot", "duplicate"],
    )
    def test_bad_study_name_is_config_error_and_writes_nothing(self, tmp_path, capsys, names):
        # a study is written to studies/<name> below --out, one per name
        cfg = gen_config(tmp_path, test_studies=[{"name": n} for n in names])
        assert main(["gen-data", str(cfg), "--out", str(tmp_path / "out" / "run")]) == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [cfg]

    def test_runs_without_scipy(self, workspace, tmp_path):
        """numpy is the only runtime dependency: with scipy unimportable the
        CLI imports, and gen-data writes the same dataset and study bytes."""
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None  # every scipy import now fails\n"
            "from tgdkit import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        src = str(Path(tgdkit.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["gen-data", str(gen_config(tmp_path)), "--out", str(tmp_path / "o")]
        run = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True,
            text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr

        def files(root):
            return {
                p.relative_to(root): p.read_bytes()
                for p in root.rglob("*") if p.is_file() and p.name != "manifest.json"
            }

        expected = files(workspace / "data")
        assert (Path("dataset") / "dataset.json") in expected
        assert files(tmp_path / "o") == expected


class TestTrain:
    def test_weights_and_record_written(self, workspace):
        out = workspace / "base"
        assert (out / "weights.tgdw").exists()
        assert (out / "record.jsonl").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["mode"] == "scratch"

    def test_rerun_reproduces_weights(self, workspace, tmp_path):
        assert main(["train", str(workspace / "train.json"), "--out", str(tmp_path / "o")]) == 0
        a = (workspace / "base" / "weights.tgdw").read_bytes()
        b = (tmp_path / "o" / "weights.tgdw").read_bytes()
        assert a == b

    def test_missing_dataset_is_data_error(self, tmp_path):
        cfg = {"dataset": str(tmp_path / "nope"), "network": NET}
        p = tmp_path / "t.json"
        p.write_text(json.dumps(cfg))
        assert main(["train", str(p), "--out", str(tmp_path / "o")]) == 3

    def test_nan_voxel_is_data_error_and_writes_nothing(self, workspace, tmp_path, capsys):
        shutil.copytree(workspace / "data" / "dataset", tmp_path / "dataset")
        f = tmp_path / "dataset" / "phantom_000" / "input_0.1.f32"
        vol = np.frombuffer(f.read_bytes(), dtype="<f4").copy()
        vol[7] = np.nan
        f.write_bytes(vol.tobytes())
        cfg = json.loads((workspace / "train.json").read_text())
        cfg["dataset"] = str(tmp_path / "dataset")
        p = tmp_path / "t.json"
        p.write_text(json.dumps(cfg))
        assert main(["train", str(p), "--out", str(tmp_path / "o")]) == 3
        assert "input_0.1.f32: non-finite values" in capsys.readouterr().err
        assert not list(tmp_path.rglob("record.jsonl"))

    def test_nan_in_validation_phantom_is_data_error(self, workspace, tmp_path, capsys):
        # phantom_002 is the one validation phantom (n_train 2, n_val 1)
        shutil.copytree(workspace / "data" / "dataset", tmp_path / "dataset")
        f = tmp_path / "dataset" / "phantom_002" / "input_0.1.f32"
        vol = np.frombuffer(f.read_bytes(), dtype="<f4").copy()
        vol[3] = np.nan
        f.write_bytes(vol.tobytes())
        cfg = json.loads((workspace / "train.json").read_text())
        cfg["dataset"] = str(tmp_path / "dataset")
        p = tmp_path / "t.json"
        p.write_text(json.dumps(cfg))
        assert main(["train", str(p), "--out", str(tmp_path / "o")]) == 3
        assert "data error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_zero_epochs_writes_seed_initialized_network(self, workspace, tmp_path):
        argv = ["train", str(workspace / "train.json"), "--epochs", "0"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 0
        net = load_weights(tmp_path / "o" / "weights.tgdw")
        assert network_hash(net) == network_hash(build_network(NetworkConfig(**NET), 2))

    @pytest.mark.parametrize("sub", ["train", "n2n"])
    def test_negative_seed_flag_is_config_error_before_loading(
        self, workspace, tmp_path, capsys, monkeypatch, sub
    ):
        def never(*args, **kwargs):
            raise AssertionError("loaded inputs although the seed is invalid")

        monkeypatch.setattr(cli, "load_dataset", never)
        monkeypatch.setattr(cli, "load_study", never)
        (tmp_path / "c.json").write_text(json.dumps({
            "train": lambda: json.loads((workspace / "train.json").read_text()),
            "n2n": lambda: n2n_config(workspace),
        }[sub]()))
        argv = [sub, str(tmp_path / "c.json"), "--seed", "-1", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "config error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_uncreatable_out_dir_is_config_error(
        self, workspace, tmp_path, capsys, monkeypatch, out
    ):
        def never(*args, **kwargs):
            raise AssertionError("trained although --out cannot be a directory")

        monkeypatch.setattr(cli, "train_scratch", never)  # fail before the work
        (tmp_path / "file").write_text("x")
        argv = ["train", str(workspace / "train.json"), "--out", str(tmp_path / out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot create output directory {tmp_path / out}" in err
        assert [f.name for f in tmp_path.iterdir()] == ["file"]
        assert (tmp_path / "file").read_text() == "x"


class TestRunTargets:
    @pytest.mark.parametrize("name", ["kse_report.json", "sweep.json", "manifest.json"])
    def test_output_that_is_a_directory_is_config_error(
        self, workspace, tmp_path, capsys, name
    ):
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        argv = ["kse-report", str(workspace / "base" / "weights.tgdw"), "--out", str(out)]
        assert main(argv) == 2
        assert f"config error: output {out / name} is a directory" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [name]

    def test_output_that_cannot_be_written_is_config_error_naming_it(
        self, workspace, tmp_path, capsys
    ):
        # a dangling symlink into a missing directory passes the checks made
        # before writing; the outputs written before it may remain
        out = tmp_path / "o"
        out.mkdir()
        (out / "sweep.txt").symlink_to(tmp_path / "missing" / "sweep.txt")
        argv = ["kse-report", str(workspace / "base" / "weights.tgdw"), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot write output {out / 'sweep.txt'}: " in err
        assert not (out / "manifest.json").exists()


class TestTgdFinetune:
    def test_phi_zero_keeps_weights_hash(self, workspace, tmp_path):
        cfg = {
            "dataset": str(workspace / "data" / "dataset"),
            "weights": str(workspace / "base" / "weights.tgdw"),
            "seed": 3,
            "epochs": 3,
            "batch_size": 4,
            "network": NET,
            "freeze_last_layer": True,
        }
        p = tmp_path / "ft.json"
        p.write_text(json.dumps(cfg))
        assert main(["tgd-finetune", str(p), "--phi", "0", "--out", str(tmp_path / "o")]) == 0
        before = load_weights(workspace / "base" / "weights.tgdw")
        after = load_weights(tmp_path / "o" / "weights.tgdw")
        assert network_hash(before) == network_hash(after)
        masks = json.loads((tmp_path / "o" / "masks.json").read_text())
        assert all(not any(m) for m in masks["conv_masks"])

    def test_zero_epochs_keeps_input_net(self, workspace, tmp_path):
        cfg = {
            "dataset": str(workspace / "data" / "dataset"),
            "weights": str(workspace / "base" / "weights.tgdw"),
            "phi": 0.5,
            "network": NET,
        }
        p = tmp_path / "ft.json"
        p.write_text(json.dumps(cfg))
        assert main(["tgd-finetune", str(p), "--epochs", "0", "--out", str(tmp_path / "o")]) == 0
        before = load_weights(workspace / "base" / "weights.tgdw")
        after = load_weights(tmp_path / "o" / "weights.tgdw")
        assert network_hash(before) == network_hash(after)

    def test_missing_phi_is_config_error(self, workspace, tmp_path, capsys):
        cfg = {
            "dataset": str(workspace / "data" / "dataset"),
            "weights": str(workspace / "base" / "weights.tgdw"),
            "network": NET,
        }
        p = tmp_path / "ft.json"
        p.write_text(json.dumps(cfg))
        assert main(["tgd-finetune", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "kse_threshold" in capsys.readouterr().err

    def test_incompatible_weights_exit_3(self, workspace, tmp_path):
        other = build_network(NetworkConfig(depth=4, channels=6), seed=0)
        save_weights(other, tmp_path / "other.tgdw")
        cfg = {
            "dataset": str(workspace / "data" / "dataset"),
            "weights": str(tmp_path / "other.tgdw"),
            "phi": 0.3,
            "network": NET,
        }
        p = tmp_path / "ft.json"
        p.write_text(json.dumps(cfg))
        assert main(["tgd-finetune", str(p), "--out", str(tmp_path / "o")]) == 3


class TestN2n:
    def test_zero_epochs_returns_input_net(self, workspace, tmp_path):
        cfg = {
            "study": str(workspace / "data" / "studies" / "probe"),
            "weights": str(workspace / "base" / "weights.tgdw"),
            "phi": 0.4,
            "seed": 1,
            "network": NET,
        }
        p = tmp_path / "n2n.json"
        p.write_text(json.dumps(cfg))
        assert main(["n2n", str(p), "--epochs", "0", "--out", str(tmp_path / "o")]) == 0
        before = load_weights(workspace / "base" / "weights.tgdw")
        after = load_weights(tmp_path / "o" / "weights.tgdw")
        assert network_hash(before) == network_hash(after)

    def test_study_without_split_is_data_error(self, workspace, tmp_path):
        study = Study(
            truth=np.zeros((3, 8, 8), np.float32),
            realizations={"1": np.zeros((1, 3, 8, 8), np.float32)},
            protocol=ScanProtocol(1.0, 1e4, seed=0),
        )
        save_study(study, tmp_path / "study")
        cfg = {
            "study": str(tmp_path / "study"),
            "weights": str(workspace / "base" / "weights.tgdw"),
            "phi": 0.4,
            "network": NET,
        }
        p = tmp_path / "n2n.json"
        p.write_text(json.dumps(cfg))
        assert main(["n2n", str(p), "--out", str(tmp_path / "o")]) == 3

    def test_missing_study_creates_no_out_dir(self, workspace, tmp_path):
        cfg = {
            "study": str(tmp_path / "nostudy"),
            "weights": str(workspace / "base" / "weights.tgdw"),
            "phi": 0.4,
            "network": NET,
        }
        p = tmp_path / "n2n.json"
        p.write_text(json.dumps(cfg))
        assert main(["n2n", str(p), "--out", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o").exists()


class TestKseReport:
    def test_report_validates_against_shipped_schema(self, workspace, tmp_path):
        import jsonschema
        from importlib import resources

        assert main([
            "kse-report", str(workspace / "base" / "weights.tgdw"),
            "--out", str(tmp_path / "o"),
        ]) == 0
        doc = json.loads((tmp_path / "o" / "kse_report.json").read_text())
        schema = json.loads(
            resources.files("tgdkit").joinpath("schemas/kse_report.schema.json").read_text()
        )
        jsonschema.validate(doc, schema)

    def test_default_out_dir_is_named_by_subcommand_time_and_config(
        self, workspace, tmp_path, monkeypatch
    ):
        # without --out a run goes to runs/<subcommand>-<UTC stamp>-<hash8>,
        # the first 8 hex digits of the hash of the manifest's config
        weights = workspace / "base" / "weights.tgdw"
        monkeypatch.chdir(tmp_path)
        stamp = lambda: time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        before = stamp()
        assert main(["kse-report", str(weights)]) == 0
        after = stamp()
        (run,) = (tmp_path / "runs").iterdir()
        name = re.fullmatch(r"kse-report-(\d{8}T\d{6})-([0-9a-f]{8})", run.name)
        assert name and before <= name[1] <= after
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["subcommand"] == "kse-report"
        assert manifest["config"]["weights"] == str(weights)
        assert name[2] == cli._config_hash(manifest["config"])[:8]
        assert sorted(manifest["outputs"]) == ["kse_report", "sweep", "sweep_table"]
        for entry in manifest["outputs"].values():
            assert Path(entry["path"]).parent == Path("runs") / run.name
            assert entry["sha256"] == sha256_file(entry["path"])

    def test_sweep_dropped_fraction_nondecreasing(self, workspace, tmp_path):
        assert main([
            "kse-report", str(workspace / "base" / "weights.tgdw"),
            "--out", str(tmp_path / "o"),
        ]) == 0
        sweep = json.loads((tmp_path / "o" / "sweep.json").read_text())["sweep"]
        fracs = [row["dropped_fraction"] for row in sweep]
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))

    def test_zero_net_scores_zero(self, tmp_path):
        net = build_network(NetworkConfig(depth=3, channels=4), seed=0)
        for b in net.blocks:
            b.conv.weights[:] = 0
            if b.conv.bias is not None:
                b.conv.bias[:] = 0
        save_weights(net, tmp_path / "zero.tgdw")
        assert main([
            "kse-report", str(tmp_path / "zero.tgdw"), "--out", str(tmp_path / "o"),
        ]) == 0
        doc = json.loads((tmp_path / "o" / "kse_report.json").read_text())
        for layer in doc["layers"]:
            assert all(v == 0.0 for v in layer["kse"])

    def test_unreadable_weights_exit_3(self, tmp_path):
        p = tmp_path / "junk.tgdw"
        p.write_bytes(b"JUNKJUNKJUNK")
        assert main(["kse-report", str(p), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("damage", sorted(CORRUPTIONS))
    def test_corrupt_weights_exit_3_and_write_nothing(self, tmp_path, capsys, damage):
        p = tmp_path / "net.tgdw"
        p.write_bytes(CORRUPTIONS[damage](saved_3x4(p)))
        assert main(["kse-report", str(p), "--out", str(tmp_path / "o")]) == 3
        assert "data error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestPruneEval:
    def test_table_written_and_fraction_monotone(self, workspace, tmp_path):
        assert main([
            "prune-eval",
            str(workspace / "base" / "weights.tgdw"),
            str(workspace / "data" / "studies" / "probe"),
            "--out", str(tmp_path / "o"),
        ]) == 0
        rows = json.loads((tmp_path / "o" / "prune_eval.json").read_text())["rows"]
        fracs = [r["dropped_fraction"] for r in rows]
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))
        # the default level is the highest count level, not the n2n split
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"]["level"] == "1"


class TestEvaluate:
    def test_identity_net_on_noiseless_study(self, tmp_path):
        net = build_network(NetworkConfig(depth=3, channels=4), seed=0)
        for b in net.blocks:
            b.conv.weights[:] = 0
            if b.conv.bias is not None:
                b.conv.bias[:] = 0
        save_weights(net, tmp_path / "id.tgdw")
        rng = np.random.default_rng(0)
        truth = rng.uniform(1.0, 2.0, (3, 8, 8)).astype(np.float32)
        study = Study(
            truth=truth,
            realizations={"1": np.stack([truth, truth])},
            protocol=ScanProtocol(1.0, 1e4, seed=0),
        )
        save_study(study, tmp_path / "study")
        save_rois(
            {
                "lesion": Roi([[0, 2, 2], [1, 3, 3]]),
                "background": Roi([[2, 4, 4], [2, 5, 5], [0, 1, 6]]),
            },
            tmp_path / "study" / "rois.json",
        )
        assert main([
            "evaluate", str(tmp_path / "id.tgdw"), str(tmp_path / "study"),
            "--out", str(tmp_path / "o"),
        ]) == 0
        rep = strict_json((tmp_path / "o" / "metrics.json").read_text())
        assert rep["lesion_bias_pct"] == pytest.approx(0.0, abs=1e-5)
        assert rep["background_cov_pct"] == pytest.approx(0.0, abs=1e-6)
        assert rep["mse_vs_truth"] == pytest.approx(0.0, abs=1e-12)
        # zero MSE: the PSNR is infinite, which JSON cannot hold
        assert rep["psnr_db"] is None
        assert "n/a" in (tmp_path / "o" / "metrics.txt").read_text().splitlines()[-1]

    def test_single_realization_reports_bias_not_cov(self, tmp_path):
        net = build_network(NetworkConfig(depth=3, channels=4), seed=1)
        save_weights(net, tmp_path / "net.tgdw")
        truth = np.random.default_rng(1).uniform(1, 2, (3, 8, 8)).astype(np.float32)
        study = Study(
            truth=truth,
            realizations={"1": truth[None]},
            protocol=ScanProtocol(1.0, 1e4, seed=0),
        )
        save_study(study, tmp_path / "study")
        save_rois(
            {
                "lesion": Roi([[0, 2, 2]]),
                "background": Roi([[1, 4, 4], [1, 5, 5]]),
            },
            tmp_path / "study" / "rois.json",
        )
        assert main([
            "evaluate", str(tmp_path / "net.tgdw"), str(tmp_path / "study"),
            "--out", str(tmp_path / "o"),
        ]) == 0
        rep = json.loads((tmp_path / "o" / "metrics.json").read_text())
        assert rep["background_cov_pct"] is None
        assert "lesion_bias_pct" in rep

    def test_default_level_is_highest_count_level(self, workspace, tmp_path):
        # the probe study also holds "n2n" and "full" realizations, which
        # are not count levels
        assert main([
            "evaluate", str(workspace / "base" / "weights.tgdw"),
            str(workspace / "data" / "studies" / "probe"),
            "--out", str(tmp_path / "o"),
        ]) == 0
        rep = json.loads((tmp_path / "o" / "metrics.json").read_text())
        assert rep["level"] == "1"
        assert rep["n_realizations"] == 3

    def test_short_study_volume_is_data_error(self, workspace, tmp_path, capsys):
        study_dir = tmp_path / "probe"
        shutil.copytree(workspace / "data" / "studies" / "probe", study_dir)
        f = study_dir / "real_1.f32"
        f.write_bytes(f.read_bytes()[:-4])  # one float32 value short
        assert main([
            "evaluate", str(workspace / "base" / "weights.tgdw"), str(study_dir),
            "--out", str(tmp_path / "o"),
        ]) == 3
        assert "real_1.f32: expected" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_roi_file_exit_2(self, workspace, tmp_path):
        study_dir = workspace / "data" / "studies" / "probe"
        assert main([
            "evaluate", str(workspace / "base" / "weights.tgdw"), str(study_dir),
            "--rois", str(tmp_path / "nothere.json"),
            "--out", str(tmp_path / "o"),
        ]) == 2


class TestWeightValues:
    """Finite weight files whose values the network cannot run on."""

    def run(self, workspace, tmp_path, command, weights):
        study = [] if command == "kse-report" else [str(workspace / "data" / "studies" / "probe")]
        return main([command, str(weights), *study, "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_running_variance_exit_3(self, workspace, tmp_path, capsys, value):
        net = build_network(NetworkConfig(**NET), seed=0)
        net.blocks[1].bn.running_var[0] = value
        save_weights(net, tmp_path / "bad.tgdw")
        assert self.run(workspace, tmp_path, "evaluate", tmp_path / "bad.tgdw") == 3
        assert "block01.bn: running_var" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["evaluate", "prune-eval", "kse-report"])
    def test_weights_that_overflow_float32_exit_3(self, workspace, tmp_path, capsys, command):
        net = build_network(NetworkConfig(**NET), seed=0)
        net.blocks[0].conv.weights[:] = 3e38
        save_weights(net, tmp_path / "huge.tgdw")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the named error comes with no numpy warning
            assert self.run(workspace, tmp_path, command, tmp_path / "huge.tgdw") == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def edit_json(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def study_without_realization_shapes(study):
    edit_json(study / "study.json", lambda doc: doc.pop("realization_shapes"))


def study_not_json(study):
    (study / "study.json").write_text('{"shape": [3, 16')


def study_file_outside(study):
    # a valid volume, but one directory up from the study
    shutil.copy(study / "truth.f32", study.parent / "x.f32")
    edit_json(study / "study.json", lambda doc: doc["files"].update(truth="../x.f32"))


def study_level_without_fraction(study):
    edit_json(
        study / "study.json",
        lambda doc: next(iter(doc["metadata"]["levels"].values())).pop("fraction"),
    )


def study_metadata_list(study):
    edit_json(study / "study.json", lambda doc: doc.update(metadata=[doc["metadata"]]))


def study_rois_list(study):
    (study / "rois.json").write_text(json.dumps([[[0, 0, 0]]]))


def study_roi_entry_short(study):
    edit_json(study / "rois.json", lambda doc: doc.update(lesion=[[0, 0]]))


def study_roi_voxel_outside(study):
    edit_json(study / "rois.json", lambda doc: doc["background"].append([0, 99, 99]))


def study_psf_sigma_nan(study):
    edit_json(study / "study.json", lambda doc: doc["protocol"].update(psf_sigma=np.nan))


def study_count_budget_infinite(study):
    edit_json(study / "study.json", lambda doc: doc["protocol"].update(count_budget=np.inf))


def edit_stack(study, key, change):
    """Replace the realization stack ``key`` by ``change(stack)``."""
    doc = json.loads((study / "study.json").read_text())
    f = study / doc["files"][key]
    stack = change(np.fromfile(f, "<f4").reshape(doc["realization_shapes"][key]))
    f.write_bytes(np.ascontiguousarray(stack, "<f4").tobytes())
    edit_json(study / "study.json", lambda d: d["realization_shapes"].update({key: [*stack.shape]}))


def study_level_stack_one_row_short(study):
    edit_stack(study, "1", lambda stack: stack[:, :, :-1])


def study_level_stack_empty(study):
    edit_stack(study, "1", lambda stack: stack[:0])


def study_n2n_one_half(study):
    edit_stack(study, "n2n", lambda stack: stack[:1])


def dataset_phantoms_of_two_sizes(dataset):
    meta = json.loads((dataset / "phantom_001" / "meta.json").read_text())
    for name in meta["files"].values():
        f = dataset / "phantom_001" / name
        vol = np.fromfile(f, "<f4").reshape(meta["shape"])[:, 2:-2, 2:-2]
        f.write_bytes(vol.tobytes())
    edit_json(dataset / "phantom_001" / "meta.json", lambda doc: doc.update(shape=list(vol.shape)))


def dataset_without_phantom_dirs(dataset):
    edit_json(dataset / "dataset.json", lambda doc: doc.pop("phantom_dirs"))


def dataset_dir_outside(dataset):
    shutil.copytree(dataset / "phantom_000", dataset.parent / "p0")
    edit_json(dataset / "dataset.json", lambda doc: doc["phantom_dirs"].__setitem__(0, "../p0"))


SIDECAR_DAMAGE = {
    f.__name__: f
    for f in (
        study_without_realization_shapes, study_not_json, study_file_outside,
        study_level_without_fraction, study_metadata_list, study_rois_list,
        study_roi_entry_short, study_roi_voxel_outside, study_psf_sigma_nan,
        study_count_budget_infinite, study_level_stack_one_row_short, study_level_stack_empty,
        study_n2n_one_half, dataset_without_phantom_dirs, dataset_dir_outside,
        dataset_phantoms_of_two_sizes,
    )
}


class TestMalformedSidecars:
    @pytest.mark.parametrize("damage", sorted(SIDECAR_DAMAGE))
    def test_is_data_error_and_writes_nothing(self, workspace, tmp_path, capsys, damage):
        root = tmp_path / "in"
        if damage.startswith("study"):
            target = root / "probe"
            shutil.copytree(workspace / "data" / "studies" / "probe", target)
            argv = ["evaluate", str(workspace / "base" / "weights.tgdw"), str(target)]
        else:
            target = root / "dataset"
            shutil.copytree(workspace / "data" / "dataset", target)
            cfg = json.loads((workspace / "train.json").read_text())
            cfg["dataset"] = str(target)
            (tmp_path / "t.json").write_text(json.dumps(cfg))
            argv = ["train", str(tmp_path / "t.json")]
        SIDECAR_DAMAGE[damage](target)
        assert main([*argv, "--out", str(tmp_path / "o")]) == 3
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestDefaultLevel:
    @pytest.mark.parametrize("command", ["evaluate", "prune-eval"])
    def test_study_without_count_levels_asks_for_a_level(
        self, workspace, tmp_path, capsys, command
    ):
        # a study of only the n2n halves and the "full" scan they were split from
        cfg = gen_config(
            tmp_path, test_studies=[{"name": "split", "count_levels": [], "n2n_split": True}]
        )
        assert main(["gen-data", str(cfg), "--out", str(tmp_path / "data")]) == 0
        run = [command, str(workspace / "base" / "weights.tgdw"),
               str(tmp_path / "data" / "studies" / "split")]
        assert main(run + ["--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "study has no count levels (keys: full, n2n); choose one with --level" in err
        assert not (tmp_path / "o").exists()
        assert main(run + ["--level", "n2n", "--out", str(tmp_path / "n2n")]) == 0

    def test_study_without_level_metadata_picks_highest_numeric_level(
        self, workspace, tmp_path
    ):
        # the probe study holds count level "1" beside the "n2n" halves and
        # the "full" scan; a string max over the keys would pick "n2n"
        study = tmp_path / "probe"
        shutil.copytree(workspace / "data" / "studies" / "probe", study)
        edit_json(study / "study.json", lambda doc: doc["metadata"].pop("levels"))
        assert main([
            "evaluate", str(workspace / "base" / "weights.tgdw"), str(study),
            "--out", str(tmp_path / "o"),
        ]) == 0
        rep = strict_json((tmp_path / "o" / "metrics.json").read_text())
        assert rep["level"] == "1"
        assert rep["n_realizations"] == 3


class TestManifestReplay:
    def test_manifest_config_reproduces_run(self, workspace, tmp_path):
        manifest = json.loads((workspace / "base" / "manifest.json").read_text())
        cfg = dict(manifest["config"])
        p = tmp_path / "replay.json"
        p.write_text(json.dumps(cfg))
        assert main(["train", str(p), "--out", str(tmp_path / "o")]) == 0
        assert (
            (tmp_path / "o" / "weights.tgdw").read_bytes()
            == (workspace / "base" / "weights.tgdw").read_bytes()
        )

    @pytest.mark.parametrize("sub", ["tgd-finetune", "n2n"])
    def test_masked_run_manifest_config_reproduces_run(self, workspace, tmp_path, sub):
        # its config echoes mode, weights and both sections, all read keys
        cfg = {
            "tgd-finetune": {**json.loads((workspace / "train.json").read_text()),
                             "weights": str(workspace / "base" / "weights.tgdw"), "phi": 0.5},
            "n2n": n2n_config(workspace),
        }[sub]
        (tmp_path / "c.json").write_text(json.dumps({**cfg, "epochs": 1}))
        assert main([sub, str(tmp_path / "c.json"), "--out", str(tmp_path / "a")]) == 0
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        (tmp_path / "r.json").write_text(json.dumps(manifest["config"]))
        assert main([sub, str(tmp_path / "r.json"), "--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "weights.tgdw").read_bytes()
                == (tmp_path / "b" / "weights.tgdw").read_bytes())


class TestRunWriters:
    def test_every_command_writes_strict_json_and_true_hashes(self, workspace, tmp_path):
        """Every subcommand's output dir: strict JSON throughout, and each
        manifest hash matches its file (gen-data and train ran in the
        workspace fixture)."""
        weights = str(workspace / "base" / "weights.tgdw")
        study = str(workspace / "data" / "studies" / "probe")
        common = {"weights": weights, "seed": 1, "epochs": 1, "batch_size": 4,
                  "phi": 0.5, "network": NET}
        (tmp_path / "ft.json").write_text(
            json.dumps({"dataset": str(workspace / "data" / "dataset"), **common})
        )
        (tmp_path / "n2n.json").write_text(json.dumps({"study": study, **common}))
        runs = {
            "tgd-finetune": [str(tmp_path / "ft.json")],
            "n2n": [str(tmp_path / "n2n.json")],
            "kse-report": [weights],
            "prune-eval": [weights, study],
            "evaluate": [weights, study],
        }
        for sub, argv in runs.items():
            assert main([sub, *argv, "--out", str(tmp_path / sub)]) == 0, sub
        outs = {"gen-data": workspace / "data", "train": workspace / "base"}
        outs.update((sub, tmp_path / sub) for sub in runs)
        for sub, out in outs.items():
            for f in out.rglob("*.json"):
                strict_json(f.read_text())
            for f in out.rglob("*.jsonl"):
                for line in f.read_text().splitlines():
                    strict_json(line)
            manifest = strict_json((out / "manifest.json").read_text())
            assert manifest["subcommand"] == sub
            for kind in ("inputs", "outputs"):
                for key, entry in manifest[kind].items():
                    assert sha256_file(entry["path"]) == entry["sha256"], (out.name, key)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "writer", ["json_text", "record", "kse_report", "masks", "study"]
    )
    def test_non_finite_value_is_value_error(self, writer, value, tmp_path):
        """Every JSON writer refuses a value JSON cannot hold."""
        net = build_network(NetworkConfig(**NET), seed=0)
        if writer == "json_text":
            write = partial(json_text, {"x": [value]})
        elif writer == "record":
            record = TrainRecord(asdict(TrainConfig()), [0.5], value, 1.0, "h")
            write = record.to_jsonl
        elif writer == "kse_report":
            report = kse_scores(net)
            report.layers[1].kse[0] = value
            write = report.to_json
        elif writer == "masks":
            write = MaskSet(all_ones_masks(net), value, network_hash(net)).to_json
        else:
            truth = np.ones((3, 4, 4), np.float32)
            study = Study(
                truth, {"1": truth[None]}, ScanProtocol(1.0, 1e4, seed=0), {"x": value}
            )
            write = partial(save_study, study, tmp_path / "study")
        with pytest.raises(ValueError, match="not JSON compliant"):
            write()
        assert not (tmp_path / "study").exists()


def n2n_config(workspace, **overrides):
    return {
        "study": str(workspace / "data" / "studies" / "probe"),
        "weights": str(workspace / "base" / "weights.tgdw"),
        "phi": 0.4, "seed": 1, "epochs": 1, "network": NET, **overrides,
    }


def set_field(doc, dotted, value):
    *head, last = dotted.split(".")
    for part in head:
        doc = doc[int(part)] if isinstance(doc, list) else doc.setdefault(part, {})
    doc[int(last) if isinstance(doc, list) else last] = value


# (subcommand, dotted config path, a value of the wrong JSON type)
MISTYPED = [
    ("train", "epochs", "5"),
    ("train", "batch_size", "x"),
    ("train", "seed", 1.5),
    ("train", "network.depth", "3"),
    ("train", "learning_rate", "a"),
    ("train", "weight_decay", None),
    ("gen-data", "image.slices", "x"),
    ("gen-data", "phantoms.n_val", "x"),
    ("gen-data", "phantoms.lesion_radius", "x"),
    ("gen-data", "test_studies.0.n_realizations", "x"),
    ("n2n", "phi", "x"),
    ("n2n", "kse.alpha", "x"),
    ("n2n", "freeze_last_layer", "no"),
]


class TestMistypedConfig:
    @pytest.mark.parametrize("sub,field,value", MISTYPED)
    def test_is_config_error_naming_the_field(
        self, workspace, tmp_path, capsys, sub, field, value
    ):
        cfg = {
            "train": lambda: json.loads((workspace / "train.json").read_text()),
            "gen-data": lambda: json.loads(gen_config(tmp_path).read_text()),
            "n2n": lambda: n2n_config(workspace),
        }[sub]()
        set_field(cfg, field, value)
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main([sub, str(tmp_path / "c.json"), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field.split(".")[-1] in err
        assert not (tmp_path / "o").exists()


# (subcommand, dotted config path, its value, the start of the error)
UNREAD = [
    ("train", "epoch", 2, "unknown field: epoch"),
    ("train", "netwrok", NET, "unknown field: netwrok"),
    ("train", "weights", "w.tgdw", "unknown field: weights"),
    ("train", "network.chanels", 4, "unknown field: network.chanels"),
    ("n2n", "kse.alfa", 1.0, "unknown field: kse.alfa"),
    ("n2n", "generation", 2, "unknown field: generation"),
    ("tgd-finetune", "generation", 1, "unknown field: generation"),
    ("tgd-finetune", "mode", "scratch", "field mode must be 'tgd_finetune'"),
]


class TestUnreadConfigKey:
    @pytest.mark.parametrize(
        "sub,field,value,message", UNREAD, ids=[f"{s}-{f}" for s, f, _, _ in UNREAD]
    )
    def test_is_config_error_naming_it_before_loading(
        self, workspace, tmp_path, capsys, monkeypatch, sub, field, value, message
    ):
        # a misspelled key would otherwise leave its field at the default
        def never(*args, **kwargs):
            raise AssertionError("loaded inputs although the config has an unread key")

        monkeypatch.setattr(cli, "load_dataset", never)
        monkeypatch.setattr(cli, "load_study", never)
        train = json.loads((workspace / "train.json").read_text())
        cfg = {
            "train": train,
            "tgd-finetune": {**train, "weights": "w.tgdw", "phi": 0.5},
            "n2n": json.loads(json.dumps(n2n_config(workspace))),
        }[sub]
        set_field(cfg, field, value)
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main([sub, str(tmp_path / "c.json"), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["c.json"]


# (dotted gen-data config path, its value)
GEN_DATA_UNREAD = [
    ("count_level", [0.5]),
    ("image.slice", 7),
    ("protocol.sigma", 1.0),
    ("phantoms.n_lesion", 0),
    ("test_studies.0.n2n", True),
    ("test_studies.0.ood_lesion.radius_px", 2.0),
]


class TestGenDataConfigKeys:
    @pytest.mark.parametrize("field,value", GEN_DATA_UNREAD, ids=[f for f, _ in GEN_DATA_UNREAD])
    def test_unread_key_is_config_error_naming_it_before_any_work(
        self, tmp_path, capsys, monkeypatch, field, value
    ):
        # a misspelled key would otherwise leave its field at the default
        def never(*args, **kwargs):
            raise AssertionError("drew a phantom although the config has an unread key")

        monkeypatch.setattr(cli, "random_phantom_spec", never)
        doc = json.loads(gen_config(tmp_path).read_text())
        set_field(doc, field, value)
        (tmp_path / "gen.json").write_text(json.dumps(doc))
        assert main(["gen-data", str(tmp_path / "gen.json"), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: unknown field: {field}" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["gen.json"]

    def test_protocol_seed_other_than_the_seed_is_config_error(self, tmp_path, capsys):
        cfg = gen_config(tmp_path, protocol={"psf_sigma": 1.2, "count_budget": 5e4, "seed": 6})
        assert main(["gen-data", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "field protocol.seed must equal seed (5), got 6" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_manifest_config_reproduces_run(self, workspace, tmp_path):
        manifest = json.loads((workspace / "data" / "manifest.json").read_text())
        (tmp_path / "replay.json").write_text(json.dumps(manifest["config"]))
        assert main(["gen-data", str(tmp_path / "replay.json"), "--out", str(tmp_path / "o")]) == 0
        replay = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert replay["config"] == manifest["config"]
        assert replay["outputs"].keys() == manifest["outputs"].keys()
        for key, entry in manifest["outputs"].items():
            assert replay["outputs"][key]["sha256"] == entry["sha256"], key
        volumes = sorted((workspace / "data").rglob("*.f32"))
        assert volumes and all(
            (tmp_path / "o" / v.relative_to(workspace / "data")).read_bytes() == v.read_bytes()
            for v in volumes
        )

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("lesion_radius", 0, "field phantoms.lesion_radius must be > 0"),
            ("lesion_radius", -1.5, "field phantoms.lesion_radius must be > 0"),
            ("lesion_contrast", -2, "field phantoms.lesion_contrast must be finite and >= 0"),
        ],
    )
    def test_lesion_value_is_checked_when_no_lesion_is_drawn(
        self, tmp_path, capsys, field, value, message
    ):
        cfg = gen_config(
            tmp_path,
            phantoms={"n_train": 1, "n_lesions": 0, field: value},
            test_studies=[{"name": "probe", "n_lesions": 0}],
        )
        assert main(["gen-data", str(cfg), "--out", str(tmp_path / "o")]) == 2
        # a JSON int read for a float field is a float
        assert f"config error: {message}, got {float(value)}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestSpellings:
    @pytest.mark.parametrize("spelling,field,a,b", [
        ("phi", "kse_threshold", 0.3, 0.5),
        ("freeze_last_layer", "last_layer_frozen", True, False),
    ])
    def test_field_under_both_spellings_is_config_error(
        self, workspace, tmp_path, capsys, spelling, field, a, b
    ):
        cfg = n2n_config(workspace, **{spelling: a, field: b})
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["n2n", str(tmp_path / "c.json"), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and spelling in err and field in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["phi", "kse_threshold"])
    def test_bad_value_is_config_error_naming_the_key_the_config_used(
        self, workspace, tmp_path, capsys, key
    ):
        cfg = n2n_config(workspace)
        del cfg["phi"]
        (tmp_path / "c.json").write_text(json.dumps({**cfg, key: -1}))
        assert main(["n2n", str(tmp_path / "c.json"), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: field {key} must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def config_leaves(cls, prefix=""):
    """(dotted path, type) of every leaf field of config dataclass ``cls``,
    under each of its spellings; a list field also yields its first entry."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        for key in filter(None, (f.name, f.metadata.get("spelling"))):
            yield from kind_leaves(hints[f.name], prefix + key)


def kind_leaves(kind, path):
    if is_dataclass(kind):
        yield from config_leaves(kind, path + ".")
        return
    yield path, kind
    args = get_args(kind)
    if get_origin(kind) is tuple:
        yield from kind_leaves(args[0], path + ".0")
    else:
        for arg in filter(is_dataclass, args):  # X | None
            yield from config_leaves(arg, path + ".")


LEAVES = [("gen-data", path, kind) for path, kind in config_leaves(cli.GenDataConfig)]
LEAVES += [("train", path, kind) for path, kind in config_leaves(TrainConfig)]


def readme_example(name: str) -> dict:
    """The JSON block that follows "Example `<name>`" in README.md."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split(f"Example `{name}`", 1)[1].split("```json\n", 1)[1]
    return json.loads(block.split("```", 1)[0])


class TestConfigReader:
    @pytest.mark.parametrize("sub,path,kind", LEAVES, ids=[f"{s}-{p}" for s, p, _ in LEAVES])
    def test_wrong_kind_is_config_error_naming_it_before_any_work(
        self, workspace, tmp_path, capsys, monkeypatch, sub, path, kind
    ):
        def never(*args, **kwargs):
            raise AssertionError("did work although a config field has the wrong kind")

        for name in ("load_dataset", "load_study", "load_weights", "random_phantom_spec"):
            monkeypatch.setattr(cli, name, never)
        if sub == "gen-data":
            ood = {"center": [8.0, 8.0], "radius": 2.0, "contrast": 3.0}
            doc = json.loads(gen_config(tmp_path).read_text())
            doc["test_studies"][0]["ood_lesion"] = ood
        else:
            doc = json.loads((workspace / "train.json").read_text())
        set_field(doc, path, 1.5 if kind is str else "x")
        (tmp_path / "gen.json").write_text(json.dumps(doc))
        assert main([sub, str(tmp_path / "gen.json"), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: field {path} must be" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["gen.json"]

    def test_int_for_a_float_field_writes_the_bytes_of_the_float(self, tmp_path):
        runs = []
        for budget, sigma in ((50000, 1), (50000.0, 1.0)):
            d = tmp_path / repr(budget)
            d.mkdir()
            cfg = gen_config(d, protocol={"psf_sigma": sigma, "count_budget": budget})
            assert main(["gen-data", str(cfg), "--out", str(d / "o")]) == 0
            runs.append([
                (d / "o" / name).read_bytes()
                for name in ("dataset/dataset.json", "studies/probe/study.json")
            ])
        assert runs[0] == runs[1]

    def test_readme_examples_are_read_by_their_command(self):
        config = cli._gen_data_config(readme_example("gen.json"))
        assert config.protocol.count_budget == 200000.0
        paths, tc = cli._train_config(readme_example("train.json"), "scratch")
        assert list(paths) == ["dataset"] and tc.epochs == 200


class TestDirectoryPaths:
    def test_kse_report_weights_directory_exit_3(self, tmp_path, capsys):
        assert main(["kse-report", str(tmp_path), "--out", str(tmp_path / "o")]) == 3
        assert "data error" in capsys.readouterr().err

    def test_config_directory_exit_2(self, tmp_path, capsys):
        assert main(["train", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_n2n_weights_directory_exit_3(self, workspace, tmp_path, capsys):
        (tmp_path / "n2n.json").write_text(
            json.dumps(n2n_config(workspace, weights=str(tmp_path)))
        )
        assert main(["n2n", str(tmp_path / "n2n.json"), "--out", str(tmp_path / "o")]) == 3
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def fuzz_case(workspace, root: Path, target: str, sub: str):
    """The argv of ``sub`` and the JSON file ``target`` names, with every
    input the command may change copied under ``root``."""
    weights = str(workspace / "base" / "weights.tgdw")
    dataset, study = root / "dataset", root / "probe"
    shutil.copytree(workspace / "data" / "dataset", dataset)
    shutil.copytree(workspace / "data" / "studies" / "probe", study)
    train = {**json.loads((workspace / "train.json").read_text()), "dataset": str(dataset)}
    configs = {
        "gen-data": json.loads(gen_config(root).read_text()),
        "train": train,
        "tgd-finetune": {**train, "weights": weights, "epochs": 1, "phi": 0.5},
        "n2n": n2n_config(workspace, study=str(study)),
    }
    if sub in configs:
        (root / "cfg.json").write_text(json.dumps(configs[sub]))
        argv = [sub, str(root / "cfg.json")]
    else:
        argv = [sub, weights, str(study)]
    files = {
        "config": root / "cfg.json",
        "dataset.json": dataset / "dataset.json",
        "meta.json": dataset / "phantom_000" / "meta.json",
        "study.json": study / "study.json",
        "rois.json": study / "rois.json",
    }
    return argv, files[target]


# every JSON input file, with the subcommands that read it
FUZZ_TARGETS = [
    ("config", "gen-data"), ("config", "train"), ("config", "tgd-finetune"),
    ("config", "n2n"), ("dataset.json", "train"), ("dataset.json", "tgd-finetune"),
    ("meta.json", "train"), ("study.json", "n2n"), ("study.json", "prune-eval"),
    ("study.json", "evaluate"), ("rois.json", "evaluate"),
]
OTHER_TYPES = ("x", 1, 1.5, True, None, [], {})


def mutate(data, text: str) -> str:
    """``text`` truncated, or its JSON with one value at a drawn path
    deleted, given another type, wrapped in a list or set to NaN."""
    how = data.draw(st.sampled_from(["delete", "retype", "wrap", "nan", "truncate"]))
    if how == "truncate":
        return text[: data.draw(st.integers(0, len(text) - 1))]
    doc = node = json.loads(text)
    while True:  # descend to a drawn value; shallow values are the likelier
        parent = node
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys))
        node = parent[key]
        if not (isinstance(node, (dict, list)) and node and data.draw(st.booleans())):
            break
    if how == "delete":
        del parent[key]
    elif how == "retype":
        others = [v for v in OTHER_TYPES if type(v) is not type(node)]
        parent[key] = data.draw(st.sampled_from(others))
    elif how == "wrap":
        parent[key] = [node]
    else:
        parent[key] = float("nan")
    return json.dumps(doc)


class TestFuzzInputs:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_mutated_input_exits_0_2_or_3(self, workspace, data):
        target, sub = data.draw(st.sampled_from(FUZZ_TARGETS))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            argv, path = fuzz_case(workspace, root, target, sub)
            path.write_text(mutate(data, path.read_text()))
            code = main([*argv, "--out", str(root / "o")])
            assert code in (0, 2, 3)
            assert code == 0 or not (root / "o").exists()
