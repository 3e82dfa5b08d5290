"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

The training-based criteria (5, 6, 7) run real experiments at desk scale and
dominate the runtime; everything else finishes in seconds. Heavy artifacts
(the pre-trained nets) are module fixtures shared across criteria, and their
build time is charged to every criterion that depends on them.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tgdkit.cli import main as cli_main
from tgdkit.kse import KseConfig, drop_kernels, kernel_entropy, kernel_sparsity, kse_scores
from tgdkit.kse import density_metric
from tgdkit.metrics import Roi, ensemble_bias, ensemble_cov, hallucination_probe
from tgdkit.model import (
    NetworkConfig,
    build_network,
    denoise_volume,
    network_hash,
)
from tgdkit.ops import (
    BatchNormParams,
    ConvParams,
    batchnorm_backward,
    batchnorm_forward,
    conv2d_backward,
    conv2d_forward,
    conv2d_grad_input,
)
from tgdkit.phantom import (
    Lesion,
    PhantomSpec,
    ScanProtocol,
    background_voxels,
    build_dataset,
    lesion_voxels,
    make_study,
    random_phantom_spec,
    thin,
)
from tgdkit.training import (
    TrainConfig,
    eval_pairs_mse,
    finetune_tgd,
    online_n2n,
    pairs_to_arrays,
    train_scratch,
)

from oracles import (
    central_difference,
    density_metric_bruteforce,
    ensemble_bias_loop,
    ensemble_cov_loop,
    entropy_from_dm,
    kse_layer_bruteforce,
    rel_err,
)

H = W = 24
S = 3
NET = NetworkConfig(depth=5, channels=16, input_slices=3)
MSE_REF = "mse vs undropped reference"


def _announce(line: str) -> None:
    # pytest shows these with -s (and on failure regardless); run the suite
    # as `pytest -v -s tests/test_acceptance.py` for the live verdict lines
    print(line, flush=True)


@contextmanager
def criterion(n: int, desc: str, budget_s: float, charged_s: float = 0.0):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        _announce(f"ACCEPTANCE {n:02d} FAIL: {desc}")
        raise
    dt = time.perf_counter() - t0 + charged_s
    if dt >= budget_s:
        _announce(f"ACCEPTANCE {n:02d} FAIL: {desc} (runtime {dt:.0f}s >= {budget_s:.0f}s)")
        raise AssertionError(f"criterion {n} exceeded runtime budget: {dt:.0f}s")
    _announce(f"ACCEPTANCE {n:02d} PASS ({dt:.0f}s): {desc}")


# ----------------------------------------------------------- shared fixtures


@pytest.fixture(scope="module")
def task_a():
    """v1-analog training data: coarse PSF, six count levels."""
    rng = np.random.default_rng(1001)
    specs = [random_phantom_spec(rng, H, W, slices=S) for _ in range(13)]
    return build_dataset(specs, ScanProtocol(1.5, 1e5, seed=1002), n_val=3)


@pytest.fixture(scope="module")
def base_net(task_a):
    """v1-analog net, trained to convergence; returns (net, build seconds)."""
    t0 = time.perf_counter()
    net, _ = train_scratch(
        TrainConfig(mode="scratch", epochs=400, batch_size=8, seed=0, network=NET),
        task_a,
    )
    return net, time.perf_counter() - t0


@pytest.fixture(scope="module")
def v2_net():
    """v2-analog net: finer PSF, trained from scratch; (net, build seconds)."""
    rng = np.random.default_rng(2001)
    specs = [random_phantom_spec(rng, H, W, slices=S) for _ in range(7)]
    ds = build_dataset(specs, ScanProtocol(0.8, 1e5, seed=2002), n_val=0)
    t0 = time.perf_counter()
    net, _ = train_scratch(
        TrainConfig(mode="scratch", epochs=300, batch_size=8, seed=5, network=NET),
        ds,
    )
    return net, time.perf_counter() - t0


def toy_pairs(n_phantoms=2, seed=0, levels=(0.1, 0.3)):
    rng = np.random.default_rng(seed)
    specs = [random_phantom_spec(rng, 16, 16, slices=S, n_lesions=1) for _ in range(n_phantoms)]
    ds = build_dataset(specs, ScanProtocol(1.2, 5e4, seed=seed + 1), count_levels=levels)
    return ds.pairs("train")


# ------------------------------------------------------------- criterion 1


def test_criterion_01_freeze_exactness():
    with criterion(1, "500 masked steps leave every frozen entry bit-identical", 60):
        toy = NetworkConfig(depth=4, channels=8, input_slices=3)
        pairs = toy_pairs(seed=11)
        warm, _ = train_scratch(
            TrainConfig(mode="scratch", epochs=30, batch_size=8, seed=12, network=toy),
            pairs,
        )
        # one full batch per epoch -> epochs == optimizer steps
        x, _ = pairs_to_arrays(pairs, 3)
        cfg = TrainConfig(
            mode="tgd_finetune", epochs=500, batch_size=len(x), seed=13,
            kse_threshold=0.3, last_layer_frozen=True, network=toy,
        )
        tuned, _, masks = finetune_tgd(warm, cfg, toy_pairs(seed=14))

        n_frozen = sum(int((m == 0).sum()) for m in masks.conv_masks)
        n_free = sum(int((m == 1).sum()) for m in masks.conv_masks)
        assert n_frozen > 0 and n_free > 0  # the check must not be vacuous

        for i, (a, b) in enumerate(zip(warm.blocks, tuned.blocks)):
            fro = masks.conv_masks[i] == 0
            assert np.array_equal(a.conv.weights[fro], b.conv.weights[fro])
            if a.conv.bias is not None:
                assert np.array_equal(a.conv.bias[fro], b.conv.bias[fro])
            if a.bn is not None:
                bfro = masks.bn_masks[i] == 0
                for name in ("gamma", "beta", "running_mean", "running_var"):
                    assert np.array_equal(
                        getattr(a.bn, name)[bfro], getattr(b.bn, name)[bfro]
                    ), f"bn {name} drifted in block {i}"
        # and the retrained channels actually moved
        assert network_hash(tuned) != network_hash(warm)


# ------------------------------------------------------------- criterion 2


def test_criterion_02_gradient_fidelity():
    with criterion(2, "conv/BN backward match 64-bit finite differences (100 cases)", 60):
        rng = np.random.default_rng(21)
        worst = 0.0
        for case in range(50):
            b, c, n = (int(v) for v in rng.integers(1, 4, size=3))
            h, w = (int(v) for v in rng.integers(3, 6, size=2))
            x = rng.standard_normal((b, c, h, w))
            params = ConvParams(
                rng.standard_normal((n, c, 3, 3)),
                rng.standard_normal(n) if case % 2 else None,
            )
            g = rng.standard_normal((b, n, h, w))
            gw, gb = conv2d_backward(x, params, g)
            gx = conv2d_grad_input(params, g)

            def fx(xv):
                return float((conv2d_forward(xv, params) * g).sum())

            def fw(wv):
                return float((conv2d_forward(x, ConvParams(wv, params.bias)) * g).sum())

            worst = max(worst, rel_err(gx, central_difference(fx, x)).max())
            worst = max(worst, rel_err(gw, central_difference(fw, params.weights)).max())
            if gb is not None:
                worst = max(worst, rel_err(gb, g.sum(axis=(0, 2, 3))).max())
        for _ in range(50):
            b, c = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            h, w = (int(v) for v in rng.integers(2, 5, size=2))
            x = rng.standard_normal((b, c, h, w))
            bn = BatchNormParams(
                rng.standard_normal(c) + 1.0,
                rng.standard_normal(c),
                np.zeros(c),
                np.ones(c),
            )
            g = rng.standard_normal(x.shape)
            _, stats = batchnorm_forward(x, bn, "train")
            gx, gg, gbeta = batchnorm_backward(bn, stats, g)

            def fx(xv):
                y, _ = batchnorm_forward(xv, bn, "train")
                return float((y * g).sum())

            def fgamma(gv):
                p = BatchNormParams(gv, bn.beta, bn.running_mean, bn.running_var)
                y, _ = batchnorm_forward(x, p, "train")
                return float((y * g).sum())

            worst = max(worst, rel_err(gx, central_difference(fx, x)).max())
            worst = max(worst, rel_err(gg, central_difference(fgamma, bn.gamma)).max())
            worst = max(worst, rel_err(gbeta, g.sum(axis=(0, 2, 3))).max())
        assert worst < 1e-4, f"max relative error {worst:.2e}"


# ------------------------------------------------------------- criterion 3


def test_criterion_03_degenerate_mask_equivalences():
    with criterion(3, "threshold 0 freezes the net; threshold > 1 equals warm-start scratch", 120):
        toy = NetworkConfig(depth=4, channels=8, input_slices=3)
        warm, _ = train_scratch(
            TrainConfig(mode="scratch", epochs=20, batch_size=8, seed=31, network=toy),
            toy_pairs(seed=32),
        )
        task_b = toy_pairs(seed=33)

        frozen, _, _ = finetune_tgd(
            warm,
            TrainConfig(
                mode="tgd_finetune", epochs=10, batch_size=8, seed=34,
                kse_threshold=0.0, last_layer_frozen=True, network=toy,
            ),
            task_b,
        )
        assert network_hash(frozen) == network_hash(warm)

        common = dict(epochs=10, batch_size=10_000, seed=35, learning_rate=1e-3)
        all_on, _, masks = finetune_tgd(
            warm,
            TrainConfig(
                mode="tgd_finetune", kse_threshold=1.000001,
                last_layer_frozen=False, network=toy, **common,
            ),
            task_b,
        )
        assert masks.retrained_fraction() == 1.0
        reference, _ = train_scratch(
            TrainConfig(mode="scratch", network=toy, **common), task_b, initial=warm
        )
        assert network_hash(all_on) == network_hash(reference)


# ------------------------------------------------------------- criterion 4


def test_criterion_04_kse_oracle_equivalence():
    with criterion(4, "sparsity/density/entropy/KSE match brute force to 1e-6", 10):
        rng = np.random.default_rng(41)
        for n in (2, 3, 5, 8, 12, 16):
            c_in = int(rng.integers(1, 5))
            weights = rng.standard_normal((n, c_in, 3, 3))
            k = int(rng.integers(1, n))
            cfg = KseConfig(alpha=1.0, k_neighbors=k)
            for c in range(c_in):
                assert kernel_sparsity(weights, c) == pytest.approx(
                    float(np.abs(weights[:, c]).sum()), abs=1e-9
                )
                dm = density_metric(weights, c, k)
                np.testing.assert_allclose(
                    dm, density_metric_bruteforce(weights, c, k), atol=1e-6
                )
                e = kernel_entropy(weights, c, cfg)
                assert e == pytest.approx(entropy_from_dm(dm), abs=1e-6)
                assert 0.0 <= e <= np.log2(n) + 1e-9

        for seed in range(3):
            net = build_network(NetworkConfig(depth=4, channels=9), seed=seed)
            report = kse_scores(net, KseConfig(alpha=1.0, k_neighbors=5))
            for i, blk in enumerate(net.blocks):
                s, e, kse = kse_layer_bruteforce(blk.conv.weights, 1.0, 5)
                lk = report.layers[i]
                np.testing.assert_allclose(lk.sparsity, s, atol=1e-6)
                np.testing.assert_allclose(lk.entropy, e, atol=1e-6)
                np.testing.assert_allclose(lk.kse, kse, atol=1e-6)
                assert np.all(lk.kse >= 0.0) and np.all(lk.kse <= 1.0)


# ------------------------------------------------------------- criterion 5


def test_criterion_05_threshold_sweep(task_a, base_net):
    net, build_s = base_net
    with criterion(
        5, "dropped fraction non-decreasing; damage at 0.3 below damage at 0.6",
        300, charged_s=build_s,
    ):
        report = kse_scores(net)
        test_vol = task_a.val[0].inputs["0.1"]
        reference = denoise_volume(net, test_vol)
        rows = []
        for t in (0.3, 0.4, 0.5, 0.6):
            res = drop_kernels(net, report, t)
            out = denoise_volume(res.network, test_vol)
            rows.append((t, res.dropped_fraction, float(((out - reference) ** 2).mean())))
        fracs = [r[1] for r in rows]
        assert all(b >= a for a, b in zip(fracs, fracs[1:])), f"fractions {fracs}"
        assert rows[0][2] < rows[-1][2], f"{MSE_REF}: {rows[0][2]} !< {rows[-1][2]}"


# ------------------------------------------------------------- criterion 6


def test_criterion_06_retention(task_a, base_net):
    net, build_s = base_net
    with criterion(
        6,
        "adaptation helps the new task for both; masked tuning forgets at most "
        "half of what naive tuning forgets",
        1800, charged_s=build_s,
    ):
        rng = np.random.default_rng(2001)
        specs_b = [random_phantom_spec(rng, H, W, slices=S) for _ in range(10)]
        # v2-analog adaptation data: finer PSF, noisy short-scan inputs with
        # clean full-length targets
        ds_b = build_dataset(
            specs_b, ScanProtocol(0.8, 4e5, seed=2002),
            count_levels=(0.05, 0.075), n_val=3,
        )
        a_before = eval_pairs_mse(net, task_a.pairs("val"))
        b_before = eval_pairs_mse(net, ds_b.pairs("val"))

        d_a_naive, d_b_naive, d_a_tgd, d_b_tgd = [], [], [], []
        for seed in (1, 2, 3):
            naive, _ = train_scratch(
                TrainConfig(mode="scratch", epochs=100, batch_size=8, seed=seed, network=NET),
                ds_b, initial=net,
            )
            tgd, _, _ = finetune_tgd(
                net,
                TrainConfig(
                    mode="tgd_finetune", epochs=100, batch_size=8, seed=seed,
                    kse_threshold=0.3, last_layer_frozen=True, network=NET,
                ),
                ds_b,
            )
            d_a_naive.append(eval_pairs_mse(naive, task_a.pairs("val")) - a_before)
            d_b_naive.append(eval_pairs_mse(naive, ds_b.pairs("val")) - b_before)
            d_a_tgd.append(eval_pairs_mse(tgd, task_a.pairs("val")) - a_before)
            d_b_tgd.append(eval_pairs_mse(tgd, ds_b.pairs("val")) - b_before)

        avg = lambda v: float(np.mean(v))
        assert avg(d_b_naive) < 0, f"naive failed to improve the new task: {d_b_naive}"
        assert avg(d_b_tgd) < 0, f"masked tuning failed to improve the new task: {d_b_tgd}"
        assert avg(d_a_tgd) <= 0.5 * avg(d_a_naive), (
            f"old-task degradation: masked {avg(d_a_tgd):+.6f} vs "
            f"naive {avg(d_a_naive):+.6f}"
        )


# ------------------------------------------------------------- criterion 7


def test_criterion_07_online_adaptation_on_unseen_structure(v2_net):
    net, build_s = v2_net
    with criterion(
        7,
        "online adaptation reduces error on an unseen bright structure and "
        "keeps background noise within 1.2x",
        600, charged_s=build_s,
    ):
        rng = np.random.default_rng(3001)
        spec = random_phantom_spec(rng, H, W, slices=S, n_lesions=1)
        ood = Lesion((8.0, 16.0), 4.0, 4.0)  # brighter and larger than any training lesion
        spec_ood = PhantomSpec(H, W, S, spec.ellipses, spec.lesions + (ood,), spec.seed)
        study = make_study(
            spec_ood, ScanProtocol(0.8, 2e4, seed=3100),
            count_levels=(1.0,), n_realizations=6, n2n_split=True,
        )
        roi = Roi(lesion_voxels(PhantomSpec(H, W, S, spec_ood.ellipses, (ood,), 0)))
        bg = Roi(background_voxels(spec_ood))

        halves = study.realizations["n2n"]
        tuned, _ = online_n2n(
            net,
            TrainConfig(
                mode="n2n_online", epochs=150, batch_size=8, seed=7,
                kse_threshold=0.4, last_layer_frozen=True, network=NET,
            ),
            halves[0], halves[1],
        )
        probe = hallucination_probe(
            net, tuned, study.realizations["full"][0], study.truth, roi
        )
        assert probe.roi_mse_after < probe.roi_mse_before, probe.to_dict()

        stack = study.realizations["1"]
        cov_before = ensemble_cov([denoise_volume(net, stack[r]) for r in range(6)], bg)
        cov_after = ensemble_cov([denoise_volume(tuned, stack[r]) for r in range(6)], bg)
        assert cov_after <= 1.2 * cov_before, f"CoV {cov_before:.2f} -> {cov_after:.2f}"


# ------------------------------------------------------------- criterion 8


def test_criterion_08_thinning():
    with criterion(8, "thinning conserves counts exactly; halves unbiased and independent", 10):
        rng = np.random.default_rng(81)
        for p in (0.1, 0.3, 0.5, 0.8):
            counts = rng.poisson(rng.uniform(0, 40), size=(2, 20, 20))
            h1, h2 = thin(counts, p, seed=int(rng.integers(1 << 31)))
            assert np.array_equal(h1 + h2, counts)

        lam = 100.0  # 100 x 100 x 100/pixel = 1e6 expected counts
        counts = np.random.default_rng(82).poisson(lam, (1, 100, 100))
        h1, h2 = thin(counts, 0.5, seed=83)
        sigma_mean = np.sqrt(counts.sum()) / counts.size
        assert abs(h1.mean() - h2.mean()) < 3 * sigma_mean
        d1 = h1 - 0.5 * lam
        d2 = h2 - 0.5 * lam
        cov = float((d1 * d2).mean())
        sigma_cov = np.sqrt(d1.var() * d2.var() / d1.size)
        assert abs(cov) < 3 * sigma_cov


# ------------------------------------------------------------- criterion 9


def test_criterion_09_metric_oracles():
    with criterion(9, "ensemble bias/CoV match brute force on 100 stacks; closed form exact", 10):
        rng = np.random.default_rng(91)
        for case in range(100):
            shape = (int(rng.integers(1, 4)), int(rng.integers(3, 7)), int(rng.integers(3, 7)))
            n_real = int(rng.integers(2, 6))
            truth = rng.uniform(0.5, 2.0, shape)
            reals = [truth + rng.normal(0, 0.2, shape) for _ in range(n_real)]
            n_vox = int(rng.integers(1, min(8, int(np.prod(shape)))))
            flat = rng.choice(int(np.prod(shape)), size=n_vox, replace=False)
            voxels = np.stack(np.unravel_index(flat, shape), axis=1)
            roi_l = Roi(voxels)
            roi_b = Roi(voxels)
            assert ensemble_bias(reals, roi_l, truth) == pytest.approx(
                ensemble_bias_loop(reals, voxels, truth), abs=1e-6
            )
            assert ensemble_cov(reals, roi_b) == pytest.approx(
                ensemble_cov_loop(reals, voxels), abs=1e-6
            )
        c, d = 5.0, 0.75
        roi = Roi([[0, 0, 0], [0, 1, 1]])
        got = ensemble_cov([np.full((1, 2, 2), c + d), np.full((1, 2, 2), c - d)], roi)
        assert got == pytest.approx(abs(d) * np.sqrt(2) / c * 100.0, rel=1e-12)


# ------------------------------------------------------------ criterion 10


def test_criterion_10_cli_reproducibility(tmp_path):
    with criterion(10, "every CLI subcommand rerun from its manifest is byte-identical", 300):
        gen_cfg = {
            "seed": 5,
            "image": {"height": 16, "width": 16, "slices": 3},
            "protocol": {"psf_sigma": 1.2, "count_budget": 5e4},
            "phantoms": {"n_train": 2, "n_val": 1, "n_lesions": 1},
            "count_levels": [0.1, 0.3],
            "test_studies": [
                {"name": "probe", "n_realizations": 2, "count_levels": [1.0], "n2n_split": True}
            ],
        }
        net_cfg = {"depth": 3, "channels": 4, "input_slices": 3}

        def run(cmd_args, out):
            assert cli_main(cmd_args + ["--out", str(out)]) == 0
            return out

        def replay(out, subcommand, extra_args, out2, config_name):
            manifest = json.loads((out / "manifest.json").read_text())
            cfg_path = tmp_path / config_name
            cfg_path.write_text(json.dumps(manifest["config"]))
            assert cli_main([subcommand, str(cfg_path)] + extra_args + ["--out", str(out2)]) == 0
            return out2

        def assert_same_bytes(a, b, patterns=("*.f32", "*.tgdw", "*.jsonl", "kse_report.json",
                                              "sweep.json", "metrics.json", "prune_eval.json",
                                              "*.txt", "masks.json")):
            compared = 0
            for pat in patterns:
                for fa in sorted(a.rglob(pat)):
                    fb = b / fa.relative_to(a)
                    assert fa.read_bytes() == fb.read_bytes(), f"differs: {fa.relative_to(a)}"
                    compared += 1
            assert compared > 0

        # gen-data: config-driven rerun
        (tmp_path / "gen.json").write_text(json.dumps(gen_cfg))
        d1 = run(["gen-data", str(tmp_path / "gen.json")], tmp_path / "g1")
        d2 = replay(d1, "gen-data", [], tmp_path / "g2", "gen_replay.json")
        assert_same_bytes(d1, d2)

        dataset = str(d1 / "dataset")
        study = str(d1 / "studies" / "probe")

        # train
        (tmp_path / "train.json").write_text(json.dumps(
            {"dataset": dataset, "seed": 2, "epochs": 3, "batch_size": 4, "network": net_cfg}
        ))
        t1 = run(["train", str(tmp_path / "train.json")], tmp_path / "t1")
        t2 = replay(t1, "train", [], tmp_path / "t2", "train_replay.json")
        assert_same_bytes(t1, t2)
        weights = str(t1 / "weights.tgdw")

        # tgd-finetune
        (tmp_path / "ft.json").write_text(json.dumps(
            {"dataset": dataset, "weights": weights, "phi": 0.5, "seed": 3,
             "epochs": 2, "batch_size": 4, "network": net_cfg}
        ))
        f1 = run(["tgd-finetune", str(tmp_path / "ft.json")], tmp_path / "f1")
        f2 = replay(f1, "tgd-finetune", [], tmp_path / "f2", "ft_replay.json")
        assert_same_bytes(f1, f2)

        # n2n
        (tmp_path / "n2n.json").write_text(json.dumps(
            {"study": study, "weights": weights, "phi": 0.4, "seed": 4,
             "epochs": 2, "batch_size": 4, "network": net_cfg}
        ))
        n1 = run(["n2n", str(tmp_path / "n2n.json")], tmp_path / "n1")
        n2 = replay(n1, "n2n", [], tmp_path / "n2", "n2n_replay.json")
        assert_same_bytes(n1, n2)

        # kse-report / prune-eval / evaluate: argument-driven, rerun verbatim
        k1 = run(["kse-report", weights], tmp_path / "k1")
        k2 = run(["kse-report", weights], tmp_path / "k2")
        assert_same_bytes(k1, k2)

        p1 = run(["prune-eval", weights, study], tmp_path / "p1")
        p2 = run(["prune-eval", weights, study], tmp_path / "p2")
        assert_same_bytes(p1, p2)

        e1 = run(["evaluate", weights, study], tmp_path / "e1")
        e2 = run(["evaluate", weights, study], tmp_path / "e2")
        assert_same_bytes(e1, e2)
