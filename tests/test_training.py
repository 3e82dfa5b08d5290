"""Training-protocol tests: convergence, determinism, mask degeneracies."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tgdkit
from tgdkit import training
from tgdkit.masking import MaskedAdam, all_ones_masks
from tgdkit.model import NetworkConfig, backward, build_network, forward_train, network_hash
from tgdkit.phantom import (
    ScanProtocol,
    build_dataset,
    generate_phantom,
    random_phantom_spec,
    simulate_scan,
)
from tgdkit.training import (
    NonFiniteLossError,
    TrainConfig,
    eval_pairs_mse,
    finetune_tgd,
    mse_loss,
    online_n2n,
    pairs_to_arrays,
    train_scratch,
    train_step,
    volume_to_samples,
)

TOY_NET = NetworkConfig(depth=3, channels=4)


def toy_dataset(n_phantoms=2, seed=0, h=24, w=24, slices=3, levels=(0.05, 0.1)):
    rng = np.random.default_rng(seed)
    specs = [random_phantom_spec(rng, h, w, slices=slices, n_lesions=1) for _ in range(n_phantoms)]
    return build_dataset(specs, ScanProtocol(1.5, 2e5, seed=seed + 1), count_levels=levels)


class TestHelpers:
    def test_mse_loss_hand_case(self):
        loss, grad = mse_loss(np.array([0.0, 2.0]), np.array([0.0, 0.0]))
        assert loss == 2.0
        np.testing.assert_allclose(grad, [0.0, 2.0])

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros(3), np.zeros(4))

    def test_volume_to_samples_replicates_edges(self):
        vol = np.arange(4)[:, None, None] * np.ones((4, 2, 2))
        samples = volume_to_samples(vol, 3)
        assert samples.shape == (4, 3, 2, 2)
        np.testing.assert_array_equal(samples[0, 0], samples[0, 1])  # edge clamp
        np.testing.assert_array_equal(samples[1, 0], vol[0])

    def test_pairs_to_arrays_counts(self):
        vol = np.zeros((5, 4, 4), np.float32)
        x, y = pairs_to_arrays([(vol, vol), (vol, vol)], 3)
        assert x.shape == (10, 3, 4, 4)
        assert y.shape == (10, 1, 4, 4)


class TestTrainStep:
    def setup_method(self):
        rng = np.random.default_rng(4)
        self.x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        self.net = build_network(TOY_NET, seed=3)
        self.opt = MaskedAdam(self.net, all_ones_masks(self.net), 1e-2, 1e-5)

    def test_returns_the_batch_loss_and_gradients_before_the_step(self):
        pred, caches = forward_train(self.net, self.x)
        loss, grad_y = mse_loss(pred, self.x[:, 1:2])
        want = backward(self.net, caches, grad_y)
        got_loss, got = train_step(self.net, self.opt, self.x, self.x[:, 1:2])
        assert got_loss == loss
        assert [g.tobytes() for g in got] == [g.tobytes() for g in want]
        assert self.opt.t == 1

    def test_non_finite_batch_changes_nothing(self):
        train_step(self.net, self.opt, self.x, self.x[:, 1:2])
        before = network_hash(self.net), self.opt.m.copy(), self.opt.v.copy(), self.opt.t
        bad = self.x.copy()
        bad[1, 0, 2, 3] = np.nan
        with pytest.raises(NonFiniteLossError, match="loss is nan"):
            train_step(self.net, self.opt, bad, self.x[:, 1:2])
        assert network_hash(self.net) == before[0]
        np.testing.assert_array_equal(self.opt.m, before[1])
        np.testing.assert_array_equal(self.opt.v, before[2])
        assert self.opt.t == before[3]

    def test_step_peak_is_below_seven_activations(self):
        # one step of a 5x16 net at 64x64, batch 8, in activations of
        # [8, 16, 64, 64] float32. The forward holds the network input and
        # each batchnorm block's centered input, and writes batchnorm and
        # ReLU into the conv output; the backward rebuilds every block
        # input, writes the input gradient over it and the batchnorm
        # backward into the ReLU backward's output: about 6.59, against
        # 8.16 while block 0 held its conv output and every result had a
        # new buffer
        rng = np.random.default_rng(6)
        net = build_network(NetworkConfig(depth=5, channels=16), seed=3)
        opt = MaskedAdam(net, all_ones_masks(net), 1e-3, 1e-5)
        x = rng.standard_normal((8, 3, 64, 64)).astype(np.float32)
        y = rng.standard_normal((8, 1, 64, 64)).astype(np.float32)
        activation = x.nbytes * 16 // 3
        tracemalloc.start()
        try:
            train_step(net, opt, x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7.0 * activation, peak / activation


class TestTrainScratch:
    def test_loss_drops_tenfold_in_200_epochs(self):
        ds = toy_dataset()
        cfg = TrainConfig(mode="scratch", epochs=200, batch_size=4, seed=3, network=TOY_NET)
        _, rec = train_scratch(cfg, ds)
        assert rec.epoch_losses[-1] * 10 < rec.epoch_losses[0]

    def test_identity_pairs_drive_loss_to_zero(self):
        rng = np.random.default_rng(0)
        spec = random_phantom_spec(rng, 32, 32, slices=5, n_lesions=1)
        x = simulate_scan(generate_phantom(spec), ScanProtocol(1.5, 2e5, seed=1), seed=9)
        cfg = TrainConfig(
            mode="scratch", epochs=200, batch_size=1, learning_rate=2e-2,
            seed=1, network=TOY_NET,
        )
        net, _ = train_scratch(cfg, [(x, x)])
        assert eval_pairs_mse(net, [(x, x)]) < 1e-4

    def test_batches_follow_one_seeded_permutation_per_epoch(self, monkeypatch):
        # each epoch draws the next permutation of the config seed's generator
        # and cuts it into batches, the last one short
        seen = []
        forward = training.forward_train

        def recorded(net, xb):
            seen.append(xb.copy())
            return forward(net, xb)

        monkeypatch.setattr(training, "forward_train", recorded)
        rng = np.random.default_rng(2)
        vols = [(rng.standard_normal((7, 6, 6)), rng.standard_normal((7, 6, 6)))]
        cfg = TrainConfig(mode="scratch", epochs=3, batch_size=3, seed=11, network=TOY_NET)
        train_scratch(cfg, vols)
        x, _ = pairs_to_arrays(vols, TOY_NET.input_slices)
        perms = np.random.default_rng(cfg.seed)
        want = []
        for _ in range(cfg.epochs):
            perm = perms.permutation(len(x))
            want += [x[perm[i : i + 3]] for i in range(0, len(x), 3)]
        assert [b.shape[0] for b in seen] == [3, 3, 1] * 3
        assert [b.tobytes() for b in seen] == [b.tobytes() for b in want]

    def test_same_seed_bit_identical(self):
        ds = toy_dataset(seed=5)
        cfg = TrainConfig(mode="scratch", epochs=10, batch_size=4, seed=7, network=TOY_NET)
        net_a, rec_a = train_scratch(cfg, ds)
        net_b, rec_b = train_scratch(cfg, ds)
        assert network_hash(net_a) == network_hash(net_b)
        assert rec_a.epoch_losses == rec_b.epoch_losses

    def test_weights_do_not_depend_on_blas_threads(self):
        # BLAS reads its thread count at import, so each count gets a process
        script = (
            "import numpy as np\n"
            "from tgdkit.model import NetworkConfig, network_hash\n"
            "from tgdkit.phantom import ScanProtocol, build_dataset, random_phantom_spec\n"
            "from tgdkit.training import TrainConfig, train_scratch\n"
            "rng = np.random.default_rng(0)\n"
            "specs = [random_phantom_spec(rng, 16, 16, slices=3, n_lesions=1) for _ in range(2)]\n"
            "ds = build_dataset(specs, ScanProtocol(1.5, 2e5, seed=1), count_levels=(0.1,))\n"
            "cfg = TrainConfig(mode='scratch', epochs=2, batch_size=4, seed=0,\n"
            "                  network=NetworkConfig(depth=3, channels=8))\n"
            "print(network_hash(train_scratch(cfg, ds)[0]))\n"
        )
        src = str(Path(tgdkit.__file__).resolve().parents[1])
        hashes = []
        for n in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, timeout=300, check=True,
            )
            hashes.append(run.stdout.strip())
        assert len(hashes[0]) == 64 and hashes[0] == hashes[1]

    def test_config_of_another_mode_rejected(self):
        cfg = TrainConfig(mode="n2n_online", epochs=1, network=TOY_NET)
        with pytest.raises(ValueError, match="scratch training got .* 'n2n_online'"):
            train_scratch(cfg, toy_dataset())

    def test_empty_dataset_rejected(self):
        cfg = TrainConfig(mode="scratch", epochs=1, network=TOY_NET)
        with pytest.raises(ValueError, match="empty"):
            train_scratch(cfg, [])

    def test_nan_input_raises_named_error(self):
        x = np.ones((3, 8, 8), np.float32)
        bad = x.copy()
        bad[1, 2, 3] = np.nan
        cfg = TrainConfig(mode="scratch", epochs=2, batch_size=2, network=TOY_NET)
        with pytest.raises(NonFiniteLossError, match="epoch 0"):
            train_scratch(cfg, [(x, x), (bad, x)])

    def test_record_fields(self):
        ds = toy_dataset(seed=6)
        cfg = TrainConfig(mode="scratch", epochs=3, batch_size=4, seed=1, network=TOY_NET)
        net, rec = train_scratch(cfg, ds)
        assert len(rec.epoch_losses) == 3
        assert all(np.isfinite(v) for v in rec.epoch_losses)
        assert rec.final_hash == network_hash(net)
        assert rec.wall_time_s > 0
        assert "epoch" in rec.to_jsonl()


class TestFinetuneTgd:
    def setup_method(self):
        self.ds_a = toy_dataset(seed=10)
        cfg = TrainConfig(mode="scratch", epochs=30, batch_size=4, seed=11, network=TOY_NET)
        self.base, _ = train_scratch(cfg, self.ds_a)
        self.ds_b = toy_dataset(seed=20)

    def test_threshold_zero_returns_input_net(self):
        cfg = TrainConfig(
            mode="tgd_finetune", epochs=5, batch_size=4, seed=2,
            kse_threshold=0.0, last_layer_frozen=True, network=TOY_NET,
        )
        tuned, _, masks = finetune_tgd(self.base, cfg, self.ds_b)
        assert network_hash(tuned) == network_hash(self.base)
        assert masks.retrained_fraction() == 0.0

    def test_threshold_above_one_equals_warm_start_scratch(self):
        # full-batch so the unmasked comparison is bit-exact
        common = dict(epochs=8, batch_size=10_000, seed=3, learning_rate=1e-3)
        cfg_ft = TrainConfig(
            mode="tgd_finetune", kse_threshold=1.000001,
            last_layer_frozen=False, network=TOY_NET, **common,
        )
        tuned, _, masks = finetune_tgd(self.base, cfg_ft, self.ds_b)
        assert masks.retrained_fraction() == 1.0

        cfg_scratch = TrainConfig(mode="scratch", network=TOY_NET, **common)
        warm, _ = train_scratch(cfg_scratch, self.ds_b, initial=self.base)
        assert network_hash(tuned) == network_hash(warm)

    def test_frozen_channels_exact_after_real_run(self):
        cfg = TrainConfig(
            mode="tgd_finetune", epochs=10, batch_size=4, seed=4,
            kse_threshold=0.5, last_layer_frozen=True, network=TOY_NET,
        )
        tuned, _, masks = finetune_tgd(self.base, cfg, self.ds_b)
        moved = 0
        for i, (a, b) in enumerate(zip(self.base.blocks, tuned.blocks)):
            frozen = masks.conv_masks[i] == 0
            np.testing.assert_array_equal(
                a.conv.weights[frozen], b.conv.weights[frozen]
            )
            if a.bn is not None:
                bn_frozen = masks.bn_masks[i] == 0
                np.testing.assert_array_equal(
                    a.bn.running_mean[bn_frozen], b.bn.running_mean[bn_frozen]
                )
            moved += int((~frozen).sum())
        if moved:  # retrained channels actually move
            assert network_hash(tuned) != network_hash(self.base)

    def test_zero_epochs_returns_input_net(self):
        cfg = TrainConfig(
            mode="tgd_finetune", epochs=0, kse_threshold=0.5, network=TOY_NET,
        )
        tuned, rec, _ = finetune_tgd(self.base, cfg, self.ds_b)
        assert network_hash(tuned) == network_hash(self.base)
        assert rec.epoch_losses == [] and rec.final_hash == network_hash(self.base)

    def test_missing_threshold_rejected(self):
        cfg = TrainConfig(mode="tgd_finetune", epochs=1, network=TOY_NET)
        with pytest.raises(ValueError, match="kse_threshold"):
            finetune_tgd(self.base, cfg, self.ds_b)

    def test_config_of_another_mode_rejected(self):
        # a scratch config would train at the scratch learning rate
        cfg = TrainConfig(kse_threshold=0.5, epochs=1, network=TOY_NET)
        with pytest.raises(ValueError, match="tgd_finetune training got .* 'scratch'"):
            finetune_tgd(self.base, cfg, self.ds_b)

    def test_input_net_never_mutated(self):
        before = network_hash(self.base)
        cfg = TrainConfig(
            mode="tgd_finetune", epochs=5, batch_size=4, seed=5,
            kse_threshold=0.8, network=TOY_NET,
        )
        finetune_tgd(self.base, cfg, self.ds_b)
        assert network_hash(self.base) == before


class TestOnlineN2n:
    def setup_method(self):
        rng = np.random.default_rng(30)
        self.spec = random_phantom_spec(rng, 24, 24, slices=3, n_lesions=1)
        self.truth = generate_phantom(self.spec)
        proto = ScanProtocol(1.0, 1e5, seed=31)
        self.r1 = simulate_scan(self.truth, proto, seed=32)
        self.r2 = simulate_scan(self.truth, proto, seed=33)
        cfg = TrainConfig(mode="scratch", epochs=30, batch_size=4, seed=34, network=TOY_NET)
        self.base, _ = train_scratch(cfg, toy_dataset(seed=35))

    def cfg(self, **kw):
        base = dict(
            mode="n2n_online", epochs=20, batch_size=2, seed=36,
            kse_threshold=0.4, last_layer_frozen=True, network=TOY_NET,
        )
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_epochs_is_identity(self):
        tuned, rec = online_n2n(self.base, self.cfg(epochs=0), self.r1, self.r2)
        assert network_hash(tuned) == network_hash(self.base)
        assert rec.epoch_losses == []

    def test_identical_noiseless_realizations_fit_fixed_image(self):
        from tgdkit.model import forward_train
        from tgdkit.training import mse_loss, pairs_to_arrays

        fixed = self.truth
        # one full-batch epoch: the recorded loss is the net's train-mode
        # self-consistency error on the fixed image, before any update
        _, rec1 = online_n2n(
            self.base, self.cfg(epochs=1, batch_size=10_000), fixed, fixed
        )
        x, y = pairs_to_arrays([(fixed, fixed), (fixed, fixed)], 3)
        out, _ = forward_train(self.base, x)
        self_consistency, _ = mse_loss(out, y)
        assert rec1.epoch_losses[0] == pytest.approx(self_consistency, rel=1e-5)

        # a longer run drives the training loss toward the fixed image
        _, rec = online_n2n(
            self.base,
            self.cfg(epochs=60, learning_rate=1e-3, kse_threshold=0.8),
            fixed, fixed,
        )
        assert rec.epoch_losses[-1] < 0.5 * rec.epoch_losses[0]

    def test_swap_symmetry_bit_exact_full_batch(self):
        cfg = self.cfg(epochs=5, batch_size=10_000)
        a, _ = online_n2n(self.base, cfg, self.r1, self.r2)
        b, _ = online_n2n(self.base, cfg, self.r2, self.r1)
        assert network_hash(a) == network_hash(b)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            online_n2n(self.base, self.cfg(), self.r1, self.r2[:, :-1])

    def test_missing_threshold_rejected(self):
        with pytest.raises(ValueError, match="kse_threshold"):
            online_n2n(self.base, self.cfg(kse_threshold=None), self.r1, self.r2)

    def test_config_of_another_mode_rejected(self):
        cfg = self.cfg(mode="tgd_finetune", epochs=1)
        with pytest.raises(ValueError, match="n2n_online training got .* 'tgd_finetune'"):
            online_n2n(self.base, cfg, self.r1, self.r2)


class TestConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            TrainConfig(mode="finetune")

    def test_defaults_per_mode(self):
        assert TrainConfig(mode="scratch").epochs == 500
        assert TrainConfig(mode="n2n_online").epochs == 150
        assert TrainConfig(mode="scratch").learning_rate == 1e-3
        assert TrainConfig(mode="tgd_finetune").learning_rate == 1e-4

    def test_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(kse_threshold=-0.5)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})
