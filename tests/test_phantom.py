"""Phantom generation, scan simulation, thinning, and dataset assembly."""

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from tgdkit.phantom import (
    DATASET_COUNT_LEVELS,
    Ellipse,
    Lesion,
    PhantomSpec,
    ScanProtocol,
    _gaussian_blur,
    background_voxels,
    build_dataset,
    generate_phantom,
    has_kind,
    lesion_voxels,
    load_study,
    make_study,
    random_phantom_spec,
    save_study,
    simulate_scan,
    split_scan,
    thin,
)


class TestHasKind:
    """The JSON kind rules every config, sidecar and ROI file is read with."""

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_is_not_int_or_float(self, value):
        assert not has_kind(value, int)
        assert not has_kind(value, float)
        assert has_kind(value, bool)

    @pytest.mark.parametrize("value", [0, -3, 2**70])
    def test_int_is_also_float(self, value):
        assert has_kind(value, int) and has_kind(value, float)

    def test_float_is_not_int(self):
        assert has_kind(1.5, float) and not has_kind(1.0, int)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_is_not_float(self, value):
        assert not has_kind(value, float)
        assert not has_kind([1.0, value], list[float])

    def test_nested_lists(self):
        assert has_kind([[0, 1, 2], [3, 4, 5]], list[list[int]])
        assert has_kind([], list[list[int]]) and has_kind([[]], list[list[int]])
        assert not has_kind([[0, 1, 2], [3, 4.0, 5]], list[list[int]])
        assert not has_kind([[0, 1, 2], [3, True, 5]], list[list[int]])
        assert not has_kind([[0, 1, 2], (3, 4, 5)], list[list[int]])
        assert not has_kind([0, 1, 2], list[list[int]])
        assert not has_kind({"a": [1]}, list[list[int]])

    def test_optional(self):
        assert has_kind(None, int | None) and has_kind(4, int | None)
        assert not has_kind(4.0, int | None) and not has_kind(True, int | None)
        assert has_kind(None, list[float] | None) and has_kind([1, 2.5], list[float] | None)
        assert not has_kind([None], list[float] | None)
        assert not has_kind(None, int)

    def test_other_types_match_exactly(self):
        assert has_kind("a", str) and not has_kind(b"a", str)
        assert has_kind({}, dict) and not has_kind([], dict)


def body_spec(h=48, w=48, slices=3, lesions=(), seed=0):
    return PhantomSpec(
        h, w, slices,
        (Ellipse(((h - 1) / 2, (w - 1) / 2), (14, 12), 1.0),),
        lesions, seed=seed,
    )


class TestGeneratePhantom:
    def test_empty_spec_is_zero(self):
        vol = generate_phantom(PhantomSpec(16, 16, 3))
        assert vol.shape == (3, 16, 16)
        assert not vol.any()

    @pytest.mark.parametrize("axes", [(12, 12), (11, 14)])
    def test_ellipse_area_matches_rasterization(self, axes):
        spec = PhantomSpec(48, 48, 5, (Ellipse((23.5, 23.5), axes, 1.0),))
        vol = generate_phantom(spec)
        count = np.count_nonzero(vol[2])  # center slice, no axis modulation
        area = np.pi * axes[0] * axes[1]
        assert abs(count - area) / area < 0.02

    def test_same_seed_bit_identical(self):
        a = generate_phantom(body_spec(seed=5))
        b = generate_phantom(body_spec(seed=5))
        np.testing.assert_array_equal(a, b)

    def test_lesion_multiplies_background(self):
        lesion = Lesion((23.5, 23.5), 3.0, 2.0)
        plain = generate_phantom(body_spec())
        hot = generate_phantom(body_spec(lesions=(lesion,)))
        vox = lesion_voxels(body_spec(lesions=(lesion,)))
        s, y, x = vox.T
        np.testing.assert_allclose(hot[s, y, x], 2.0 * plain[s, y, x], rtol=1e-6)

    def test_out_of_bounds_lesion_rejected(self):
        with pytest.raises(ValueError, match="out of bounds"):
            PhantomSpec(16, 16, 3, lesions=(Lesion((1.0, 8.0), 3.0, 2.0),))

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError, match="intensity"):
            PhantomSpec(16, 16, 3, (Ellipse((8, 8), (4, 4), -1.0),))

    @pytest.mark.parametrize("contrast", [-2.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_lesion_contrast_rejected(self, contrast):
        with pytest.raises(ValueError, match="contrast must be finite and >= 0"):
            body_spec(lesions=(Lesion((20, 20), 3.0, contrast),))


class TestGaussianBlur:
    # below sigma 0.125 the kernel is one tap; at 1e-200 sigma**2 underflows
    @pytest.mark.parametrize("sigma", [1e-200, 0.1, 0.8, 1.5, 4.0])
    # at sigma 4 the radius (16) exceeds both axes of the two small shapes
    @pytest.mark.parametrize("shape", [(3, 5, 5), (3, 12, 12), (5, 128, 128)])
    @pytest.mark.parametrize("counts", [False, True])
    def test_bit_identical_to_scipy(self, sigma, shape, counts):
        rng = np.random.default_rng(11)
        x = rng.poisson(4.0, shape).astype(np.float64) if counts else rng.standard_normal(shape)
        expected = gaussian_filter(x, (0, sigma, sigma))
        assert _gaussian_blur(x, sigma).tobytes() == expected.tobytes()


class TestSimulateScan:
    def test_zero_activity_gives_zero(self):
        proto = ScanProtocol(1.0, 1e6, seed=0)
        out = simulate_scan(np.zeros((3, 8, 8), np.float32), proto, seed=proto.seed)
        assert not out.any()

    def test_high_count_limit_approaches_blurred_activity(self):
        truth = generate_phantom(body_spec())
        proto = ScanProtocol(1.5, 1e9, seed=1)
        scan = simulate_scan(truth, proto, seed=proto.seed)
        blurred = gaussian_filter(truth.astype(np.float64), (0, 1.5, 1.5))
        rel_rmse = np.sqrt(((scan - blurred) ** 2).mean()) / np.sqrt(
            (blurred**2).mean()
        )
        assert rel_rmse < 0.01

    def test_sample_mean_tracks_expectation(self):
        # 1000 draws; per-pixel 3-sigma violations should stay near the
        # 0.27% a normal approximation predicts
        truth = generate_phantom(body_spec(h=24, w=24, slices=1))
        proto = ScanProtocol(1.0, 5e4, seed=2)
        draws = np.stack(
            [simulate_scan(truth, proto, seed=1000 + i) for i in range(1000)]
        )
        mean = draws.mean(axis=0)
        sem = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        expected = gaussian_filter(truth.astype(np.float64), (0, 1.0, 1.0))
        body = expected > 0.05
        viol = np.abs(mean - expected)[body] > 3 * sem[body]
        assert viol.mean() < 0.01

    def test_deterministic_given_seed(self):
        truth = generate_phantom(body_spec())
        proto = ScanProtocol(1.2, 1e5, seed=9)
        np.testing.assert_array_equal(
            simulate_scan(truth, proto, seed=proto.seed),
            simulate_scan(truth, proto, seed=proto.seed),
        )

    def test_negative_activity_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            simulate_scan(np.full((1, 4, 4), -1.0), ScanProtocol(1.0, 1e5), seed=0)

    @pytest.mark.parametrize(
        "sigma, budget", [(np.nan, 1e5), (np.inf, 1e5), (1.0, np.nan), (1.0, np.inf)]
    )
    def test_protocol_needs_finite_positive_values(self, sigma, budget):
        with pytest.raises(ValueError, match="finite and positive"):
            ScanProtocol(sigma, budget)

    def test_smaller_psf_gives_finer_noise_grain(self):
        truth = generate_phantom(body_spec())
        corrs = {}
        for sigma in (1.5, 0.8):
            proto = ScanProtocol(sigma, 2e5, seed=3)
            scan = simulate_scan(truth, proto, seed=42)
            expected = gaussian_filter(truth.astype(np.float64), (0, sigma, sigma))
            res = scan - expected
            corrs[sigma] = np.corrcoef(
                res[:, :, :-1].ravel(), res[:, :, 1:].ravel()
            )[0, 1]
        assert corrs[0.8] < corrs[1.5]


class TestThin:
    def test_conservation_exact(self):
        rng = np.random.default_rng(0)
        counts = rng.poisson(50.0, (3, 16, 16))
        for p in (0.2, 0.5, 0.9):
            h1, h2 = thin(counts, p, seed=7)
            np.testing.assert_array_equal(h1 + h2, counts)

    def test_equal_split_means_match(self):
        rng = np.random.default_rng(1)
        counts = rng.poisson(100.0, (1, 100, 100))
        h1, h2 = thin(counts, 0.5, seed=11)
        total = counts.sum()
        # h1 - h2 is a sum of +-1 coin flips over every count
        sigma = np.sqrt(total) / counts.size
        assert abs(h1.mean() - h2.mean()) < 3 * sigma

    def test_halves_uncorrelated(self):
        lam = 100.0
        counts = np.random.default_rng(2).poisson(lam, (1, 100, 100))
        p = 0.5
        h1, h2 = thin(counts, p, seed=13)
        d1 = h1 - p * lam
        d2 = h2 - (1 - p) * lam
        cov = (d1 * d2).mean()
        sigma = np.sqrt(d1.var() * d2.var() / d1.size)
        assert abs(cov) < 3 * sigma

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            thin(np.array([1.5, 2.0]), 0.5, seed=0)

    def test_integral_floats_accepted(self):
        h1, h2 = thin(np.array([4.0, 0.0, 9.0]), 0.5, seed=0)
        np.testing.assert_array_equal(h1 + h2, [4, 0, 9])

    def test_bad_p_rejected(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                thin(np.array([1, 2]), p, seed=0)


class TestSplitScan:
    def test_halves_are_unbiased_and_noisier(self):
        truth = generate_phantom(body_spec())
        proto = ScanProtocol(1.0, 1e6, seed=4)
        full, r1, r2 = split_scan(truth, proto, seed=proto.seed)
        assert full.shape == r1.shape == r2.shape == truth.shape
        expected = gaussian_filter(truth.astype(np.float64), (0, 1.0, 1.0))
        body = expected > 0.05
        # equal-count halves: comparable bias, roughly doubled variance
        assert abs(r1[body].mean() - expected[body].mean()) < 0.05
        assert ((r1 - expected)[body].var()) > ((full - expected)[body].var())


class TestBuildDataset:
    def test_pair_counting(self):
        rng = np.random.default_rng(5)
        specs = [random_phantom_spec(rng, 24, 24, slices=3) for _ in range(10)]
        ds = build_dataset(specs, ScanProtocol(1.5, 1e5, seed=6))
        assert len(DATASET_COUNT_LEVELS) == 6
        assert len(ds.pairs("train")) == 60

    def test_split_is_phantom_disjoint(self):
        rng = np.random.default_rng(6)
        specs = [random_phantom_spec(rng, 24, 24, slices=3) for _ in range(5)]
        ds = build_dataset(specs, ScanProtocol(1.5, 1e5, seed=7), n_val=2)
        train_ids = {sp.phantom_id for sp in ds.train}
        val_ids = {sp.phantom_id for sp in ds.val}
        assert not train_ids & val_ids
        assert len(train_ids) == 3 and len(val_ids) == 2

    def test_regeneration_is_byte_identical(self):
        rng = np.random.default_rng(7)
        specs = [random_phantom_spec(rng, 16, 16, slices=3) for _ in range(2)]
        proto = ScanProtocol(1.0, 5e4, seed=8)
        a = build_dataset(specs, proto, count_levels=(0.1, 0.3))
        b = build_dataset(
            [PhantomSpec.from_dict(d) for d in a.manifest["specs"]],
            ScanProtocol.from_dict(a.manifest["protocol"]),
            count_levels=tuple(a.manifest["count_levels"]),
        )
        for sa, sb in zip(a.train, b.train):
            assert sa.target.tobytes() == sb.target.tobytes()
            for k in sa.inputs:
                assert sa.inputs[k].tobytes() == sb.inputs[k].tobytes()

    def test_empty_levels_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            build_dataset([body_spec()], ScanProtocol(1.0, 1e5), count_levels=())

    @pytest.mark.parametrize(
        "levels", [(0.1, 0.1), (0.1, 0.1000001), (0.0,), (0.1, float("nan"))]
    )
    def test_zero_or_key_sharing_levels_rejected(self, levels):
        # 0.1000001 has level key "0.1" too, and would replace the first scan
        with pytest.raises(ValueError, match="count_levels"):
            build_dataset([body_spec()], ScanProtocol(1.0, 1e5), count_levels=levels)


class TestMakeStudy:
    @pytest.mark.parametrize("levels", [(0.1, 0.1), (0.1, 0.1000001), (0.0,)])
    def test_zero_or_key_sharing_levels_rejected(self, levels):
        with pytest.raises(ValueError, match="count_levels"):
            make_study(body_spec(), ScanProtocol(1.0, 1e5), count_levels=levels)


class TestStudyIo:
    def test_round_trip(self, tmp_path):
        spec = body_spec(lesions=(Lesion((20, 20), 3.0, 2.0),), seed=12)
        study = make_study(
            spec, ScanProtocol(1.0, 1e5, seed=13),
            count_levels=(0.2, 1.0), n_realizations=3, n2n_split=True,
        )
        save_study(study, tmp_path / "study")
        loaded = load_study(tmp_path / "study")
        assert loaded.truth.tobytes() == study.truth.tobytes()
        assert set(loaded.realizations) == set(study.realizations)
        for k in study.realizations:
            assert loaded.realizations[k].tobytes() == study.realizations[k].tobytes()
        assert loaded.realizations["n2n"].shape[0] == 2
        assert loaded.protocol == study.protocol


class TestRois:
    def test_roi_voxels_in_bounds_and_disjoint(self):
        spec = body_spec(lesions=(Lesion((20, 20), 3.0, 2.0),))
        les = lesion_voxels(spec)
        bg = background_voxels(spec)
        for vox in (les, bg):
            assert (vox >= 0).all()
            assert (vox[:, 0] < spec.slices).all()
            assert (vox[:, 1] < spec.height).all()
            assert (vox[:, 2] < spec.width).all()
        les_set = {tuple(v) for v in les}
        bg_set = {tuple(v) for v in bg}
        assert not les_set & bg_set
