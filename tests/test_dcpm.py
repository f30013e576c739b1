import math

import numpy as np
import pytest

from monopgc import dcpm, numerics as nm
from monopgc.errors import ConfigError, DimensionError, DomainError
from monopgc.numerics import Tensor


def fresh_backbone(seed=0, channels=16):
    return dcpm.init_backbone_params(np.random.default_rng(seed), channels)


class TestBackboneStub:
    def test_shape_contract(self):
        params = fresh_backbone()
        feats = dcpm.extract_multiscale_features(Tensor(np.zeros((3, 64, 64))), params)
        shapes = [f.shape for f in feats.levels]
        assert shapes == [(16, 16, 16), (16, 8, 8), (16, 4, 4)]

    def test_zero_image_zero_features(self):
        params = fresh_backbone()
        feats = dcpm.extract_multiscale_features(Tensor(np.zeros((3, 32, 32))), params)
        for level in feats.levels:
            np.testing.assert_array_equal(level.data, 0.0)

    def test_determinism(self):
        rng = np.random.default_rng(1)
        img = Tensor(rng.uniform(0, 1, (3, 32, 32)))
        a = dcpm.extract_multiscale_features(img, fresh_backbone(5))
        b = dcpm.extract_multiscale_features(img, fresh_backbone(5))
        for la, lb in zip(a.levels, b.levels):
            np.testing.assert_array_equal(la.data, lb.data)

    def test_indivisible_size_rejected(self):
        with pytest.raises(ConfigError):
            dcpm.extract_multiscale_features(Tensor(np.zeros((3, 30, 32))), fresh_backbone())

    def test_level_invariant_enforced(self):
        with pytest.raises(DimensionError):
            dcpm.MultiScaleFeatures(levels=(Tensor(np.zeros((4, 8, 8))),
                                            Tensor(np.zeros((4, 5, 4))),
                                            Tensor(np.zeros((4, 2, 2)))))


class TestPyramidPool:
    def test_constant_preserved(self):
        rng = np.random.default_rng(0)
        params = dcpm.init_ppm_params(rng, 8)
        top = Tensor(np.full((8, 6, 6), 1.3))
        out = dcpm.pyramid_pool(top, params).data
        for c in range(8):
            np.testing.assert_allclose(out[c], out[c, 0, 0], rtol=1e-5)

    def test_output_shape(self):
        rng = np.random.default_rng(1)
        params = dcpm.init_ppm_params(rng, 8)
        top = Tensor(np.random.default_rng(2).standard_normal((8, 7, 9)))
        assert dcpm.pyramid_pool(top, params).shape == (8, 7, 9)

    def test_scale_one_branch_is_global_average(self):
        # hand check on a 2x2 map: the 1x1 pooled branch must broadcast the mean
        x = Tensor(np.array([[[1.0, 3.0], [5.0, 7.0]]]))
        pooled = nm.adaptive_avg_pool2d(x, (1, 1))
        assert pooled.data[0, 0, 0] == pytest.approx(4.0)
        back = nm.bilinear_resize(pooled, (2, 2))
        np.testing.assert_allclose(back.data, 4.0)

    def test_too_small_input_rejected(self):
        rng = np.random.default_rng(1)
        params = dcpm.init_ppm_params(rng, 8)
        with pytest.raises(ConfigError):
            dcpm.pyramid_pool(Tensor(np.zeros((8, 4, 4))), params)

    def test_channels_must_divide(self):
        with pytest.raises(ConfigError):
            dcpm.init_ppm_params(np.random.default_rng(0), 6)


class TestCrossScaleFusion:
    def _setup(self, seed=0, c=8, hw16=(2, 2)):
        rng = np.random.default_rng(seed)
        h, w = hw16
        levels = dcpm.MultiScaleFeatures(levels=(
            Tensor(rng.standard_normal((c, 4 * h, 4 * w))),
            Tensor(rng.standard_normal((c, 2 * h, 2 * w))),
            Tensor(rng.standard_normal((c, h, w))),
        ))
        pooled = Tensor(rng.standard_normal((c, h, w)))
        params = dcpm.init_fusion_params(rng, c)
        return levels, pooled, params

    def test_output_at_quarter_scale(self):
        levels, pooled, params = self._setup()
        out = dcpm.cross_scale_attention_fuse(levels, pooled, params)
        assert out.shape == (8, 8, 8)

    def test_constant_inputs_give_constant_output(self):
        rng = np.random.default_rng(3)
        c = 8
        levels = dcpm.MultiScaleFeatures(levels=(
            Tensor(np.broadcast_to(rng.standard_normal((c, 1, 1)), (c, 8, 8)).copy()),
            Tensor(np.broadcast_to(rng.standard_normal((c, 1, 1)), (c, 4, 4)).copy()),
            Tensor(np.broadcast_to(rng.standard_normal((c, 1, 1)), (c, 2, 2)).copy()),
        ))
        pooled = Tensor(np.broadcast_to(rng.standard_normal((c, 1, 1)), (c, 2, 2)).copy())
        params = dcpm.init_fusion_params(rng, c)
        with nm.check_mode():
            out = dcpm.cross_scale_attention_fuse(levels, pooled, params).data
        for ch in range(c):
            np.testing.assert_allclose(out[ch], out[ch, 0, 0], atol=1e-9)

    def test_gradient_through_fuse(self):
        rng = np.random.default_rng(4)
        with nm.check_mode():
            c, h, w = 4, 1, 1
            f8 = Tensor(rng.standard_normal((c, 2, 2)))
            f16 = Tensor(rng.standard_normal((c, 1, 1)))
            pooled = Tensor(rng.standard_normal((c, 1, 1)))
            params = dcpm.init_fusion_params(rng, c)
            probe = Tensor(rng.standard_normal((c, 4, 4)))

        def f(f4):
            levels = dcpm.MultiScaleFeatures(levels=(f4, f8, f16))
            return (dcpm.cross_scale_attention_fuse(levels, pooled, params) * probe).sum()

        err = nm.gradient_check(f, Tensor(rng.standard_normal((c, 4, 4))), epsilon=1e-5)
        assert err <= 1e-4

    def test_upscale_starts_as_nearest_neighbor(self):
        # identical 4-row groups: shuffled output equals the 1x1-projected map upsampled
        rng = np.random.default_rng(5)
        params = dcpm.init_fusion_params(rng, 8)
        x = Tensor(rng.standard_normal((8, 3, 3)))
        up = dcpm.rearranged_upscale(x, params["up0_w"], params["up0_b"]).data
        np.testing.assert_allclose(up[:, ::2, ::2], up[:, 1::2, 1::2], atol=1e-6)


class TestDepthHead:
    def test_uniform_from_zero_logits(self):
        pred = dcpm.DepthDistribution(
            logits=Tensor(np.zeros((5, 3, 3))),
            probabilities=nm.softmax(Tensor(np.zeros((5, 3, 3))), axis=0))
        np.testing.assert_allclose(pred.probabilities.data, 0.2)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        f = Tensor(rng.standard_normal((8, 6, 6)))
        params = dcpm.init_depth_head_params(rng, 8, 12)
        pred = dcpm.predict_depth_distribution(f, params)
        assert pred.bins == 12
        np.testing.assert_allclose(pred.probabilities.data.sum(axis=0), 1.0, atol=1e-6)


class TestDepthFocalLoss:
    def _uniform_pred(self, d, h, w):
        logits = Tensor(np.zeros((d, h, w)))
        return dcpm.DepthDistribution(logits=logits, probabilities=nm.softmax(logits, axis=0))

    def test_perfect_prediction_zero_loss(self):
        # drive p_t -> 1 with huge logits on the target bin
        gt = np.array([[1, 0], [2, 3]])
        logits = np.full((4, 2, 2), -1e4)
        for r in range(2):
            for c in range(2):
                logits[gt[r, c], r, c] = 1e4
        pred = dcpm.DepthDistribution(logits=Tensor(logits),
                                      probabilities=nm.softmax(Tensor(logits), axis=0))
        loss = dcpm.depth_focal_loss(pred, gt, np.ones((2, 2)))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_half_probability_single_pixel(self):
        logits = np.zeros((2, 1, 1))
        pred = dcpm.DepthDistribution(logits=Tensor(logits),
                                      probabilities=nm.softmax(Tensor(logits), axis=0))
        loss = dcpm.depth_focal_loss(pred, np.array([[0]]), np.ones((1, 1)), alpha_fg=1.0)
        assert loss.item() == pytest.approx(0.25 * math.log(2.0), rel=1e-6)
        assert loss.item() == pytest.approx(0.17328679513998632, rel=1e-6)

    def test_all_ignored_warns_and_zero(self):
        pred = self._uniform_pred(4, 2, 2)
        gt = np.full((2, 2), dcpm.IGNORE_BIN)
        with pytest.warns(UserWarning):
            loss = dcpm.depth_focal_loss(pred, gt, np.zeros((2, 2)))
        assert loss.item() == 0.0

    def test_foreground_weighting(self):
        pred = self._uniform_pred(4, 1, 2)
        gt = np.array([[0, 0]])
        fg = np.array([[1, 0]])
        loss_fg = dcpm.depth_focal_loss(pred, gt, np.ones((1, 2)))
        loss_mixed = dcpm.depth_focal_loss(pred, gt, fg)
        assert loss_mixed.item() < loss_fg.item()

    def test_out_of_range_bin(self):
        pred = self._uniform_pred(4, 1, 1)
        with pytest.raises(DomainError):
            dcpm.depth_focal_loss(pred, np.array([[7]]), np.ones((1, 1)))

    def test_nonnegative_and_zero_iff_perfect(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            logits = Tensor(rng.standard_normal((4, 3, 3)))
            pred = dcpm.DepthDistribution(logits=logits, probabilities=nm.softmax(logits, axis=0))
            gt = rng.integers(0, 4, size=(3, 3))
            loss = dcpm.depth_focal_loss(pred, gt, rng.integers(0, 2, size=(3, 3)))
            assert loss.item() > 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        gt = rng.integers(0, 4, size=(3, 3))
        gt[0, 0] = dcpm.IGNORE_BIN
        fg = rng.integers(0, 2, size=(3, 3))

        def f(logits):
            pred = dcpm.DepthDistribution(logits=logits, probabilities=nm.softmax(logits, axis=0))
            return dcpm.depth_focal_loss(pred, gt, fg)

        err = nm.gradient_check(f, Tensor(rng.standard_normal((4, 3, 3))), epsilon=1e-5)
        assert err <= 1e-4

    def test_accuracy_metric(self):
        logits = np.zeros((4, 2, 2))
        logits[1] = 5.0  # argmax bin 1 everywhere
        pred = dcpm.DepthDistribution(logits=Tensor(logits),
                                      probabilities=nm.softmax(Tensor(logits), axis=0))
        gt = np.array([[1, 2], [3, 0]])
        acc = dcpm.depth_accuracy_within(pred, gt, np.ones((2, 2)), tolerance=1)
        assert acc == pytest.approx(3 / 4)
