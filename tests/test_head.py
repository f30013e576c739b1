import math

import numpy as np
import pytest

from monopgc import data, geometry as geo, head, numerics as nm
from monopgc.errors import DomainError
from monopgc.numerics import Tensor

KITTI_CLASSES = ("Car", "Pedestrian", "Cyclist")


def maps_from_targets(targets, sharp_score=0.999):
    """Perfect head maps for the rendered targets (decode round-trip oracle)."""
    k, h, w = targets["heatmap"].shape
    heat = np.where(targets["heatmap"] >= 1.0, sharp_score, targets["heatmap"] * 0.3)
    return head.HeadMaps(
        class_heatmap=Tensor(heat),
        center_offset=Tensor(targets["offset"]),
        dims_log=Tensor(targets["dims_log"]),
        yaw_sincos=Tensor(targets["yaw"]),
        center_depth=Tensor(targets["depth"]),
        depth_log_b=Tensor(np.zeros((1, h, w))),
    )


def aleatoric_depth_term(abs_error, log_b):
    """Closed-form single-pair value |d| e^{-s} + s."""
    return abs_error * math.exp(-log_b) + log_b


def fresh_maps(seed=0, k=len(KITTI_CLASSES), hw=(8, 8)):
    rng = np.random.default_rng(seed)
    f = Tensor(rng.standard_normal((8, *hw)))
    params = head.init_head_params(rng, 8, num_classes=k)
    return head.predict_head_maps(f, params)


class TestPredictHeadMaps:
    def test_shapes(self):
        maps = fresh_maps()
        assert maps.class_heatmap.shape == (3, 8, 8)
        assert maps.center_offset.shape == (2, 8, 8)
        assert maps.dims_log.shape == (3, 8, 8)
        assert maps.yaw_sincos.shape == (2, 8, 8)
        assert maps.center_depth.shape == (1, 8, 8)
        assert maps.depth_log_b.shape == (1, 8, 8)

    def test_heatmap_in_unit_interval(self):
        maps = fresh_maps(1)
        assert (maps.class_heatmap.data > 0).all()
        assert (maps.class_heatmap.data < 1).all()

    def test_heatmap_bias_initial_score(self):
        # fresh head on zero features scores sigmoid(-2.19) = 0.100653...
        rng = np.random.default_rng(2)
        params = head.init_head_params(rng, 8, num_classes=len(KITTI_CLASSES))
        maps = head.predict_head_maps(Tensor(np.zeros((8, 6, 6))), params)
        expected = 1.0 / (1.0 + math.exp(2.19))
        np.testing.assert_allclose(maps.class_heatmap.data, expected, atol=1e-5)
        assert abs(expected - 0.1) < 1e-3

    def test_zero_dims_logits_decode_to_one_meter(self):
        assert math.exp(0.0) == 1.0
        maps = fresh_maps(3)
        dims = np.exp(maps.dims_log.data * 0.0)
        np.testing.assert_allclose(dims, 1.0)


class TestTargetsAndDecode:
    def _scene_targets(self, seed=7):
        scene = data.generate_synthetic_scene(seed)
        h, w = scene.image.shape[1:]
        feature_hw = (h // 4, w // 4)
        targets = head.render_targets(scene.objects, scene.calib, feature_hw,
                                      classes=KITTI_CLASSES, stride=4)
        return scene, targets

    def test_positive_count(self):
        scene, targets = self._scene_targets()
        assert targets["n_pos"] == len(scene.objects)
        assert targets["pos_mask"].sum() == targets["n_pos"]

    def test_decode_example_principal_point(self):
        # single peak at cell (8,8), depth 10, f=1, c=(8,8), stride 1 -> (0,0,10)
        k, h, w = 1, 16, 16
        heat = np.full((k, h, w), 1e-3)
        heat[0, 8, 8] = 0.9
        maps = head.HeadMaps(
            class_heatmap=Tensor(heat), center_offset=Tensor(np.zeros((2, h, w))),
            dims_log=Tensor(np.zeros((3, h, w))), yaw_sincos=Tensor(np.zeros((2, h, w))),
            center_depth=Tensor(np.full((1, h, w), 10.0)),
            depth_log_b=Tensor(np.zeros((1, h, w))))
        calib = geo.CameraCalibration.from_pinhole(1.0, 1.0, 8.0, 8.0)
        dets = head.decode_detections(maps, calib, score_threshold=0.5, stride=1,
                                      classes=("Car",))
        assert len(dets) == 1
        np.testing.assert_allclose(dets[0].location, (0.0, 0.0, 10.0), atol=1e-9)
        assert dets[0].score == pytest.approx(0.9)

    def test_all_below_threshold_empty(self):
        maps = fresh_maps(4)
        calib = geo.CameraCalibration.from_pinhole(50.0, 50.0, 16.0, 16.0)
        dets = head.decode_detections(maps, calib, classes=KITTI_CLASSES,
                                      score_threshold=0.999)
        assert dets == []

    def test_top_k_ordering(self):
        k, h, w = 1, 12, 12
        heat = np.full((k, h, w), 1e-3)
        heat[0, 3, 3] = 0.8
        heat[0, 9, 9] = 0.6
        maps = head.HeadMaps(
            class_heatmap=Tensor(heat), center_offset=Tensor(np.zeros((2, h, w))),
            dims_log=Tensor(np.zeros((3, h, w))), yaw_sincos=Tensor(np.zeros((2, h, w))),
            center_depth=Tensor(np.full((1, h, w), 5.0)),
            depth_log_b=Tensor(np.zeros((1, h, w))))
        calib = geo.CameraCalibration.from_pinhole(10.0, 10.0, 6.0, 6.0)
        dets = head.decode_detections(maps, calib, score_threshold=0.25, top_k=1,
                                      classes=("Car",))
        assert len(dets) == 1
        assert dets[0].score == pytest.approx(0.8)

    def test_perfect_maps_reproduce_labels(self):
        # spec invariant: decode of label-rendered maps recovers every center
        # within one feature cell of unprojection error, dims within 1e-6
        for seed in (1, 2, 3):
            scene = data.generate_synthetic_scene(seed)
            h, w = scene.image.shape[1:]
            targets = head.render_targets(scene.objects, scene.calib, (h // 4, w // 4),
                                          classes=KITTI_CLASSES)
            maps = maps_from_targets(targets)
            dets = head.decode_detections(maps, scene.calib, classes=KITTI_CLASSES,
                                          score_threshold=0.5, uncertainty_discount=False)
            assert len(dets) == len(scene.objects)
            cell = 4.0  # one feature cell in pixels
            for obj in scene.objects:
                center = np.asarray(obj.center3d())
                best = min(dets, key=lambda d: np.linalg.norm(np.asarray(d.location) - center))
                # worst-case unprojection error for one cell at this depth
                tol = cell * center[2] / scene.calib.fx + 1e-6
                assert np.linalg.norm(np.asarray(best.location) - center) <= tol
                np.testing.assert_allclose(best.dimensions, obj.dimensions, atol=1e-6)
                assert abs(head._wrap_angle(best.yaw - obj.rotation_y)) < 1e-6


class TestDetectionLoss:
    def _setup(self, seed=5):
        scene = data.generate_synthetic_scene(seed)
        h, w = scene.image.shape[1:]
        targets = head.render_targets(scene.objects, scene.calib, (h // 4, w // 4),
                                      classes=KITTI_CLASSES)
        return scene, targets

    def test_perfect_regression_zero_reg(self):
        _, targets = self._setup()
        maps = maps_from_targets(targets, sharp_score=0.999)
        total, breakdown = head.detection_loss(maps, targets)
        assert breakdown["offset"] == pytest.approx(0.0, abs=1e-9)
        assert breakdown["dims"] == pytest.approx(0.0, abs=1e-9)
        assert breakdown["yaw"] == pytest.approx(0.0, abs=1e-9)
        assert breakdown["depth_l1"] == pytest.approx(0.0, abs=1e-9)

    def _aleatoric_loss(self, err, log_b):
        # the loss's depth term on perfect maps whose depth is off by `err`
        # at every positive cell, with log_b as the uncertainty everywhere
        _, targets = self._setup()
        with nm.check_mode():
            maps = maps_from_targets(targets)
            maps.center_depth = Tensor(targets["depth"] + err)
            maps.depth_log_b = Tensor(np.full_like(targets["depth"], log_b))
            _, breakdown = head.detection_loss(maps, targets)
        return breakdown["depth_l1"]

    def test_aleatoric_unit_error(self):
        assert aleatoric_depth_term(1.0, 0.0) == pytest.approx(1.0)
        assert self._aleatoric_loss(1.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_aleatoric_minimum_at_log_error(self):
        # calculus oracle: d/ds (|d| e^-s + s) = 0 at s = ln|d|, value 1 + ln|d|
        for err in (0.3, 1.0, 4.7):
            s_star = math.log(err)
            best = aleatoric_depth_term(err, s_star)
            assert best == pytest.approx(1.0 + math.log(err), rel=1e-9)
            assert self._aleatoric_loss(err, s_star) == pytest.approx(best, rel=1e-9)
            for ds in (-0.3, 0.2, 1.0):
                assert aleatoric_depth_term(err, s_star + ds) > best
                assert self._aleatoric_loss(err, s_star + ds) > best

    def test_no_positives_warns(self):
        maps = fresh_maps(6)
        targets = head.render_targets([], None, (8, 8), classes=KITTI_CLASSES)
        with pytest.warns(UserWarning):
            total, breakdown = head.detection_loss(maps, targets)
        assert breakdown["reg"] == 0.0
        assert breakdown["cls"] > 0.0

    def test_loss_gradient_matches_finite_differences(self):
        scene, targets = self._setup(9)
        rng = np.random.default_rng(0)
        hw = targets["pos_mask"].shape
        with nm.check_mode():
            params = head.init_head_params(rng, 6, num_classes=len(KITTI_CLASSES))

        def f(feat):
            maps = head.predict_head_maps(feat, params)
            total, _ = head.detection_loss(maps, targets)
            return total

        err = nm.gradient_check(f, Tensor(np.random.default_rng(1).standard_normal((6, *hw))),
                                epsilon=1e-5, sample=40)
        assert err <= 1e-3

    def test_total_composition(self):
        _, targets = self._setup()
        maps = maps_from_targets(targets)
        dloss = Tensor(np.array(0.25)).sum()
        total, breakdown = head.detection_loss(maps, targets, lambdas=(2.0, 1.0, 1.0),
                                               depth_loss=dloss)
        assert breakdown["total"] == pytest.approx(
            breakdown["cls"] + breakdown["reg"] + 2.0 * 0.25, rel=1e-5)


class TestRecordConversions:
    def test_label_detection_round_trip(self):
        scene = data.generate_synthetic_scene(12)
        for obj in scene.objects:
            det = head.detection_from_label(obj)
            back = head.detection_to_label(det)
            np.testing.assert_allclose(back.location, obj.location, atol=1e-9)
            np.testing.assert_allclose(back.dimensions, obj.dimensions, atol=1e-9)
            assert abs(head._wrap_angle(back.rotation_y - obj.rotation_y)) < 1e-9

    def test_positive_dims_enforced(self):
        with pytest.raises(DomainError):
            head.Detection3D("Car", 0.5, (0, 0, 10), (0.0, 1.0, 1.0), 0.0)

    def test_bbox2d_projection(self):
        scene = data.generate_synthetic_scene(1)
        det = head.detection_from_label(scene.objects[0])
        box = head.detection_bbox2d(det, scene.calib, scene.image.shape[1:])
        ref = scene.objects[0].bbox2d
        np.testing.assert_allclose(box, ref, atol=1e-6)
