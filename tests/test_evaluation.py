import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from monopgc import data, evaluation as ev, head
from monopgc.errors import DomainError, EvaluationError
from monopgc.evaluation import BevBox


def unit_square(cx=0.0, cz=0.0, angle=0.0):
    return BevBox(cx, cz, 1.0, 1.0, angle)


class TestRotatedIou:
    def test_identical(self):
        a = BevBox(1.0, 2.0, 3.0, 1.5, 0.7)
        assert ev.rotated_bev_iou(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_offset_half(self):
        # unit squares offset by 0.5: intersection 0.5, union 1.5
        iou = ev.rotated_bev_iou(unit_square(), unit_square(cx=0.5))
        assert iou == pytest.approx(1 / 3, abs=1e-12)
        oracle = ev.rasterized_bev_iou(unit_square(), unit_square(cx=0.5), resolution=1000)
        assert abs(iou - oracle) < 5e-3

    def test_rotated_45_degrees(self):
        iou = ev.rotated_bev_iou(unit_square(), unit_square(angle=math.pi / 4))
        expected = (2 * math.sqrt(2) - 2) / (4 - 2 * math.sqrt(2))
        assert iou == pytest.approx(expected, abs=1e-9)
        assert iou == pytest.approx(0.7071067811865476, abs=1e-9)
        oracle = ev.rasterized_bev_iou(unit_square(), unit_square(angle=math.pi / 4), resolution=1000)
        assert abs(iou - oracle) < 5e-3

    def test_disjoint(self):
        assert ev.rotated_bev_iou(unit_square(), unit_square(cx=5.0)) == 0.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = BevBox(*rng.uniform(-3, 3, 2), *rng.uniform(0.5, 3.5, 2), rng.uniform(-math.pi, math.pi))
            b = BevBox(*rng.uniform(-3, 3, 2), *rng.uniform(0.5, 3.5, 2), rng.uniform(-math.pi, math.pi))
            assert ev.rotated_bev_iou(a, b) == ev.rotated_bev_iou(b, a)

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = BevBox(*rng.uniform(-3, 3, 2), *rng.uniform(0.5, 3.5, 2), rng.uniform(-math.pi, math.pi))
            b = BevBox(*rng.uniform(-3, 3, 2), *rng.uniform(0.5, 3.5, 2), rng.uniform(-math.pi, math.pi))
            base = ev.rotated_bev_iou(a, b)
            theta = rng.uniform(-math.pi, math.pi)
            t = rng.uniform(-10, 10, 2)
            c, s = math.cos(theta), math.sin(theta)
            m = np.array([[c, s], [-s, c]])  # matches the corner convention
            moved = []
            for box in (a, b):
                cx, cz = m @ np.array([box.cx, box.cz]) + t
                moved.append(BevBox(cx, cz, box.length, box.width, box.angle + theta))
            assert ev.rotated_bev_iou(*moved) == pytest.approx(base, abs=1e-9)

    def test_against_rasterization_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(150):
            a = BevBox(*rng.uniform(-2, 2, 2), *rng.uniform(0.5, 3.5, 2), rng.uniform(-math.pi, math.pi))
            b = BevBox(*rng.uniform(-2, 2, 2), *rng.uniform(0.5, 3.5, 2), rng.uniform(-math.pi, math.pi))
            exact = ev.rotated_bev_iou(a, b)
            approx = ev.rasterized_bev_iou(a, b, resolution=500)
            assert abs(exact - approx) < 5e-3

    def test_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = BevBox(*rng.uniform(-2, 2, 2), *rng.uniform(0.5, 3.5, 2), rng.uniform(-math.pi, math.pi))
            b = BevBox(*rng.uniform(-2, 2, 2), *rng.uniform(0.5, 3.5, 2), rng.uniform(-math.pi, math.pi))
            iou = ev.rotated_bev_iou(a, b)
            assert 0.0 <= iou <= 1.0 + 1e-12

    def test_positive_extents_required(self):
        with pytest.raises(DomainError):
            BevBox(0, 0, 0.0, 1.0, 0.0)


def det(x=0.0, y=1.0, z=10.0, h=1.5, w=1.6, l=4.0, yaw=0.0, score=1.0, cls="Car"):
    return head.Detection3D(class_id=0, class_name=cls, score=score,
                            location=(x, y, z), dimensions=(h, w, l), yaw=yaw)


class TestIou3d:
    def test_identical(self):
        assert ev.iou_3d(det(), det()) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_vertical(self):
        a = det(y=0.0)
        b = det(y=5.0)
        assert ev.iou_3d(a, b) == 0.0

    def test_half_height_overlap(self):
        # same footprint A, height h each, overlap h/2: IoU = 1/3
        a = det(y=0.0, h=2.0)
        b = det(y=1.0, h=2.0)
        assert ev.iou_3d(a, b) == pytest.approx(1 / 3, abs=1e-9)


class TestDifficulty:
    def _obj(self, height=50.0, occ=0, trunc=0.0):
        return data.LabeledObject("Car", trunc, occ, 0.0, (0, 0, 10, height),
                                  (1.5, 1.6, 4.0), (0, 1, 20), 0.0)

    def test_easy(self):
        assert ev.assign_difficulty(self._obj(50, 0, 0.0)) == "easy"

    def test_moderate(self):
        assert ev.assign_difficulty(self._obj(30, 1, 0.2)) == "moderate"

    def test_hard(self):
        assert ev.assign_difficulty(self._obj(30, 2, 0.45)) == "hard"

    def test_ignored(self):
        assert ev.assign_difficulty(self._obj(20, 0, 0.0)) == "ignored"
        assert ev.assign_difficulty(self._obj(50, 3, 0.0)) == "ignored"


class TestAp40:
    def _gt_obj(self, x, z, yaw=0.0, cls="Car"):
        return data.LabeledObject(cls, 0.0, 0, 0.0, (0, 0, 60, 60),
                                  (1.5, 1.6, 4.0), (x, 1.0, z), yaw)

    def test_perfect_predictions(self):
        gts = {"000": [self._gt_obj(0, 10), self._gt_obj(3, 20)]}
        preds = {"000": [head.detection_from_label(o) for o in gts["000"]]}
        ap = ev.average_precision_40(preds, gts, difficulty="overall")
        assert ap == pytest.approx(1.0, abs=1e-12)

    def test_no_predictions(self):
        gts = {"000": [self._gt_obj(0, 10)]}
        ap = ev.average_precision_40({"000": []}, gts, difficulty="overall")
        assert ap == 0.0

    def test_half_recall_exact(self):
        gts = {"000": [self._gt_obj(8 * i, 10 + 5 * i) for i in range(8)]}
        preds = {"000": [head.detection_from_label(o) for o in gts["000"][:4]]}
        ap = ev.average_precision_40(preds, gts, difficulty="overall")
        assert ap == pytest.approx(0.5, abs=1e-12)

    def test_no_ground_truth_not_applicable(self):
        ap = ev.average_precision_40({"000": []}, {"000": []}, difficulty="overall")
        assert ap is None

    def test_removing_false_positive_never_hurts(self):
        rng = np.random.default_rng(4)
        gts = {"000": [self._gt_obj(6 * i, 12 + 4 * i) for i in range(4)]}
        good = [head.detection_from_label(o) for o in gts["000"][:3]]
        for d in good:
            d.score = 0.9
        fp = det(x=30.0, z=40.0, score=0.95)
        with_fp = ev.average_precision_40({"000": good + [fp]}, gts, difficulty="overall")
        without = ev.average_precision_40({"000": good}, gts, difficulty="overall")
        assert without >= with_fp

    def test_ignored_gt_absorbs_without_penalty(self):
        easy = self._gt_obj(0, 10)
        tiny = data.LabeledObject("Car", 0.0, 0, 0.0, (0, 0, 10, 10),
                                  (1.5, 1.6, 4.0), (12.0, 1.0, 30.0), 0.0)
        gts = {"000": [easy, tiny]}
        preds = {"000": [head.detection_from_label(easy),
                         head.detection_from_label(tiny)]}
        # tiny is below every height gate: prediction on it is neither TP nor FP
        ap = ev.average_precision_40(preds, gts, difficulty="easy")
        assert ap == pytest.approx(1.0, abs=1e-12)

    def test_threshold_behavior(self):
        gt = self._gt_obj(0, 10)
        near = det(x=1.2, y=0.25)  # same box center height, shifted along x
        iou = ev.iou_3d(head.detection_from_label(gt), near)
        assert 0.5 < iou < 0.7
        gts = {"000": [gt]}
        ap_strict = ev.average_precision_40({"000": [near]}, gts, difficulty="overall",
                                            config=ev.EvalConfig(iou_thresholds={"Car": 0.7}))
        ap_loose = ev.average_precision_40({"000": [near]}, gts, difficulty="overall",
                                           config=ev.EvalConfig(iou_thresholds={"Car": 0.5}))
        assert ap_strict == 0.0
        assert ap_loose == pytest.approx(1.0, abs=1e-12)

    def test_dontcare_skipped(self):
        gts = {"000": [self._gt_obj(0, 10),
                       data.parse_kitti_label("DontCare -1 -1 -10 0 0 0 0 -1 -1 -1 -1000 -1000 -1000 -10")]}
        preds = {"000": [head.detection_from_label(gts["000"][0])]}
        ap = ev.average_precision_40(preds, gts, difficulty="overall")
        assert ap == pytest.approx(1.0, abs=1e-12)


class TestReportAndDirectories:
    def test_report_format(self):
        gts = {"000": [data.LabeledObject("Car", 0.0, 0, 0.0, (0, 0, 60, 60),
                                          (1.5, 1.6, 4.0), (0, 1.0, 10), 0.0)]}
        preds = {"000": [head.detection_from_label(gts["000"][0])]}
        results = ev.evaluate_all(preds, gts)
        table, kv = ev.format_report(results)
        assert "ap3d.Car.overall=100.00" in kv
        assert "apbev.Car.overall=100.00" in kv
        assert "n/a" in kv  # no pedestrians anywhere
        assert "Car" in table

    def test_directory_loading(self, tmp_path):
        scene = data.generate_synthetic_scene(21)
        gt_dir = tmp_path / "gt"
        pred_dir = tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        data.write_label_file(gt_dir / "000021.txt", scene.objects)
        scored = [head.detection_to_label(head.detection_from_label(o)) for o in scene.objects]
        data.write_label_file(pred_dir / "000021.txt", scored, include_score=True)
        preds, gts = ev.load_directory_pairs(gt_dir, pred_dir)
        ap = ev.average_precision_40(preds, gts, difficulty="overall")
        assert ap == pytest.approx(1.0, abs=1e-9)

    def test_unmatched_stems_listed(self, tmp_path):
        gt_dir = tmp_path / "gt"
        pred_dir = tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        (gt_dir / "a.txt").write_text("")
        (pred_dir / "b.txt").write_text("")
        with pytest.raises(EvaluationError, match="a, b"):
            ev.load_directory_pairs(gt_dir, pred_dir)


def label(x, z, score=None, bbox2d=(0, 0, 60, 60), cls="Car"):
    """Upright 1.5 x 1.6 x 4.0 box, bottom face at y = 1.0; easy unless bbox2d says otherwise."""
    return data.LabeledObject(cls, 0.0, 0, 0.0, bbox2d, (1.5, 1.6, 4.0), (x, 1.0, z), 0.0, score)


def write_pair(tmp_path, gt, pred):
    for name, objects in (("gt", gt), ("pred", pred)):
        (tmp_path / name).mkdir()
        data.write_label_file(tmp_path / name / "000.txt", objects, include_score=name == "pred")
    return ev.load_directory_pairs(tmp_path / "gt", tmp_path / "pred")


class TestDevkitDifferences:
    """Where this AP40 departs from the KITTI devkit, pinned as it behaves today."""

    def test_detection_major_matching(self):
        # Along x, boxes of length 4 offset by d overlap with IoU (4 - d) / (4 + d).
        g1, g2 = label(0.0, 10.0), label(0.6, 10.0)
        d1 = det(x=0.4, y=0.25, score=0.9)
        d2 = det(x=0.8, y=0.25, score=0.8)
        gt1, gt2 = head.detection_from_label(g1), head.detection_from_label(g2)
        assert ev.rotated_bev_iou(d1, gt1) == pytest.approx(3.6 / 4.4, abs=1e-12)
        assert ev.rotated_bev_iou(d1, gt2) == pytest.approx(3.8 / 4.2, abs=1e-12)
        assert ev.rotated_bev_iou(d2, gt2) == pytest.approx(3.8 / 4.2, abs=1e-12)
        assert ev.rotated_bev_iou(d2, gt1) == pytest.approx(3.2 / 4.8, abs=1e-12)  # < 0.7
        # d1 goes first and takes its best overlap g2; d2 is left with g1 below
        # the threshold: one TP then one FP, recall 1/2 at precision 1.
        # The devkit's ground-truth-major order (each ground truth takes the
        # highest-scoring free detection above the threshold) pairs g1-d1 and
        # g2-d2, which would give AP 1.
        for metric in ("bev", "3d"):
            ap = ev.average_precision_40({"0": [d1, d2]}, {"0": [g1, g2]}, metric=metric,
                                         difficulty="overall")
            assert ap == pytest.approx(0.5, abs=1e-12)

    def test_detection_below_min_height_counts(self, tmp_path):
        gt = label(0.0, 10.0)
        tiny = label(20.0, 40.0, score=0.9, bbox2d=(0, 0, 10, 10))  # 10 px < easy's 40 px
        preds, gts = write_pair(tmp_path, [gt], [tiny, label(0.0, 10.0, score=0.8)])
        # the higher-scored false positive halves the precision at full recall;
        # the devkit would ignore the tiny detection in the easy bucket (AP 1)
        ap = ev.average_precision_40(preds, gts, difficulty="easy")
        assert ap == pytest.approx(0.5, abs=1e-12)

    def test_detection_in_dontcare_is_false_positive(self, tmp_path):
        dontcare = data.parse_kitti_label(
            "DontCare -1 -1 -10 100 150 160 190 -1 -1 -1 -1000 -1000 -1000 -10")
        inside = label(20.0, 40.0, score=0.9, bbox2d=(110, 160, 150, 185))
        preds, gts = write_pair(tmp_path, [label(0.0, 10.0), dontcare],
                                [inside, label(0.0, 10.0, score=0.8)])
        # the devkit would let the DontCare region absorb it (AP 1)
        ap = ev.average_precision_40(preds, gts, difficulty="overall")
        assert ap == pytest.approx(0.5, abs=1e-12)


bev_boxes = st.builds(BevBox, st.floats(-3, 3), st.floats(-3, 3), st.floats(0.5, 3.5),
                      st.floats(0.5, 3.5), st.floats(-math.pi, math.pi))


class TestPairTables:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(bev_boxes, min_size=1, max_size=3), st.lists(bev_boxes, min_size=1, max_size=3))
    # the 1 x 2 box lies along two edges of the 1 x 3 one, which rounding can
    # make test as crossing them with a zero denominator
    @example([BevBox(0.0, 0.0, 1.0, 2.0, 2.0)], [BevBox(0.0, 0.0, 1.0, 3.0, 2.0)])
    def test_intersection_matrix_symmetric_and_exact(self, boxes_a, boxes_b):
        m = ev.bev_intersection_matrix(boxes_a, boxes_b)
        np.testing.assert_array_equal(m, ev.bev_intersection_matrix(boxes_b, boxes_a).T)
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert m[i, j] == ev.bev_intersection_area(a, b)
                iou = m[i, j] / (a.area + b.area - m[i, j])
                assert abs(iou - ev.rasterized_bev_iou(a, b, resolution=500)) <= 5e-3

    @settings(max_examples=60, deadline=None)
    @given(bev_boxes, bev_boxes, st.floats(-1, 1), st.floats(-1, 1), st.floats(0.5, 2.5),
           st.floats(0.5, 2.5))
    def test_iou_3d_equals_the_table_entry(self, pred_box, gt_box, y, gt_y, h, gt_h):
        prediction = det(x=pred_box.cx, y=y, z=10.0 + pred_box.cz, h=h, w=pred_box.width,
                         l=pred_box.length, yaw=pred_box.angle, score=0.5)
        truth = data.LabeledObject("Car", 0.0, 0, 0.0, (0, 0, 60, 60),
                                   (gt_h, gt_box.width, gt_box.length),
                                   (gt_box.cx, gt_y, 10.0 + gt_box.cz), gt_box.angle)
        table = ev.build_pair_tables({"a": [prediction]}, {"a": [truth]}, ("Car",))["Car"][0]
        assert ev.iou_3d(prediction, head.detection_from_label(truth)) == table.iou["3d"][0][0]

    def test_evaluate_all_clips_each_pair_once(self, monkeypatch):
        clipped = []
        clip_areas = ev._clip_areas

        def recording(subject, clip):
            clipped.append(np.concatenate([subject, clip], axis=1).reshape(len(subject), -1))
            return clip_areas(subject, clip)

        monkeypatch.setattr(ev, "_clip_areas", recording)
        rng = np.random.default_rng(5)

        def jittered(obj, score):
            d = head.detection_from_label(obj)
            x, y, z = d.location
            return dataclasses.replace(d, location=(x + rng.normal(0, 0.3), y, z), score=score)

        cars_a = [label(6.0 * i, 10.0 + 3 * i) for i in range(3)]
        ped_a = label(-5.0, 12.0, cls="Pedestrian")
        car_b = label(1.0, 20.0)
        gts = {"a": cars_a + [ped_a], "b": [car_b]}
        preds = {"a": [jittered(cars_a[0], 0.9), jittered(cars_a[2], 0.7), jittered(ped_a, 0.6)],
                 "b": [jittered(car_b, 0.8), jittered(car_b, 0.5),
                       det(x=3.0, z=15.0, score=0.4, cls="Cyclist")]}
        ev.evaluate_all(preds, gts)
        # (detections x ground truths): a/Car 2x3, a/Pedestrian 1x1, b/Car 2x1, b/Cyclist 1x0
        assert len(clipped) == 1
        assert len(clipped[0]) == 6 + 1 + 2
        assert len(np.unique(clipped[0], axis=0)) == 6 + 1 + 2

    def test_empty_groups(self):
        car = label(0.0, 10.0)
        hit = head.detection_from_label(car)
        hit.score = 0.8
        stray = det(x=5.0, z=30.0, score=0.9)
        gts = {"a": [car], "b": []}
        preds = {"a": [hit], "b": [stray]}
        tables = ev.build_pair_tables(preds, gts, ("Car", "Pedestrian"))
        # P x G: Car 1x1 then 1x0, Pedestrian 0x0 twice
        assert [[len(row) for row in t.iou["3d"]] for t in tables["Car"]] == [[1], [0]]
        assert [t.iou["bev"] for t in tables["Pedestrian"]] == [[], []]
        results = ev.evaluate_all(preds, gts)
        assert results[("3d", "Car", "overall")] == 50.0  # the stray FP in "b" outranks the hit
        assert results[("bev", "Pedestrian", "overall")] is None
        # P = 0: ground truth and no detection
        assert ev.average_precision_40({"a": []}, gts, difficulty="overall") == 0.0
        assert ev.average_precision_40({}, gts, difficulty="overall") == 0.0
        # G = 0 everywhere: not applicable, whatever was detected
        assert ev.average_precision_40(preds, {"a": [], "b": []}, difficulty="overall") is None
