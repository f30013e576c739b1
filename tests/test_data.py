import math

import numpy as np
import pytest

from monopgc import data, geometry as geo
from monopgc.errors import FormatError, GenerationError, ParseError
from monopgc.numerics import Tensor

CAR_LINE = "Car 0.00 0 1.57 100 120 200 220 1.5 1.6 4.0 2.0 1.5 20.0 1.57"
DONTCARE_LINE = "DontCare -1 -1 -10 0 0 0 0 -1 -1 -1 -1000 -1000 -1000 -10"


class TestLabelParsing:
    def test_car_line(self):
        obj = data.parse_kitti_label(CAR_LINE)
        assert obj.class_name == "Car"
        assert obj.location == (2.0, 1.5, 20.0)
        assert obj.dimensions == (1.5, 1.6, 4.0)
        assert obj.rotation_y == 1.57
        assert obj.score is None
        assert not obj.ignorable

    def test_dontcare_sentinel(self):
        obj = data.parse_kitti_label(DONTCARE_LINE)
        assert obj.ignorable

    def test_wrong_field_count_names_line(self):
        bad = " ".join(CAR_LINE.split()[:14])
        with pytest.raises(ParseError, match="line 7"):
            data.parse_kitti_label(bad, line_number=7)

    def test_unparseable_number(self):
        with pytest.raises(ParseError):
            data.parse_kitti_label(CAR_LINE.replace("20.0", "twenty"))

    @pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
    def test_non_finite_occlusion(self, token):
        fields = CAR_LINE.split()
        fields[2] = token  # the integer occlusion level
        with pytest.raises(ParseError, match="unparseable number"):
            data.parse_kitti_label(" ".join(fields))

    @pytest.mark.parametrize("name", ["Car", "Tram"])  # Tram: a class eval does not score
    @pytest.mark.parametrize("length", ["0.0", "-4.0"])
    def test_box_side_of_zero_or_less(self, name, length):
        line = CAR_LINE.replace("Car", name).replace(" 4.0 ", f" {length} ")
        with pytest.raises(ParseError, match=r"dimensions must be positive.*\(line 3\)"):
            data.parse_kitti_label(line, line_number=3)

    def test_score_column(self):
        obj = data.parse_kitti_label(CAR_LINE + " 0.87")
        assert obj.score == pytest.approx(0.87)

    def test_round_trip(self):
        obj = data.parse_kitti_label(CAR_LINE)
        again = data.parse_kitti_label(data.format_kitti_label(obj))
        assert again.class_name == obj.class_name
        np.testing.assert_allclose(again.location, obj.location, atol=1e-6)
        np.testing.assert_allclose(again.bbox2d, obj.bbox2d, atol=1e-6)
        np.testing.assert_allclose(again.rotation_y, obj.rotation_y, atol=1e-6)


class TestCalibParsing:
    def test_identity_projective(self):
        calib = data.parse_kitti_calib("P2: 1 0 0 0 0 1 0 0 0 0 1 0")
        assert calib.fx == 1.0 and calib.fy == 1.0
        assert calib.cx == 0.0 and calib.cy == 0.0
        np.testing.assert_allclose(calib.k_extrinsic, np.eye(4))

    def test_kitti_values_round_trip(self):
        text = ("P2: 7.215377e+02 0.000000e+00 6.095593e+02 4.485728e+01 "
                "0.000000e+00 7.215377e+02 1.728540e+02 2.163791e-01 "
                "0.000000e+00 0.000000e+00 1.000000e+00 2.745884e-03")
        calib = data.parse_kitti_calib(text)
        assert calib.fx == pytest.approx(721.5377)
        assert calib.cx == pytest.approx(609.5593)
        again = data.parse_kitti_calib(data.format_kitti_calib(calib))
        np.testing.assert_allclose(again.k_intrinsic, calib.k_intrinsic, rtol=1e-12)

    def test_garbage_lines_skipped(self):
        calib = data.parse_kitti_calib("hello world\nnoise: a b c\nP2: 1 0 0 0 0 1 0 0 0 0 1 0\n")
        assert calib.fx == 1.0

    def test_missing_p2(self):
        with pytest.raises(ParseError):
            data.parse_kitti_calib("P0: 1 0 0 0 0 1 0 0 0 0 1 0")


class TestPpmCodec:
    def test_white_pixel(self):
        raw = b"P6\n1 1\n255\n\xff\xff\xff"
        img = data.decode_ppm(raw)
        assert img.shape == (3, 1, 1)
        np.testing.assert_allclose(img.data, 1.0)

    def test_round_trip_bytes(self):
        rng = np.random.default_rng(0)
        img = Tensor(rng.uniform(0, 1, size=(3, 5, 7)))
        once = data.encode_ppm(img)
        twice = data.encode_ppm(data.decode_ppm(once))
        assert once == twice

    def test_ascii_rejected(self):
        with pytest.raises(FormatError, match="P3"):
            data.decode_ppm(b"P3\n1 1\n255\n255 255 255\n")

    def test_truncated_rejected(self):
        with pytest.raises(FormatError, match="truncated"):
            data.decode_ppm(b"P6\n2 2\n255\n\xff\xff")

    @pytest.mark.parametrize("size", [b"0 -1", b"-1 0", b"-2 -3"])
    def test_negative_size_rejected(self, size):
        with pytest.raises(FormatError, match="negative PPM size"):
            data.decode_ppm(b"P6\n" + size + b"\n255\n\xff\xff\xff\xff\xff\xff")

    def test_comment_in_header(self):
        raw = b"P6\n# a comment\n1 1\n255\n\x00\x80\xff"
        img = data.decode_ppm(raw)
        np.testing.assert_allclose(img.data.reshape(3), [0.0, 128 / 255, 1.0])

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = Tensor(rng.uniform(0, 1, size=(3, 4, 6)))
        p = tmp_path / "img.ppm"
        data.save_image(p, img)
        loaded = data.load_image(p)
        data.save_image(tmp_path / "img2.ppm", loaded)
        assert p.read_bytes() == (tmp_path / "img2.ppm").read_bytes()


class TestSyntheticScenes:
    def test_determinism(self):
        a = data.generate_synthetic_scene(3)
        b = data.generate_synthetic_scene(3)
        assert np.array_equal(a.image.data, b.image.data)
        assert np.array_equal(a.depth_map.data, b.depth_map.data)
        assert len(a.objects) == len(b.objects)
        for oa, ob in zip(a.objects, b.objects):
            assert oa.location == ob.location

    def test_camera_is_the_synthetic_calibration(self):
        scene = data.generate_synthetic_scene(2, data.SceneConfig(image_size=(48, 64)))
        camera = data.synthetic_calibration(48, 64)
        np.testing.assert_array_equal(scene.calib.k_intrinsic, camera.k_intrinsic)
        np.testing.assert_array_equal(scene.calib.k_extrinsic, camera.k_extrinsic)
        assert (camera.fx, camera.fy, camera.cx, camera.cy) == (1.1 * 64, 1.1 * 64, 32.0, 24.0)

    def test_depth_bins_in_range(self):
        spec = geo.DepthBinSpec(2.0, 46.8, 64)
        for seed in range(8):
            scene = data.generate_synthetic_scene(seed)
            for obj in scene.objects:
                i = geo.depth_to_lid_bin(spec, obj.location[2])
                assert 0 <= i <= 63

    def test_projected_centers_inside_image(self):
        for seed in range(10):
            scene = data.generate_synthetic_scene(seed)
            h, w = scene.image.shape[1:]
            centers = np.array([o.center3d() for o in scene.objects])
            uv, _ = scene.calib.project(centers)
            assert (uv[:, 0] >= 0).all() and (uv[:, 0] < w).all()
            assert (uv[:, 1] >= 0).all() and (uv[:, 1] < h).all()

    def test_front_face_depth_via_ray_oracle(self):
        # a single cuboid straight ahead: depth at the projected center is the
        # front face (z - l/2 at yaw 0), not the center depth
        obj = data.LabeledObject("Car", 0.0, 0, 0.0, (0, 0, 1, 1),
                                 (1.6, 1.7, 4.0), (0.0, 1.0, 10.0), 0.0)
        calib = geo.CameraCalibration.from_pinhole(100.0, 100.0, 48.0, 48.0)
        us, vs = np.meshgrid(np.arange(96) + 0.5, np.arange(96) + 0.5)
        dirs = np.stack([(us - 48.0) / 100.0, (vs - 48.0) / 100.0, np.ones_like(us)], axis=2)
        depth, _ = data._ray_box_depth(dirs, obj)
        uv, _ = calib.project(np.array([obj.center3d()]))
        u, v = int(uv[0, 0]), int(uv[0, 1])
        # front z-face sits at z = 10 - w/2 with yaw 0 (w is the z extent)
        assert depth[v, u] == pytest.approx(10.0 - 1.7 / 2.0, abs=1e-2)
        assert depth[v, u] < 10.0

    def test_scene_depth_at_center_is_front_face(self):
        scene = data.generate_synthetic_scene(5)
        for obj in scene.objects:
            uv, _ = scene.calib.project(np.array([obj.center3d()]))
            u, v = int(round(uv[0, 0] - 0.5)), int(round(uv[0, 1] - 0.5))
            d = scene.depth_map.data[v, u]
            assert d < obj.location[2]  # strictly nearer than the box center

    def test_labels_round_trip_through_files(self, tmp_path):
        scene = data.generate_synthetic_scene(11)
        data.write_label_file(tmp_path / "000000.txt", scene.objects)
        back = data.read_label_file(tmp_path / "000000.txt")
        assert len(back) == len(scene.objects)
        for a, b in zip(scene.objects, back):
            np.testing.assert_allclose(a.location, b.location, atol=1e-6)
            np.testing.assert_allclose(a.dimensions, b.dimensions, atol=1e-6)
            np.testing.assert_allclose(a.rotation_y, b.rotation_y, atol=1e-6)

    def test_image_survives_ppm_round_trip_exactly(self, tmp_path):
        scene = data.generate_synthetic_scene(2)
        p = tmp_path / "scene.ppm"
        data.save_image(p, scene.image)
        loaded = data.load_image(p)
        np.testing.assert_array_equal(loaded.data, scene.image.data.astype(np.float64))

    def test_unsatisfiable_placement_raises(self):
        cfg = data.SceneConfig(min_objects=5, max_objects=5, depth_range=(6.0, 6.2),
                               lateral_fraction=0.01, max_attempts=8)
        with pytest.raises(GenerationError):
            data.generate_synthetic_scene(0, cfg)

    def test_scene_files(self, tmp_path):
        scene = data.generate_synthetic_scene(4)
        data.scene_to_files(scene, "000004", tmp_path / "image", tmp_path / "label", tmp_path / "calib")
        image = data.load_image(tmp_path / "image" / "000004.ppm")
        objects = data.read_label_file(tmp_path / "label" / "000004.txt")
        calib = data.read_calib_file(tmp_path / "calib" / "000004.txt")
        assert image.shape == scene.image.shape
        assert len(objects) == len(scene.objects)
        assert calib.fx == pytest.approx(scene.calib.fx)
