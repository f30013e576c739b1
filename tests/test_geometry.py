import numpy as np
import pytest

from monopgc import geometry as geo
from monopgc import numerics as nm
from monopgc.errors import CalibrationError, ConfigError, DomainError
from monopgc.numerics import Tensor

KITTI_SPEC = geo.DepthBinSpec(2.0, 46.8, 64)


class TestLid:
    def test_edges_hit_range_ends(self):
        assert geo.lid_bin_to_depth(KITTI_SPEC, 0) == pytest.approx(2.0, abs=1e-9)
        assert geo.lid_bin_to_depth(KITTI_SPEC, 64) == pytest.approx(46.8, abs=1e-9)

    def test_edge_eight(self):
        # 2 + 44.8/4160 * 72
        assert geo.lid_bin_to_depth(KITTI_SPEC, 8) == pytest.approx(2.7753846153846154, abs=1e-12)

    def test_monotone_and_widths_increasing(self):
        edges = geo.lid_edges(KITTI_SPEC)
        widths = np.diff(edges)
        assert (widths > 0).all()
        assert (np.diff(widths) > 0).all()

    def test_bin_lookup_clamps(self):
        assert geo.depth_to_lid_bin(KITTI_SPEC, 2.0) == 0
        assert geo.depth_to_lid_bin(KITTI_SPEC, 46.8) == 63
        assert geo.depth_to_lid_bin(KITTI_SPEC, 0.5) == 0
        assert geo.depth_to_lid_bin(KITTI_SPEC, 500.0) == 63

    def test_round_trip_all_bins(self):
        for i in range(64):
            edge = geo.lid_bin_to_depth(KITTI_SPEC, i)
            assert geo.depth_to_lid_bin(KITTI_SPEC, edge) == i
            assert geo.depth_to_lid_bin(KITTI_SPEC, edge + 1e-9) == i

    def test_spec_example_edge_eight(self):
        assert geo.depth_to_lid_bin(KITTI_SPEC, 2.7753846153846154) == 8

    def test_out_of_range_index(self):
        with pytest.raises(DomainError):
            geo.lid_bin_to_depth(KITTI_SPEC, 65)
        with pytest.raises(DomainError):
            geo.lid_bin_to_depth(KITTI_SPEC, -1)

    def test_nonfinite_depth(self):
        with pytest.raises(DomainError):
            geo.depth_to_lid_bin(KITTI_SPEC, float("nan"))

    def test_vectorized_lookup(self):
        depths = np.array([2.0, 10.0, 30.0, 46.79])
        idx = geo.depth_to_lid_bin(KITTI_SPEC, depths)
        assert idx.shape == (4,)
        for d, i in zip(depths, idx):
            assert geo.lid_bin_to_depth(KITTI_SPEC, int(i)) <= d < geo.lid_bin_to_depth(KITTI_SPEC, int(i) + 1)

    def test_centers_between_edges(self):
        centers = geo.lid_centers(KITTI_SPEC)
        edges = geo.lid_edges(KITTI_SPEC)
        assert ((centers > edges[:-1]) & (centers < edges[1:])).all()


class TestFrustumGrid:
    def test_single_cell(self):
        spec = geo.DepthBinSpec(2.0, 10.0, 2)
        grid = geo.build_frustum_grid(16, 16, spec, stride=16)
        assert grid.shape == (8, 1, 1)
        pts = grid.data.reshape(2, 4, 1, 1)
        for j in range(2):
            d = geo.lid_bin_to_depth(spec, j)
            np.testing.assert_allclose(pts[j, :, 0, 0], [8 * d, 8 * d, d, 1.0])

    def test_fourth_component_is_one(self):
        grid = geo.build_frustum_grid(64, 32, KITTI_SPEC, stride=16)
        pts = grid.data.reshape(64, 4, 2, 4)
        assert (pts[:, 3] == 1.0).all()

    def test_stride_one_pixel_center(self):
        spec = geo.DepthBinSpec(5.0, 9.0, 2)
        grid = geo.build_frustum_grid(1, 1, spec, stride=1)
        pts = grid.data.reshape(2, 4, 1, 1)
        # first bin edge is d_min = 5; pixel center (0.5, 0.5)
        np.testing.assert_allclose(pts[0, :, 0, 0], [2.5, 2.5, 5.0, 1.0])

    def test_indivisible_raises(self):
        with pytest.raises(ConfigError):
            geo.build_frustum_grid(30, 32, KITTI_SPEC, stride=16)


class TestBackProjection:
    def test_principal_ray(self):
        calib = geo.CameraCalibration.from_pinhole(1.0, 1.0, 0.0, 0.0)
        frustum = Tensor(np.array([0.0, 0.0, 7.0, 1.0]).reshape(4, 1, 1))
        world = geo.frustum_to_world(calib, frustum)
        np.testing.assert_allclose(world.data.reshape(4), [0, 0, 7, 1], atol=1e-12)

    def test_hand_case_against_inverse_oracle(self):
        calib = geo.CameraCalibration.from_pinhole(2.0, 2.0, 0.0, 0.0)
        pm = np.array([40.0, 20.0, 10.0, 1.0])
        world = geo.frustum_to_world(calib, Tensor(pm.reshape(4, 1, 1))).data.reshape(4)
        np.testing.assert_allclose(world, [20.0, 10.0, 10.0, 1.0], atol=1e-12)
        oracle = np.linalg.inv(calib.k_extrinsic) @ np.linalg.inv(calib.k_intrinsic) @ pm
        np.testing.assert_allclose(world, oracle, atol=1e-12)

    def test_round_trip_random_calibrations(self):
        rng = np.random.default_rng(42)
        with nm.check_mode():
            for _ in range(100):
                calib = geo.random_calibration(rng)
                pm = np.concatenate([rng.uniform(-500, 500, 2) * rng.uniform(2, 40),
                                     [rng.uniform(2, 40)], [1.0]])
                world = geo.frustum_to_world(calib, Tensor(pm.reshape(4, 1, 1))).data.reshape(4)
                back = calib.forward_projection_matrix() @ world
                np.testing.assert_allclose(back, pm, rtol=1e-6, atol=1e-6)

    def test_rigid_extrinsic_keeps_unit_w(self):
        rng = np.random.default_rng(9)
        calib = geo.random_calibration(rng)
        grid = geo.build_frustum_grid(32, 32, geo.DepthBinSpec(2, 40, 4), stride=16)
        world = geo.frustum_to_world(calib, grid)
        pts = world.data.reshape(4, 4, 2, 2)
        np.testing.assert_allclose(pts[:, 3], 1.0, atol=1e-9)

    def test_singular_matrix_rejected_at_load(self):
        k = np.eye(4)
        k[0, 0] = 0.0
        with pytest.raises(CalibrationError):
            geo.CameraCalibration(k, np.eye(4))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_matrix_rejected_at_load(self, entry):
        k = np.eye(4)
        k[0, 3] = entry
        with pytest.raises(CalibrationError):
            geo.CameraCalibration(k, np.eye(4))


class TestNormalizeGrid:
    def test_extremes_and_midpoint(self):
        roi = ((-10.0, 10.0), (-2.0, 2.0), (0.0, 8.0))
        pts = np.array([
            [-10.0, -2.0, 0.0, 1.0],   # roi minimum
            [0.0, 0.0, 4.0, 1.0],      # roi center
        ]).T.reshape(4, 1, 2)
        grid = geo.normalize_grid(Tensor(pts), roi)
        vals = grid.values.data.reshape(4, 1, 2)
        np.testing.assert_allclose(vals[:3, 0, 0], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(vals[:3, 0, 1], [0.5, 0.5, 0.5])
        np.testing.assert_allclose(vals[3], 1.0)

    def test_affine_value(self):
        pts = np.array([10.0, 0.0, 2.0, 1.0]).reshape(4, 1, 1)
        grid = geo.normalize_grid(Tensor(pts), geo.DEFAULT_ROI)
        assert grid.values.data[0, 0, 0] == pytest.approx((10 + 46.8) / 93.6, abs=1e-12)
        assert grid.values.data[0, 0, 0] == pytest.approx(0.6068376068376068, abs=1e-9)

    def test_clamping_recorded(self):
        pts = np.array([1000.0, 0.0, 2.0, 1.0]).reshape(4, 1, 1)
        grid = geo.normalize_grid(Tensor(pts), geo.DEFAULT_ROI)
        assert grid.values.data[0, 0, 0] == 1.0
        assert grid.clamp_fraction == pytest.approx(1 / 3)

    def test_degenerate_roi(self):
        with pytest.raises(ConfigError):
            geo.normalize_grid(Tensor(np.zeros((4, 1, 1))), ((0, 0), (0, 1), (0, 1)))

    def test_principal_ray_is_z_axis(self):
        # K_E identity, centered principal point: the center pixel ray has x=y=0
        calib = geo.CameraCalibration.from_pinhole(32.0, 32.0, 16.0, 16.0)
        spec = geo.DepthBinSpec(2.0, 20.0, 4)
        with nm.check_mode():
            grid = geo.build_frustum_grid(32, 32, spec, stride=16)
            world = geo.frustum_to_world(calib, grid).data.reshape(4, 4, 2, 2)
        # the four cells straddle the principal point symmetrically; average ray is +z
        np.testing.assert_allclose(world[:, 0].mean(axis=(1, 2)), 0.0, atol=1e-9)
        np.testing.assert_allclose(world[:, 1].mean(axis=(1, 2)), 0.0, atol=1e-9)
        assert (world[:, 2] > 0).all()
