import numpy as np
import pytest

from monopgc import dsat, geometry as geo, numerics as nm
from monopgc.dcpm import DepthDistribution
from monopgc.errors import ConfigError, DimensionError
from monopgc.numerics import Tensor

KITTI_SPEC = geo.DepthBinSpec(2.0, 46.8, 64)


def make_depth_distribution(logits):
    t = logits if isinstance(logits, Tensor) else Tensor(logits)
    return DepthDistribution(logits=t, probabilities=nm.softmax(t, axis=0))


class TestLinearAttention:
    def test_single_key_returns_value(self):
        rng = np.random.default_rng(0)
        q = Tensor(rng.standard_normal((5, 4)))
        k = Tensor(rng.standard_normal((1, 4)))
        v = Tensor(rng.standard_normal((1, 3)))
        out = dsat.linear_attention(q, k, v)
        for i in range(5):
            np.testing.assert_allclose(out.data[i], v.data[0], rtol=1e-6)

    def test_duplicate_keys_average(self):
        rng = np.random.default_rng(1)
        q = Tensor(rng.standard_normal((2, 4)))
        key = rng.standard_normal(4)
        k = Tensor(np.stack([key, key]))
        v = Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]))
        out = dsat.linear_attention(q, k, v)
        np.testing.assert_allclose(out.data, np.tile([0.5, 1.0], (2, 1)), rtol=1e-6)

    def test_matches_quadratic_reference(self):
        rng = np.random.default_rng(2)
        with nm.check_mode():
            for trial in range(50):
                n, m, e, ev = rng.integers(1, 9, size=4)
                q = Tensor(rng.standard_normal((n, e)) * 2)
                k = Tensor(rng.standard_normal((m, e)) * 2)
                v = Tensor(rng.standard_normal((m, ev)))
                out = dsat.linear_attention(q, k, v)
                ref = dsat.linear_attention_reference(q, k, v)
                np.testing.assert_allclose(out.data, ref, atol=1e-6)

    def test_convex_hull_property(self):
        rng = np.random.default_rng(3)
        with nm.check_mode():
            q = Tensor(rng.standard_normal((6, 5)))
            k = Tensor(rng.standard_normal((7, 5)))
            v = Tensor(rng.standard_normal((7, 4)))
            out = dsat.linear_attention(q, k, v).data
            lo = v.data.min(axis=0) - 1e-9
            hi = v.data.max(axis=0) + 1e-9
            assert (out >= lo).all() and (out <= hi).all()

    def test_permutation_covariance(self):
        # position-free: permuting keys/values jointly changes nothing,
        # permuting queries permutes the output rows
        rng = np.random.default_rng(4)
        with nm.check_mode():
            q = Tensor(rng.standard_normal((5, 3)))
            k = Tensor(rng.standard_normal((6, 3)))
            v = Tensor(rng.standard_normal((6, 2)))
            base = dsat.linear_attention(q, k, v).data
            perm = rng.permutation(6)
            same = dsat.linear_attention(q, Tensor(k.data[perm]), Tensor(v.data[perm])).data
            np.testing.assert_allclose(same, base, atol=1e-12)
            qperm = rng.permutation(5)
            moved = dsat.linear_attention(Tensor(q.data[qperm]), k, v).data
            np.testing.assert_allclose(moved, base[qperm], atol=1e-12)

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            dsat.linear_attention(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))), Tensor(np.ones((2, 4))))
        with pytest.raises(DimensionError):
            dsat.linear_attention(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))))

    def test_gradient(self):
        rng = np.random.default_rng(5)
        with nm.check_mode():
            k = Tensor(rng.standard_normal((4, 3)))
            v = Tensor(rng.standard_normal((4, 3)))
            w = Tensor(rng.standard_normal((5, 3)))

        def f(q):
            return (dsat.linear_attention(q, k, v) * w).sum()

        err = nm.gradient_check(f, Tensor(rng.standard_normal((5, 3))), epsilon=1e-5)
        assert err <= 1e-4

    @pytest.mark.parametrize("operand", ["k", "v"])
    def test_gradient_wrt_keys_and_values(self, operand):
        # the denominator's reciprocal is taken on its [N, 1] column, so the
        # gradient into k sums over the value width before exp and log
        rng = np.random.default_rng(6)
        with nm.check_mode():
            ops = {"q": Tensor(rng.standard_normal((5, 3))),
                   "k": Tensor(rng.standard_normal((4, 3))),
                   "v": Tensor(rng.standard_normal((4, 2)))}
            w = Tensor(rng.standard_normal((5, 2)))

        def f(x):
            args = {**ops, operand: x}
            return (dsat.linear_attention(args["q"], args["k"], args["v"]) * w).sum()

        err = nm.gradient_check(f, ops[operand], epsilon=1e-5)
        assert err <= 1e-4


class TestTokenPlumbing:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((3, 4, 5)))
        t = dsat.tokens_from_map(x)
        assert t.shape == (20, 3)
        back = dsat.map_from_tokens(t, (4, 5))
        np.testing.assert_array_equal(back.data, x.data)

    def test_pixel_shuffle_layout(self):
        x = np.zeros((4, 1, 1))
        x[:, 0, 0] = [1, 2, 3, 4]
        out = dsat.pixel_shuffle(Tensor(x))
        np.testing.assert_array_equal(out.data[0], [[1, 2], [3, 4]])

    def test_layer_norm_stats(self):
        rng = np.random.default_rng(1)
        with nm.check_mode():
            x = Tensor(rng.standard_normal((6, 8)) * 3 + 1)
            g = Tensor(np.ones(8))
            b = Tensor(np.zeros(8))
            out = dsat.layer_norm(x, g, b).data
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-4)

    @pytest.mark.parametrize("operand", ["x", "gamma", "beta"])
    def test_layer_norm_gradient(self, operand):
        # the inverse deviation is computed on its [N, 1] column, so the
        # gradient sums over the embedding axis before exp and log
        rng = np.random.default_rng(2)
        with nm.check_mode():
            ops = {"x": Tensor(rng.standard_normal((6, 8)) * 3 + 1),
                   "gamma": Tensor(rng.standard_normal(8)),
                   "beta": Tensor(rng.standard_normal(8))}
            w = Tensor(rng.standard_normal((6, 8)))

        def f(t):
            args = {**ops, operand: t}
            return (dsat.layer_norm(args["x"], args["gamma"], args["beta"]) * w).sum()

        err = nm.gradient_check(f, ops[operand], epsilon=1e-5)
        assert err <= 1e-4


class TestEncoder:
    def _grid(self, bins=4, hw=(3, 4)):
        spec = geo.DepthBinSpec(2.0, 20.0, bins)
        calib = geo.CameraCalibration.from_pinhole(40.0, 40.0, hw[1] * 8.0, hw[0] * 8.0)
        return geo.build_normalized_grid(hw[1] * 16, hw[0] * 16, spec, 16, calib)

    def test_output_shape(self):
        rng = np.random.default_rng(0)
        grid = self._grid()
        params = dsat.init_encoder_params(rng, bins=4, embed=16, n_tokens=12)
        out = dsat.encode_space_positions(grid, params)
        assert out.tokens.shape == (12, 16)
        assert out.grid_hw == (3, 4)

    def test_determinism(self):
        rng = np.random.default_rng(0)
        grid = self._grid()
        params = dsat.init_encoder_params(rng, bins=4, embed=16, n_tokens=12)
        a = dsat.encode_space_positions(grid, params).tokens.data
        b = dsat.encode_space_positions(self._grid(), params).tokens.data
        np.testing.assert_array_equal(a, b)

    def test_seeded_init_reproducible(self):
        p1 = dsat.init_encoder_params(np.random.default_rng(7), 4, 16, 12)
        p2 = dsat.init_encoder_params(np.random.default_rng(7), 4, 16, 12)
        np.testing.assert_array_equal(p1["mlp1_w"].data, p2["mlp1_w"].data)

    def test_gradient_through_encoder_block(self):
        rng = np.random.default_rng(3)
        with nm.check_mode():
            params = dsat.init_attention_block(rng, e=8, ffn_width=16)
            w = Tensor(rng.standard_normal((6, 8)))

        def f(x):
            return (dsat.attention_block(x, params) * w).sum()

        err = nm.gradient_check(f, Tensor(rng.standard_normal((6, 8))), epsilon=1e-5)
        assert err <= 1e-4


class TestDgpe:
    def test_constant_depth_zero_edges(self):
        const = Tensor(np.full((1, 6, 7), 0.37))
        edges = dsat.edge_filter_responses(const)
        assert edges.shape == (3, 6, 7)
        np.testing.assert_array_equal(edges.data, 0.0)

    def test_ramp_sobel_and_laplacian(self):
        h, w = 8, 10
        ramp = np.tile(np.arange(w, dtype=np.float64) / 46.8, (h, 1))[None]
        with nm.check_mode():
            edges = dsat.edge_filter_responses(Tensor(ramp)).data
        interior = np.s_[1:h - 1, 1:w - 1]
        np.testing.assert_allclose(edges[0][interior], 8.0 / 46.8, atol=1e-6)
        assert abs(edges[0][3, 4] - 0.17094017094) < 1e-6
        np.testing.assert_allclose(edges[2][interior], 0.0, atol=1e-12)

    def test_translation_covariance_interior(self):
        # localized bump on a constant background, shifted by one pixel
        base = np.full((1, 9, 9), 0.5)
        bump = base.copy()
        bump[0, 3, 3] = 0.9
        shifted = base.copy()
        shifted[0, 4, 4] = 0.9
        e1 = dsat.edge_filter_responses(Tensor(bump)).data
        e2 = dsat.edge_filter_responses(Tensor(shifted)).data
        np.testing.assert_allclose(e2[:, 2:8, 2:8], e1[:, 1:7, 1:7], atol=1e-9)

    def test_expected_depth(self):
        spec = geo.DepthBinSpec(2.0, 10.0, 4)
        probs = np.zeros((4, 1, 2))
        probs[1, 0, 0] = 1.0          # exactly bin 1
        probs[0, 0, 1] = 0.5          # halfway bins 0 and 2
        probs[2, 0, 1] = 0.5
        pred = make_depth_distribution(np.log(np.maximum(probs, 1e-30)))
        centers = geo.lid_centers(spec)
        dbar = dsat.expected_depth_map(pred.probabilities, spec).data
        assert dbar[0, 0, 0] == pytest.approx(centers[1], rel=1e-5)
        assert dbar[0, 0, 1] == pytest.approx(0.5 * (centers[0] + centers[2]), rel=1e-5)

    def test_dgpe_shape_and_dpe_structural_equality(self):
        rng = np.random.default_rng(0)
        hw = (5, 6)
        params = dsat.init_dgpe_params(rng, embed=12, grid_hw=hw)
        # constant depth: edge channels vanish, so dgpe == dpe with shared weights
        pred = make_depth_distribution(np.zeros((8, *hw)))
        spec = geo.DepthBinSpec(2.0, 30.0, 8)
        dgpe = dsat.depth_gradient_positional_encoding(pred, spec, params, use_edges=True)
        dpe = dsat.depth_gradient_positional_encoding(pred, spec, params, use_edges=False)
        assert dgpe.values.shape == (30, 12)
        np.testing.assert_allclose(dgpe.values.data, dpe.values.data, atol=1e-7)
        # varying depth: the edge path now contributes
        vary = rng.standard_normal((8, *hw))
        pred2 = make_depth_distribution(vary)
        dgpe2 = dsat.depth_gradient_positional_encoding(pred2, spec, params, use_edges=True)
        dpe2 = dsat.depth_gradient_positional_encoding(pred2, spec, params, use_edges=False)
        assert not np.allclose(dgpe2.values.data, dpe2.values.data)

    def test_dgpe_gradient_flows_to_logits(self):
        rng = np.random.default_rng(1)
        hw = (4, 4)
        spec = geo.DepthBinSpec(2.0, 30.0, 6)
        with nm.check_mode():
            params = dsat.init_dgpe_params(rng, embed=8, grid_hw=hw)
            w = Tensor(rng.standard_normal((16, 8)))

        def f(logits):
            pred = make_depth_distribution(logits)
            pe = dsat.depth_gradient_positional_encoding(pred, spec, params)
            return (pe.values * w).sum()

        err = nm.gradient_check(f, Tensor(rng.standard_normal((6, *hw))), epsilon=1e-5)
        assert err <= 1e-4


class TestPeFactory:
    def test_none_is_zero(self):
        pe = dsat.make_positional_encoding("none", {}, embed=8, grid_hw=(2, 3))
        np.testing.assert_array_equal(pe.values.data, 0.0)
        assert pe.values.shape == (6, 8)

    def test_sinusoidal_token_zero(self):
        pe = dsat.make_positional_encoding("sinusoidal", {}, embed=8, grid_hw=(2, 3))
        np.testing.assert_allclose(pe.values.data[0], [0, 1, 0, 1, 0, 1, 0, 1], atol=1e-12)

    def test_ape_table(self):
        rng = np.random.default_rng(0)
        params = dsat.init_positional_encoding_params(rng, "ape", 8, (2, 3))
        pe = dsat.make_positional_encoding("ape", params, embed=8, grid_hw=(2, 3))
        np.testing.assert_array_equal(pe.values.data, params["table"].data)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            dsat.make_positional_encoding("fourier", {}, embed=8, grid_hw=(2, 3))

    def test_depth_kinds_need_prediction(self):
        rng = np.random.default_rng(0)
        params = dsat.init_positional_encoding_params(rng, "dgpe", 8, (2, 3))
        with pytest.raises(ConfigError):
            dsat.make_positional_encoding("dgpe", params, embed=8, grid_hw=(2, 3))


class TestDecoder:
    def _inputs(self, rng, c=8, hw=(3, 4), e=16, n_enc=6):
        f_dcp = Tensor(rng.standard_normal((c, *hw)))
        f_e = dsat.TokenSequence(Tensor(rng.standard_normal((n_enc, e))), grid_hw=(2, 3))
        return f_dcp, f_e

    def test_output_shape(self):
        rng = np.random.default_rng(0)
        f_dcp, f_e = self._inputs(rng)
        params = dsat.init_decoder_params(rng, channels=8, embed=16)
        out = dsat.decode_depth_space_aware(f_dcp, f_e, None, params)
        assert out.shape == f_dcp.shape

    def test_zero_init_identity(self):
        rng = np.random.default_rng(1)
        f_dcp, f_e = self._inputs(rng)
        params = dsat.init_decoder_params(rng, channels=8, embed=16)
        pe = dsat.make_positional_encoding("sinusoidal", {}, embed=16, grid_hw=(3, 4))
        out = dsat.decode_depth_space_aware(f_dcp, f_e, pe, params)
        np.testing.assert_array_equal(out.data, f_dcp.data)

    def test_pe_kind_changes_only_additive_path(self):
        # shared decoder weights; different pe kinds produce different outputs
        # once the output projection is nonzero, identical ones otherwise
        rng = np.random.default_rng(2)
        with nm.check_mode():
            f_dcp, f_e = self._inputs(rng)
            params = dsat.init_decoder_params(rng, channels=8, embed=16)
            params["out_w"] = nm.parameter(rng.standard_normal((16, 8)) * 0.1)
            pe_zero = dsat.make_positional_encoding("none", {}, embed=16, grid_hw=(3, 4))
            pe_sin = dsat.make_positional_encoding("sinusoidal", {}, embed=16, grid_hw=(3, 4))
            out_none = dsat.decode_depth_space_aware(f_dcp, f_e, pe_zero, params).data
            out_none2 = dsat.decode_depth_space_aware(f_dcp, f_e, None, params).data
            out_sin = dsat.decode_depth_space_aware(f_dcp, f_e, pe_sin, params).data
        np.testing.assert_array_equal(out_none, out_none2)
        assert not np.allclose(out_none, out_sin)

    def test_gradient_through_decoder_block(self):
        rng = np.random.default_rng(3)
        with nm.check_mode():
            params = dsat.init_decoder_params(rng, channels=6, embed=8, blocks=1)
            params["out_w"] = nm.parameter(rng.standard_normal((8, 6)) * 0.2)
            f_e = dsat.TokenSequence(Tensor(rng.standard_normal((5, 8))), None)
            w = Tensor(rng.standard_normal((6, 2, 3)))

        def f(x):
            return (dsat.decode_depth_space_aware(x, f_e, None, params) * w).sum()

        err = nm.gradient_check(f, Tensor(rng.standard_normal((6, 2, 3))), epsilon=1e-5)
        assert err <= 1e-4
