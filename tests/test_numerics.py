import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from monopgc import numerics as nm
from monopgc.dsat import _ones
from monopgc.errors import DimensionError, DomainError, EvaluationError
from monopgc.numerics import Tensor


def matmul_reference(a, b):
    # Independent second path: explicit triple loop.
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = nm.matmul(Tensor(np.eye(2)), a)
        np.testing.assert_allclose(out.data, a.data)

    def test_hand_case(self):
        # [[1,2],[3,4]] x [[5],[6]] = [[17],[39]], cross-checked by loop oracle
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0], [6.0]])
        out = nm.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, [[17.0], [39.0]])
        np.testing.assert_allclose(out.data, matmul_reference(a, b))

    def test_zero_case(self):
        out = nm.matmul(Tensor(np.zeros((2, 3))), Tensor(np.ones((3, 4))))
        assert out.shape == (2, 4)
        assert np.all(out.data == 0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            nm.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_random_vs_loop_oracle(self):
        rng = np.random.default_rng(7)
        with nm.check_mode():
            for _ in range(5):
                a = rng.standard_normal((4, 3))
                b = rng.standard_normal((3, 5))
                out = nm.matmul(Tensor(a), Tensor(b))
                np.testing.assert_allclose(out.data, matmul_reference(a, b), atol=1e-12)


class TestProduct:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 6), k=st.integers(1, 4), m=st.integers(1, 6),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
    @example(n=576, k=1, m=64, dtype=np.float32, seed=0)  # a decoder layer norm's shape
    def test_equals_gemm(self, n, k, m, dtype, seed):
        # np.array_equal: +0 and -0 compare equal, the one difference allowed
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, k)).astype(dtype)
        b = rng.standard_normal((k, m)).astype(dtype)
        out = nm._product(a, b)
        assert out.dtype == dtype and out.shape == (n, m)
        assert np.array_equal(out, a @ b)

    @staticmethod
    def _repeated(x, how):
        """x, or a zero-stride view repeating its first row, column or element."""
        return {"none": x, "rows": np.broadcast_to(x[:1], x.shape),
                "cols": np.broadcast_to(x[:, :1], x.shape),
                "all": np.broadcast_to(x[0, 0], x.shape)}[how]

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 6), k=st.integers(1, 4), m=st.integers(1, 6),
           a_how=st.sampled_from(["none", "rows", "cols", "all"]),
           b_how=st.sampled_from(["none", "rows", "cols", "all"]),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
    @example(n=576, k=1, m=64, a_how="none", b_how="all", dtype=np.float32, seed=0)  # stat @ ones
    @example(n=576, k=1, m=64, a_how="all", b_how="none", dtype=np.float32, seed=0)  # ones @ row
    @example(n=1, k=576, m=64, a_how="all", b_how="none", dtype=np.float32, seed=0)  # its vjp
    def test_zero_stride_operands(self, n, k, m, a_how, b_how, dtype, seed):
        rng = np.random.default_rng(seed)
        a = self._repeated(rng.standard_normal((n, k)).astype(dtype), a_how)
        b = self._repeated(rng.standard_normal((k, m)).astype(dtype), b_how)
        out = nm._product(a, b)
        assert out.dtype == dtype and out.shape == (n, m)
        assert np.array_equal(out, np.ascontiguousarray(a) @ np.ascontiguousarray(b))
        if k == 1 and (a.strides[0] == 0 or b.strides[1] == 0):
            # an operand repeats along an output axis: the product is
            # computed once and repeated, not written out
            assert not out.flags.writeable and not out.flags.owndata

    def test_transposed_operands(self):
        # the vjps pass transposed views, e.g. a [K, 9C] weight's .T at K = 1
        rng = np.random.default_rng(1)
        w = rng.standard_normal((1, 18)).astype(np.float32)
        g = rng.standard_normal((1, 25)).astype(np.float32)
        assert np.array_equal(nm._product(w.T, g), w.T @ g)


class TestElu:
    @pytest.mark.parametrize("mode", [contextlib.nullcontext, nm.check_mode])
    def test_vjp_is_one_above_zero_and_exp_at_or_below(self, mode):
        values = [-30.0, -3.0, -0.5, -0.0, 0.0, 1e-30, 0.7, 40.0]
        with mode():
            x = Tensor(values, requires_grad=True)
            nm.elu(x).sum().backward()
        xd = x.data
        assert np.array_equal(x.grad, np.where(xd > 0, xd.dtype.type(1), np.exp(xd)))


def _where_relu(x):
    return np.where(x > 0, x, x.dtype.type(0))


def _where_elu(x):
    expm = np.exp(np.minimum(x, 0.0))
    return np.where(x > 0, x, expm - 1.0)


def _where_sigmoid(x):
    e = np.exp(-np.abs(x))
    denom = 1.0 + e
    return np.where(x >= 0, 1.0 / denom, e / denom)


class TestBranchFreePointwise:
    """relu, elu and sigmoid compute without np.where; the values are the
    where-forms' bits, the sign of a zero and NaN included."""

    @staticmethod
    def _check(values, dtype):
        x = np.asarray(values, dtype=dtype)
        with nm.check_mode() if dtype == np.float64 else contextlib.nullcontext():
            for kernel, where_form in ((nm.relu, _where_relu), (nm.elu, _where_elu),
                                       (nm.sigmoid, _where_sigmoid)):
                got, want = kernel(Tensor(x)).data, where_form(x)
                assert got.dtype == want.dtype == dtype
                bits = np.uint32 if dtype == np.float32 else np.uint64
                assert np.array_equal(got.view(bits), want.view(bits)), kernel.__name__

    SPECIALS = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-30, -1e-30, 88.0, -104.0]

    # float32 values are exact in both widths
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(width=32), min_size=1, max_size=40),
           dtype=st.sampled_from([np.float32, np.float64]))
    @example(values=SPECIALS, dtype=np.float32)
    @example(values=SPECIALS, dtype=np.float64)
    def test_equals_where_forms(self, values, dtype):
        self._check(values, dtype)


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 5, 6)).astype(np.float32)
        w = np.zeros((2, 2, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        w[1, 1, 1, 1] = 1.0
        out = nm.conv2d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data, x, rtol=1e-6)

    def test_all_ones_on_constant(self):
        c = 3.0
        x = Tensor(np.full((1, 5, 5), c))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = nm.conv2d(x, w).data[0]
        # hand convolution: interior windows see 9 cells, corners see 4
        assert out[2, 2] == pytest.approx(9 * c)
        assert out[0, 0] == pytest.approx(4 * c)
        assert out[0, 2] == pytest.approx(6 * c)

    def test_zero_kernel(self):
        out = nm.conv2d(Tensor(np.ones((3, 4, 4))), Tensor(np.zeros((2, 3, 3, 3))))
        assert np.all(out.data == 0)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            nm.conv2d(Tensor(np.ones((3, 4, 4))), Tensor(np.zeros((2, 4, 3, 3))))

    def test_linearity(self):
        rng = np.random.default_rng(3)
        with nm.check_mode():
            x = Tensor(rng.standard_normal((2, 6, 6)))
            y = Tensor(rng.standard_normal((2, 6, 6)))
            w = Tensor(rng.standard_normal((3, 2, 3, 3)))
            a, b = 1.7, -0.4
            lhs = nm.conv2d(Tensor(a * x.data + b * y.data), w).data
            rhs = a * nm.conv2d(x, w).data + b * nm.conv2d(y, w).data
            np.testing.assert_allclose(lhs, rhs, rtol=1e-6)


def conv2d_reference(x, w, b, g):
    """Output and vjp one output pixel at a time: the zero-padded 3x3 window
    around pixel (i, j) and the weight tap that reads each of its cells."""
    _, h, wd = x.shape
    out = np.zeros((w.shape[0], h, wd)) + b[:, None, None]
    gx, gw = np.zeros_like(x), np.zeros_like(w)
    for i in range(h):
        for j in range(wd):
            for dy in range(3):
                for dx in range(3):
                    r, c = i + dy - 1, j + dx - 1
                    if 0 <= r < h and 0 <= c < wd:
                        out[:, i, j] += w[:, :, dy, dx] @ x[:, r, c]
                        gx[:, r, c] += w[:, :, dy, dx].T @ g[:, i, j]
                        gw[:, :, dy, dx] += np.outer(g[:, i, j], x[:, r, c])
    return out, gx, gw, g.sum(axis=(1, 2))


class TestConv2dReference:
    @settings(max_examples=100, deadline=None)
    @given(c=st.integers(1, 3), k=st.integers(1, 3), h=st.integers(1, 7), w=st.integers(1, 7),
           bias=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_forward_and_vjp_match_per_pixel_reference(self, c, k, h, w, bias, seed):
        rng = np.random.default_rng(seed)
        x_np = rng.standard_normal((c, h, w))
        w_np = rng.standard_normal((k, c, 3, 3))
        b_np = rng.standard_normal(k) if bias else np.zeros(k)
        g_np = rng.standard_normal((k, h, w))
        with nm.check_mode():
            x = Tensor(x_np, requires_grad=True)
            wt = Tensor(w_np, requires_grad=True)
            bt = Tensor(b_np, requires_grad=True) if bias else None
            y = nm.conv2d(x, wt, bt)
            (y * Tensor(g_np)).sum().backward()
        out, gx, gw, gb = conv2d_reference(x_np, w_np, b_np, g_np)
        np.testing.assert_allclose(y.data, out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x.grad, gx, rtol=0, atol=1e-12)
        np.testing.assert_allclose(wt.grad, gw, rtol=0, atol=1e-12)
        if bias:
            np.testing.assert_allclose(bt.grad, gb, rtol=0, atol=1e-12)


class TestMaxPool:
    def test_ties_route_gradient_to_first_row_major_maximum(self):
        x = Tensor([[[1.0, 5.0, 5.0, 5.0],
                     [5.0, 2.0, 5.0, 5.0],
                     [0.0, 0.0, 3.0, 7.0],
                     [0.0, 0.0, 7.0, 1.0]]], requires_grad=True)
        y = nm.max_pool2d(x, 2)
        (y * Tensor([[[1.0, 2.0], [3.0, 4.0]]])).sum().backward()
        np.testing.assert_array_equal(y.data, [[[5.0, 5.0], [0.0, 7.0]]])
        # two equal maxima (top-left, bottom-right windows) and four
        # (top-right, bottom-left): each window's gradient goes, whole, to
        # its first maximum in row-major order
        np.testing.assert_array_equal(x.grad, [[[0.0, 1.0, 2.0, 0.0],
                                                [0.0, 0.0, 0.0, 0.0],
                                                [3.0, 0.0, 0.0, 4.0],
                                                [0.0, 0.0, 0.0, 0.0]]])


class TestSoftmax:
    def test_uniform(self):
        out = nm.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=1e-6)

    def test_overflow_stability(self):
        out = nm.softmax(Tensor([1000.0, 0.0]), axis=0)
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_hand_case(self):
        out = nm.softmax(Tensor([np.log(2.0), 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [2 / 3, 1 / 3], rtol=1e-6)

    def test_slices_sum_to_one_and_positive(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((4, 5, 6)) * 10)
        for axis in range(3):
            out = nm.softmax(x, axis=axis)
            np.testing.assert_allclose(out.data.sum(axis=axis), 1.0, atol=1e-6)
            assert (out.data > 0).all()


def pool_reference(x, out_hw):
    # one output pixel at a time: the mean of its torch bin
    _, h, w = x.shape
    oh, ow = out_hw
    out = np.zeros((x.shape[0], oh, ow))
    for i in range(oh):
        for j in range(ow):
            rows = slice(i * h // oh, math.ceil((i + 1) * h / oh))
            cols = slice(j * w // ow, math.ceil((j + 1) * w / ow))
            out[:, i, j] = x[:, rows, cols].mean(axis=(1, 2))
    return out


def resize_reference(x, out_hw):
    # one output pixel at a time: the four half-pixel-centre taps, clamped
    def taps(i, n_in, n_out):
        coord = min(max((i + 0.5) * n_in / n_out - 0.5, 0.0), n_in - 1.0)
        lo = math.floor(coord)
        return lo, min(lo + 1, n_in - 1), coord - lo

    _, h, w = x.shape
    oh, ow = out_hw
    out = np.zeros((x.shape[0], oh, ow))
    for i in range(oh):
        y0, y1, fy = taps(i, h, oh)
        for j in range(ow):
            x0, x1, fx = taps(j, w, ow)
            out[:, i, j] = ((1 - fy) * ((1 - fx) * x[:, y0, x0] + fx * x[:, y0, x1])
                            + fy * ((1 - fx) * x[:, y1, x0] + fx * x[:, y1, x1]))
    return out


class TestResampling:
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["pool", "resize"]), c=st.integers(1, 3),
           h=st.integers(1, 13), w=st.integers(1, 13),
           out_h=st.integers(1, 26), out_w=st.integers(1, 26), seed=st.integers(0, 2**32 - 1))
    @example(kind="pool", c=2, h=7, w=5, out_h=3, out_w=2, seed=0)      # overlapping uneven bins
    @example(kind="resize", c=1, h=3, w=5, out_h=11, out_w=13, seed=1)  # up
    @example(kind="resize", c=1, h=11, w=13, out_h=3, out_w=5, seed=2)  # down
    def test_matches_per_pixel_reference_and_vjp_is_adjoint(self, kind, c, h, w, out_h, out_w, seed):
        if kind == "pool":
            out_h, out_w = min(out_h, h), min(out_w, w)
            kernel, reference = nm.adaptive_avg_pool2d, pool_reference
        else:
            kernel, reference = nm.bilinear_resize, resize_reference
        rng = np.random.default_rng(seed)
        x_np = rng.standard_normal((c, h, w))
        g_np = rng.standard_normal((c, out_h, out_w))
        with nm.check_mode():
            x = Tensor(x_np, requires_grad=True)
            y = kernel(x, (out_h, out_w))
            (y * Tensor(g_np)).sum().backward()
        assert y.shape == (c, out_h, out_w)
        np.testing.assert_allclose(y.data, reference(x_np, (out_h, out_w)), rtol=0, atol=1e-12)
        # <A x, g> == <x, A^T g>
        assert np.sum(y.data * g_np) == pytest.approx(np.sum(x_np * x.grad), rel=0, abs=1e-12)

    def test_one_tape_node_per_call(self):
        x = Tensor(np.ones((2, 6, 6)), requires_grad=True)
        for y, op in ((nm.adaptive_avg_pool2d(x, (3, 2)), "adaptive_avg_pool2d"),
                      (nm.bilinear_resize(x, (9, 4)), "bilinear_resize")):
            assert y._op == op and y._parents == (x,)

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            nm.adaptive_avg_pool2d(Tensor(np.ones((2, 4, 4))), (5, 2))
        for kernel in (nm.adaptive_avg_pool2d, nm.bilinear_resize):
            with pytest.raises(DimensionError):
                kernel(Tensor(np.ones((4, 4))), (2, 2))


class TestGradientCheck:
    def test_quadratic(self):
        def f(x):
            return (x * x).sum()

        err = nm.gradient_check(f, Tensor([3.0]), epsilon=1e-4)
        assert err < 1e-7

    def test_nonfinite_raises(self):
        def f(x):
            return nm.log(x).sum()

        with pytest.raises(EvaluationError):
            nm.gradient_check(f, Tensor([-1.0]))

    @staticmethod
    def _builders(rng):
        # constants are drawn once so each f is a fixed function of x
        c34 = Tensor(rng.standard_normal((3, 4)))
        m42 = Tensor(rng.standard_normal((4, 2)))
        p222 = Tensor(rng.standard_normal((2, 2, 2)))
        p223 = Tensor(rng.standard_normal((2, 2, 3)))
        p268 = Tensor(rng.standard_normal((2, 6, 8)))
        c64 = Tensor(rng.standard_normal((6, 4)))
        kern = Tensor(rng.standard_normal((3, 2, 3, 3)))
        kbias = Tensor(rng.standard_normal(3))
        c355 = Tensor(rng.standard_normal((3, 5, 5)))
        c255 = Tensor(rng.standard_normal((2, 5, 5)))
        r14 = Tensor(rng.standard_normal((1, 4)))
        c31 = Tensor(rng.standard_normal((3, 1)))
        v41 = Tensor(rng.standard_normal((4, 1)))
        kern1 = Tensor(rng.standard_normal((1, 2, 3, 3)))
        c155 = Tensor(rng.standard_normal((1, 5, 5)))
        r13 = Tensor(rng.standard_normal((1, 3)))
        return {
            "add": (lambda x: (x + c34).sum(), (3, 4)),
            "mul": (lambda x: (x * c34).sum(), (3, 4)),
            "mul_scalar": (lambda x: (x * 2.5).sum(), (3, 4)),
            "exp": (lambda x: nm.exp(x).sum(), (3, 4)),
            "log": (lambda x: nm.log(x * x + 1.0).sum(), (3, 4)),
            "elu": (lambda x: nm.elu(x).sum(), (3, 4)),
            "relu": (lambda x: nm.relu(x).sum(), (3, 4)),
            "sigmoid": (lambda x: nm.sigmoid(x).sum(), (3, 4)),
            "matmul": (lambda x: nm.matmul(x, m42).sum(), (3, 4)),
            "softmax": (lambda x: (nm.softmax(x, axis=1) * c34).sum(), (3, 4)),
            "mean": (lambda x: nm.reduce_mean(x, axis=1).sum(), (3, 4)),
            "maxpool": (lambda x: (nm.max_pool2d(x, 2) * p222).sum(), (2, 4, 4)),
            "avgpool": (lambda x: (nm.adaptive_avg_pool2d(x, (2, 3)) * p223).sum(), (2, 5, 7)),
            "resize": (lambda x: (nm.bilinear_resize(x, (6, 8)) * p268).sum(), (2, 3, 4)),
            "concat": (lambda x: (nm.concat([x, x * 2.0], axis=0) * c64).sum(), (3, 4)),
            "reshape_transpose": (lambda x: (nm.transpose(nm.reshape(x, (4, 3)), (1, 0)) * c34.reshape(4, 3).transpose(1, 0)).sum(), (3, 4)),
            "conv2d": (lambda x: (nm.conv2d(x, kern, kbias) * c355).sum(), (2, 5, 5)),
            "conv2d_weight": (lambda w: (nm.conv2d(c255, w, kbias) * c355).sum(), (3, 2, 3, 3)),
            "conv2d_bias": (lambda b: (nm.conv2d(c255, kern, b) * c355).sum(), (3,)),
            "division": (lambda x: ((x * c34) / (x * x + 1.0)).sum(), (3, 4)),
            # rank-1 products: broadcast multiplies forward and backward
            "matmul_outer_column": (lambda x: (nm.matmul(x, r14) * c34).sum(), (3, 1)),
            "matmul_outer_row": (lambda x: (nm.matmul(c31, x) * c34).sum(), (1, 4)),
            "matmul_column_output": (lambda x: (nm.matmul(x, v41) * c31).sum(), (3, 4)),
            "matmul_row_input": (lambda x: (nm.matmul(r14, x) * r13).sum(), (4, 3)),
            "conv2d_single_filter": (lambda x: (nm.conv2d(x, kern1) * c155).sum(), (2, 5, 5)),
            # zero-stride ones operands, differentiated through the other
            # operand: expand_rows' `ones @ row`, the layer-norm `stat @ ones`,
            # and a GEMM with ones on either side
            "matmul_ones_column_left": (lambda x: (nm.matmul(_ones((3, 1)), x) * c34).sum(), (1, 4)),
            "matmul_ones_row_right": (lambda x: (nm.matmul(x, _ones((1, 4))) * c34).sum(), (3, 1)),
            "matmul_ones_left": (lambda x: (nm.matmul(_ones((3, 4)), x) * c34).sum(), (4, 4)),
            "matmul_ones_right": (lambda x: (nm.matmul(x, _ones((4, 4))) * c34).sum(), (3, 4)),
        }

    def test_every_kernel_matches_finite_differences(self):
        # >= 10 random trials per differentiable kernel, 64-bit mode
        for seed in range(10):
            rng = np.random.default_rng(seed * 101 + 13)
            with nm.check_mode():
                builders = self._builders(rng)
                inputs = {name: Tensor(rng.standard_normal(shape) + 0.1)
                          for name, (f, shape) in builders.items()}
            for name, (f, _) in builders.items():
                err = nm.gradient_check(f, inputs[name], epsilon=1e-5)
                assert err <= 1e-4, f"{name} seed {seed}: {err}"


class TestTapeSemantics:
    def test_double_backward_raises(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * x).sum()
        y.backward()
        with pytest.raises(RuntimeError):
            y.backward()

    def test_grad_accumulates_across_graphs(self):
        x = Tensor([2.0], requires_grad=True)
        (x * x).sum().backward()
        g1 = x.grad.copy()
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * g1)
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_visits_once(self):
        x = Tensor([1.5], requires_grad=True)
        a = x * 2.0
        y = (a * a).sum()  # y = 4 x^2, dy/dx = 8x
        y.backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_second_backward_raises_and_leaves_grads_as_they_were(self):
        x = nm.parameter([1.5, -2.0])
        h = x * x
        y = (h + h * 2.0).sum()
        y.backward()
        grad = x.grad.copy()
        with pytest.raises(RuntimeError):
            y.backward()
        np.testing.assert_array_equal(x.grad, grad)

    def test_backward_from_a_leaf_scalar(self):
        x = Tensor([3.0], requires_grad=True)
        x.backward()
        np.testing.assert_array_equal(x.grad, [1.0])
        constant = Tensor([3.0])
        constant.backward()  # no tape and no gradient: nothing to do
        assert constant.grad is None

    def test_a_vjp_set_after_the_result_is_made_is_the_one_backward_runs(self):
        # perfbench's tracer puts a timed wrapper in `out._vjp`
        x = nm.parameter([1.0, 2.0])
        y = x * 3.0
        inner, calls = y._vjp, []

        def wrapper(g):
            calls.append(g)
            return inner(g)

        y._vjp = wrapper
        assert y._vjp is wrapper
        y.sum().backward()
        assert len(calls) == 1
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_a_parent_without_grad_gets_none_on_the_tape_and_no_grad(self):
        p = nm.parameter([1.0, 2.0])
        const = Tensor([5.0, 7.0])
        y = nm.mul(p, const)
        assert y._parents == (p, None)  # aligned with the vjp's (g * b, None)
        h = p * 1.0
        z = nm.mul(const, h)
        assert z._parents[0] is None and z._parents[1] is h._node
        (y + z).sum().backward()
        np.testing.assert_array_equal(p.grad, [10.0, 14.0])
        assert const.grad is None and h.grad is None

    def test_backward_needs_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(DimensionError):
            (x * 2.0).backward()

    @pytest.mark.parametrize("kernel", ["mul", "matmul", "conv2d"])
    def test_vjp_skips_operands_without_grad(self, kernel):
        rng = np.random.default_rng(5)
        shapes = {"mul": ((3, 4), (3, 4)), "matmul": ((3, 4), (4, 2)),
                  "conv2d": ((2, 5, 6), (3, 2, 3, 3))}[kernel]
        arrays = [rng.standard_normal(shape) for shape in shapes]
        op = getattr(nm, kernel)
        full = op(*(nm.parameter(a) for a in arrays))
        g = rng.standard_normal(full.shape).astype(full.dtype)
        want = full._vjp(g)
        for kept in range(2):
            operands = [nm.parameter(a) if i == kept else Tensor(a) for i, a in enumerate(arrays)]
            got = op(*operands)._vjp(g)
            assert got[1 - kept] is None
            # the kept gradient is the same bits as with both operands trainable
            np.testing.assert_array_equal(got[kept], want[kept])


class TestShapeDiscipline:
    def test_no_general_broadcasting(self):
        with pytest.raises(DimensionError):
            nm.add(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))
        with pytest.raises(DimensionError):
            nm.mul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 1))))

    def test_scalar_broadcast_allowed(self):
        out = Tensor(np.ones((2, 3))) + 1.0
        assert np.all(out.data == 2.0)

    def test_finiteness_check(self):
        t = Tensor([1.0, np.inf])
        assert not t.is_finite()
        assert Tensor([1.0, -2.0]).is_finite()


class TestModes:
    def test_dtype_switch(self):
        assert Tensor([1.0]).dtype == np.float32
        with nm.check_mode():
            assert Tensor([1.0]).dtype == np.float64
        assert Tensor([1.0]).dtype == np.float32

    def test_matmul_linearity(self):
        rng = np.random.default_rng(11)
        with nm.check_mode():
            x = rng.standard_normal((3, 4))
            y = rng.standard_normal((3, 4))
            w = Tensor(rng.standard_normal((4, 2)))
            lhs = nm.matmul(Tensor(2.0 * x - 0.3 * y), w).data
            rhs = 2.0 * nm.matmul(Tensor(x), w).data - 0.3 * nm.matmul(Tensor(y), w).data
            np.testing.assert_allclose(lhs, rhs, rtol=1e-6)


class TestComposites:
    def test_absolute(self):
        x = Tensor([-2.0, 0.0, 3.5])
        np.testing.assert_allclose(nm.absolute(x).data, [2.0, 0.0, 3.5])

    def test_reciprocal_positive(self):
        x = Tensor([0.5, 2.0, 4.0])
        np.testing.assert_allclose(nm.reciprocal(x).data, [2.0, 0.5, 0.25], rtol=1e-6)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_division_by_non_positive_tensor_raises(self, bad):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(DomainError, match="strictly positive"):
            x / Tensor([4.0, bad])
        np.testing.assert_allclose((x / Tensor([4.0, 0.5])).data, [0.25, 4.0], rtol=1e-6)

    def test_operator_chain(self):
        x = Tensor([4.0], requires_grad=True)
        y = ((x - 1.0) / 3.0).sum()
        y.backward()
        np.testing.assert_allclose(y.data, [1.0])
        np.testing.assert_allclose(x.grad, [1 / 3], rtol=1e-6)
