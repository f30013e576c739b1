"""Self-contained invariant suite: every core property, runnable anywhere.

Each check returns (passed, detail). The suite covers gradient fidelity of
the kernels, depth-bin round trips, projection round trips, the linear
attention reference, depth-gradient edge semantics, IoU against the
rasterization oracle, and the AP reference cases. A deliberate-corruption
hook exists for testing the harness itself. The kernels' float64 gradient
cases are declared once, in `gradient_cases`, which this suite and the
acceptance tests read; the table is built only when called, so importing
this module builds nothing.
"""

from __future__ import annotations

import math

import numpy as np

from . import dsat, evaluation as ev, geometry as geo, numerics as nm
from .evaluation import BevBox
from .numerics import Tensor

KITTI_SPEC = geo.DepthBinSpec(2.0, 46.8, 64)


def gradient_cases(rng):
    """Every float64 gradient case of the kernel set: {name: (f, shape)}.

    Each f maps an input of `shape` to a scalar and binds its constants as
    default arguments, drawn from `rng` in float64, so it is a fixed function
    of its input. Most weight a kernel's output by a random constant, so that
    every output element's gradient counts. There is one case per operand
    and per vjp path; a new kernel needs a case that puts its op tag on the
    tape, or tests/test_numerics.py::TestGradientCases fails.
    """
    def r(*shape):
        return Tensor(rng.standard_normal(shape))

    with nm.check_mode():
        return {
            # elementwise kernels and their compositions
            "add": (lambda x, c=r(3, 4): (x + c).sum(), (3, 4)),
            "mul": (lambda x, c=r(3, 4): (x * c).sum(), (3, 4)),
            "mul_scalar": (lambda x: (x * 2.5).sum(), (3, 4)),
            "exp": (lambda x: nm.exp(x).sum(), (3, 4)),
            "log": (lambda x: nm.log(x * x + 1.0).sum(), (3, 4)),
            "exp_log": (lambda x: nm.log(nm.exp(x) + 1.0).sum(), (3, 4)),
            "division": (lambda x, c=r(3, 4): ((x * c) / (x * x + 1.0)).sum(), (3, 4)),
            "elu": (lambda x: nm.elu(x).sum(), (3, 4)),
            "relu": (lambda x: nm.relu(x).sum(), (3, 4)),
            "sigmoid": (lambda x: nm.sigmoid(x).sum(), (3, 4)),
            # softmax and reductions, over either axis
            "softmax_axis0": (lambda x, c=r(3, 4): (nm.softmax(x, axis=0) * c).sum(), (3, 4)),
            "softmax_axis1": (lambda x, c=r(3, 4): (nm.softmax(x, axis=1) * c).sum(), (3, 4)),
            "mean_axis0": (lambda x: nm.reduce_mean(x, axis=0).sum(), (3, 4)),
            "mean_axis1": (lambda x: nm.reduce_mean(x, axis=1).sum(), (3, 4)),
            # shape ops
            "concat": (lambda x, c=r(6, 4): (nm.concat([x, x * 2.0], axis=0) * c).sum(), (3, 4)),
            "reshape_transpose": (lambda x, c=r(3, 4): (nm.transpose(nm.reshape(x, (4, 3)), (1, 0)) * c).sum(), (3, 4)),
            # pooling and resampling
            "maxpool": (lambda x, c=r(2, 2, 2): (nm.max_pool2d(x, 2) * c).sum(), (2, 4, 4)),
            "avgpool": (lambda x, c=r(2, 2, 3): (nm.adaptive_avg_pool2d(x, (2, 3)) * c).sum(), (2, 5, 7)),
            "resize": (lambda x, c=r(2, 6, 8): (nm.bilinear_resize(x, (6, 8)) * c).sum(), (2, 3, 4)),
            # matmul as a GEMM, as rank-1 products (broadcast multiplies), and
            # with zero-stride ones operands, as expand_rows and layer norm use
            # them, differentiated through the other operand
            "matmul": (lambda x, w=r(4, 2): nm.matmul(x, w).sum(), (3, 4)),
            "matmul_outer_column": (lambda x, a=r(1, 4), c=r(3, 4): (nm.matmul(x, a) * c).sum(), (3, 1)),
            "matmul_outer_row": (lambda x, a=r(3, 1), c=r(3, 4): (nm.matmul(a, x) * c).sum(), (1, 4)),
            "matmul_column_output": (lambda x, a=r(4, 1), c=r(3, 1): (nm.matmul(x, a) * c).sum(), (3, 4)),
            "matmul_row_input": (lambda x, a=r(1, 4), c=r(1, 3): (nm.matmul(a, x) * c).sum(), (4, 3)),
            "matmul_ones_column_left": (lambda x, c=r(3, 4): (nm.matmul(dsat._ones((3, 1)), x) * c).sum(), (1, 4)),
            "matmul_ones_row_right": (lambda x, c=r(3, 4): (nm.matmul(x, dsat._ones((1, 4))) * c).sum(), (3, 1)),
            "matmul_ones_left": (lambda x, c=r(3, 4): (nm.matmul(dsat._ones((3, 4)), x) * c).sum(), (4, 4)),
            "matmul_ones_right": (lambda x, c=r(3, 4): (nm.matmul(x, dsat._ones((4, 4))) * c).sum(), (3, 4)),
            # conv2d's input gradient with and without a bias and with one
            # filter (a rank-1 product), and the filter and bias gradients
            "conv2d": (lambda x, k=r(3, 2, 3, 3), b=r(3), c=r(3, 5, 5): (nm.conv2d(x, k, b) * c).sum(), (2, 5, 5)),
            "conv2d_no_bias": (lambda x, k=r(3, 2, 3, 3), c=r(3, 5, 5): (nm.conv2d(x, k) * c).sum(), (2, 5, 5)),
            "conv2d_single_filter": (lambda x, k=r(1, 2, 3, 3), c=r(1, 5, 5): (nm.conv2d(x, k) * c).sum(), (2, 5, 5)),
            "conv2d_weight": (lambda k, x=r(2, 5, 5), b=r(3), c=r(3, 5, 5): (nm.conv2d(x, k, b) * c).sum(), (3, 2, 3, 3)),
            "conv2d_bias": (lambda b, x=r(2, 5, 5), k=r(3, 2, 3, 3), c=r(3, 5, 5): (nm.conv2d(x, k, b) * c).sum(), (3,)),
            # the DSAT compositions whose statistics are [N, 1] columns, with
            # respect to each operand
            "layer_norm_x": (lambda x, g=r(4), b=r(4), c=r(3, 4): (dsat.layer_norm(x, g, b) * c).sum(), (3, 4)),
            "layer_norm_gamma": (lambda g, x=r(3, 4), b=r(4), c=r(3, 4): (dsat.layer_norm(x, g, b) * c).sum(), (4,)),
            "layer_norm_beta": (lambda b, x=r(3, 4), g=r(4), c=r(3, 4): (dsat.layer_norm(x, g, b) * c).sum(), (4,)),
            "attention_q": (lambda q, k=r(4, 3), v=r(4, 2), c=r(5, 2): (dsat.linear_attention(q, k, v) * c).sum(), (5, 3)),
            "attention_k": (lambda k, q=r(5, 3), v=r(4, 2), c=r(5, 2): (dsat.linear_attention(q, k, v) * c).sum(), (4, 3)),
            "attention_v": (lambda v, q=r(5, 3), k=r(4, 3), c=r(5, 2): (dsat.linear_attention(q, k, v) * c).sum(), (4, 2)),
        }


def gradient_trials(seed):
    """The table at one seed: {name: (f, x)}.

    The constants are drawn first, then every input x by the one input rule:
    float64 standard normal plus 0.1.
    """
    rng = np.random.default_rng(seed)
    with nm.check_mode():
        cases = gradient_cases(rng)
        return {name: (f, Tensor(rng.standard_normal(shape) + 0.1)) for name, (f, shape) in cases.items()}


def check_numerics_gradients():
    worst = 0.0
    for name, (f, x) in gradient_trials(0).items():
        err = nm.gradient_check(f, x, epsilon=1e-5)
        worst = max(worst, err)
        if err > 1e-4:
            return False, f"gradient of {name} off by {err:.3e}"
    return True, f"worst relative error {worst:.3e}"


def check_numerics_linearity():
    rng = np.random.default_rng(1)
    with nm.check_mode():
        x = rng.standard_normal((2, 6, 6))
        y = rng.standard_normal((2, 6, 6))
        k = Tensor(rng.standard_normal((3, 2, 3, 3)))
        lhs = nm.conv2d(Tensor(1.3 * x - 0.7 * y), k).data
        rhs = 1.3 * nm.conv2d(Tensor(x), k).data - 0.7 * nm.conv2d(Tensor(y), k).data
        rel = np.abs(lhs - rhs).max() / max(np.abs(rhs).max(), 1e-12)
    if rel > 1e-6:
        return False, f"conv2d linearity violated by {rel:.3e}"
    return True, f"conv2d linear within {rel:.3e}"


def check_numerics_softmax():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((5, 7)) * 8)
    out = nm.softmax(x, axis=1).data
    sums = out.sum(axis=1)
    if not np.allclose(sums, 1.0, atol=1e-6) or not (out > 0).all():
        return False, "softmax rows do not sum to 1 or are not positive"
    big = nm.softmax(Tensor([1000.0, 0.0]), axis=0).data
    if not np.isfinite(big).all():
        return False, "softmax overflows on large logits"
    return True, "normalization and stability hold"


def check_geometry_lid():
    edges = geo.lid_edges(KITTI_SPEC)
    if abs(edges[0] - 2.0) > 1e-9 or abs(edges[-1] - 46.8) > 1e-9:
        return False, f"edge endpoints wrong: {edges[0]}, {edges[-1]}"
    widths = np.diff(edges)
    if not (np.diff(widths) > 0).all():
        return False, "bin widths are not strictly increasing"
    for i in range(64):
        d = geo.lid_bin_to_depth(KITTI_SPEC, i)
        if geo.depth_to_lid_bin(KITTI_SPEC, d) != i or geo.depth_to_lid_bin(KITTI_SPEC, d + 1e-9) != i:
            return False, f"round trip failed at bin {i}"
    return True, "edges, widths, and 64 round trips exact"


def check_geometry_projection():
    rng = np.random.default_rng(3)
    with nm.check_mode():
        for _ in range(100):
            calib = geo.random_calibration(rng)
            pm = np.array([rng.uniform(-500, 500) * 10, rng.uniform(-300, 300) * 10,
                           rng.uniform(2, 45), 1.0])
            world = geo.frustum_to_world(calib, Tensor(pm.reshape(4, 1, 1))).data.reshape(4)
            back = calib.forward_projection_matrix() @ world
            err = np.abs(back - pm).max() / max(np.abs(pm).max(), 1.0)
            if err > 1e-6:
                return False, f"projection round trip off by {err:.3e}"
    return True, "100 random calibrations round trip within 1e-6"


def check_linear_attention():
    rng = np.random.default_rng(4)
    with nm.check_mode():
        for _ in range(25):
            n, m, e = rng.integers(1, 10, size=3)
            q = Tensor(rng.standard_normal((n, e)))
            k = Tensor(rng.standard_normal((m, e)))
            v = Tensor(rng.standard_normal((m, e)))
            out = dsat.linear_attention(q, k, v).data
            ref = dsat.linear_attention_reference(q, k, v)
            if np.abs(out - ref).max() > 1e-6:
                return False, f"accumulator form differs from reference by {np.abs(out - ref).max():.3e}"
    return True, "accumulator form matches the quadratic reference"


def check_dgpe_edges():
    with nm.check_mode():
        const = Tensor(np.full((1, 6, 7), 0.4))
        edges = dsat.edge_filter_responses(const).data
        if np.abs(edges).max() > 0:
            return False, "constant depth produced nonzero edge responses"
        h, w = 8, 10
        ramp = np.tile(np.arange(w, dtype=np.float64) / 46.8, (h, 1))[None]
        resp = dsat.edge_filter_responses(Tensor(ramp)).data
        interior = np.s_[1:h - 1, 1:w - 1]
        sobel_err = np.abs(resp[0][interior] - 8.0 / 46.8).max()
        lap_err = np.abs(resp[2][interior]).max()
    if sobel_err > 1e-6:
        return False, f"ramp Sobel-X response off by {sobel_err:.3e}"
    if lap_err > 1e-9:
        return False, f"ramp Laplacian response nonzero: {lap_err:.3e}"
    return True, "constant and ramp edge semantics exact"


def check_iou_against_oracle():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        a = BevBox(*rng.uniform(-2, 2, 2), *rng.uniform(0.5, 3.5, 2), rng.uniform(-math.pi, math.pi))
        b = BevBox(*rng.uniform(-2, 2, 2), *rng.uniform(0.5, 3.5, 2), rng.uniform(-math.pi, math.pi))
        diff = abs(ev.rotated_bev_iou(a, b) - ev.rasterized_bev_iou(a, b, resolution=400))
        worst = max(worst, diff)
        if diff > 5e-3:
            return False, f"polygon IoU differs from rasterization by {diff:.4f}"
    rot45 = ev.rotated_bev_iou(BevBox(0, 0, 1, 1, 0.0), BevBox(0, 0, 1, 1, math.pi / 4))
    if abs(rot45 - 0.7071067811865476) > 1e-4:
        return False, f"45-degree case gave {rot45:.6f}"
    return True, f"worst oracle gap {worst:.2e}; 45-degree case exact"


def check_ap_cases():
    from .data import LabeledObject
    from .head import detection_from_label

    gts = {"0": [LabeledObject("Car", 0.0, 0, 0.0, (0, 0, 60, 60), (1.5, 1.6, 4.0),
                               (6.0 * i, 1.0, 10.0 + 5 * i), 0.0) for i in range(8)]}
    perfect = {"0": [detection_from_label(o) for o in gts["0"]]}
    ap_full = ev.average_precision_40(perfect, gts, difficulty="overall")
    ap_none = ev.average_precision_40({"0": []}, gts, difficulty="overall")
    half = {"0": [detection_from_label(o) for o in gts["0"][:4]]}
    ap_half = ev.average_precision_40(half, gts, difficulty="overall")
    if abs(ap_full - 1.0) > 1e-12:
        return False, f"perfect predictions gave AP {ap_full}"
    if ap_none != 0.0:
        return False, f"empty predictions gave AP {ap_none}"
    if abs(ap_half - 0.5) > 1e-12:
        return False, f"half-recall construction gave AP {ap_half}"
    return True, "perfect/empty/half-recall cases exact"


CHECKS = (
    ("numerics.gradient_kernels", check_numerics_gradients),
    ("numerics.linearity", check_numerics_linearity),
    ("numerics.softmax_normalization", check_numerics_softmax),
    ("geometry.lid_round_trip", check_geometry_lid),
    ("geometry.projection_round_trip", check_geometry_projection),
    ("dsat.linear_attention_reference", check_linear_attention),
    ("dsat.dgpe_edge_semantics", check_dgpe_edges),
    ("eval.iou_rasterization_oracle", check_iou_against_oracle),
    ("eval.ap_reference_cases", check_ap_cases),
)


def run_selfcheck(only=None, corrupt=None, report=print):
    """Run the suite; returns (all_passed, results).

    only: module prefix filter (e.g. "geometry"). corrupt="sobel" flips one
    coefficient of the Sobel-X kernel for the duration of the run, to prove
    the checks can fail loudly.
    """
    original = dsat.SOBEL_X
    if corrupt == "sobel":
        dsat.SOBEL_X = original.copy()
        dsat.SOBEL_X[0, 0] = +1.0
    try:
        results = []
        for name, fn in CHECKS:
            if only and not name.startswith(only):
                continue
            try:
                ok, detail = fn()
            except Exception as exc:  # a crash is a failure with a named cause
                ok, detail = False, f"exception: {exc!r}"
            results.append((name, ok, detail))
            if report:
                report(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        if not results:
            if report:
                report(f"no checks match prefix {only!r}")
            return False, results
        return all(ok for _, ok, _ in results), results
    finally:
        dsat.SOBEL_X = original
