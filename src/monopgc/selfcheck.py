"""Self-contained invariant suite: every core property, runnable anywhere.

Each check returns (passed, detail). The suite covers gradient fidelity of
the kernels, depth-bin round trips, projection round trips, the linear
attention reference, depth-gradient edge semantics, IoU against the
rasterization oracle, and the AP reference cases. A deliberate-corruption
hook exists for testing the harness itself.
"""

from __future__ import annotations

import math

import numpy as np

from . import dsat, evaluation as ev, geometry as geo, numerics as nm
from .evaluation import BevBox
from .numerics import Tensor

KITTI_SPEC = geo.DepthBinSpec(2.0, 46.8, 64)


def check_numerics_gradients():
    rng = np.random.default_rng(0)
    worst = 0.0
    with nm.check_mode():
        # constants bound as defaults so each f is a fixed function of x
        cases = {
            "matmul": (lambda x, w=Tensor(rng.standard_normal((4, 3))): nm.matmul(x, w).sum(), (3, 4)),
            "conv2d": (lambda x, k=Tensor(rng.standard_normal((2, 2, 3, 3))),
                       w=Tensor(rng.standard_normal((2, 4, 4))): (nm.conv2d(x, k) * w).sum(), (2, 4, 4)),
            "softmax": (lambda x, w=Tensor(rng.standard_normal((3, 4))): (nm.softmax(x, axis=1) * w).sum(), (3, 4)),
            "elu": (lambda x: nm.elu(x).sum(), (3, 4)),
            "sigmoid": (lambda x: nm.sigmoid(x).sum(), (3, 4)),
            "resize": (lambda x, w=Tensor(rng.standard_normal((2, 5, 7))): (nm.bilinear_resize(x, (5, 7)) * w).sum(), (2, 3, 4)),
            "maxpool": (lambda x, w=Tensor(rng.standard_normal((2, 2, 2))): (nm.max_pool2d(x, 2) * w).sum(), (2, 4, 4)),
            "avgpool": (lambda x, w=Tensor(rng.standard_normal((2, 2, 3))): (nm.adaptive_avg_pool2d(x, (2, 3)) * w).sum(), (2, 5, 7)),
            "conv2d_weight": (lambda k, x=Tensor(rng.standard_normal((2, 4, 4))), b=Tensor(rng.standard_normal(2)): (nm.conv2d(x, k, b) * x).sum(), (2, 2, 3, 3)),
            "conv2d_bias": (lambda b, x=Tensor(rng.standard_normal((2, 4, 4))), k=Tensor(rng.standard_normal((2, 2, 3, 3))): (nm.conv2d(x, k, b) * x).sum(), (2,)),
            # rank-1 products, which run as broadcast multiplies
            "matmul_outer_column": (lambda x, r=Tensor(rng.standard_normal((1, 4))), w=Tensor(rng.standard_normal((3, 4))): (nm.matmul(x, r) * w).sum(), (3, 1)),
            "matmul_outer_row": (lambda x, c=Tensor(rng.standard_normal((3, 1))), w=Tensor(rng.standard_normal((3, 4))): (nm.matmul(c, x) * w).sum(), (1, 4)),
            "matmul_column_output": (lambda x, v=Tensor(rng.standard_normal((4, 1))), w=Tensor(rng.standard_normal((3, 1))): (nm.matmul(x, v) * w).sum(), (3, 4)),
            "matmul_row_input": (lambda x, r=Tensor(rng.standard_normal((1, 4))), w=Tensor(rng.standard_normal((1, 3))): (nm.matmul(r, x) * w).sum(), (4, 3)),
            "conv2d_single_filter": (lambda x, k=Tensor(rng.standard_normal((1, 2, 3, 3))), w=Tensor(rng.standard_normal((1, 4, 4))): (nm.conv2d(x, k) * w).sum(), (2, 4, 4)),
            # zero-stride ones operands, as expand_rows and layer norm use them
            "matmul_ones_column_left": (lambda x, w=Tensor(rng.standard_normal((3, 4))): (nm.matmul(dsat._ones((3, 1)), x) * w).sum(), (1, 4)),
            "matmul_ones_row_right": (lambda x, w=Tensor(rng.standard_normal((3, 4))): (nm.matmul(x, dsat._ones((1, 4))) * w).sum(), (3, 1)),
            "matmul_ones_left": (lambda x, w=Tensor(rng.standard_normal((3, 4))): (nm.matmul(dsat._ones((3, 4)), x) * w).sum(), (4, 4)),
            "matmul_ones_right": (lambda x, w=Tensor(rng.standard_normal((3, 4))): (nm.matmul(x, dsat._ones((4, 4))) * w).sum(), (3, 4)),
            # statistics taken on [N, 1] columns before their ones-products
            "layer_norm_x": (lambda x, g=Tensor(rng.standard_normal(4)), b=Tensor(rng.standard_normal(4)), w=Tensor(rng.standard_normal((3, 4))): (dsat.layer_norm(x, g, b) * w).sum(), (3, 4)),
            "layer_norm_gamma": (lambda g, x=Tensor(rng.standard_normal((3, 4))), b=Tensor(rng.standard_normal(4)), w=Tensor(rng.standard_normal((3, 4))): (dsat.layer_norm(x, g, b) * w).sum(), (4,)),
            "layer_norm_beta": (lambda b, x=Tensor(rng.standard_normal((3, 4))), g=Tensor(rng.standard_normal(4)), w=Tensor(rng.standard_normal((3, 4))): (dsat.layer_norm(x, g, b) * w).sum(), (4,)),
            "attention_keys": (lambda k, q=Tensor(rng.standard_normal((3, 4))), v=Tensor(rng.standard_normal((5, 2))), w=Tensor(rng.standard_normal((3, 2))): (dsat.linear_attention(q, k, v) * w).sum(), (5, 4)),
            "attention_values": (lambda v, q=Tensor(rng.standard_normal((3, 4))), k=Tensor(rng.standard_normal((5, 4))), w=Tensor(rng.standard_normal((3, 2))): (dsat.linear_attention(q, k, v) * w).sum(), (5, 2)),
        }
        inputs = {name: Tensor(rng.standard_normal(shape)) for name, (f, shape) in cases.items()}
    for name, (f, shape) in cases.items():
        err = nm.gradient_check(f, inputs[name], epsilon=1e-5)
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
