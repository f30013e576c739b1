import math

import numpy as np
import pytest

from monopgc import numerics as nm
from monopgc.config import RunConfig, parse_config_text
from monopgc.dcpm import IGNORE_BIN
from monopgc.errors import ConfigError
from monopgc.numerics import Tensor
from monopgc.pipeline import (Adam, MonoPGCModel, TrainingAborted, build_targets,
                              flatten_params, make_synthetic_samples, one_cycle_lr, train)

SMALL = parse_config_text(
    "data.image_height=48\ndata.image_width=48\nmodel.channels=8\nmodel.embed=16\n"
    "model.ffn_width=32\ndepth.bins=16\nsynth.scenes=2\noptim.steps=3\n"
    "optim.batch_size=2\nmodel.enc_blocks=1\nmodel.dec_blocks=1\n")
# 48x48 gives a 3x3 top level, below the largest pooling scale, so the small
# config must run without the fusion module
SMALL = parse_config_text("model.dcpm=off\nmodel.pe=ape\n", base=SMALL)


def small_config(**kw):
    from dataclasses import replace

    return replace(SMALL, **kw)


class TestModelAssembly:
    def test_small_variant_runs(self):
        cfg = small_config()
        model = MonoPGCModel(cfg)
        samples = make_synthetic_samples(cfg)
        out = model.forward(samples[0])
        assert out["f_dsa"].shape == (8, 12, 12)
        assert out["depth_dist"] is None
        assert out["maps"].class_heatmap.shape == (1, 12, 12)

    def test_full_variant_shapes(self):
        cfg = RunConfig(scenes=1, channels=16, embed=32, ffn_width=32,
                        enc_blocks=1, dec_blocks=1, depth_bins=32)
        model = MonoPGCModel(cfg)
        samples = make_synthetic_samples(cfg)
        out = model.forward(samples[0])
        assert out["f_dcp"].shape == (16, 24, 24)
        assert out["depth_dist"].logits.shape == (32, 24, 24)
        assert out["pe"].kind == "dgpe"
        assert out["pe"].values.shape == (576, 32)
        assert out["f_dsa"].shape == (16, 24, 24)

    def test_no_dsat_pe_feature_add(self):
        cfg = RunConfig(scenes=1, channels=16, embed=32, use_dsat=False, pe="dgpe",
                        depth_bins=32)
        model = MonoPGCModel(cfg)
        samples = make_synthetic_samples(cfg)
        out = model.forward(samples[0])
        # the encoding is projected at feature width and added to the features
        assert out["pe"].values.shape == (576, 16)
        assert out["f_dsa"].shape == out["f_dcp"].shape
        assert not np.allclose(out["f_dsa"].data, out["f_dcp"].data)

    def test_fresh_dsat_is_identity_bypass(self):
        cfg = RunConfig(scenes=1, channels=16, embed=32, enc_blocks=1, dec_blocks=1,
                        depth_bins=32, pe="none")
        model = MonoPGCModel(cfg)
        samples = make_synthetic_samples(cfg)
        out = model.forward(samples[0])
        # zero-initialized decoder output projection: F_DSA == F_DCP at init
        np.testing.assert_array_equal(out["f_dsa"].data, out["f_dcp"].data)

    def test_param_tree_flattening(self):
        cfg = small_config()
        model = MonoPGCModel(cfg)
        params = model.parameters()
        assert all(isinstance(v, Tensor) for v in params.values())
        assert any(name.startswith("backbone.") for name in params)
        assert any(name.startswith("head.") for name in params)
        with pytest.raises(TypeError):
            dict(flatten_params({"bad": 3}))

    def test_load_state_shape_guard(self):
        cfg = small_config()
        model = MonoPGCModel(cfg)
        state = {k: v.data.copy() for k, v in model.parameters().items()}
        state[next(iter(state))] = np.zeros((1, 1))
        with pytest.raises(ConfigError):
            model.load_state(state)


class TestTargets:
    def test_dense_depth_targets(self):
        cfg = RunConfig(scenes=1)
        samples = make_synthetic_samples(cfg)
        t = build_targets(samples[0], cfg)
        assert t["gt_bins"].shape == cfg.feature_hw
        assert ((t["gt_bins"] >= 0) & (t["gt_bins"] < 64)).all()
        assert t["fg_mask"].shape == cfg.feature_hw
        assert 0 < t["fg_mask"].sum() < t["fg_mask"].size
        # foreground cells carry nearer bins than the far background
        assert t["gt_bins"][t["fg_mask"] > 0].max() < 63

    def test_box_fill_targets_without_depth_map(self):
        cfg = RunConfig(scenes=1)
        samples = make_synthetic_samples(cfg)
        s = samples[0]
        s.depth_map = None
        s.foreground = None
        t = build_targets(s, cfg)
        inside = t["fg_mask"] > 0
        assert inside.any()
        assert (t["gt_bins"][~inside] == IGNORE_BIN).all()
        assert (t["gt_bins"][inside] >= 0).all()


class TestOptimizer:
    def test_adam_minimizes_quadratic(self):
        x = nm.parameter(np.array([4.0, -3.0]))
        opt = Adam({"x": x})
        for _ in range(300):
            opt.zero_grad()
            loss = (x * x).sum()
            loss.backward()
            opt.step(0.05)
        assert np.abs(x.data).max() < 1e-2

    def test_one_cycle_shape(self):
        total = 100
        lrs = [one_cycle_lr(s, total, 2.25e-4, 2.25e-3, 0.3) for s in range(total)]
        peak_at = int(np.argmax(lrs))
        assert peak_at == pytest.approx(30, abs=1)
        assert lrs[0] == pytest.approx(2.25e-4)
        assert max(lrs) == pytest.approx(2.25e-3, rel=1e-6)
        assert lrs[-1] < 2.25e-4  # annealed below the initial rate


class TestTraining:
    def test_runs_and_logs(self):
        cfg = small_config()
        result, opt = train(cfg)
        assert len(result.losses) == 3
        assert len(result.log_lines) == 3
        assert result.log_lines[0].startswith("step=0 lr=")
        assert all(math.isfinite(v) for v in result.losses)

    def test_determinism_bit_identical_logs(self):
        cfg = small_config()
        a, _ = train(cfg)
        b, _ = train(cfg)
        assert a.log_lines == b.log_lines

    def test_seed_changes_run(self):
        a, _ = train(small_config())
        b, _ = train(small_config(seed=5))
        assert a.log_lines != b.log_lines

    def test_per_sample_backward_matches_batched_graph(self):
        cfg = small_config(scenes=3, batch_size=3, steps=1)
        with nm.check_mode():
            # train() leaves its one step's gradients on the parameters
            result, _ = train(cfg)
            model = MonoPGCModel(cfg)  # the same seed: train()'s starting point
            total = None
            for sample in result.samples:
                loss, _ = model.loss(model.forward(sample), build_targets(sample, cfg))
                total = loss if total is None else total + loss
            (total * (1.0 / 3)).backward()
        trained = result.model.parameters()
        assert sum(p.grad is not None for p in model.parameters().values()) > 10
        for name, p in model.parameters().items():
            if p.grad is None:  # a module this config leaves out
                assert trained[name].grad is None, name
            else:
                np.testing.assert_allclose(trained[name].grad, p.grad, rtol=0, atol=1e-12,
                                           err_msg=name)

    def test_nonfinite_sample_loss_aborts_before_update(self, monkeypatch):
        cfg = small_config()
        real_loss = MonoPGCModel.loss
        calls = []

        def loss(self, outputs, targets):
            total, breakdown = real_loss(self, outputs, targets)
            calls.append(None)
            if len(calls) == cfg.batch_size:  # the last sample of the first step
                total = total * float("nan")
            return total, breakdown

        monkeypatch.setattr(MonoPGCModel, "loss", loss)
        model = MonoPGCModel(cfg)
        before = {name: p.data.copy() for name, p in model.parameters().items()}
        with pytest.raises(TrainingAborted, match="non-finite loss at step 0"):
            train(cfg, model=model)
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(p.data, before[name], err_msg=name)
        # the earlier samples' backward ran: the gradients hold a partial step
        assert any(p.grad is not None for p in model.parameters().values())

    def test_checkpoint_restores_bit_identical_forward(self, tmp_path):
        from monopgc.checkpoint import load_checkpoint, save_checkpoint

        cfg = small_config()
        result, opt = train(cfg)
        model = result.model
        sample = result.samples[0]
        before = model.forward(sample)["maps"].class_heatmap.data.copy()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model.parameters(), step=3, config_hash=cfg.model_hash())
        fresh = MonoPGCModel(small_config(seed=123))  # different init
        fresh.load_state(load_checkpoint(path)["params"])
        after = fresh.forward(sample)["maps"].class_heatmap.data
        np.testing.assert_array_equal(before, after)
