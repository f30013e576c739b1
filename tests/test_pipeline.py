import contextlib
import math
import os
import signal
import threading

import numpy as np
import pytest

from monopgc import numerics as nm, pipeline
from monopgc.config import RunConfig, parse_config_text
from monopgc.dcpm import IGNORE_BIN
from monopgc.errors import ConfigError, DimensionError, HelperError
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


def _batch_stems(cfg, step=0):
    """Stems of a step's batch, in order, drawn the way train() draws it."""
    rng = np.random.default_rng(cfg.seed + 1)
    for _ in range(step + 1):
        batch = rng.choice(cfg.scenes, size=min(cfg.batch_size, cfg.scenes), replace=False)
    return [f"{i:06d}" for i in batch]


def _plant(monkeypatch, stem, effect):
    """Replace the loss of the sample named `stem` by effect(loss), wherever it runs."""
    real_forward, real_loss = MonoPGCModel.forward, MonoPGCModel.loss

    def forward(self, sample):
        outputs = real_forward(self, sample)
        outputs["stem"] = sample.stem
        return outputs

    def loss(self, outputs, targets):
        total, breakdown = real_loss(self, outputs, targets)
        if outputs["stem"] == stem:
            total = effect(total)
        return total, breakdown

    monkeypatch.setattr(MonoPGCModel, "forward", forward)
    monkeypatch.setattr(MonoPGCModel, "loss", loss)


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
        # keyed on the sample, not on a call count: a forked helper's calls
        # do not reach this process
        _plant(monkeypatch, _batch_stems(cfg)[-1],  # the last sample of the first step
               lambda total: total * float("nan"))
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


class TestSplitStep:
    """A step's samples cut into 1, 2 or 3 shares; shares 1.. run in helpers forked per run."""

    CFG = dict(scenes=5, batch_size=5, steps=2)  # shares of 5, 3+2 and 2+2+1 samples

    @staticmethod
    def _shares(monkeypatch, n):
        monkeypatch.setattr(pipeline, "_step_processes", lambda: n)

    @staticmethod
    def _assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _grads(model):
        return {name: p.grad for name, p in model.parameters().items()}

    @staticmethod
    def _from_step_1(model, effect):
        """`effect`, applied once `model`'s parameters have left their initial
        values: from step 1 on, and in a helper only if it is sent them."""
        start = {name: p.data.copy() for name, p in model.parameters().items()}

        def apply(total):
            moved = any(not np.array_equal(p.data, start[name])
                        for name, p in model.parameters().items())
            return effect(total) if moved else total

        return apply

    @staticmethod
    def _record_forks(monkeypatch):
        """Patch os.fork to list, in this process, the pid of each helper forked."""
        pids = []
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return pids

    def _assert_same_grads(self, got, want):
        assert sum(g is not None for g in want.values()) > 10
        for name, g in want.items():
            if g is None:
                assert got[name] is None, name
            else:
                np.testing.assert_array_equal(got[name], g, err_msg=name)

    @pytest.mark.parametrize("check", [False, True], ids=["run", "check"])
    def test_share_count_changes_no_bit(self, monkeypatch, check):
        runs = []
        for n in (1, 2, 3):
            self._shares(monkeypatch, n)
            with nm.check_mode() if check else contextlib.nullcontext():
                result, _ = train(small_config(**self.CFG))
            self._assert_no_child()
            runs.append(result)
        first = runs[0]
        for other in runs[1:]:
            assert other.log_lines == first.log_lines
            self._assert_same_grads(self._grads(other.model), self._grads(first.model))
            for name, p in first.model.parameters().items():
                np.testing.assert_array_equal(other.model.parameters()[name].data, p.data,
                                              err_msg=name)

    def test_nonfinite_loss_in_helper_aborts_with_earlier_gradients(self, monkeypatch):
        cfg = small_config(**self.CFG)
        bad = _batch_stems(cfg)[-1]  # the second sample of the helper's share
        _plant(monkeypatch, bad, lambda total: total * float("nan"))
        partial = {}
        for n in (1, 2):
            self._shares(monkeypatch, n)
            model = MonoPGCModel(cfg)
            before = {name: p.data.copy() for name, p in model.parameters().items()}
            with pytest.raises(TrainingAborted, match=f"step 0 \\(sample {bad}\\)"):
                train(cfg, model=model)
            self._assert_no_child()
            for name, p in model.parameters().items():
                np.testing.assert_array_equal(p.data, before[name], err_msg=name)
            partial[n] = self._grads(model)
        # every earlier sample's gradient is merged, as in the serial loop
        self._assert_same_grads(partial[2], partial[1])

    @pytest.mark.parametrize("n", [2, 3])
    def test_helpers_live_for_the_run_and_leave_at_eof(self, monkeypatch, n):
        forks = self._record_forks(monkeypatch)
        statuses, kills = {}, []
        real_waitpid, real_kill = os.waitpid, os.kill

        def waitpid(pid, options):
            reaped = real_waitpid(pid, options)
            statuses[reaped[0]] = os.waitstatus_to_exitcode(reaped[1])
            return reaped

        def kill(pid, sig):
            kills.append(pid)
            real_kill(pid, sig)

        monkeypatch.setattr(os, "waitpid", waitpid)
        monkeypatch.setattr(os, "kill", kill)
        self._shares(monkeypatch, n)
        result, _ = train(small_config(**dict(self.CFG, steps=3)))
        assert len(result.log_lines) == 3
        assert len(forks) == n - 1  # once per run, not once per step
        assert kills == []
        assert statuses == {pid: 0 for pid in forks}  # each left at EOF, unkilled
        self._assert_no_child()

    def test_nonfinite_loss_in_helper_at_a_later_step(self, monkeypatch):
        cfg = small_config(**self.CFG)
        bad = _batch_stems(cfg, step=1)[-1]  # in the helper's share at step 1
        after_step_0 = {}
        for n in (1, 2):
            with monkeypatch.context() as patch:
                self._shares(patch, n)
                model = MonoPGCModel(cfg)
                _plant(patch, bad, self._from_step_1(model, lambda total: total * float("nan")))
                with pytest.raises(TrainingAborted, match=f"step 1 \\(sample {bad}\\)"):
                    train(cfg, model=model)
            self._assert_no_child()
            after_step_0[n] = {name: p.data for name, p in model.parameters().items()}
        for name, data in after_step_0[1].items():
            np.testing.assert_array_equal(after_step_0[2][name], data, err_msg=name)

    def test_processes_only_with_blas_pinned(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        assert pipeline._step_processes() == 1  # BLAS takes one thread per CPU
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert pipeline._step_processes() == 1
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert pipeline._step_processes() == cpus
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")  # read before OMP_NUM_THREADS
        assert pipeline._step_processes() == 1
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS")
        assert pipeline._step_processes() == cpus

    def test_one_process_while_other_threads_run(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert pipeline._step_processes() == len(os.sched_getaffinity(0))
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert pipeline._step_processes() == 1
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()

    def test_helper_error_is_raised_here(self, monkeypatch):
        cfg = small_config(**self.CFG)

        def fail(total):
            raise DimensionError("planted in the helper")

        _plant(monkeypatch, _batch_stems(cfg)[-1], fail)
        self._shares(monkeypatch, 2)
        with pytest.raises(DimensionError, match="planted in the helper"):
            train(cfg)
        self._assert_no_child()

    def test_helper_that_dies_is_a_typed_error(self, monkeypatch):
        cfg = small_config(**self.CFG)
        parent = os.getpid()

        def die(total):
            if os.getpid() != parent:
                os._exit(1)
            return total

        _plant(monkeypatch, _batch_stems(cfg)[-1], die)
        self._shares(monkeypatch, 2)
        with pytest.raises(HelperError, match="without sending its results"):
            train(cfg)
        self._assert_no_child()

    def test_helper_that_dies_at_a_later_step_is_a_typed_error(self, monkeypatch):
        cfg = small_config(**self.CFG)
        model = MonoPGCModel(cfg)
        parent = os.getpid()

        def die(total):
            if os.getpid() != parent:
                os._exit(1)
            return total

        _plant(monkeypatch, _batch_stems(cfg, step=1)[-1], self._from_step_1(model, die))
        self._shares(monkeypatch, 2)
        logged = []
        with pytest.raises(HelperError, match="without sending its results"):
            train(cfg, model=model, log_fn=logged.append)
        assert len(logged) == 1
        self._assert_no_child()

    def test_helper_killed_between_steps_is_a_typed_error(self, monkeypatch):
        forks = self._record_forks(monkeypatch)
        self._shares(monkeypatch, 2)

        def kill_helper(line):  # after step 0; wait for its exit, leave it unreaped
            os.kill(forks[0], signal.SIGKILL)
            os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)

        with pytest.raises(HelperError, match="without sending its results"):
            train(small_config(**self.CFG), log_fn=kill_helper)
        self._assert_no_child()

    def test_interrupt_kills_and_reaps_the_helpers(self, monkeypatch):
        cfg = small_config(**self.CFG)
        parent = os.getpid()

        def interrupt(total):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return total

        _plant(monkeypatch, _batch_stems(cfg)[0], interrupt)  # share 0 runs here
        self._shares(monkeypatch, 3)
        with pytest.raises(KeyboardInterrupt):
            train(cfg)
        self._assert_no_child()
