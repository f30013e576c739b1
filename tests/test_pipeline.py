import contextlib
import dataclasses
import math
import os
import signal
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from monopgc import dcpm, numerics as nm, pipeline
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


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
            _assert_no_child()
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
            _assert_no_child()
            for name, p in model.parameters().items():
                np.testing.assert_array_equal(p.data, before[name], err_msg=name)
            partial[n] = self._grads(model)
        # every earlier sample's gradient is merged, as in the serial loop
        self._assert_same_grads(partial[2], partial[1])

    @pytest.mark.parametrize("n", [2, 3])
    def test_helpers_live_for_the_run_and_leave_at_eof(self, monkeypatch, n):
        forks = _record_forks(monkeypatch)
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
        _assert_no_child()

    @pytest.mark.parametrize("n", [2, 3])
    def test_helpers_leave_after_the_last_step(self, monkeypatch, n):
        forks = _record_forks(monkeypatch)
        self._shares(monkeypatch, n)
        cfg = small_config(**self.CFG)
        exits = {}

        def at_last_step(line):  # the helpers stay unreaped (WNOWAIT) for train()
            if not line.startswith(f"step={cfg.steps - 1} "):
                return
            deadline = time.monotonic() + 5.0
            flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
            for pid in forks:
                info = os.waitid(os.P_PID, pid, flags)
                while info is None and time.monotonic() < deadline:
                    time.sleep(0.01)
                    info = os.waitid(os.P_PID, pid, flags)
                exits[pid] = info and (info.si_code, info.si_status)

        train(cfg, log_fn=at_last_step)
        assert len(forks) == n - 1
        assert exits == {pid: (os.CLD_EXITED, 0) for pid in forks}
        _assert_no_child()

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
            _assert_no_child()
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
        _assert_no_child()

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
        _assert_no_child()

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
        _assert_no_child()

    def test_helper_killed_between_steps_is_a_typed_error(self, monkeypatch):
        forks = _record_forks(monkeypatch)
        self._shares(monkeypatch, 2)

        def kill_helper(line):  # after step 0; wait for its exit, leave it unreaped
            os.kill(forks[0], signal.SIGKILL)
            os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)

        with pytest.raises(HelperError, match="without sending its results"):
            train(small_config(**self.CFG), log_fn=kill_helper)
        _assert_no_child()

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
        _assert_no_child()


def _fail_in_helper(monkeypatch, stem, failure):
    """At the forward of the sample named `stem`, in a helper only, raise an
    exception ("raise") or have the helper killed ("kill")."""
    real_forward, parent = MonoPGCModel.forward, os.getpid()

    def forward(self, sample):
        if sample.stem == stem and os.getpid() != parent:
            if failure == "raise":
                raise DimensionError("planted in the helper")
            os.kill(os.getpid(), signal.SIGKILL)
        return real_forward(self, sample)

    monkeypatch.setattr(MonoPGCModel, "forward", forward)


class TestSplitPredictions:
    """`predictions_on_samples` with its samples cut into shares; shares 1.. run in
    helpers forked for the call."""

    CFG = dict(scenes=4, score_threshold=0.1)  # a fresh model decodes 4-5 boxes an image

    @staticmethod
    def _setup(monkeypatch, images, offered):
        monkeypatch.setattr(pipeline, "_step_processes", lambda: offered)
        cfg = small_config(**TestSplitPredictions.CFG)
        return MonoPGCModel(cfg), make_synthetic_samples(cfg)[:images]

    @pytest.mark.parametrize("images,offered", [(1, 3), (2, 5), (2, 2)],
                             ids=["one-image", "more-shares-than-images", "two-images"])
    def test_same_detections_as_a_serial_loop(self, monkeypatch, images, offered):
        model, samples = self._setup(monkeypatch, images, offered)
        forks = _record_forks(monkeypatch)
        got = pipeline.predictions_on_samples(model, samples)
        assert len(forks) == min(images, offered) - 1  # at most one share per image
        _assert_no_child()
        want = [(s.stem, model.decode(model.forward(s), s.calib)) for s in samples]
        assert list(got) == [stem for stem, _ in want]
        assert all(dets for _, dets in want)
        for stem, dets in want:
            assert len(got[stem]) == len(dets)
            for a, b in zip(got[stem], dets):
                for field in dataclasses.fields(b):
                    np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name),
                                                  err_msg=f"{stem} {field.name}")

    @pytest.mark.parametrize("failure,error,match", [
        ("raise", DimensionError, "planted in the helper"),  # raised here with its type
        ("kill", HelperError, "without sending its results"),
    ])
    def test_helper_failure_is_raised_here(self, monkeypatch, failure, error, match):
        model, samples = self._setup(monkeypatch, 4, 2)  # 0-1 here, 2-3 in the helper
        _fail_in_helper(monkeypatch, samples[-1].stem, failure)  # mid-share
        with pytest.raises(error, match=match):
            pipeline.predictions_on_samples(model, samples)
        _assert_no_child()


def _tensors(node):
    """Every Tensor reachable from a forward's outputs (dicts, sequences, dataclasses)."""
    if isinstance(node, Tensor):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _tensors(value)
    elif isinstance(node, (list, tuple)):
        for value in node:
            yield from _tensors(value)
    elif dataclasses.is_dataclass(node):
        for field in dataclasses.fields(node):
            yield from _tensors(getattr(node, field.name))


# 96x96 with the fusion module, so the outputs include a depth distribution
DCPM = parse_config_text(
    "model.channels=8\nmodel.embed=16\nmodel.ffn_width=32\ndepth.bins=16\nsynth.scenes=2\n"
    "model.enc_blocks=1\nmodel.dec_blocks=1\n")


class TestTapelessInference:
    """`predictions_on_samples` and `depth_bin_accuracy` forward under
    `pipeline._inference`: no tape, and every `requires_grad` put back."""

    def test_a_forward_under_the_context_records_no_tape(self):
        model = MonoPGCModel(DCPM)
        sample = make_synthetic_samples(DCPM)[0]
        assert model.forward(sample)["maps"].class_heatmap._parents  # taped outside
        with pipeline._inference(model):
            outputs = model.forward(sample)
        tensors = list(_tensors(outputs))
        assert outputs["depth_dist"] is not None and len(tensors) > 10
        for t in tensors:
            assert t._parents == () and t._vjp is None and not t.requires_grad

    @staticmethod
    def _flags(model):
        return {name: p.requires_grad for name, p in model.parameters().items()}

    @pytest.mark.parametrize("exit_path,error", [
        ("return", None), ("raise-here", DimensionError), ("interrupt-here", KeyboardInterrupt),
        ("raise-in-helper", DimensionError), ("kill-helper", HelperError)])
    def test_predictions_put_every_flag_back(self, monkeypatch, exit_path, error):
        model, samples = TestSplitPredictions._setup(monkeypatch, 4, 2)  # 2-3 in the helper
        frozen = next(iter(model.parameters().values()))
        frozen.requires_grad = False  # put back as it was, not switched on
        before = self._flags(model)
        assert sum(before.values()) == len(before) - 1
        if exit_path in ("raise-in-helper", "kill-helper"):
            _fail_in_helper(monkeypatch, samples[-1].stem, exit_path.split("-")[0])
        elif error:
            real_forward = MonoPGCModel.forward

            def forward(self, sample):
                if sample.stem == samples[1].stem:  # the caller's share
                    raise error("planted here")
                return real_forward(self, sample)

            monkeypatch.setattr(MonoPGCModel, "forward", forward)
        with pytest.raises(error) if error else contextlib.nullcontext():
            pipeline.predictions_on_samples(model, samples)
        _assert_no_child()
        assert self._flags(model) == before

    def test_helpers_inherit_tapeless_parameters(self, monkeypatch):
        model, samples = TestSplitPredictions._setup(monkeypatch, 4, 2)
        forks = _record_forks(monkeypatch)
        real_forward = MonoPGCModel.forward

        def forward(self, sample):
            if any(p.requires_grad for p in self.parameters().values()):
                raise DimensionError(f"taped forward of {sample.stem} in {os.getpid()}")
            return real_forward(self, sample)

        monkeypatch.setattr(MonoPGCModel, "forward", forward)
        assert len(pipeline.predictions_on_samples(model, samples)) == 4
        assert len(forks) == 1

    def test_training_after_predictions_logs_the_same_lines(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_step_processes", lambda: 2)
        cfg = small_config()
        first, _ = train(cfg)
        pipeline.predictions_on_samples(first.model, first.samples)
        after_predictions, _ = train(cfg, samples=first.samples, model=first.model)
        untouched, _ = train(cfg, samples=first.samples, model=train(cfg)[0].model)
        assert after_predictions.log_lines == untouched.log_lines

    def test_depth_bin_accuracy_equals_a_taped_loop(self):
        model = MonoPGCModel(DCPM)
        samples = make_synthetic_samples(DCPM)
        accs = []
        for sample in samples:
            outputs = model.forward(sample)
            assert outputs["depth_dist"].logits._parents  # this loop keeps a tape
            targets = build_targets(sample, DCPM)
            acc = dcpm.depth_accuracy_within(outputs["depth_dist"], targets["gt_bins"],
                                             targets["fg_mask"], 1)
            if not math.isnan(acc):
                accs.append(acc)
        before = self._flags(model)
        assert pipeline.depth_bin_accuracy(model, samples, DCPM, tolerance=1) == np.mean(accs)
        assert self._flags(model) == before

    def test_depth_bin_accuracy_puts_every_flag_back_after_an_exception(self, monkeypatch):
        model = MonoPGCModel(DCPM)
        samples = make_synthetic_samples(DCPM)
        before = self._flags(model)
        real_forward = MonoPGCModel.forward

        def forward(self, sample):
            if sample.stem == samples[-1].stem:
                raise DimensionError("planted")
            return real_forward(self, sample)

        monkeypatch.setattr(MonoPGCModel, "forward", forward)
        with pytest.raises(DimensionError, match="planted"):
            pipeline.depth_bin_accuracy(model, samples, DCPM)
        assert self._flags(model) == before


class TestTapeMemory:
    """One default-model 96x96 sample's forward, loss and backward under
    tracemalloc. A ones-product is a broadcast view on the tape, and
    backward() releases each node's saved arrays once its vjp has run."""

    @pytest.fixture(scope="class")
    def sample_pass(self):
        cfg = RunConfig(scenes=1)
        model = MonoPGCModel(cfg)
        sample = make_synthetic_samples(cfg)[0]
        targets = build_targets(sample, cfg)
        tracemalloc.start()
        try:
            outputs = model.forward(sample)
            loss, _ = model.loss(outputs, targets)
            loss.backward()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return outputs, loss, peak / 1e6, held / 1e6

    def test_peak_below_50_mb(self, sample_pass):
        assert sample_pass[2] < 50.0  # 63.5 MB with ones-products written out

    def test_peak_below_25_mb(self, sample_pass):
        # 44.8 MB while each result kept its parent tensors, and their arrays
        assert sample_pass[2] < 25.0

    def test_a_dropped_intermediate_is_freed_before_backward(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 3)))
        w = nm.parameter(rng.standard_normal((3, 2)))
        b = Tensor(rng.standard_normal((4, 2)))
        y = nm.matmul(x, w)
        z = (y + b).sum()
        freed = weakref.ref(y.data)
        del y  # no vjp saved matmul's output: add saves nothing
        assert freed() is None
        z.backward()
        np.testing.assert_allclose(w.grad, x.data.T @ np.ones((4, 2), np.float32), rtol=1e-6)

    def test_an_array_a_vjp_saved_lives_until_backward(self):
        a = nm.parameter([1.0, 2.0, 3.0])
        h = a + 1.0
        z = (h * Tensor([4.0, 5.0, 6.0])).sum()
        saved = weakref.ref(h.data)
        del h  # mul's vjp saved its operands
        assert saved() is not None
        z.backward()
        np.testing.assert_array_equal(a.grad, [4.0, 5.0, 6.0])
        assert saved() is None  # released by the sweep

    def test_backward_releases_the_tape(self, sample_pass):
        # the outputs are still referenced: what is held is their own data
        # and the parameters' gradients
        assert sample_pass[3] < 10.0  # 58 MB when the tape lived until dropped

    def test_no_tensor_keeps_parents_or_vjp_after_backward(self, sample_pass):
        outputs, loss, _, _ = sample_pass
        tensors = [loss, *_tensors(outputs)]
        assert len(tensors) > 10
        for t in tensors:
            assert t._parents == () and t._vjp is None
