"""Model assembly, target building, Adam with a one-cycle schedule, training.

The model is a parameter tree plus pure forward functions from the feature,
transformer, and head modules. Toggles map to the ablation rows: without
the fusion module the 1/4 backbone level feeds the rest directly (and there
is no depth supervision); without the transformer the decoder is bypassed
and a non-trivial positional encoding, if any, is added to the features.
Targets and decoding use the stride of that level, `dcpm.FEATURE_STRIDE`.

With OpenBLAS pinned to one thread, training splits each step's samples
across the CPUs: helper processes forked once per run are sent the current
parameters each step, run all but the first share and send back per-sample
gradients, which are summed in sample order, so a run gives the same bits
on any number of CPUs (see `train`). Each helper leaves once it has sent
the last step's results. `predictions_on_samples` splits its samples the
same way, into helpers forked for the call that send back each sample's
detections. Both kinds of helper live and die by one lifecycle, `_helpers`.

`predictions_on_samples` and `depth_bin_accuracy` run their forwards
inside `_inference`: no parameter requires a gradient there, so a forward
records no tape (`Tensor._result` keeps no parents and no vjp), and each
parameter's flag is put back on every exit.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import pickle
import signal
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from . import dcpm, dsat, head as head_mod, numerics as nm
from .data import SceneConfig, generate_synthetic_scene, sample_from_scene
from .dcpm import FEATURE_STRIDE, IGNORE_BIN
from .errors import ConfigError, EvaluationError, HelperError, TrainingAborted
from .geometry import build_normalized_grid, depth_to_lid_bin
from .numerics import Tensor


def flatten_params(tree, prefix=""):
    """Yield (dotted_name, Tensor) pairs from a nested dict/list tree."""
    if isinstance(tree, Tensor):
        yield prefix, tree
    elif isinstance(tree, dict):
        for key in sorted(tree):
            yield from flatten_params(tree[key], f"{prefix}.{key}" if prefix else key)
    elif isinstance(tree, (list, tuple)):
        for i, item in enumerate(tree):
            yield from flatten_params(item, f"{prefix}.{i}")
    else:
        raise TypeError(f"unexpected node {type(tree).__name__} at {prefix!r}")


class MonoPGCModel:
    """Parameters and forward pass for one configuration of the pipeline."""

    def __init__(self, config, rng=None):
        config.validate()
        self.config = config
        rng = rng or np.random.default_rng(config.seed)
        c = config.channels
        tree = {"backbone": dcpm.init_backbone_params(rng, c)}
        if config.use_dcpm:
            tree["ppm"] = dcpm.init_ppm_params(rng, c)
            tree["fusion"] = dcpm.init_fusion_params(rng, c)
            tree["depth_head"] = dcpm.init_depth_head_params(rng, c, config.depth_bins)
        if config.use_dsat:
            n_grid_tokens = config.grid_hw[0] * config.grid_hw[1]
            tree["encoder"] = dsat.init_encoder_params(
                rng, config.depth_bins, config.embed, n_grid_tokens,
                blocks=config.enc_blocks, ffn_width=config.ffn_width)
            tree["decoder"] = dsat.init_decoder_params(
                rng, c, config.embed, blocks=config.dec_blocks, ffn_width=config.ffn_width)
        self.pe_width = config.embed if config.use_dsat else c
        if config.pe != "none":
            tree["pe"] = dsat.init_positional_encoding_params(
                rng, config.pe, self.pe_width, config.feature_hw,
                local_channels=config.dgpe_local_channels)
        tree["head"] = head_mod.init_head_params(rng, c, num_classes=len(config.classes))
        self.tree = tree

    def parameters(self):
        return dict(flatten_params(self.tree))

    def load_state(self, arrays):
        params = self.parameters()
        missing = sorted(set(params) - set(arrays))
        extra = sorted(set(arrays) - set(params))
        if missing or extra:
            raise ConfigError(f"checkpoint/model mismatch; missing={missing[:3]} extra={extra[:3]}")
        for name, tensor in params.items():
            if tuple(tensor.data.shape) != tuple(arrays[name].shape):
                raise ConfigError(f"shape mismatch for {name}: {tensor.data.shape} vs {arrays[name].shape}")
            tensor.data = arrays[name].astype(tensor.data.dtype)

    def forward(self, sample):
        cfg = self.config
        feats = dcpm.extract_multiscale_features(sample.image, self.tree["backbone"])
        depth_dist = None
        if cfg.use_dcpm:
            pooled = dcpm.pyramid_pool(feats.levels[2], self.tree["ppm"])
            f_dcp = dcpm.cross_scale_attention_fuse(feats, pooled, self.tree["fusion"])
            depth_dist = dcpm.predict_depth_distribution(f_dcp, self.tree["depth_head"])
        else:
            f_dcp = feats.levels[0]

        pe = None
        if cfg.pe != "none":
            pe = dsat.make_positional_encoding(
                cfg.pe, self.tree.get("pe", {}), self.pe_width, cfg.feature_hw,
                pred=depth_dist, spec=cfg.bin_spec())

        if cfg.use_dsat:
            grid = build_normalized_grid(cfg.image_width, cfg.image_height,
                                         cfg.bin_spec(), cfg.grid_stride,
                                         sample.calib, cfg.roi())
            f_e = dsat.encode_space_positions(grid, self.tree["encoder"])
            f_dsa = dsat.decode_depth_space_aware(f_dcp, f_e, pe, self.tree["decoder"])
        elif pe is not None:
            f_dsa = f_dcp + dsat.map_from_tokens(pe.values, cfg.feature_hw)
        else:
            f_dsa = f_dcp

        maps = head_mod.predict_head_maps(f_dsa, self.tree["head"])
        return {"features": feats, "f_dcp": f_dcp, "depth_dist": depth_dist,
                "pe": pe, "f_dsa": f_dsa, "maps": maps}

    def loss(self, outputs, targets):
        cfg = self.config
        depth_loss = None
        if outputs["depth_dist"] is not None and targets.get("gt_bins") is not None:
            depth_loss = dcpm.depth_focal_loss(
                outputs["depth_dist"], targets["gt_bins"], targets["fg_mask"])
        lambdas = (cfg.lambda_depth, cfg.lambda_cls, cfg.lambda_reg)
        return head_mod.detection_loss(outputs["maps"], targets, lambdas, depth_loss)

    def decode(self, outputs, calib):
        cfg = self.config
        return head_mod.decode_detections(
            outputs["maps"], calib, score_threshold=cfg.score_threshold,
            top_k=cfg.top_k, stride=FEATURE_STRIDE, classes=cfg.classes,
            uncertainty_discount=cfg.uncertainty_discount)


# -- training targets -----------------------------------------------------------------


def build_targets(sample, config):
    """Detection and depth-supervision targets for one sample."""
    targets = head_mod.render_targets(sample.objects, sample.calib,
                                      config.feature_hw, stride=FEATURE_STRIDE,
                                      classes=config.classes)
    spec = config.bin_spec()
    fh, fw = config.feature_hw
    if sample.depth_map is not None:
        center = FEATURE_STRIDE // 2  # each cell's centre pixel
        rows = np.minimum(np.arange(fh) * FEATURE_STRIDE + center, sample.depth_map.shape[0] - 1)
        cols = np.minimum(np.arange(fw) * FEATURE_STRIDE + center, sample.depth_map.shape[1] - 1)
        depth = sample.depth_map.data[np.ix_(rows, cols)]
        targets["gt_bins"] = depth_to_lid_bin(spec, np.clip(depth, spec.d_min, spec.d_max))
        if sample.foreground is not None:
            targets["fg_mask"] = sample.foreground[np.ix_(rows, cols)].astype(np.float64)
        else:
            targets["fg_mask"] = (depth < spec.d_max * 0.999).astype(np.float64)
    elif sample.objects:
        # box-fill supervision: cells inside a projected 2D box carry the
        # object's center depth; everything else is ignored
        gt_bins = np.full((fh, fw), IGNORE_BIN, dtype=np.int64)
        fg = np.zeros((fh, fw))
        order = sorted((o for o in sample.objects if not o.ignorable),
                       key=lambda o: -o.location[2])
        for obj in order:  # nearer objects overwrite farther ones
            left, top, right, bottom = (v / FEATURE_STRIDE for v in obj.bbox2d)
            c0, c1 = max(0, int(left)), min(fw, int(math.ceil(right)))
            r0, r1 = max(0, int(top)), min(fh, int(math.ceil(bottom)))
            if c1 <= c0 or r1 <= r0:
                continue
            gt_bins[r0:r1, c0:c1] = depth_to_lid_bin(spec, float(np.clip(
                obj.location[2], spec.d_min, spec.d_max)))
            fg[r0:r1, c0:c1] = 1.0
        targets["gt_bins"] = gt_bins
        targets["fg_mask"] = fg
    else:
        targets["gt_bins"] = None
        targets["fg_mask"] = None
    return targets


# -- optimizer and schedule ------------------------------------------------------------


class Adam:
    """Standard Adam over a flat name -> Tensor parameter dict."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        correct1 = 1.0 - b1 ** self.t
        correct2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * (g * g)
            m_hat = self.m[name] / correct1
            v_hat = self.v[name] / correct2
            p.data = p.data - (lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.data.dtype)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def state_arrays(self):
        out = {}
        for name in self.params:
            out[f"adam_m:{name}"] = self.m[name]
            out[f"adam_v:{name}"] = self.v[name]
        return out


def one_cycle_lr(step, total_steps, lr_initial, lr_peak, warmup_fraction=0.3, final_div=10.0):
    """Linear ramp to the peak, then cosine anneal to lr_initial/final_div."""
    if total_steps <= 1:
        return lr_peak
    warm = max(1, int(total_steps * warmup_fraction))
    if step < warm:
        return lr_initial + (lr_peak - lr_initial) * step / warm
    frac = (step - warm) / max(1, total_steps - warm)
    lr_floor = lr_initial / final_div
    return lr_floor + 0.5 * (lr_peak - lr_floor) * (1.0 + math.cos(math.pi * frac))


# -- training loop -----------------------------------------------------------------------


@dataclass
class TrainResult:
    model: MonoPGCModel
    samples: list
    log_lines: list
    losses: list
    breakdowns: list


def make_synthetic_samples(config):
    scene_cfg = SceneConfig(
        image_size=config.image_hw, min_objects=config.min_objects,
        max_objects=config.max_objects, background_depth=config.depth_max,
        class_name=config.classes[0])
    samples = []
    for i in range(config.scenes):
        scene = generate_synthetic_scene(config.seed * 100003 + i, scene_cfg)
        samples.append(sample_from_scene(scene, stem=f"{i:06d}"))
    return samples


def train(config, samples=None, log_fn=None, model=None):
    """Deterministic training run; returns the model and the full loss log.

    Each step's batch is cut into one contiguous share per CPU when BLAS is
    pinned to one thread, else one share (at most one share per sample; see
    `_step_processes`). The first share runs here; every other share runs
    in a helper process forked once for the run, which is sent the current
    parameters each step, sends back each sample's loss and gradients, and
    leaves after the last step.
    Per sample, forward, loss (checked finite) and backward run in turn, so
    one tape is alive per process. Gradients are summed in sample order
    with the rule backward() uses, so losses, logs and parameters do not
    depend on the share count, to the bit.
    """
    if samples is None:
        if config.mode == "synthetic":
            samples = make_synthetic_samples(config)
        else:
            raise ConfigError("kitti mode requires samples prepared by the caller")
    if not samples:
        raise ConfigError("no training samples")

    model = model or MonoPGCModel(config)
    params = model.parameters()
    optimizer = Adam(params)
    targets = [build_targets(s, config) for s in samples]
    total_steps = config.total_steps(len(samples))
    order_rng = np.random.default_rng(config.seed + 1)
    batch_size = min(config.batch_size, len(samples))
    n_shares = min(batch_size, _step_processes())

    log_lines = []
    losses = []
    breakdowns = []
    with warnings.catch_warnings(), contextlib.ExitStack() as run:
        warnings.simplefilter("ignore", UserWarning)  # helpers forked below inherit it
        # A step that ends early (a non-finite loss, an exception) ends the
        # run and its helpers, so no record of it can reach a later step.
        serve = functools.partial(_serve, model, params, samples, targets, total_steps)
        helpers = run.enter_context(_helpers([serve] * (n_shares - 1)))
        for step in range(total_steps):
            lr = one_cycle_lr(step, total_steps, config.lr_initial, config.lr_peak,
                              config.warmup_fraction)
            batch = order_rng.choice(len(samples), size=batch_size, replace=False)
            optimizer.zero_grad()
            shares = np.array_split(batch, n_shares)
            sample_losses = []
            batch_break = {}
            for idx, sample_loss, breakdown in _sample_results(
                    model, params, helpers, samples, targets, shares, 1.0 / len(batch)):
                if not math.isfinite(sample_loss):
                    raise TrainingAborted(
                        f"non-finite loss at step {step} (sample {samples[idx].stem})",
                        diagnostics=_diagnostics(params, step, sample_loss, breakdowns))
                sample_losses.append(sample_loss)
                for k, val in breakdown.items():
                    batch_break[k] = batch_break.get(k, 0.0) + val / len(batch)
            loss_val = sum(sample_losses) / len(batch)
            optimizer.step(lr)

            losses.append(loss_val)
            breakdowns.append(batch_break)
            line = (f"step={step} lr={lr:.6e} loss={loss_val:.6f} "
                    f"cls={batch_break.get('cls', 0.0):.6f} reg={batch_break.get('reg', 0.0):.6f} "
                    f"depth={batch_break.get('depth', 0.0):.6f}")
            log_lines.append(line)
            if log_fn:
                log_fn(line)

    return TrainResult(model=model, samples=samples, log_lines=log_lines,
                       losses=losses, breakdowns=breakdowns), optimizer


def _step_processes():
    """How many processes one training step, or one `predictions_on_samples`
    call, may run its shares in.

    Every CPU of `os.sched_getaffinity` when OpenBLAS is pinned to one
    thread (`OPENBLAS_NUM_THREADS=1`, or `OMP_NUM_THREADS=1` with the former
    unset, as OpenBLAS reads them), else 1. Pinned, the process runs no
    BLAS worker thread, so no other thread is alive at the fork; unpinned
    on a 2-vCPU VM a two-share step took 1.6-4.6 s against 0.85-0.90 s in
    one process (`blas_threads` in BENCH_train_step_parallel.json).
    1 also without os.fork and while other Python threads run, since a
    forked child holds only the calling thread and a lock another thread
    held at the fork stays locked in it for good.
    Memory grows with the count: each process past the first is a helper
    with its own copy of each page that it or the caller writes while it
    lives (copy-on-write after the fork), and a training helper with its
    own tape. Inference records no tape (`_inference`), so its helpers and
    its caller write far fewer pages.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    pinned = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS")) == "1"
    if not pinned or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _share_passes(model, samples, targets, share, scale):
    """Forward, loss and backward of each sample of `share`, in order.

    Yields (index, loss, breakdown) once the sample's scaled gradient has
    been added to the parameters. A non-finite loss is yielded without its
    backward and ends the share.
    """
    for idx in share:
        outputs = model.forward(samples[idx])
        total, breakdown = model.loss(outputs, targets[idx])
        loss = total.item()
        finite = math.isfinite(loss)
        if finite:
            (total * scale).backward()
        del outputs, total  # free this sample's tape before the next forward
        yield idx, loss, breakdown
        if not finite:
            return


def _sample_results(model, params, helpers, samples, targets, shares, scale):
    """Run one step's shares; yield (index, loss, breakdown) in sample order.

    Shares 1.. and the current parameters go to the run's helpers first,
    and share 0 runs here. Each helper sample's gradients are added to
    `params` in sample order, with backward()'s rule, before the sample is
    yielded, so the sums equal a serial loop's bits. A helper's exception
    is raised here.
    """
    arrays = [p.data for p in params.values()]
    with contextlib.suppress(BrokenPipeError):  # a dead helper is reported below
        for (_, commands, _), share in zip(helpers, shares[1:]):
            pickle.dump((share, scale, arrays), commands, protocol=pickle.HIGHEST_PROTOCOL)
            commands.flush()
    yield from _share_passes(model, samples, targets, shares[0], scale)
    for (pid, _, results), share in zip(helpers, shares[1:]):
        for _ in share:
            idx, loss, breakdown, grads = _receive(pid, results)
            for p, g in zip(params.values(), grads):
                if g is not None:
                    p.grad = g if p.grad is None else p.grad + g
            yield idx, loss, breakdown
            if not math.isfinite(loss):
                return


@contextlib.contextmanager
def _helpers(bodies):
    """Fork one helper per callable of `bodies`, which runs body(commands, results)
    on its ends of a command pipe and a result pipe and then leaves by
    `os._exit`, so nothing the caller had buffered (stdout included) is
    flushed a second time.

    Yields [(pid, commands, results)], the caller's ends. On a normal end
    each helper has left by itself, or will once its body returns; on any
    other exit, KeyboardInterrupt included, each is killed first. All are
    reaped.
    """
    helpers = []
    ended = False
    try:
        for body in bodies:
            cmd_read, cmd_write = os.pipe()
            res_read, res_write = os.pipe()
            commands, results = open(cmd_write, "wb"), open(res_read, "rb")
            # the helper's ends, closed here once it is forked
            with open(cmd_read, "rb") as helper_in, open(res_write, "wb") as helper_out:
                pid = os.fork()
                if not pid:  # the helper: never returns into the caller
                    try:
                        commands.close()
                        results.close()
                        body(helper_in, helper_out)
                        os._exit(0)
                    finally:
                        os._exit(1)
            helpers.append((pid, commands, results))
        yield helpers
        ended = True
    finally:
        for pid, commands, results in helpers:
            if not ended:
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(BrokenPipeError):  # a command cut short
                commands.close()
            results.close()
            os.waitpid(pid, 0)


def _send(records, results):
    """A helper's reply: every record of the iterable `records`, or the records
    before the exception that stopped it and then that exception, pickled to
    `results` once the iterable is done, so a helper never waits on the
    caller mid-share."""
    sent = []
    try:
        sent.extend(records)
    except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
        try:
            pickle.dumps(exc)
        except Exception:  # noqa: BLE001
            exc = HelperError(f"helper failed: {type(exc).__name__}: {exc}")
        sent.append(exc)
    for record in sent:
        pickle.dump(record, results, protocol=pickle.HIGHEST_PROTOCOL)
    results.flush()


def _receive(pid, results):
    """The next record `_send` wrote in helper `pid`; an exception it sent is raised here."""
    try:
        record = pickle.load(results)
    except (EOFError, pickle.UnpicklingError):
        raise HelperError(f"helper {pid} ended without sending its results") from None
    if isinstance(record, BaseException):
        raise record
    return record


def _serve(model, params, samples, targets, steps, commands, results):
    """A training helper's body: for each of `steps` steps, run the (share,
    loss scale, parameter arrays) sent on `commands`, from those parameters
    and zeroed gradients, and `_send` each sample's record, (index, loss,
    breakdown, per-parameter gradients).
    """
    for _ in range(steps):
        share, scale, arrays = pickle.load(commands)
        for p, array in zip(params.values(), arrays):
            p.data, p.grad = array, None
        _send(_share_gradients(model, params, samples, targets, share, scale), results)


def _share_gradients(model, params, samples, targets, share, scale):
    """`_share_passes` with each sample's gradients taken off the parameters."""
    for idx, loss, breakdown in _share_passes(model, samples, targets, share, scale):
        grads = [p.grad for p in params.values()]  # all None after a non-finite loss
        for p in params.values():
            p.grad = None
        yield idx, loss, breakdown, grads


def _diagnostics(params, step, loss_val, breakdowns):
    """Parameter and gradient norms at an abort. The gradients describe a partial
    step: only the samples before the non-finite one in batch order."""
    lines = [f"step={step} loss={loss_val}"]
    for name, p in sorted(params.items()):
        norm = float(np.linalg.norm(p.data))
        gnorm = float(np.linalg.norm(p.grad)) if p.grad is not None else 0.0
        finite = bool(np.isfinite(p.data).all())
        lines.append(f"{name} norm={norm:.4e} grad_norm={gnorm:.4e} finite={finite}")
    if breakdowns:
        lines.append(f"last_breakdown={breakdowns[-1]}")
    return "\n".join(lines)


@contextlib.contextmanager
def _inference(model):
    """Run the body with no parameter of `model` requiring a gradient, so its
    forwards record no tape; each parameter's `requires_grad` is put back as
    it was on every exit, KeyboardInterrupt included. Helpers forked inside
    inherit the cleared flags."""
    flags = [(p, p.requires_grad) for p in model.parameters().values()]
    try:
        for p, _ in flags:
            p.requires_grad = False
        yield
    finally:
        for p, flag in flags:
            p.requires_grad = flag


def predictions_on_samples(model, samples):
    """Decode detections for every sample: {stem: [Detection3D]}, in sample order.

    The forwards record no tape (`_inference`), and every parameter's
    `requires_grad` is as before once this returns or raises. The samples
    are cut into contiguous shares as a training step's batch is
    (`_step_processes`). The first share runs here; every other one runs
    in a helper forked for this call, which sends back each sample's
    (stem, detections) and leaves. Each sample's forward and decode are the
    same in any process, with or without a tape, so the detections do not
    depend on the share count, to the bit. A helper's exception is raised
    here.
    """
    shares = np.array_split(np.arange(len(samples)),
                            max(1, min(len(samples), _step_processes())))

    def predict(share, commands, results):
        _send(_detections(model, samples, share), results)

    with _inference(model), \
            _helpers([functools.partial(predict, share) for share in shares[1:]]) as helpers:
        preds = dict(_detections(model, samples, shares[0]))
        for (pid, _, results), share in zip(helpers, shares[1:]):
            for _ in share:
                stem, detections = _receive(pid, results)
                preds[stem] = detections
    return preds


def _detections(model, samples, share):
    """Yield (stem, detections) of each sample of `share`, in order."""
    for idx in share:
        sample = samples[idx]
        yield sample.stem, model.decode(model.forward(sample), sample.calib)


def ground_truth_of_samples(samples):
    return {s.stem: list(s.objects or []) for s in samples}


def depth_bin_accuracy(model, samples, config, tolerance=1):
    """Mean fraction of foreground pixels within the bin tolerance.

    The forwards record no tape (`_inference`), and every parameter's
    `requires_grad` is as before once this returns or raises.
    """
    if not config.use_dcpm:
        raise EvaluationError("depth accuracy needs the fusion module enabled")
    accs = []
    with _inference(model):
        for s in samples:
            outputs = model.forward(s)
            targets = build_targets(s, config)
            acc = dcpm.depth_accuracy_within(outputs["depth_dist"], targets["gt_bins"],
                                             targets["fg_mask"], tolerance)
            if not math.isnan(acc):
                accs.append(acc)
    return float(np.mean(accs)) if accs else float("nan")
