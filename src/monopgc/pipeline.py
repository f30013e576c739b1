"""Model assembly, target building, Adam with a one-cycle schedule, training.

The model is a parameter tree plus pure forward functions from the feature,
transformer, and head modules. Toggles map to the ablation rows: without
the fusion module the 1/4 backbone level feeds the rest directly (and there
is no depth supervision); without the transformer the decoder is bypassed
and a non-trivial positional encoding, if any, is added to the features.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import dcpm, dsat, head as head_mod, numerics as nm
from .data import SceneConfig, generate_synthetic_scene, sample_from_scene
from .dcpm import IGNORE_BIN
from .errors import ConfigError, EvaluationError
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
            top_k=cfg.top_k, stride=4, classes=cfg.classes,
            uncertainty_discount=cfg.uncertainty_discount)


# -- training targets -----------------------------------------------------------------


def build_targets(sample, config):
    """Detection and depth-supervision targets for one sample."""
    targets = head_mod.render_targets(sample.objects, sample.calib,
                                      config.feature_hw, stride=4,
                                      classes=config.classes)
    spec = config.bin_spec()
    fh, fw = config.feature_hw
    if sample.depth_map is not None:
        rows = np.minimum(np.arange(fh) * 4 + 2, sample.depth_map.shape[0] - 1)
        cols = np.minimum(np.arange(fw) * 4 + 2, sample.depth_map.shape[1] - 1)
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
            left, top, right, bottom = (v / 4.0 for v in obj.bbox2d)
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

    def load_state_arrays(self, arrays, t):
        self.t = t
        for name in self.params:
            if f"adam_m:{name}" in arrays:
                self.m[name] = arrays[f"adam_m:{name}"].astype(self.m[name].dtype)
                self.v[name] = arrays[f"adam_v:{name}"].astype(self.v[name].dtype)


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


class TrainingAborted(RuntimeError):
    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


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

    Each sample's forward, loss (checked finite) and backward run in turn,
    so one sample's tape is alive at a time.
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

    log_lines = []
    losses = []
    breakdowns = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for step in range(total_steps):
            lr = one_cycle_lr(step, total_steps, config.lr_initial, config.lr_peak,
                              config.warmup_fraction)
            batch = order_rng.choice(len(samples), size=min(config.batch_size, len(samples)),
                                     replace=False)
            optimizer.zero_grad()
            sample_losses = []
            batch_break = {}
            for idx in batch:
                outputs = model.forward(samples[idx])
                total, breakdown = model.loss(outputs, targets[idx])
                sample_loss = total.item()
                if not math.isfinite(sample_loss):
                    raise TrainingAborted(
                        f"non-finite loss at step {step} (sample {samples[idx].stem})",
                        diagnostics=_diagnostics(params, step, sample_loss, breakdowns))
                (total * (1.0 / len(batch))).backward()
                del outputs, total  # free this sample's tape before the next forward
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


def _diagnostics(params, step, loss_val, breakdowns):
    """Parameter and gradient norms at an abort. The gradients describe a partial
    step: only the samples whose backward ran before the non-finite loss."""
    lines = [f"step={step} loss={loss_val}"]
    for name, p in sorted(params.items()):
        norm = float(np.linalg.norm(p.data))
        gnorm = float(np.linalg.norm(p.grad)) if p.grad is not None else 0.0
        finite = bool(np.isfinite(p.data).all())
        lines.append(f"{name} norm={norm:.4e} grad_norm={gnorm:.4e} finite={finite}")
    if breakdowns:
        lines.append(f"last_breakdown={breakdowns[-1]}")
    return "\n".join(lines)


def predictions_on_samples(model, samples):
    """Decode detections for every sample: {stem: [Detection3D]}."""
    preds = {}
    for s in samples:
        outputs = model.forward(s)
        preds[s.stem] = model.decode(outputs, s.calib)
    return preds


def ground_truth_of_samples(samples):
    return {s.stem: list(s.objects or []) for s in samples}


def depth_bin_accuracy(model, samples, config, tolerance=1):
    """Mean fraction of foreground pixels within the bin tolerance."""
    if not config.use_dcpm:
        raise EvaluationError("depth accuracy needs the fusion module enabled")
    accs = []
    for s in samples:
        outputs = model.forward(s)
        targets = build_targets(s, config)
        acc = dcpm.depth_accuracy_within(outputs["depth_dist"], targets["gt_bins"],
                                         targets["fg_mask"], tolerance)
        if not math.isnan(acc):
            accs.append(acc)
    return float(np.mean(accs)) if accs else float("nan")
