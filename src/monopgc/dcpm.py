"""Depth-aware multi-scale feature fusion and the auxiliary depth loss.

A small convolutional stub stands in for a full backbone and emits three
feature levels at 1/4, 1/8 and 1/16 of the input resolution. The top level
is enriched with pyramid pooling, then fused coarse-to-fine: at each step
the finer level supplies attention queries and keys, the running fusion
(rearranged up to the finer resolution) supplies the values. The fused
1/4-scale features feed a small convolution stack that classifies every
pixel into a depth bin; a focal loss with foreground emphasis supervises
the prediction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .dsat import attention_block, conv1x1, init_attention_block, map_from_tokens, \
    pixel_shuffle, tokens_from_map
from .errors import ConfigError, DimensionError, DomainError
from .numerics import Tensor

PPM_SCALES = (1, 2, 3, 6)
# input pixels per cell of the 1/4 level, which the depth and detection heads read
FEATURE_STRIDE = 4


@dataclass
class MultiScaleFeatures:
    """Three levels at 1/4, 1/8, 1/16 of input resolution, C channels each."""

    levels: tuple  # (f_quarter, f_eighth, f_sixteenth)

    def __post_init__(self):
        for finer, coarser in zip(self.levels, self.levels[1:]):
            fh, fw = finer.shape[1:]
            ch, cw = coarser.shape[1:]
            if (fh, fw) != (2 * ch, 2 * cw):
                raise DimensionError(
                    f"level sizes must halve: {finer.shape} then {coarser.shape}")


@dataclass
class DepthDistribution:
    """Per-pixel depth bin logits [D, H, W] and their softmax probabilities."""

    logits: Tensor
    probabilities: Tensor

    @property
    def bins(self):
        return self.logits.shape[0]

    def argmax_bins(self):
        return self.logits.data.argmax(axis=0)


# -- backbone stub --------------------------------------------------------------------


def init_backbone_params(rng, channels=32):
    p = {}
    fan_in = 3 * 9
    p["conv0_w"] = nm.randn_param(rng, (channels, 3, 3, 3), (2.0 / fan_in) ** 0.5)
    p["conv0_b"] = nm.zeros_param((channels,))
    fan_in = channels * 9
    for i in (1, 2, 3):
        p[f"conv{i}_w"] = nm.randn_param(rng, (channels, channels, 3, 3), (2.0 / fan_in) ** 0.5)
        p[f"conv{i}_b"] = nm.zeros_param((channels,))
    return p


def extract_multiscale_features(image, params):
    """Four conv/relu/pool stages; the last three outputs are the pyramid."""
    _, h, w = image.shape
    if h % 16 or w % 16:
        raise ConfigError(f"image size {h}x{w} must be divisible by 16")
    x = image
    levels = []
    for i in range(4):
        x = nm.relu(nm.conv2d(x, params[f"conv{i}_w"], params[f"conv{i}_b"]))
        x = nm.max_pool2d(x, 2)
        levels.append(x)
    return MultiScaleFeatures(levels=(levels[1], levels[2], levels[3]))


# -- pyramid pooling --------------------------------------------------------------------


def init_ppm_params(rng, channels):
    if channels % 4:
        raise ConfigError(f"pyramid pooling needs channels divisible by 4, got {channels}")
    p = {}
    quarter = channels // 4
    for s in PPM_SCALES:
        p[f"proj{s}_w"] = nm.randn_param(rng, (quarter, channels), (1.0 / channels) ** 0.5)
        p[f"proj{s}_b"] = nm.zeros_param((quarter,))
    p["out_w"] = nm.randn_param(rng, (channels, 2 * channels), (1.0 / (2 * channels)) ** 0.5)
    p["out_b"] = nm.zeros_param((channels,))
    return p


def pyramid_pool(top, params, scales=PPM_SCALES):
    """Multi-scale average pooling with reprojection and concatenation.

    Each scale pools the map to s x s, projects to C/4 channels, and resizes
    back bilinearly; the branches are concatenated with the input and
    projected back to C channels. A spatially constant map stays spatially
    constant, up to rounding.
    """
    c, h, w = top.shape
    if h < max(scales) or w < max(scales):
        raise ConfigError(f"pyramid pooling needs at least {max(scales)}x{max(scales)}, got {h}x{w}")
    branches = [top]
    for s in scales:
        pooled = nm.adaptive_avg_pool2d(top, (s, s))
        proj = nm.relu(conv1x1(pooled, params[f"proj{s}_w"], params[f"proj{s}_b"]))
        branches.append(nm.bilinear_resize(proj, (h, w)))
    merged = nm.concat(branches, axis=0)
    return nm.relu(conv1x1(merged, params["out_w"], params["out_b"]))


# -- cross-scale attention fusion ----------------------------------------------------------


def init_fusion_params(rng, channels, ffn_width=None):
    ffn_width = ffn_width or 2 * channels
    p = {"blocks": [init_attention_block(rng, channels, ffn_width, cross=True)
                    for _ in range(3)]}
    for i in (0, 1):
        base = rng.standard_normal((channels, channels)) * (1.0 / channels) ** 0.5
        # identical groups of 4 rows: pixel shuffle then starts as a
        # nearest-neighbor upsample, which also preserves constant maps
        p[f"up{i}_w"] = nm.parameter(np.repeat(base, 4, axis=0))
        p[f"up{i}_b"] = nm.zeros_param((4 * channels,))
    return p


def rearranged_upscale(x, w, b):
    """Pointwise expansion to 4C channels, then channel-to-space: 2x size."""
    return pixel_shuffle(conv1x1(x, w, b))


def cross_scale_attention_fuse(levels: MultiScaleFeatures, pooled_top, params):
    """Coarse-to-fine fusion with query/key from the finer level.

    The running fusion starts at the pooled 1/16 level. Each step brings it
    to the next finer resolution (for the 1/16 step it is already there),
    then runs one attention block where the finer level is query and key
    and the fusion is the value. The result is the 1/4-scale fused map.
    """
    f_quarter, f_eighth, f_sixteenth = levels.levels
    fusion = pooled_top
    for i, level in enumerate((f_sixteenth, f_eighth, f_quarter)):
        if i > 0:
            fusion = rearranged_upscale(fusion, params[f"up{i-1}_w"], params[f"up{i-1}_b"])
        if fusion.shape != level.shape:
            raise DimensionError(f"fusion {fusion.shape} does not match level {level.shape}")
        hw = level.shape[1:]
        out_tokens = attention_block(
            tokens_from_map(level), params["blocks"][i],
            kv=tokens_from_map(fusion), keys_from="x")
        fusion = map_from_tokens(out_tokens, hw)
    return fusion


# -- depth estimation head -------------------------------------------------------------------


def init_depth_head_params(rng, channels, bins, hidden=None):
    hidden = hidden or 2 * channels
    p = {}
    fan_in = channels * 9
    p["conv1_w"] = nm.randn_param(rng, (hidden, channels, 3, 3), (2.0 / fan_in) ** 0.5)
    p["conv1_b"] = nm.zeros_param((hidden,))
    p["conv2_w"] = nm.randn_param(rng, (bins, hidden, 3, 3), (2.0 / (hidden * 9)) ** 0.5)
    p["conv2_b"] = nm.zeros_param((bins,))
    return p


def predict_depth_distribution(f_dcp, params):
    """Two 3x3 convolutions map C channels to D bin logits per pixel."""
    h = nm.relu(nm.conv2d(f_dcp, params["conv1_w"], params["conv1_b"]))
    logits = nm.conv2d(h, params["conv2_w"], params["conv2_b"])
    return DepthDistribution(logits=logits, probabilities=nm.softmax(logits, axis=0))


IGNORE_BIN = -1


def depth_focal_loss(pred, gt_bins, fg_mask, alpha_fg=1.0, alpha_bg=0.25):
    """Multiclass focal loss over depth bins, foreground-weighted.

    gt_bins: integer array [H, W] in [0, D-1], or IGNORE_BIN to skip a pixel.
    fg_mask: array [H, W], nonzero on foreground object pixels. The loss is
    -alpha_px (1 - p_t)^2 log(p_t) averaged over supervised pixels.
    """
    d, h, w = pred.probabilities.shape
    gt = np.asarray(gt_bins)
    if gt.shape != (h, w):
        raise DimensionError(f"gt_bins {gt.shape} does not match prediction {h}x{w}")
    valid = gt != IGNORE_BIN
    if valid.any() and (gt[valid].min() < 0 or gt[valid].max() >= d):
        raise DomainError(f"depth bin targets outside [0, {d-1}]")
    n_valid = int(valid.sum())
    if n_valid == 0:
        warnings.warn("depth focal loss: every pixel ignored, contributing 0")
        return (pred.probabilities * 0.0).sum()

    onehot = np.zeros((d, h, w))
    rows, cols = np.nonzero(valid)
    onehot[gt[rows, cols], rows, cols] = 1.0
    # p_t at supervised pixels; 1 elsewhere so log() is safe and weight 0 kills it
    p_t = (pred.probabilities * Tensor(onehot)).sum(axis=0) + Tensor((~valid).astype(np.float64))
    fg = np.asarray(fg_mask).astype(bool)
    weights = np.where(fg, alpha_fg, alpha_bg) * valid
    focal = (1.0 - p_t) * (1.0 - p_t)
    per_pixel = focal * (nm.log(p_t) * -1.0)
    return (per_pixel * Tensor(weights)).sum() * (1.0 / n_valid)


def depth_accuracy_within(pred, gt_bins, fg_mask, tolerance=1):
    """Fraction of foreground pixels whose argmax bin is within +-tolerance."""
    arg = pred.argmax_bins()
    gt = np.asarray(gt_bins)
    fg = np.asarray(fg_mask).astype(bool) & (gt != IGNORE_BIN)
    if not fg.any():
        return float("nan")
    return float((np.abs(arg[fg] - gt[fg]) <= tolerance).mean())
