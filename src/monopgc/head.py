"""Center-based detection head, target rendering, decoding, and losses.

Six parallel two-layer convolution branches predict, per feature cell:
class heatmap scores, sub-cell center offsets, log dimensions, yaw as
(sin, cos), center depth in meters, and a log uncertainty scale for the
depth. Training targets put penalty-reduced Gaussians on projected 3D box
centers and regression values at the center cells only. Decoding extracts
3x3 local maxima, unprojects them through the intrinsics at the predicted
depth, and optionally discounts scores by the learned depth uncertainty.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .data import LabeledObject
from .errors import DimensionError, DomainError
from .geometry import _wrap_angle
from .numerics import Tensor

HEATMAP_BIAS = -2.19          # sigmoid(-2.19) ~ 0.1 initial score
DEPTH_BIAS = 15.0             # start depth regression mid-range
SCORE_EPS = 1e-5              # keeps heatmap losses away from log(0)


@dataclass
class HeadMaps:
    class_heatmap: Tensor     # [K, H, W], sigmoid scores in (0, 1)
    center_offset: Tensor     # [2, H, W]
    dims_log: Tensor          # [3, H, W], log (h, w, l) meters
    yaw_sincos: Tensor        # [2, H, W]
    center_depth: Tensor      # [1, H, W], meters
    depth_log_b: Tensor       # [1, H, W], log Laplace scale

    @property
    def spatial(self):
        return self.class_heatmap.shape[1:]


@dataclass
class Detection3D:
    """One decoded box. `location` is the geometric box center (camera frame);
    the KITTI convention of bottom-face-center applies only in label files."""

    class_name: str
    score: float
    location: tuple      # (x, y, z) of the box center
    dimensions: tuple    # (h, w, l)
    yaw: float

    def __post_init__(self):
        if min(self.dimensions) <= 0:
            raise DomainError(f"dimensions must be positive, got {self.dimensions}")
        self.yaw = _wrap_angle(self.yaw)

    def bev_box(self):
        x, _, z = self.location
        h, w, l = self.dimensions
        return (x, z, l, w, self.yaw)

    def vertical_range(self):
        y = self.location[1]
        h = self.dimensions[0]
        return (y - h / 2.0, y + h / 2.0)


# -- parameters and forward -------------------------------------------------------


BRANCHES = ("heatmap", "offset", "dims", "yaw", "depth", "log_b")


def init_head_params(rng, channels, num_classes):
    out_channels = {"heatmap": num_classes, "offset": 2, "dims": 3,
                    "yaw": 2, "depth": 1, "log_b": 1}
    p = {}
    fan_in = channels * 9
    for name, k in out_channels.items():
        p[f"{name}1_w"] = nm.randn_param(rng, (channels, channels, 3, 3), (2.0 / fan_in) ** 0.5)
        p[f"{name}1_b"] = nm.zeros_param((channels,))
        p[f"{name}2_w"] = nm.randn_param(rng, (k, channels, 3, 3), (0.01 / fan_in) ** 0.5)
        bias = np.zeros(k)
        if name == "heatmap":
            bias[:] = HEATMAP_BIAS
        elif name == "depth":
            bias[:] = DEPTH_BIAS
        p[f"{name}2_b"] = nm.parameter(bias)
    return p


def _branch(x, params, name):
    h = nm.relu(nm.conv2d(x, params[f"{name}1_w"], params[f"{name}1_b"]))
    return nm.conv2d(h, params[f"{name}2_w"], params[f"{name}2_b"])


def predict_head_maps(f_dsa, params):
    return HeadMaps(
        class_heatmap=nm.sigmoid(_branch(f_dsa, params, "heatmap")),
        center_offset=_branch(f_dsa, params, "offset"),
        dims_log=_branch(f_dsa, params, "dims"),
        yaw_sincos=_branch(f_dsa, params, "yaw"),
        center_depth=_branch(f_dsa, params, "depth"),
        depth_log_b=_branch(f_dsa, params, "log_b"),
    )


# -- target rendering ----------------------------------------------------------------


def gaussian_radius(box_h, box_w, min_overlap=0.7):
    """Smallest Gaussian radius keeping IoU >= min_overlap for shifted corners."""
    a1 = 1
    b1 = box_h + box_w
    c1 = box_w * box_h * (1 - min_overlap) / (1 + min_overlap)
    r1 = (b1 - math.sqrt(max(b1 ** 2 - 4 * a1 * c1, 0.0))) / 2

    a2 = 4
    b2 = 2 * (box_h + box_w)
    c2 = (1 - min_overlap) * box_w * box_h
    r2 = (b2 - math.sqrt(max(b2 ** 2 - 4 * a2 * c2, 0.0))) / 2

    a3 = 4 * min_overlap
    b3 = -2 * min_overlap * (box_h + box_w)
    c3 = (min_overlap - 1) * box_w * box_h
    r3 = (b3 + math.sqrt(max(b3 ** 2 - 4 * a3 * c3, 0.0))) / (2 * a3)
    return min(r1, r2, r3)


def draw_gaussian(heatmap, cx, cy, radius):
    """Max-compose an isotropic Gaussian peak onto a [H, W] plane."""
    h, w = heatmap.shape
    radius = int(radius)
    sigma = (2 * radius + 1) / 6.0
    y0, y1 = max(0, cy - radius), min(h, cy + radius + 1)
    x0, x1 = max(0, cx - radius), min(w, cx + radius + 1)
    ys, xs = np.meshgrid(np.arange(y0, y1), np.arange(x0, x1), indexing="ij")
    g = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma ** 2))
    heatmap[y0:y1, x0:x1] = np.maximum(heatmap[y0:y1, x0:x1], g)


def render_targets(objects, calib, feature_hw, classes, stride=4):
    """Ground-truth maps for the detection loss, as plain arrays.

    Each usable object projects its 3D box center to the feature grid and
    contributes one Gaussian peak, plus regression targets at the center
    cell: sub-cell offset, log dims, yaw (sin, cos), and center depth.
    The heatmap has one channel per name in `classes`, in order; objects of
    any other class draw nothing.
    """
    h, w = feature_hw
    k = len(classes)
    channel = {name: i for i, name in enumerate(classes)}
    t = {
        "heatmap": np.zeros((k, h, w)),
        "pos_mask": np.zeros((h, w)),
        "offset": np.zeros((2, h, w)),
        "dims_log": np.zeros((3, h, w)),
        "yaw": np.zeros((2, h, w)),
        "depth": np.zeros((1, h, w)),
        "n_pos": 0,
    }
    for obj in objects or ():
        if getattr(obj, "ignorable", False) or obj.class_name not in channel:
            continue
        cx3, cy3, cz3 = obj.center3d()
        if cz3 <= 0:
            continue
        uv, _ = calib.project(np.array([[cx3, cy3, cz3]]))
        fu, fv = uv[0, 0] / stride, uv[0, 1] / stride
        col, row = int(fu), int(fv)
        if not (0 <= col < w and 0 <= row < h):
            continue
        left, top, right, bottom = obj.bbox2d
        radius = gaussian_radius((bottom - top) / stride, (right - left) / stride)
        radius = max(1, int(radius))
        draw_gaussian(t["heatmap"][channel[obj.class_name]], col, row, radius)
        t["heatmap"][channel[obj.class_name], row, col] = 1.0
        t["pos_mask"][row, col] = 1.0
        t["offset"][:, row, col] = (fu - col, fv - row)
        t["dims_log"][:, row, col] = np.log(np.asarray(obj.dimensions))
        t["yaw"][:, row, col] = (math.sin(obj.rotation_y), math.cos(obj.rotation_y))
        t["depth"][0, row, col] = cz3
        t["n_pos"] += 1
    return t


# -- losses ------------------------------------------------------------------------------


def heatmap_focal_loss(scores, target):
    """Penalty-reduced focal loss on a Gaussian-rendered heatmap.

    Positives are cells where the target equals 1; other cells are negatives
    down-weighted by (1 - target)^4. Normalized by the positive count.
    """
    t = np.asarray(target)
    pos = (t >= 1.0).astype(np.float64)
    neg_w = np.power(np.clip(1.0 - t, 0.0, 1.0), 4.0)
    n_pos = max(pos.sum(), 1.0)

    p = scores * (1.0 - 2 * SCORE_EPS) + SCORE_EPS
    one_minus = 1.0 - p
    pos_term = Tensor(pos) * one_minus * one_minus * nm.log(p)
    neg_term = Tensor(neg_w * (1.0 - pos)) * p * p * nm.log(one_minus)
    return (pos_term + neg_term).sum() * (-1.0 / n_pos)


def _masked_l1(pred, target, mask, n_pos):
    diff = nm.absolute(pred - Tensor(np.broadcast_to(target, pred.shape).copy()))
    masked = diff * Tensor(np.broadcast_to(mask, pred.shape).copy())
    return masked.sum() * (1.0 / max(n_pos, 1))


def detection_loss(maps, targets, lambdas=(1.0, 1.0, 1.0), depth_loss=None):
    """Composite training objective and its per-term breakdown.

    lambdas order: (depth, cls, reg). The classification term is the heatmap
    focal loss; regression is L1 on offset/dims/yaw plus the Laplacian
    aleatoric depth term |d - d_hat| exp(-s) + s. The optional depth_loss is
    the auxiliary per-pixel bin classification from the fusion module.
    """
    lam_depth, lam_cls, lam_reg = lambdas
    n_pos = targets["n_pos"]
    cls_loss = heatmap_focal_loss(maps.class_heatmap, targets["heatmap"])

    breakdown = {}
    if n_pos == 0:
        warnings.warn("detection loss: no positive targets, regression contributes 0")
        reg_loss = (maps.center_offset * 0.0).sum()
        breakdown.update(offset=0.0, dims=0.0, yaw=0.0, depth_l1=0.0)
    else:
        mask = targets["pos_mask"][None]
        off = _masked_l1(maps.center_offset, targets["offset"], mask, n_pos)
        dims = _masked_l1(maps.dims_log, targets["dims_log"], mask, n_pos)
        yaw = _masked_l1(maps.yaw_sincos, targets["yaw"], mask, n_pos)

        mask_t = Tensor(mask)
        err = nm.absolute(maps.center_depth - Tensor(targets["depth"]))
        s = maps.depth_log_b
        aleatoric = ((err * nm.exp(s * -1.0) + s) * mask_t).sum() * (1.0 / n_pos)

        reg_loss = off + dims + yaw + aleatoric
        breakdown.update(offset=off.item(), dims=dims.item(), yaw=yaw.item(),
                         depth_l1=aleatoric.item())

    total = cls_loss * lam_cls + reg_loss * lam_reg
    breakdown["cls"] = cls_loss.item()
    breakdown["reg"] = reg_loss.item()
    if depth_loss is not None:
        total = total + depth_loss * lam_depth
        breakdown["depth"] = depth_loss.item()
    else:
        breakdown["depth"] = 0.0
    breakdown["total"] = total.item()
    return total, breakdown


# -- decoding ----------------------------------------------------------------------------


def _local_maxima(plane):
    padded = np.full((plane.shape[0] + 2, plane.shape[1] + 2), -np.inf)
    padded[1:-1, 1:-1] = plane
    keep = np.ones_like(plane, dtype=bool)
    for dy in range(3):
        for dx in range(3):
            if dy == 1 and dx == 1:
                continue
            keep &= plane >= padded[dy:dy + plane.shape[0], dx:dx + plane.shape[1]]
    return keep


def decode_detections(maps, calib, classes, score_threshold=0.25, top_k=50, stride=4,
                      uncertainty_discount=True):
    """Peaks of the class heatmaps to Detection3D records.

    A peak is a 3x3 local maximum above the threshold; the top_k survivors
    by score are unprojected through the inverse intrinsics at the predicted
    depth. Scores are optionally multiplied by exp(-log_b) and clipped to 1.
    `classes` names the heatmap channels, in order.
    """
    if not 0 < score_threshold < 1:
        raise DomainError(f"score threshold must be in (0,1), got {score_threshold}")
    hm = maps.class_heatmap.data
    k, h, w = hm.shape
    k_inv = np.linalg.inv(calib.k_intrinsic)

    candidates = []
    for cls in range(k):
        keep = _local_maxima(hm[cls]) & (hm[cls] > score_threshold)
        for row, col in zip(*np.nonzero(keep)):
            candidates.append((float(hm[cls, row, col]), cls, int(row), int(col)))
    candidates.sort(reverse=True)
    candidates = candidates[:top_k]

    detections = []
    for score, cls, row, col in candidates:
        off = maps.center_offset.data[:, row, col]
        u = (col + off[0]) * stride
        v = (row + off[1]) * stride
        depth = float(maps.center_depth.data[0, row, col])
        if depth <= 0:
            continue
        cam = k_inv @ np.array([u * depth, v * depth, depth, 1.0])
        dims = tuple(np.exp(maps.dims_log.data[:, row, col]).tolist())
        sin_c = maps.yaw_sincos.data[:, row, col]
        yaw = math.atan2(sin_c[0], sin_c[1])
        if uncertainty_discount:
            score = score * math.exp(-float(maps.depth_log_b.data[0, row, col]))
        detections.append(Detection3D(
            class_name=classes[cls], score=float(np.clip(score, 0.0, 1.0)),
            location=(float(cam[0]), float(cam[1]), float(cam[2])),
            dimensions=dims, yaw=yaw))
    return detections


def detection_to_label(det):
    """Detection3D to a KITTI-style LabeledObject (bottom-center location)."""
    x, yc, z = det.location
    h = det.dimensions[0]
    alpha = _wrap_angle(det.yaw - math.atan2(x, z))
    return LabeledObject(
        class_name=det.class_name, truncation=0.0, occlusion=0, alpha=alpha,
        bbox2d=(0.0, 0.0, 1.0, 1.0), dimensions=det.dimensions,
        location=(x, yc + h / 2.0, z), rotation_y=det.yaw, score=det.score)


def detection_from_label(obj):
    """LabeledObject to Detection3D (center location), for evaluation."""
    return Detection3D(
        class_name=obj.class_name, score=1.0 if obj.score is None else obj.score,
        location=obj.center3d(), dimensions=obj.dimensions, yaw=obj.rotation_y)


def detection_bbox2d(det, calib, image_hw):
    """Projected 2D bounds of the 3D box, clipped to the image."""
    return detection_to_label(det).image_bbox2d(calib, image_hw)
