"""Rotated-box IoU, difficulty bucketing, and average precision at 40 points.

IoU is exact: one rectangle is clipped against the other (convex polygon
intersection, at most an octagon) by a Sutherland-Hodgman pass that is
batched over a whole list of box pairs, and it is checked against a
rasterization oracle kept here for tests and self-checks. The scalar
functions `bev_intersection_area`, `rotated_bev_iou` and `iou_3d` are 1x1
calls into the same batched code.

Evaluation builds one `PairTable` per (image, class): the detections sorted
by descending score, the ground-truth difficulty labels, and the 3D and BEV
IoU matrices [P, G], both derived from one BEV-intersection matrix plus the
vertical overlap (`_pair_ious`, which `iou_3d` also calls for one pair).
Every (detection, ground truth) pair of every image is clipped exactly
once, in one batched pass, and every metric and difficulty bucket reads
the same tables through one greedy detection-major matching routine. AP
follows the 40-recall-point interpolated-precision definition, with the
standard convention that ground truths outside the evaluated difficulty
bucket are ignored: they neither count as misses nor turn their matches
into false positives.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .data import _stem_files, read_label_file
from .errors import DomainError, EvaluationError
from .head import DEFAULT_CLASSES, detection_from_label

DIFFICULTIES = ("easy", "moderate", "hard")
METRICS = ("3d", "bev")
RECALL_POINTS = 40
DEFAULT_IOU_THRESHOLD = 0.5

# KITTI-convention gates: min 2D box height, max occlusion, max truncation
DIFFICULTY_RULES = {
    "easy": (40.0, 0, 0.15),
    "moderate": (25.0, 1, 0.30),
    "hard": (25.0, 2, 0.50),
}


@dataclass
class BevBox:
    """Ground-plane rectangle: center (x, z), extent (l, w), yaw angle."""

    cx: float
    cz: float
    length: float
    width: float
    angle: float

    def __post_init__(self):
        if self.length <= 0 or self.width <= 0:
            raise DomainError(f"box extents must be positive: {self.length} x {self.width}")

    @property
    def area(self):
        return self.length * self.width

    def corners(self):
        """4x2 corner array, counter-clockwise in the (x, z) plane."""
        return _corners(_box_params([self]))[0]


def bev_box_of(obj):
    """BevBox from anything exposing bev_box()."""
    if isinstance(obj, BevBox):
        return obj
    if hasattr(obj, "bev_box"):
        return BevBox(*obj.bev_box())
    raise TypeError(f"cannot derive a BEV box from {type(obj).__name__}")


def _box_params(boxes):
    """[n, 5] array of (cx, cz, length, width, angle) for BevBoxes."""
    return np.array([(b.cx, b.cz, b.length, b.width, b.angle) for b in boxes],
                     dtype=np.float64).reshape(-1, 5)


def _corners(params):
    """[n, 4, 2] box corners, counter-clockwise in the (x, z) plane.

    The half-extent corners are listed counter-clockwise, and a rotation
    keeps that order.
    """
    cx, cz, length, width, angle = (col[:, None] for col in params.T)
    c, s = np.cos(angle), np.sin(angle)
    hx = np.array([0.5, -0.5, -0.5, 0.5]) * length
    hz = np.array([0.5, 0.5, -0.5, -0.5]) * width
    # rotation about the vertical axis: x' = c x + s z, z' = -s x + c z
    return np.stack([hx * c + hz * s + cx, hz * c - hx * s + cz], axis=-1)


def _clip_areas(subject, clip):
    """Batched Sutherland-Hodgman: area of each subject[k] clipped by clip[k].

    subject, clip: [N, 4, 2] counter-clockwise quadrilaterals (clip convex).
    Row k holds a polygon of count[k] vertices, padded to the widest row;
    each clip edge turns every vertex into zero, one or two output vertices
    (the edge crossing from the previous vertex, then the vertex itself).
    """
    n = len(subject)
    poly, count = subject, np.full(n, 4)
    rows = np.arange(n)[:, None]
    for e in range(4):
        ax, ay = clip[:, e, 0:1], clip[:, e, 1:2]
        ex = clip[:, (e + 1) % 4, 0:1] - ax
        ey = clip[:, (e + 1) % 4, 1:2] - ay
        k = np.arange(poly.shape[1])
        valid = k < count[:, None]
        prev = poly[rows, np.where(k == 0, np.maximum(count[:, None] - 1, 0), k - 1)]
        qx, qy = poly[..., 0], poly[..., 1]
        px, py = prev[..., 0], prev[..., 1]
        cur_in = ex * (qy - ay) - ey * (qx - ax) >= 0
        prev_in = ex * (py - ay) - ey * (px - ax) >= 0
        cross = valid & (cur_in != prev_in)
        keep = valid & cur_in
        # line a-b with segment prev-cur; a segment lying along the edge can
        # test as crossing it through rounding, with a zero denominator, so
        # the crossing is kept on the segment
        dx, dy = qx - px, qy - py
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (ex * (ay - py) - ey * (ax - px)) / (ex * dy - ey * dx)
        t = np.clip(np.nan_to_num(t, nan=0.0), 0.0, 1.0)
        emitted = cross.astype(np.intp) + keep
        start = np.cumsum(emitted, axis=1) - emitted
        count = emitted.sum(axis=1)
        out = np.zeros((n, max(int(count.max()), 1), 2))
        r, c = np.nonzero(cross)
        out[r, start[r, c], 0] = px[r, c] + t[r, c] * dx[r, c]
        out[r, start[r, c], 1] = py[r, c] + t[r, c] * dy[r, c]
        r, c = np.nonzero(keep)
        out[r, start[r, c] + cross[r, c]] = poly[r, c]
        poly = out
    # shoelace over each row's count vertices, summed in vertex order so a
    # row's area does not depend on the padding the other rows need
    k = np.arange(poly.shape[1])
    valid = k < count[:, None]
    nxt = poly[rows, np.where(k + 1 < count[:, None], k + 1, 0)]
    xy = np.where(valid, poly[..., 0] * nxt[..., 1], 0.0)
    yx = np.where(valid, poly[..., 1] * nxt[..., 0], 0.0)
    sum_xy, sum_yx = np.zeros(n), np.zeros(n)
    for col in range(poly.shape[1]):
        sum_xy += xy[:, col]
        sum_yx += yx[:, col]
    return np.where(count >= 3, np.abs(0.5 * (sum_xy - sum_yx)), 0.0)


def _pair_intersections(params, i, j):
    """BEV intersection areas of the box pairs (params[i[k]], params[j[k]]).

    Each box's corners are computed once, and all pairs are clipped in one
    batched pass. In every pair the box with the smaller (cx, cz, length,
    width, angle) key is clipped by the other: that canonical operand order
    makes the float arithmetic, and therefore the result, exactly symmetric.
    """
    if len(i) == 0:
        return np.zeros(0)
    rank = np.empty(len(params), dtype=np.intp)
    rank[np.lexsort(params.T[::-1])] = np.arange(len(params))
    swap = rank[j] < rank[i]
    corners = _corners(params)
    return _clip_areas(corners[np.where(swap, j, i)], corners[np.where(swap, i, j)])


def bev_intersection_matrix(boxes_a, boxes_b):
    """[len(a), len(b)] BEV intersection areas of every pair, in one batched pass."""
    na, nb = len(boxes_a), len(boxes_b)
    params = _box_params([bev_box_of(box) for box in (*boxes_a, *boxes_b)])
    i = np.repeat(np.arange(na), nb)
    j = na + np.tile(np.arange(nb), na)
    return _pair_intersections(params, i, j).reshape(na, nb)


def bev_intersection_area(a, b):
    """Exact area of the intersection of two rotated ground-plane rectangles."""
    return float(bev_intersection_matrix([a], [b])[0, 0])


def rotated_bev_iou(a, b):
    """Exact intersection-over-union of two rotated ground-plane rectangles."""
    box_a, box_b = bev_box_of(a), bev_box_of(b)
    inter = bev_intersection_area(box_a, box_b)
    union = box_a.area + box_b.area - inter
    return inter / union if union > 0 else 0.0


def rasterized_bev_iou(a, b, resolution=500):
    """Rasterization oracle: cell-center point sampling of the intersection.

    Only the overlap of the two bounding boxes is rasterized; box areas are
    analytic, so the grid error enters through the intersection term alone
    and the half-in half-out boundary cells largely cancel.
    """
    box_a, box_b = bev_box_of(a), bev_box_of(b)
    ca, cb = box_a.corners(), box_b.corners()
    lo = np.maximum(ca.min(axis=0), cb.min(axis=0))
    hi = np.minimum(ca.max(axis=0), cb.max(axis=0))
    union_no_inter = box_a.area + box_b.area
    if (hi <= lo).any():
        return 0.0
    xs = lo[0] + (np.arange(resolution) + 0.5) * (hi[0] - lo[0]) / resolution
    zs = lo[1] + (np.arange(resolution) + 0.5) * (hi[1] - lo[1]) / resolution
    cell = ((hi[0] - lo[0]) / resolution) * ((hi[1] - lo[1]) / resolution)
    gx, gz = np.meshgrid(xs, zs)

    def inside(box):
        c, s = math.cos(box.angle), math.sin(box.angle)
        dx = gx - box.cx
        dz = gz - box.cz
        # inverse of the corner rotation
        u = c * dx - s * dz
        v = s * dx + c * dz
        return (np.abs(u) <= box.length / 2) & (np.abs(v) <= box.width / 2)

    inter = float((inside(box_a) & inside(box_b)).sum()) * cell
    union = union_no_inter - inter
    return float(inter / union) if union > 0 else 0.0


def iou_3d(a, b):
    """Volume IoU for upright boxes: BEV intersection times vertical overlap."""
    return float(_pair_ious([a, b], np.array([0]), np.array([1]))["3d"][0])


def _pair_ious(boxes, i, j):
    """{"bev", "3d"}: IoU arrays of the box pairs (boxes[i[k]], boxes[j[k]]).

    The boxes expose bev_box() and vertical_range(). All pairs are clipped
    in one batched pass; the 3D intersection is the BEV one times the
    vertical overlap.
    """
    params = _box_params([bev_box_of(box) for box in boxes])
    inter = _pair_intersections(params, i, j)
    vertical = np.array([box.vertical_range() for box in boxes], dtype=np.float64).reshape(-1, 2)
    area = params[:, 2] * params[:, 3]
    area_a, area_b = area[i], area[j]
    (ya0, ya1), (yb0, yb1) = vertical[i].T, vertical[j].T
    inter_3d = inter * np.maximum(0.0, np.minimum(ya1, yb1) - np.maximum(ya0, yb0))
    return {"bev": _ratio(inter, area_a, area_b),
            "3d": _ratio(inter_3d, area_a * (ya1 - ya0), area_b * (yb1 - yb0))}


# -- difficulty ----------------------------------------------------------------------


def assign_difficulty(obj):
    """KITTI-convention bucket from 2D box height, occlusion, truncation."""
    height = obj.bbox2d[3] - obj.bbox2d[1]
    for name in DIFFICULTIES:
        min_h, max_occ, max_trunc = DIFFICULTY_RULES[name]
        if height >= min_h and obj.occlusion <= max_occ and obj.truncation <= max_trunc:
            return name
    return "ignored"


_BUCKET_ACCEPTS = {
    "easy": ("easy",),
    "moderate": ("easy", "moderate"),
    "hard": ("easy", "moderate", "hard"),
    "overall": ("easy", "moderate", "hard", "ignored"),
}
BUCKETS = tuple(_BUCKET_ACCEPTS)


# -- AP40 ---------------------------------------------------------------------------------


@dataclass
class EvalConfig:
    iou_thresholds: dict = field(default_factory=lambda: {"Car": 0.7, "Pedestrian": 0.5, "Cyclist": 0.5})

    def threshold_for(self, class_name):
        thr = self.iou_thresholds.get(class_name, DEFAULT_IOU_THRESHOLD)
        if not 0 < thr <= 1:
            raise DomainError(f"IoU threshold for {class_name} must be in (0,1], got {thr}")
        return thr


@dataclass
class PairTable:
    """Detections and ground truths of one class in one image.

    scores: the P detection scores, descending. difficulties: the G
    ground-truth difficulty labels. iou: {metric: P rows of G IoUs}, rows
    and columns in the same orders.
    """

    scores: list
    difficulties: list
    iou: dict


def build_pair_tables(predictions, ground_truth, classes):
    """{class: [PairTable per image of ground_truth, in its order]}.

    predictions: {image_id: [Detection3D]}; ground_truth: {image_id:
    [LabeledObject]}. Every (detection, ground truth) pair of every image is
    clipped once, all in one batched pass; predictions for images without
    ground truth are not evaluated.
    """
    tables = {cls: [] for cls in classes}
    spans = []   # (table, index of its first box, P, G)
    boxes = []   # per table: its detections, then its ground truths
    for image_id, objects in ground_truth.items():
        image_preds = predictions.get(image_id, [])
        for cls in classes:
            dets = sorted((d for d in image_preds if d.class_name == cls), key=lambda d: -d.score)
            gts = [o for o in objects if not o.ignorable and o.class_name == cls]
            table = PairTable([d.score for d in dets], [assign_difficulty(o) for o in gts], {})
            tables[cls].append(table)
            spans.append((table, len(boxes), len(dets), len(gts)))
            boxes.extend(dets)
            boxes.extend(detection_from_label(o) for o in gts)

    pair_i, pair_j = [], []
    for _, first, n_det, n_gt in spans:
        for p in range(first, first + n_det):
            pair_i.extend([p] * n_gt)
            pair_j.extend(range(first + n_det, first + n_det + n_gt))
    ious = {metric: values.tolist() for metric, values in _pair_ious(
        boxes, np.array(pair_i, dtype=np.intp), np.array(pair_j, dtype=np.intp)).items()}

    start = 0
    for table, _, n_det, n_gt in spans:
        table.iou = {metric: [values[start + p * n_gt:start + (p + 1) * n_gt] for p in range(n_det)]
                     for metric, values in ious.items()}
        start += n_det * n_gt
    return tables


def _ratio(inter, size_a, size_b):
    """Intersection over union from the two sizes (areas or volumes); 0 for an empty union."""
    union = size_a + size_b - inter
    return np.divide(inter, union, out=np.zeros_like(union), where=union > 0)


def _match(table, metric, accepts, threshold):
    """Greedy score-descending matching in one table.

    Detection-major: each detection in turn takes the best-overlapping
    untaken ground truth of the bucket. Returns the rows (score, tp,
    ignored_pred) and the number of ground truths the bucket counts.
    """
    counted = [d in accepts for d in table.difficulties]
    taken = [False] * len(counted)
    rows = []
    for score, ious in zip(table.scores, table.iou[metric]):
        best_iou, best_j = 0.0, -1
        for j, iou in enumerate(ious):
            if counted[j] and not taken[j] and iou > best_iou:
                best_iou, best_j = iou, j
        if best_j >= 0 and best_iou >= threshold:
            taken[best_j] = True
            rows.append((score, 1, 0))
            continue
        absorbed = any(iou >= threshold for iou, c in zip(ious, counted) if not c)
        rows.append((score, 0, 1 if absorbed else 0))
    return rows, sum(counted)


def _bucket_ap(tables, config, metric, difficulty, class_name):
    """AP of one (metric, bucket, class) over that class's tables; None without ground truth."""
    if difficulty not in _BUCKET_ACCEPTS:
        raise DomainError(f"unknown difficulty {difficulty!r}")
    threshold = config.threshold_for(class_name)
    if metric not in METRICS:
        raise DomainError(f"unknown metric {metric!r}")
    all_rows = []
    n_gt = 0
    for table in tables:
        rows, counted = _match(table, metric, _BUCKET_ACCEPTS[difficulty], threshold)
        all_rows.extend(rows)
        n_gt += counted
    if n_gt == 0:
        return None
    return _ap_from_rows(all_rows, n_gt)


def average_precision_40(predictions, ground_truth, config=None, metric="3d",
                         difficulty="moderate", class_name="Car"):
    """AP at 40 recall points for one class and difficulty bucket.

    predictions: {image_id: [Detection3D]}; ground_truth: {image_id:
    [LabeledObject]}. Returns None when the bucket holds no ground truth.
    """
    config = config or EvalConfig()
    tables = build_pair_tables(predictions, ground_truth, (class_name,))[class_name]
    return _bucket_ap(tables, config, metric, difficulty, class_name)


def _ap_from_rows(rows, n_gt):
    rows = sorted((r for r in rows if not r[2]), key=lambda r: -r[0])
    if not rows:
        return 0.0
    tps = np.cumsum([r[1] for r in rows])
    fps = np.cumsum([1 - r[1] for r in rows])
    recalls = tps / n_gt
    precisions = tps / np.maximum(tps + fps, 1)
    total = 0.0
    for k in range(1, RECALL_POINTS + 1):
        r = k / RECALL_POINTS
        reachable = precisions[recalls >= r - 1e-12]
        total += float(reachable.max()) if reachable.size else 0.0
    return total / RECALL_POINTS


def evaluate_all(predictions, ground_truth, config=None):
    """AP table over classes x difficulties x {3d, bev}, values in percent.

    The pair tables are built once and shared by all the buckets.
    """
    config = config or EvalConfig()
    tables = build_pair_tables(predictions, ground_truth, DEFAULT_CLASSES)
    results = {}
    for metric in METRICS:
        for cls in DEFAULT_CLASSES:
            for diff in BUCKETS:
                ap = _bucket_ap(tables[cls], config, metric, diff, cls)
                results[(metric, cls, diff)] = None if ap is None else 100.0 * ap
    return results


def unscored_classes(ground_truth):
    """{class: box count} of the ground truth's classes that `evaluate_all`
    does not score, by name; DontCare regions are not counted."""
    counts = Counter(o.class_name for objects in ground_truth.values() for o in objects
                     if not o.ignorable and o.class_name not in DEFAULT_CLASSES)
    return dict(sorted(counts.items()))


def format_report(results):
    """Plain-text table plus machine-readable key=value lines."""
    lines = []
    kv = []
    for metric in METRICS:
        lines.append(f"AP40 ({metric.upper()}, percent)")
        header = f"{'class':<12}" + "".join(f"{d:>10}" for d in BUCKETS)
        lines.append(header)
        for cls in DEFAULT_CLASSES:
            row = f"{cls:<12}"
            for diff in BUCKETS:
                val = results.get((metric, cls, diff))
                row += f"{'n/a':>10}" if val is None else f"{val:>10.2f}"
                key = f"ap{metric}.{cls}.{diff}"
                kv.append(f"{key}=" + ("n/a" if val is None else f"{val:.2f}"))
            lines.append(row)
        lines.append("")
    return "\n".join(lines), "\n".join(kv) + "\n"


def load_directory_pairs(gt_dir, pred_dir):
    """Label files matched by stem; unmatched stems raise with the full list."""
    gt_files = _stem_files(gt_dir, ".txt", "ground-truth")
    pred_files = _stem_files(pred_dir, ".txt", "prediction")
    missing = sorted(set(gt_files) ^ set(pred_files))
    if missing:
        raise EvaluationError("unmatched file stems: " + ", ".join(missing))
    ground_truth = {stem: read_label_file(path) for stem, path in gt_files.items()}
    predictions = {stem: [detection_from_label(o) for o in read_label_file(path) if not o.ignorable]
                   for stem, path in pred_files.items()}
    return predictions, ground_truth
