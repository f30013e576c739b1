"""The metric stack: rotated IoU, difficulty buckets, and AP40.

Builds a tiny ground-truth set, perturbs predictions in controlled ways,
and shows how the exact polygon-clipping IoU, the rasterization oracle,
and the 40-point interpolated average precision respond.
"""

import math

import numpy as np

from monopgc import data, evaluation as ev
from monopgc.evaluation import BevBox
from monopgc.head import detection_from_label

print("rotated BEV IoU, exact polygon clipping vs rasterization oracle:")
cases = [
    ("identical", BevBox(0, 0, 4, 1.6, 0.3), BevBox(0, 0, 4, 1.6, 0.3)),
    ("offset 0.5", BevBox(0, 0, 1, 1, 0.0), BevBox(0.5, 0, 1, 1, 0.0)),
    ("rotated 45 deg", BevBox(0, 0, 1, 1, 0.0), BevBox(0, 0, 1, 1, math.pi / 4)),
    ("crossing slivers", BevBox(0, 0, 4, 0.6, 0.0), BevBox(0, 0, 4, 0.6, math.pi / 2)),
]
for name, a, b in cases:
    exact = ev.rotated_bev_iou(a, b)
    oracle = ev.rasterized_bev_iou(a, b, resolution=800)
    print(f"  {name:18s} exact {exact:.6f}   rasterized {oracle:.6f}")

print("\ndifficulty buckets (2D height / occlusion / truncation gates):")
for height, occ, trunc in ((50, 0, 0.0), (30, 1, 0.2), (30, 2, 0.45), (18, 0, 0.0)):
    obj = data.LabeledObject("Car", trunc, occ, 0.0, (0, 0, 10, height),
                             (1.5, 1.6, 4.0), (0, 1, 20), 0.0)
    print(f"  height {height:3d} occ {occ} trunc {trunc:.2f} -> {ev.assign_difficulty(obj)}")

print("\nAP40 under controlled degradation (one image, 8 cars):")
gts = {"img": [data.LabeledObject("Car", 0.0, 0, 0.0, (0, 0, 60, 60), (1.5, 1.6, 4.0),
                                  (7.0 * i, 1.0, 12.0 + 4 * i), 0.1 * i) for i in range(8)]}
perfect = [detection_from_label(o) for o in gts["img"]]

import dataclasses

shifted = [dataclasses.replace(d, location=(d.location[0] + 1.0, d.location[1], d.location[2]))
           for d in perfect]
scenarios = {
    "perfect": perfect,
    "half missed": perfect[:4],
    "one duplicate FP": perfect + [perfect[0]],
    "all shifted 1m": shifted,
}

cfg = ev.EvalConfig(iou_thresholds={"Car": 0.5})
for name, preds in scenarios.items():
    ap = ev.average_precision_40({"img": preds}, gts, cfg, metric="3d", difficulty="overall")
    print(f"  {name:18s} AP40 = {100 * ap:6.2f}")

print("\nfull report on the perfect case:")
results = ev.evaluate_all({"img": perfect}, gts, cfg)
table, kv = ev.format_report(results)
print(table)
