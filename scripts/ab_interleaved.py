"""Two checkouts of monopgc timed side by side in one process, in alternating rounds.

    python3 scripts/ab_interleaved.py --parent ../base --change .

Each checkout's `src/monopgc` is imported under its own package name
(`monopgc_parent`, `monopgc_change`); the package uses only relative
imports, so the two copies share nothing but numpy. Both sides run at
criterion 8's overfit shape (perfbench's `OVERFIT`: 96x96, batch 8,
default model) on the same 20 seeded synthetic scenes, every share in this
process (`_step_processes` is 1 on both sides), with OpenBLAS pinned to one
thread before numpy loads.

Set-up trains each side once for SETUP_STEPS steps and compares the log
lines and every parameter's bits, and takes each side's tracemalloc peak
over one sample's forward, loss and backward on a fresh model; it is not
timed. It also loads the parent side's trained parameters into a model of
each side and compares every head map of IMAGES scenes' forwards (no tape)
bit for bit, so a change that moves only the backward pass's rounding,
and with it the trained parameters, can still show that its forward is
unchanged. Then each of ROUNDS
rounds runs, per side, inference (forward and decode, no tape) over IMAGES
scenes with the model trained in set-up, and a ROUND_STEPS-step training
run from a fresh model. The side that goes first alternates from round to
round, so a drift of the host's speed falls on both sides alike.

One JSON line is printed: per side the median and quartiles of ms per
image (inference) and ms per sample (training), the rounds each side won,
the one-sample tracemalloc peak, each side's last set-up log line, and
whether log lines, parameter bits, forwards from the same parameters and
detections were identical.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]
from perfbench import workloads  # noqa: E402
from perfbench.run import environment  # noqa: E402

SIDES = ("parent", "change")
# train_overfit's shape; the threshold is infer_cli's, since a short run
# decodes little at the default 0.25
OVERFIT = {**workloads.OVERFIT, "score_threshold": 0.15, "scenes": 20}
ROUNDS, SETUP_STEPS, ROUND_STEPS, IMAGES = 12, 16, 2, 10


def load_package(name, checkout):
    """Import `<checkout>/src/monopgc` as the top-level package `name`."""
    root = Path(checkout).resolve() / "src" / "monopgc"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for module in ("config", "pipeline"):
        importlib.import_module(f"{name}.{module}")
    pkg.pipeline._step_processes = lambda: 1
    return pkg


class Side:
    """One checkout: its package, samples, and the model trained in set-up."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.config = pkg.config.RunConfig(steps=SETUP_STEPS, **OVERFIT)
        self.round_config = dataclasses.replace(self.config, steps=ROUND_STEPS)
        self.samples = pkg.pipeline.make_synthetic_samples(self.config)
        result, _ = pkg.pipeline.train(self.config, samples=self.samples)
        self.log_lines = result.log_lines
        self.model = result.model
        self.tape_peak_mb = self.sample_peak_mb()
        self.infer_ms, self.train_ms, self.round_logs, self.detections = [], [], [], []

    def sample_peak_mb(self):
        """tracemalloc peak of one sample's forward, loss and backward, fresh model."""
        pipeline = self.pkg.pipeline
        model = pipeline.MonoPGCModel(self.config)
        sample = self.samples[0]
        targets = pipeline.build_targets(sample, self.config)
        tracemalloc.start()
        try:
            loss, _ = model.loss(model.forward(sample), targets)
            loss.backward()
            return round(tracemalloc.get_traced_memory()[1] / 1e6, 2)
        finally:
            tracemalloc.stop()

    def bits(self):
        return {name: p.data.view(np.uint32) for name, p in self.model.parameters().items()}

    def head_map_bits(self, arrays):
        """Each of IMAGES scenes' head maps as uint32 bits, from a model holding `arrays`."""
        pipeline = self.pkg.pipeline
        model = pipeline.MonoPGCModel(self.config)
        model.load_state(arrays)
        with pipeline._inference(model):
            return [{name: value.data.view(np.uint32)
                     for name, value in vars(model.forward(sample)["maps"]).items()}
                    for sample in self.samples[:IMAGES]]

    def run_round(self):
        pipeline = self.pkg.pipeline
        t0 = time.perf_counter()
        preds = pipeline.predictions_on_samples(self.model, self.samples[:IMAGES])
        self.infer_ms.append((time.perf_counter() - t0) * 1e3 / IMAGES)
        self.detections.append({stem: [_detection_fields(d) for d in dets]
                                for stem, dets in preds.items()})
        cfg = self.round_config
        t0 = time.perf_counter()
        result, _ = pipeline.train(cfg, samples=self.samples)
        self.train_ms.append((time.perf_counter() - t0) * 1e3 / (cfg.steps * cfg.batch_size))
        self.round_logs.append(result.log_lines)


def _detection_fields(d):
    """The fields of a detection that both sides have, for comparison."""
    return (d.class_name, d.score, d.location, d.dimensions, d.yaw)


def _quartiles(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": round(q1, 2), "median": round(med, 2), "q3": round(q3, 2)}


def _compare(sides, attr):
    parent, change = (getattr(sides[s], attr) for s in SIDES)
    wins = sum(c < p for p, c in zip(parent, change))
    return {"parent": _quartiles(parent), "change": _quartiles(change),
            "change_over_parent": round(float(np.median(change) / np.median(parent)), 3),
            "change_wins": f"{wins}/{len(parent)}",
            "runs": {"parent": [round(v, 2) for v in parent],
                     "change": [round(v, 2) for v in change]}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    args = ap.parse_args(argv)

    sides = {}
    for side in SIDES:
        pkg = load_package(f"monopgc_{side}", getattr(args, side))
        sides[side] = Side(pkg)
    parent, change = (sides[s] for s in SIDES)
    parent_bits, change_bits = parent.bits(), change.bits()
    trained = {name: p.data for name, p in parent.model.parameters().items()}
    parent_maps, change_maps = parent.head_map_bits(trained), change.head_map_bits(trained)

    for r in range(ROUNDS):
        for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
            sides[side].run_round()

    report = {
        "rounds": ROUNDS,
        "shape": {"image_hw": list(parent.config.image_hw), "batch_size": OVERFIT["batch_size"],
                  "setup_steps": SETUP_STEPS, "round_steps": ROUND_STEPS, "images": IMAGES},
        "infer_ms_per_image": _compare(sides, "infer_ms"),
        "train_ms_per_sample": _compare(sides, "train_ms"),
        "sample_tape_peak_mb": {side: sides[side].tape_peak_mb for side in SIDES},
        "log_lines_identical": (parent.log_lines == change.log_lines
                                and parent.round_logs == change.round_logs),
        "params_identical": (parent_bits.keys() == change_bits.keys()
                             and all(np.array_equal(parent_bits[k], change_bits[k])
                                     for k in parent_bits)),
        "forward_identical": all(p.keys() == c.keys()
                                 and all(np.array_equal(p[k], c[k]) for k in p)
                                 for p, c in zip(parent_maps, change_maps)),
        "detections_identical": parent.detections == change.detections,
        "detections_per_round": sum(len(d) for d in parent.detections[0].values()),
        "final_log_line": {side: sides[side].log_lines[-1] for side in SIDES},
        "environment": environment(),
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
