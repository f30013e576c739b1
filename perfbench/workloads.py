"""The three benchmark workloads: training steps, `monopgc infer`, `monopgc eval`.

Each workload is a closed loop driven by one caller in this process: the
next operation starts when the previous one returns. Inputs come only from
the workload seed. `setup()` builds the inputs and `warmup()` runs
operations that warm caches, plus the one-off correctness checks; together
they are the set-up that `setup_s` times. `measure()` runs operations until
the time is up, checking every output.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import multiprocessing
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from monopgc import checkpoint, cli, data, pipeline
from monopgc.config import RunConfig
from monopgc.data import DONTCARE, LabeledObject, Sample
from monopgc.errors import MonoPGCError
from monopgc.geometry import CameraCalibration
from monopgc.head import detection_bbox2d, detection_to_label

perf = time.perf_counter

# criterion 8's overfit shape: 96x96 images, batch 8, default model
OVERFIT = dict(batch_size=8, seed=0, lambda_depth=3.0, warmup_fraction=0.2)
# the final loss of a training run must be at most this share of the first
LOSS_DROP = 0.75
# a measuring phase runs at least this many training runs or commands
MIN_OPS = 2


@dataclass
class Measurement:
    """What one measuring phase observed."""

    op_seconds: list = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _scene_seed(seed, stream, index):
    """Distinct generator seeds per workload seed, input stream and index."""
    return (seed * 7919 + stream) * 100_003 + index


def _scene_samples(seed, stream, count):
    return [data.sample_from_scene(data.generate_synthetic_scene(_scene_seed(seed, stream, i)),
                                   f"{i:06d}")
            for i in range(count)]


def _quiet_cli(argv):
    """Run the command line in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class TrainOverfit:
    """`pipeline.train` at the overfit shape on 20 seeded synthetic scenes.

    An operation is one training step, timed from outside by the `log_fn`
    callback's timestamps; the first step of each run also pays for model
    construction and target rendering. Runs of `steps` steps repeat with the
    same seed until the time is up, so their log lines must agree exactly.
    """

    name = "train_overfit"

    def __init__(self, workdir, seed, scenes=20, steps=8, batch_size=8):
        self.seed = seed
        self.scenes = scenes
        self.config = RunConfig(scenes=scenes, steps=steps, **dict(OVERFIT, batch_size=batch_size))
        self.samples = []

    def setup(self):
        self.samples = _scene_samples(self.seed, 1, self.scenes)

    def warmup(self, m):
        pipeline.train(dataclasses.replace(self.config, steps=1), samples=self.samples)

    def measure(self, seconds, m, tracer=None):
        cfg = self.config
        reference = None
        runs, last = 0, 0.0
        start = perf()
        # a run cannot stop early, so start one only if half of it fits
        while runs < MIN_OPS or perf() - start + last / 2 < seconds:
            stamps = []

            def log(line):
                stamps.append(perf())
                if tracer is not None and len(stamps) < cfg.steps:
                    tracer.begin_op()

            if tracer is not None:
                tracer.begin_op()
            t0 = perf()
            try:
                result, _ = pipeline.train(cfg, samples=self.samples, log_fn=log)
            except pipeline.TrainingAborted as exc:
                m.check(False, f"run {runs + 1}: {exc}")
                break
            runs += 1
            last = perf() - t0
            times = np.diff([t0] + stamps)
            m.op_seconds.extend(times.tolist())
            m.items += len(times) * cfg.batch_size
            for step, loss in enumerate(result.losses):
                m.check(math.isfinite(loss), f"run {runs} step {step}: loss {loss}")
            m.check(result.losses[-1] <= LOSS_DROP * result.losses[0],
                    f"run {runs}: final loss {result.losses[-1]:.4f} not below "
                    f"{LOSS_DROP} x first {result.losses[0]:.4f}")
            if reference is None:
                reference = result.log_lines
            else:
                m.check(result.log_lines == reference, f"run {runs}: log lines differ from run 1")
            m.notes["loss_end"] = result.losses[-1]
        if tracer is not None:
            tracer.finish()
        m.notes["runs"] = runs


def _train_in_child(cfg, samples):
    """`pipeline.train` in a forked child process.

    Returns (parameter arrays, Adam arrays, Adam step, steps run). Training
    holds tapes and optimizer state that an infer command never does, so it
    runs outside this process and stays out of its peak RSS.
    """
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)

    def train():
        result, optimizer = pipeline.train(cfg, samples=samples)
        send.send(({name: t.data for name, t in result.model.parameters().items()},
                   optimizer.state_arrays(), optimizer.t, len(result.losses)))

    child = context.Process(target=train)
    child.start()
    send.close()
    try:
        return receive.recv()
    except EOFError:
        raise RuntimeError("checkpoint training failed in the child process") from None
    finally:
        receive.close()
        child.join()


class InferCli:
    """`monopgc infer` over a directory of seeded 96x96 PPM images with calib files.

    Setup trains a checkpoint for 20 steps at batch 4 on separate seeded
    scenes, in a child process, and saves it with its config as
    `monopgc train` does. An operation is one whole command, checkpoint load
    included, because users pay that on every call.
    Every output must match `predictions_on_samples` on the same images.
    """

    name = "infer_cli"

    def __init__(self, workdir, seed, images=10, train_scenes=20, train_steps=20):
        self.seed = seed
        self.images = images
        self.train_scenes = train_scenes
        # At the default 0.25 score threshold a 20-step checkpoint decodes no
        # detection at all on some seeds; at 0.15 it gives 10 to 22 per 10 images.
        self.config = RunConfig(steps=train_steps, score_threshold=0.15,
                                **dict(OVERFIT, batch_size=4))
        self.dir = Path(workdir)
        self.image_dir, self.calib_dir = self.dir / "images", self.dir / "calib"
        self.out_dir = self.dir / "preds"
        self.ckpt, self.config_path = self.dir / "final.ckpt", self.dir / "run.cfg"
        self.reference = {}

    def setup(self):
        samples = _scene_samples(self.seed, 2, self.train_scenes)
        for i in range(self.images):
            scene = data.generate_synthetic_scene(_scene_seed(self.seed, 3, i))
            data.scene_to_files(scene, f"{i:06d}", self.image_dir, self.dir / "labels", self.calib_dir)
        cfg = self.config
        params, adam_arrays, adam_t, steps = _train_in_child(cfg, samples)
        checkpoint.save_checkpoint(self.ckpt, params, step=steps, config_hash=cfg.model_hash(),
                                   extra_arrays=adam_arrays, meta={"adam_t": adam_t})
        self.config_path.write_text(cfg.to_text())

    def _reference(self):
        """Expected prediction file text per stem, from the library path."""
        loaded = checkpoint.load_checkpoint(self.ckpt)
        model = pipeline.MonoPGCModel(self.config)
        model.load_state(loaded["params"])
        samples, shapes = [], {}
        for path in sorted(self.image_dir.glob("*.ppm")):
            image = data.load_image(path)
            calib = data.read_calib_file(self.calib_dir / f"{path.stem}.txt")
            samples.append(Sample(image=image, calib=calib, stem=path.stem))
            shapes[path.stem] = (calib, image.shape[1:])
        expected = {}
        for stem, dets in pipeline.predictions_on_samples(model, samples).items():
            calib, hw = shapes[stem]
            lines = []
            for det in dets:
                label = detection_to_label(det)
                label.bbox2d = detection_bbox2d(det, calib, hw)
                lines.append(data.format_kitti_label(label, include_score=True))
            expected[stem] = "\n".join(lines) + ("\n" if lines else "")
        return expected

    def _command(self):
        return ["infer", "--config", str(self.config_path), "--checkpoint", str(self.ckpt),
                "--image-dir", str(self.image_dir), "--calib-dir", str(self.calib_dir),
                "--out", str(self.out_dir)]

    def _verify(self, code, m, label):
        m.check(code == 0, f"{label}: exit code {code}")
        written = {p.stem: p for p in self.out_dir.glob("*.txt")}
        m.check(sorted(written) == sorted(self.reference),
                f"{label}: {len(written)} prediction files for {len(self.reference)} images")
        for stem, expected in self.reference.items():
            text = written[stem].read_text() if stem in written else None
            try:
                parsed = [data.parse_kitti_label(line) for line in (text or "").splitlines()]
                parses = all(obj.score is not None for obj in parsed)
            except MonoPGCError:
                parses = False
            m.check(parses, f"{label}: {stem}.txt has a line that does not parse")
            m.check(text == expected, f"{label}: {stem}.txt differs from predictions_on_samples")

    def warmup(self, m):
        self.reference = self._reference()
        detections = sum(text.count("\n") for text in self.reference.values())
        m.check(detections > 0, "the checkpoint decodes no detections on the images")
        m.notes["detections"] = detections

    def measure(self, seconds, m, tracer=None):
        argv = self._command()
        ops = 0
        start = perf()
        while ops < MIN_OPS or perf() - start < seconds:
            # each command's own files are the ones checked
            shutil.rmtree(self.out_dir, ignore_errors=True)
            if tracer is not None:
                tracer.begin_op()
            t0 = perf()
            code, _ = _quiet_cli(argv)
            m.op_seconds.append(perf() - t0)
            ops += 1
            m.items += self.images
            self._verify(code, m, f"command {ops}")
        if tracer is not None:
            tracer.finish()


# -- evaluation scenes --------------------------------------------------------------------

# A KITTI-sized camera: the package's own scene generator draws 96x96 frames
# whose boxes are nearly all under the 25 px minimum height, with occlusion
# and truncation always 0, which would leave the easy/moderate/hard buckets
# empty. These label-only scenes use KITTI geometry and mixed difficulties.
KITTI_CAMERA = (721.5377, 609.5593, 172.854)   # focal, cx, cy
KITTI_IMAGE = (375, 1242)                      # height, width
CLASS_SHAPES = {                               # mean (h, w, l) in meters
    "Car": (1.53, 1.63, 3.88),
    "Pedestrian": (1.76, 0.66, 0.84),
    "Cyclist": (1.74, 0.60, 1.76),
}
CLASS_CYCLE = ("Car", "Car", "Car", "Pedestrian", "Cyclist")


def _wrap(angle):
    return (angle + math.pi) % (2 * math.pi) - math.pi


def _with_box(obj, calib, occlusion):
    """Finish a label: clipped 2D box, truncation, occlusion and alpha."""
    uv, depth = calib.project(obj.corners3d())
    if (depth <= 0.5).any():
        return None
    h, w = KITTI_IMAGE
    full = (uv[:, 0].min(), uv[:, 1].min(), uv[:, 0].max(), uv[:, 1].max())
    box = (max(full[0], 0.0), max(full[1], 0.0), min(full[2], w - 1.0), min(full[3], h - 1.0))
    if box[2] - box[0] < 2 or box[3] - box[1] < 2:
        return None
    area = lambda b: (b[2] - b[0]) * (b[3] - b[1])
    x, _, z = obj.location
    return LabeledObject(
        class_name=obj.class_name, truncation=round(1.0 - area(box) / area(full), 2),
        occlusion=occlusion, alpha=_wrap(obj.rotation_y - math.atan2(x, z)), bbox2d=box,
        dimensions=obj.dimensions, location=obj.location, rotation_y=obj.rotation_y,
        score=obj.score)


def eval_scene(rng, index, calib):
    """Ground truth for one frame: 1 to 4 objects, a DontCare region every 4th frame."""
    focal, cx, _ = KITTI_CAMERA
    objects = []
    for j in range(1 + index % 4):
        cls = CLASS_CYCLE[(index + j) % len(CLASS_CYCLE)]
        for _ in range(50):
            z = rng.uniform(5.0, 45.0)
            x = rng.uniform(-0.9, 0.9) * z * cx / focal
            dims = tuple(float(d * math.exp(rng.normal(0.0, 0.06))) for d in CLASS_SHAPES[cls])
            if all(math.hypot(x - o.location[0], z - o.location[2])
                   > 0.5 * (max(dims) + max(o.dimensions)) + 0.5 for o in objects):
                break
        else:
            continue
        obj = LabeledObject(
            class_name=cls, truncation=0.0, occlusion=0, alpha=0.0, bbox2d=(0.0, 0.0, 1.0, 1.0),
            dimensions=dims, location=(x, 1.65 + rng.normal(0.0, 0.05), z),
            rotation_y=rng.uniform(-math.pi, math.pi))
        obj = _with_box(obj, calib, int(rng.choice(3, p=(0.6, 0.3, 0.1))))
        if obj is not None:
            objects.append(obj)
    if index % 4 == 0:
        objects.append(LabeledObject(
            class_name=DONTCARE, truncation=-1.0, occlusion=-1, alpha=-10.0,
            bbox2d=(100.0, 150.0, 160.0, 190.0), dimensions=(-1.0, -1.0, -1.0),
            location=(-1000.0, -1000.0, -1000.0), rotation_y=-10.0))
    return objects


def _moved(obj, rng, calib, xz_sigma, score):
    x, y, z = obj.location
    moved = LabeledObject(
        class_name=obj.class_name, truncation=0.0, occlusion=0, alpha=0.0,
        bbox2d=(0.0, 0.0, 1.0, 1.0),
        dimensions=tuple(float(d * math.exp(rng.normal(0.0, 0.03))) for d in obj.dimensions),
        location=(x + rng.normal(0.0, xz_sigma), y + rng.normal(0.0, 0.03),
                  z + rng.normal(0.0, xz_sigma)),
        rotation_y=_wrap(obj.rotation_y + rng.normal(0.0, 0.05)), score=score)
    return _with_box(moved, calib, 0) or dataclasses.replace(obj, score=score)


def eval_predictions(rng, index, gt, calib):
    """Jittered detections: every 7th object dropped, 0 to 2 false positives a frame.

    Drop and false-positive counts follow the frame index, not the seed, so
    every seed asks for the same amount of matching work.
    """
    preds = []
    real = [o for o in gt if not o.ignorable]
    for j, obj in enumerate(real):
        if (index + j) % 7 == 3:
            continue
        sigma = 0.02 + 0.004 * obj.location[2]
        preds.append(_moved(obj, rng, calib, sigma, float(rng.uniform(0.2, 1.0))))
    for k in range(index % 3):
        if real and k == 0:
            base = real[int(rng.integers(len(real)))]
            preds.append(_moved(base, rng, calib, 1.5, float(rng.uniform(0.05, 0.8))))
        else:
            z = rng.uniform(5.0, 45.0)
            fake = LabeledObject(
                class_name="Car", truncation=0.0, occlusion=0, alpha=0.0,
                bbox2d=(0.0, 0.0, 1.0, 1.0), dimensions=CLASS_SHAPES["Car"],
                location=(rng.uniform(-0.5, 0.5) * z, 1.65, z),
                rotation_y=rng.uniform(-math.pi, math.pi), score=float(rng.uniform(0.05, 0.8)))
            preds.append(_with_box(fake, calib, 0) or fake)
    return preds


class EvalAp40:
    """`monopgc eval` over a few hundred seeded KITTI-geometry label files.

    Predictions are ground truth with seeded jitter, dropped objects and
    false positives, sized so AP sits mid-range and matching does both
    true- and false-positive work. An operation is one whole command. It
    never touches the model, so it is the control for model-side changes.
    """

    name = "eval_ap40"

    def __init__(self, workdir, seed, scenes=200):
        self.seed = seed
        self.scenes = scenes
        self.dir = Path(workdir)
        self.gt_dir, self.pred_dir = self.dir / "gt", self.dir / "pred"
        self.exact_dir, self.out_dir = self.dir / "exact", self.dir / "report"
        self.reference = None

    def setup(self):
        focal, cx, cy = KITTI_CAMERA
        calib = CameraCalibration.from_pinhole(focal, focal, cx, cy)
        rng = np.random.default_rng(_scene_seed(self.seed, 4, 0))
        for d in (self.gt_dir, self.pred_dir, self.exact_dir):
            d.mkdir(parents=True, exist_ok=True)
        for i in range(self.scenes):
            gt = eval_scene(rng, i, calib)
            stem = f"{i:06d}"
            data.write_label_file(self.gt_dir / f"{stem}.txt", gt)
            data.write_label_file(self.pred_dir / f"{stem}.txt",
                                  eval_predictions(rng, i, gt, calib), include_score=True)
            data.write_label_file(self.exact_dir / f"{stem}.txt",
                                  [dataclasses.replace(o, score=1.0) for o in gt
                                   if not o.ignorable],
                                  include_score=True)

    def _command(self, pred_dir):
        return ["eval", "--gt", str(self.gt_dir), "--pred", str(pred_dir), "--out", str(self.out_dir)]

    def warmup(self, m):
        code, _ = _quiet_cli(self._command(self.exact_dir))
        values = _report_values(self.out_dir)
        m.check(code == 0 and values and all(v == 100.0 for v in values.values()),
                f"exact-copy control: exit {code}, populated buckets {values}")

    def measure(self, seconds, m, tracer=None):
        argv = self._command(self.pred_dir)
        reference = None
        ops = 0
        start = perf()
        while ops < MIN_OPS or perf() - start < seconds:
            if tracer is not None:
                tracer.begin_op()
            t0 = perf()
            code, table = _quiet_cli(argv)
            m.op_seconds.append(perf() - t0)
            ops += 1
            m.items += self.scenes
            reference = reference or table
            m.check(code == 0 and table == reference,
                    f"command {ops}: exit {code} or table differs from command 1")
        if tracer is not None:
            tracer.finish()
        values = _report_values(self.out_dir)
        m.notes["mean_ap"] = sum(values.values()) / max(len(values), 1)
        m.notes["populated_buckets"] = len(values)


def _report_values(out_dir):
    """Populated AP buckets of a written metrics.kv: {key: percent}."""
    values = {}
    for line in (Path(out_dir) / "metrics.kv").read_text().splitlines():
        key, _, value = line.partition("=")
        if value != "n/a":
            values[key] = float(value)
    return values


WORKLOADS = {w.name: w for w in (TrainOverfit, InferCli, EvalAp40)}
