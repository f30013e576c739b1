"""Command line: monopgc train | infer | eval | selfcheck.

Exit codes: 0 success, 1 a check or evaluation mismatch, 2 configuration or
usage errors, 3 training aborted on a non-finite loss. Ablation toggles
(--no-dcpm, --no-dsat, --pe) mirror the module on/off study rows.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import evaluation as ev
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, load_config
from .data import load_image, write_label_file
from .dsat import PE_KINDS
from .errors import ConfigError, MonoPGCError
from .head import detection_bbox2d, detection_to_label
from .pipeline import (MonoPGCModel, TrainingAborted, make_synthetic_samples,
                       predictions_on_samples, train)
from .selfcheck import run_selfcheck

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NAN = 3


def _add_common(parser):
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int, help="override run.seed")
    parser.add_argument("--out", default="runs", help="output directory")
    parser.add_argument("--no-dcpm", action="store_true", help="disable the fusion module")
    parser.add_argument("--no-dsat", action="store_true", help="disable the coordinate transformer")
    parser.add_argument("--pe", choices=PE_KINDS, help="positional encoding kind")


def build_parser():
    parser = argparse.ArgumentParser(prog="monopgc",
                                     description="desk-scale monocular 3D detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train on synthetic scenes or KITTI-format data")
    _add_common(p_train)
    p_train.add_argument("--steps", type=int, help="override optim.steps")
    p_train.add_argument("--scenes", type=int, help="override synth.scenes")

    p_infer = sub.add_parser("infer", help="run a checkpoint over a directory of PPM images")
    _add_common(p_infer)
    p_infer.add_argument("--checkpoint", required=True)
    p_infer.add_argument("--image-dir", required=True)
    p_infer.add_argument("--calib-dir", help="per-image calibration files (defaults to synthetic intrinsics)")

    p_eval = sub.add_parser("eval", help="AP40 of prediction files against ground truth")
    p_eval.add_argument("--gt", required=True, help="ground-truth label directory")
    p_eval.add_argument("--pred", required=True, help="prediction directory (16-field lines)")
    p_eval.add_argument("--out", default="runs", help="where to write the report")

    p_check = sub.add_parser("selfcheck", help="run the invariant suite")
    p_check.add_argument("--only", help="module prefix filter, e.g. geometry")
    p_check.add_argument("--corrupt-sobel", action="store_true",
                         help=argparse.SUPPRESS)  # fault-injection test hook
    return parser


def _load_run_config(args):
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "no_dcpm", False):
        cfg = replace(cfg, use_dcpm=False)
        if cfg.pe in ("dpe", "dgpe"):
            cfg = replace(cfg, pe="ape")
    if getattr(args, "no_dsat", False):
        cfg = replace(cfg, use_dsat=False)
    if getattr(args, "pe", None):
        cfg = replace(cfg, pe=args.pe)
    if getattr(args, "steps", None):
        cfg = replace(cfg, steps=args.steps)
    if getattr(args, "scenes", None):
        cfg = replace(cfg, scenes=args.scenes)
    cfg.validate()
    return cfg


def cmd_train(args):
    cfg = _load_run_config(args)
    if cfg.mode == "kitti":
        if not cfg.image_dir:
            raise ConfigError("kitti mode needs data.image_dir")
        if cfg.label_dir and not cfg.calib_dir:
            raise ConfigError("kitti mode with data.label_dir needs data.calib_dir: "
                              "training targets are the labels projected through the calibration")
    samples = _load_kitti_samples(cfg) if cfg.mode == "kitti" else None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    log_path = out_dir / "train.log"
    lines = []

    def log(line):
        lines.append(line)
        print(line)

    try:
        result, _ = train(cfg, samples=samples, log_fn=log)
    except TrainingAborted as exc:
        dump = out_dir / "nan_dump.txt"
        dump.write_text(exc.diagnostics + "\n")
        print(f"error: {exc}; diagnostics in {dump}", file=sys.stderr)
        return EXIT_NAN

    log_path.write_text("\n".join(result.log_lines) + "\n")
    ckpt = out_dir / "final.ckpt"
    save_checkpoint(ckpt, result.model.parameters(), step=len(result.losses),
                    config_hash=cfg.model_hash())
    (out_dir / "config.txt").write_text(cfg.to_text())
    print(f"wrote {log_path} and {ckpt}")
    return EXIT_OK


def _check_image_size(cfg, path, image):
    """The model is built for one input size; another one fails deep inside it."""
    if image.shape[1:] != cfg.image_hw:
        h, w = image.shape[1:]
        raise ConfigError(f"{path} is {h}x{w} (height x width), but data.image_height x "
                          f"data.image_width is {cfg.image_height}x{cfg.image_width}")


def _load_kitti_samples(cfg):
    from .data import load_kitti_sample

    samples = []
    for stem in sorted(p.stem for p in Path(cfg.image_dir).glob("*.ppm")):
        sample = load_kitti_sample(stem, cfg.image_dir, cfg.label_dir or None,
                                   cfg.calib_dir or None)
        _check_image_size(cfg, Path(cfg.image_dir) / f"{stem}.ppm", sample.image)
        samples.append(sample)
    return samples


def cmd_infer(args):
    cfg = _load_run_config(args)
    loaded = load_checkpoint(args.checkpoint)
    if loaded["meta"].get("config_hash") != cfg.model_hash():
        print("error: checkpoint config hash does not match the supplied config",
              file=sys.stderr)
        return EXIT_CONFIG
    model = MonoPGCModel(cfg)
    model.load_state(loaded["params"])

    images = sorted(Path(args.image_dir).glob("*.ppm"))
    if not images:
        print("warning: no .ppm images found, nothing to do", file=sys.stderr)
        return EXIT_OK

    from .data import Sample, read_calib_file
    from .geometry import CameraCalibration

    # load and check every input first: a bad one must leave no partial output
    samples = []
    for path in images:
        image = load_image(path)
        _check_image_size(cfg, path, image)
        if args.calib_dir:
            calib = read_calib_file(Path(args.calib_dir) / f"{path.stem}.txt")
        else:
            h, w = image.shape[1:]
            calib = CameraCalibration.from_pinhole(1.1 * w, 1.1 * w, w / 2.0, h / 2.0)
        samples.append(Sample(image=image, calib=calib, stem=path.stem))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for sample in samples:
        outputs = model.forward(sample)
        dets = model.decode(outputs, sample.calib)
        labels = []
        for det in dets:
            lbl = detection_to_label(det)
            lbl.bbox2d = detection_bbox2d(det, sample.calib, sample.image.shape[1:])
            labels.append(lbl)
        write_label_file(out_dir / f"{sample.stem}.txt", labels, include_score=True)
    print(f"wrote {len(images)} prediction files to {out_dir}")
    return EXIT_OK


def cmd_eval(args):
    try:
        predictions, ground_truth = ev.load_directory_pairs(args.gt, args.pred)
    except MonoPGCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    results = ev.evaluate_all(predictions, ground_truth)
    table, kv = ev.format_report(results)
    print(table)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.txt").write_text(table + "\n")
    (out_dir / "metrics.kv").write_text(kv)
    print(f"wrote {out_dir / 'metrics.txt'} and {out_dir / 'metrics.kv'}")
    return EXIT_OK


def cmd_selfcheck(args):
    ok, results = run_selfcheck(only=args.only,
                                corrupt="sobel" if args.corrupt_sobel else None)
    if not ok:
        failing = [name for name, passed, _ in results if not passed]
        print("selfcheck FAILED: " + (", ".join(failing) or "no checks matched"),
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"selfcheck passed ({len(results)} checks)")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args)
        if args.command == "infer":
            return cmd_infer(args)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "selfcheck":
            return cmd_selfcheck(args)
    except MonoPGCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
