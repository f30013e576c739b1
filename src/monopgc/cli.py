"""Command line: monopgc train | infer | eval | selfcheck.

Exit codes, each an error type's `exit_code`, picked only in `main`: 0
success; 1 a failed selfcheck or unmatched eval stems; 2 a configuration,
usage or input error (a bad option or value, or a missing, unreadable or
malformed input file or directory); 3 a non-finite training loss
(diagnostics in nan_dump.txt); 4 a helper that ended without sending its
results. Ablation toggles (--no-dcpm, --no-dsat, --pe) mirror the module
on/off study rows. Only `train` takes `--seed`: `infer` loads every
parameter from its checkpoint.

Kitti-mode `train` and `infer` read every input through `_load_samples`
before they write anything. Training needs labels and their calibration;
`infer` without a calibration directory gives each image the synthetic
camera, `data.synthetic_calibration`. `infer` writes its prediction files
only once `predictions_on_samples` has returned every image's detections.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import evaluation as ev
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, load_config
from .data import (Sample, _stem_files, load_image, read_calib_file, read_label_file,
                   synthetic_calibration, write_label_file)
from .dsat import PE_KINDS
from .errors import ConfigError, MonoPGCError, TrainingAborted
from .head import detection_bbox2d, detection_to_label
from .pipeline import MonoPGCModel, predictions_on_samples, train
from .selfcheck import run_selfcheck

EXIT_OK = 0
EXIT_CHECK_FAILED = 1


def _add_common(parser):
    parser.add_argument("--config", help="key=value config file")
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
    p_train.add_argument("--seed", type=int, help="override run.seed")
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
    if getattr(args, "steps", None) is not None:
        cfg = replace(cfg, steps=args.steps)
    if getattr(args, "scenes", None) is not None:
        cfg = replace(cfg, scenes=args.scenes)
    cfg.validate()
    return cfg


def cmd_train(args):
    cfg = _load_run_config(args)
    if cfg.mode == "kitti":
        if not cfg.image_dir:
            raise ConfigError("kitti mode needs data.image_dir")
        if not cfg.label_dir:
            raise ConfigError("kitti mode training needs data.label_dir: without labels "
                              "every target is empty and the model learns to detect nothing")
        if not cfg.calib_dir:
            raise ConfigError("kitti mode with data.label_dir needs data.calib_dir: "
                              "training targets are the labels projected through the calibration")
    samples = (_load_samples(cfg, cfg.image_dir, cfg.label_dir, cfg.calib_dir)
               if cfg.mode == "kitti" else None)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    log_path = out_dir / "train.log"
    try:
        result, _ = train(cfg, samples=samples, log_fn=print)
    except TrainingAborted as exc:
        dump = out_dir / "nan_dump.txt"
        dump.write_text(exc.diagnostics + "\n")
        raise TrainingAborted(f"{exc}; diagnostics in {dump}", exc.diagnostics) from None

    log_path.write_text("\n".join(result.log_lines) + "\n")
    ckpt = out_dir / "final.ckpt"
    save_checkpoint(ckpt, result.model.parameters(), step=len(result.losses),
                    config_hash=cfg.model_hash())
    (out_dir / "config.txt").write_text(cfg.to_text())
    print(f"wrote {log_path} and {ckpt}")
    return EXIT_OK


def _load_samples(cfg, image_dir, label_dir, calib_dir):
    """Every `*.ppm` of image_dir, in stem order, as a size-checked Sample with
    its `<stem>.txt` calibration (the synthetic camera without calib_dir) and,
    with label_dir, its `<stem>.txt` labels."""
    samples = []
    for path in _stem_files(image_dir, ".ppm", "image").values():
        image = load_image(path)
        if image.shape[1:] != cfg.image_hw:  # another size would fail deep inside the model
            h, w = image.shape[1:]
            raise ConfigError(f"{path} is {h}x{w} (height x width), but data.image_height x "
                              f"data.image_width is {cfg.image_height}x{cfg.image_width}")
        calib = (read_calib_file(Path(calib_dir) / f"{path.stem}.txt") if calib_dir
                 else synthetic_calibration(*cfg.image_hw))
        objects = read_label_file(Path(label_dir) / f"{path.stem}.txt") if label_dir else None
        samples.append(Sample(image=image, calib=calib, objects=objects, stem=path.stem))
    return samples


def cmd_infer(args):
    cfg = _load_run_config(args)
    loaded = load_checkpoint(args.checkpoint)
    if loaded["meta"].get("config_hash") != cfg.model_hash():
        raise ConfigError("checkpoint config hash does not match the supplied config")
    model = MonoPGCModel(cfg)
    model.load_state(loaded["params"])

    samples = _load_samples(cfg, args.image_dir, None, args.calib_dir)
    if not samples:
        print("warning: no .ppm images found, nothing to do", file=sys.stderr)
        return EXIT_OK

    predictions = predictions_on_samples(model, samples)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for sample in samples:
        labels = []
        for det in predictions[sample.stem]:
            lbl = detection_to_label(det)
            lbl.bbox2d = detection_bbox2d(det, sample.calib, sample.image.shape[1:])
            labels.append(lbl)
        write_label_file(out_dir / f"{sample.stem}.txt", labels, include_score=True)
    print(f"wrote {len(samples)} prediction files to {out_dir}")
    return EXIT_OK


def cmd_eval(args):
    predictions, ground_truth = ev.load_directory_pairs(args.gt, args.pred)
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
    args = build_parser().parse_args(argv)
    commands = {"train": cmd_train, "infer": cmd_infer, "eval": cmd_eval,
                "selfcheck": cmd_selfcheck}
    try:
        return commands[args.command](args)
    except MonoPGCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
