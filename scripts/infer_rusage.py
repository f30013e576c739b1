"""Page faults, share time and forward memory of repeated `monopgc infer` commands.

    python3 scripts/infer_rusage.py --seed 1201 --commands 12

Run from the root of a checkout. It builds perfbench's `infer_cli` inputs
for the seed (10 seeded 96x96 images with calibration files and a 20-step
checkpoint) in a temporary directory, then measures in a fresh process,
whose only children are the inference helpers, and prints one JSON line:

- per command: wall ms, the caller's minor page faults (`RUSAGE_SELF`)
  and the helper's (`RUSAGE_CHILDREN`: each command reaps its helper
  before it returns), and the peak RSS of caller and helpers;
- ms per image of the caller's own share in each command, against ms per
  image of the same images all in this process (`_step_processes` 1),
  run right after it; both timed around `pipeline._detections`;
- the tracemalloc peak of one image's forward and decode through
  `pipeline.predictions_on_samples`, in this process.

OpenBLAS is pinned to one thread before numpy loads, as perfbench does, so
each command splits its images between the caller and one helper per
further CPU.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from monopgc import cli, pipeline  # noqa: E402
from monopgc.checkpoint import load_checkpoint  # noqa: E402
from monopgc.config import load_config  # noqa: E402
from perfbench.workloads import InferCli  # noqa: E402


def _summary(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def _timed_shares(records):
    """Patch `pipeline._detections` to append (ms, images) of each share this
    process runs to `records`; a helper's shares are not recorded."""
    real, caller = pipeline._detections, os.getpid()

    def detections(model, samples, share):
        start = time.perf_counter()
        yield from real(model, samples, share)
        if os.getpid() == caller:
            records.append(((time.perf_counter() - start) * 1000.0, len(share)))

    pipeline._detections = detections


def _serial_pass(model, samples):
    """`predictions_on_samples` with every image in this process."""
    real = pipeline._step_processes
    pipeline._step_processes = lambda: 1
    try:
        pipeline.predictions_on_samples(model, samples)
    finally:
        pipeline._step_processes = real


def measure(workdir, seed, commands):
    workload = InferCli(workdir, seed)
    argv = workload._command()
    cfg = load_config(workload.config_path)
    model = pipeline.MonoPGCModel(cfg)
    model.load_state(load_checkpoint(workload.ckpt)["params"])
    samples = cli._load_samples(cfg, workload.image_dir, None, workload.calib_dir)
    shares = []
    _timed_shares(shares)
    rows = []
    for _ in range(commands):  # each command, then the same images serially
        shutil.rmtree(workload.out_dir, ignore_errors=True)
        shares.clear()
        before = (resource.getrusage(resource.RUSAGE_SELF),
                  resource.getrusage(resource.RUSAGE_CHILDREN))
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        wall = (time.perf_counter() - start) * 1000.0
        after = (resource.getrusage(resource.RUSAGE_SELF),
                 resource.getrusage(resource.RUSAGE_CHILDREN))
        if code != 0:
            raise SystemExit(f"monopgc infer exited {code}")
        (share_ms, share_images), = shares
        shares.clear()
        _serial_pass(model, samples)
        (serial_ms, serial_images), = shares
        rows.append({"wall_ms": wall,
                     "caller_minflt": after[0].ru_minflt - before[0].ru_minflt,
                     "helper_minflt": after[1].ru_minflt - before[1].ru_minflt,
                     "caller_share_ms_per_image": share_ms / share_images,
                     "serial_ms_per_image": serial_ms / serial_images,
                     "share_over_serial": (share_ms / share_images) / (serial_ms / serial_images)})

    tracemalloc.start()
    _serial_pass(model, samples[:1])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    later = rows[1:] or rows  # the first command also warms caches
    return {
        "seed": seed,
        "commands": rows,
        "after_the_first": {key: _summary([r[key] for r in later]) for key in rows[0]},
        "forward_decode_tracemalloc_peak_mb": peak / 2**20,
        "caller_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "helper_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--commands", type=int, default=12)
    parser.add_argument("--measure", help=argparse.SUPPRESS)  # inputs built by the caller
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure(Path(args.measure), args.seed, args.commands)))
        return
    with tempfile.TemporaryDirectory() as workdir:
        InferCli(workdir, args.seed).setup()
        subprocess.run([sys.executable, __file__, "--seed", str(args.seed),
                        "--commands", str(args.commands), "--measure", workdir], check=True)


if __name__ == "__main__":
    main()
