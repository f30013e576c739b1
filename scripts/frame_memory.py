"""Memory and time of one training sample's forward, loss and backward.

    python3 scripts/frame_memory.py --height 368 --width 1232
    python3 scripts/frame_memory.py --height 96 --width 96 --checkout ../base

Run it as its own process: the peak RSS is the process's high-water mark.
It imports `<checkout>/src/monopgc` (default: the checkout this script is
in), builds the default model at the given frame size and one synthetic
scene, and pins OpenBLAS to one thread before numpy loads, as perfbench
does. Then:

- an untraced pass: VmRSS before, after forward and loss, and after
  backward, the seconds of each half, the loss, and the peak RSS
  (`getrusage(RUSAGE_SELF)`) once backward has run;
- a second pass under tracemalloc, on a fresh model with the same
  parameters and the same sample: the traced peak of forward, loss and
  backward, which counts numpy's arrays and does not depend on the heap's
  layout. Its time is not reported, since tracing slows the pass.

One JSON line is printed, with the environment (Python, numpy, BLAS, CPU)
as perfbench records it. VmRSS is read from /proc/self/status and is null
where that file does not exist.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def vm_rss_mb():
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return round(int(line.split()[1]) / 1024, 1)
    except OSError:
        pass
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--height", type=int, default=96)
    ap.add_argument("--width", type=int, default=96)
    ap.add_argument("--checkout", default=str(ROOT),
                    help="checkout whose src/monopgc is measured (default: this one)")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(Path(args.checkout).resolve() / "src"), str(ROOT)]
    from monopgc.config import RunConfig
    from monopgc.pipeline import MonoPGCModel, build_targets, make_synthetic_samples
    from perfbench.run import environment

    cfg = RunConfig(image_height=args.height, image_width=args.width, scenes=1)
    sample = make_synthetic_samples(cfg)[0]
    targets = build_targets(sample, cfg)

    report = {"height": args.height, "width": args.width,
              "checkout": str(Path(args.checkout).resolve())}
    model = MonoPGCModel(cfg)
    report["rss_before_mb"] = vm_rss_mb()
    t0 = time.perf_counter()
    loss, _ = model.loss(model.forward(sample), targets)
    t1 = time.perf_counter()
    report["rss_after_forward_and_loss_mb"] = vm_rss_mb()
    loss.backward()
    t2 = time.perf_counter()
    report["rss_after_backward_mb"] = vm_rss_mb()
    # ru_maxrss is in kilobytes on Linux
    report["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    report["forward_and_loss_s"] = round(t1 - t0, 3)
    report["backward_s"] = round(t2 - t1, 3)
    report["loss"] = loss.item()
    del model, loss

    model = MonoPGCModel(cfg)
    tracemalloc.start()
    try:
        loss, _ = model.loss(model.forward(sample), targets)
        report["tracemalloc_after_forward_and_loss_mb"] = round(
            tracemalloc.get_traced_memory()[0] / 1e6, 2)
        loss.backward()
        report["tracemalloc_peak_mb"] = round(tracemalloc.get_traced_memory()[1] / 1e6, 2)
    finally:
        tracemalloc.stop()
    report["environment"] = environment()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
