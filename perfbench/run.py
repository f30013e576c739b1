"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train_overfit --seed 1 --seconds 20 --trace 0

Run from the root of a monopgc checkout; the package is imported from its
`src/`. With `--trace 0` the last stdout line holds the end-to-end metrics
listed in BENCHMARK.json; with `--trace 1` it holds the per-layer metrics
of a traced run (half the time untraced, half traced, so the tracing
overhead is measured too). Working files go to `.perfbench/` under the
checkout; results and span files stay there after the run.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: default BLAS threading is slower on these
# small GEMMs and adds scheduler noise on a small machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# set-up, warm-up included, runs at least this often and for at least this long;
# setup_s is the median
SETUP_REPEATS, SETUP_SECONDS = 3, 1.0


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with ten samples or fewer no
    percentile qualifies and the maximum is returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def environment():
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def end_to_end(m, setup_seconds):
    tail, pct, n = tail_percentile(m.op_seconds)
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "op_ms.p50": 1e3 * statistics.median(m.op_seconds),
        "op_ms.tail": 1e3 * tail,
        "items_per_s": m.items / sum(m.op_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"tail_percentile": round(pct, 1), "ops": n}


def layer_metrics(tracer, traced):
    """Per-layer metrics of the traced operations, per operation."""
    from tracer import FORWARD, KERNEL_GROUPS, STAGES

    ops = max(tracer.ops, 1)

    def per_op_ms(seconds):
        return 1e3 * seconds / ops

    def total(name):
        return tracer.span_stats(name)[1]

    metrics = {}
    for group in KERNEL_GROUPS:
        metrics[f"numerics.{group}.calls"] = tracer.kernel_calls[group] / ops
        metrics[f"numerics.{group}.fwd_ms"] = per_op_ms(tracer.kernel_fwd[group])
        metrics[f"numerics.{group}.bwd_ms"] = per_op_ms(tracer.group_vjp_seconds(group))
    forwards = tracer.span_stats(FORWARD)[0]
    metrics["numerics.tape_nodes_per_forward"] = tracer.forward_nodes / forwards if forwards else 0.0
    metrics["numerics.matmul.rank1_calls"] = tracer.rank1_matmuls / ops
    metrics["numerics.matmul.gflop"] = tracer.flops["matmul"] / 1e9 / ops
    metrics["numerics.conv2d.gflop"] = tracer.flops["conv2d"] / 1e9 / ops
    metrics["numerics.backward.self_ms"] = per_op_ms(tracer.span_stats("numerics.Tensor.backward")[2])
    for function, stage in STAGES.items():
        metrics[f"{stage}.fwd_ms"] = per_op_ms(total(function))
        if stage != "geometry.grid":
            metrics[f"{stage}.bwd_ms"] = per_op_ms(tracer.stage_vjp_seconds(stage))
    grid_calls = tracer.span_stats("geometry.build_normalized_grid")[0]
    metrics["geometry.grid.calls"] = grid_calls / ops
    metrics["geometry.grid_useful_ratio"] = tracer.distinct_grids / grid_calls if grid_calls else 0.0
    metrics["pipeline.forward_ms"] = per_op_ms(total(FORWARD))
    metrics["pipeline.backward_ms"] = per_op_ms(total("numerics.Tensor.backward"))
    metrics["pipeline.adam_ms"] = per_op_ms(total("pipeline.Adam.step"))
    metrics["pipeline.loss_end"] = traced.notes.get("loss_end", 0.0)
    metrics["head.decode_ms"] = per_op_ms(total("head.decode_detections"))
    metrics["head.detections"] = tracer.detections / ops
    metrics["data.load_image_ms"] = per_op_ms(total("data.load_image"))
    metrics["data.read_calib_ms"] = per_op_ms(total("data.read_calib_file"))
    metrics["data.write_label_ms"] = per_op_ms(total("data.write_label_file"))
    metrics["checkpoint.load_ms"] = per_op_ms(total("checkpoint.load_checkpoint"))
    metrics["evaluation.load_pairs_ms"] = per_op_ms(total("evaluation.load_directory_pairs"))
    metrics["data.read_label_ms"] = per_op_ms(total("data.read_label_file"))
    metrics["evaluation.evaluate_all_ms"] = per_op_ms(total("evaluation.evaluate_all"))
    calls, _, self_s = tracer.span_stats("evaluation.average_precision_40")
    metrics["evaluation.ap40.calls"] = calls / ops
    metrics["evaluation.ap40.self_ms"] = per_op_ms(self_s)
    calls, inclusive, _ = tracer.span_stats("evaluation.bev_intersection_area")
    metrics["evaluation.bev_intersection.calls"] = calls / ops
    metrics["evaluation.bev_intersection_ms"] = per_op_ms(inclusive)
    metrics["evaluation.iou_useful_ratio"] = tracer.distinct_pairs / calls if calls else 0.0
    calls, inclusive, _ = tracer.span_stats("evaluation.iou_3d")
    metrics["evaluation.iou_3d.calls"] = calls / ops
    metrics["evaluation.iou_3d_ms"] = per_op_ms(inclusive)
    metrics["evaluation.format_report_ms"] = per_op_ms(total("evaluation.format_report"))
    return metrics


def setup_metrics(setup_tracer):
    """Per-layer metrics of one traced set-up."""
    return {
        "data.scene_gen_ms": 1e3 * setup_tracer.span_stats("data.generate_synthetic_scene")[1],
        "checkpoint.save_ms": 1e3 * setup_tracer.span_stats("checkpoint.save_checkpoint")[1],
        "checkpoint.mb": sum(setup_tracer.checkpoint_bytes) / 1e6,
    }


def report_lines(workload, m, metrics, detail, failed, attempted):
    """Human-readable lines naming each metric as users know it."""
    p50, tail = metrics["op_ms.p50"], metrics["op_ms.tail"]
    where = f"p{detail['tail_percentile']:g} of {detail['ops']}"
    if workload == "train_overfit":
        lines = [f"train_step_ms.p50 {p50:.2f} ms",
                 f"train_step_ms.tail {tail:.2f} ms ({where} steps)",
                 f"train_samples_per_s {metrics['items_per_s']:.3f} 1/s",
                 f"train_loss_end {m.notes.get('loss_end', math.nan):.6f} "
                 f"(over {m.notes['runs']} runs)"]
    elif workload == "infer_cli":
        lines = [f"infer_images_per_s {metrics['items_per_s']:.3f} 1/s",
                 f"infer_command_ms.p50 {p50:.2f} ms, tail {tail:.2f} ms ({where} commands)",
                 f"infer_detections {m.notes['detections']} on the image set"]
    else:
        lines = [f"eval_s {p50 / 1e3:.4f} s (p50), tail {tail / 1e3:.4f} s ({where} commands)",
                 f"eval_mean_ap {m.notes['mean_ap']:.2f} over {m.notes['populated_buckets']} buckets"]
    lines += [f"setup_s {metrics['setup_s']:.4f} s",
              f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB",
              f"error_rate {failed / attempted:.4f} ({failed} of {attempted} checks)"]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "monopgc" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no monopgc sources under {src} or no {spec_path.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import monopgc
    from tracer import Tracer
    from workloads import WORKLOADS, Measurement

    if Path(monopgc.__file__).resolve().parent != (src / "monopgc").resolve():
        print(f"error: monopgc imported from {monopgc.__file__}, not {src}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        m = Measurement()  # warm-up checks count with the measured operations
        result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": environment()}
        if args.trace == 0:
            setup_seconds = []
            while len(setup_seconds) < SETUP_REPEATS or sum(setup_seconds) < SETUP_SECONDS:
                t0 = time.perf_counter()
                workload.setup()
                workload.warmup(m)
                setup_seconds.append(time.perf_counter() - t0)
            gc.collect()
            workload.measure(args.seconds, m)
            metrics, detail = end_to_end(m, setup_seconds)
            result.update(detail, setup_seconds=setup_seconds)
            names = spec["end_to_end"]
        else:
            setup_tracer = Tracer(monopgc)
            with setup_tracer:
                workload.setup()
            workload.warmup(m)
            gc.collect()
            workload.measure(args.seconds / 2, m)
            traced = Measurement()
            tracer = Tracer(monopgc)
            with tracer:
                workload.measure(args.seconds / 2, traced, tracer=tracer)
            metrics = {**layer_metrics(tracer, traced), **setup_metrics(setup_tracer),
                       "trace.overhead_ratio": (statistics.median(traced.op_seconds)
                                                / statistics.median(m.op_seconds))}
            (out_dir / "traces").mkdir(parents=True, exist_ok=True)
            setup_tracer.write_spans(out_dir / "traces" / f"{tag}-setup.tsv", f"{tag}-setup")
            tracer.write_spans(out_dir / "traces" / f"{tag}.tsv", tag)
            result.update(spans=len(tracer.s_name), spans_dropped=tracer.spans_dropped,
                          traced_ops=tracer.ops)
            names = spec["per_layer"]
            m.failures += traced.failures
            m.attempted += traced.attempted
            m.notes.update(traced.notes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    expected = {entry["name"]: entry["unit"] for entry in names}
    if set(metrics) != set(expected):
        print(f"error: metrics {sorted(set(metrics) ^ set(expected))} disagree with "
              f"{spec_path.name}", file=sys.stderr)
        return 2
    failures, attempted = m.failures, m.attempted
    for line in failures:
        print(f"FAILED: {line}")
    if args.trace == 0:
        for line in report_lines(args.workload, m, metrics, detail, len(failures), attempted):
            print(line)
    else:
        print(f"trace.overhead_ratio {metrics['trace.overhead_ratio']:.3f} "
              f"(traced vs untraced operation p50); {result['spans']} spans kept, "
              f"{result['spans_dropped']} dropped")
    print("environment " + json.dumps(result["environment"]))
    line = {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in expected.items()}}
    result.update(line, failures=failures, notes=m.notes)
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    (out_dir / "results" / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
