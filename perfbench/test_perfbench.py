"""Checks on the benchmark's tracer and workloads.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import monopgc  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from monopgc import pipeline  # noqa: E402
from monopgc.config import RunConfig  # noqa: E402

SMALL = {
    "train_overfit": dict(scenes=4, steps=2, batch_size=2),
    "infer_cli": dict(images=2, train_scenes=4, train_steps=2),
    "eval_ap40": dict(scenes=12),
}

COUNT_METRICS = (".calls", "tape_nodes_per_forward", "rank1_calls", ".gflop",
                 "head.detections", "_useful_ratio")


def _namespaces(tracer):
    spaces = dict(tracer.modules)
    for mod_name, cls_name, _ in tr.METHODS:
        spaces[f"{mod_name}.{cls_name}"] = getattr(tracer.modules[mod_name], cls_name)
    return {name: dict(vars(space)) for name, space in spaces.items()}


def _assert_restored(before, after):
    for space, attrs in before.items():
        for attr, value in attrs.items():
            assert after[space][attr] is value, f"{space}.{attr} is still replaced"
        for attr in set(after[space]) - set(attrs):
            assert not hasattr(after[space][attr], "__wrapped__"), f"{space}.{attr} was added"


def _traced_counts(name, seed, workdir):
    workload = wl.WORKLOADS[name](workdir, seed, **SMALL[name])
    workload.setup()
    workload.warmup(wl.Measurement())
    measured = wl.Measurement()
    tracer = tr.Tracer(monopgc)
    with tracer:
        workload.measure(0, measured, tracer=tracer)
    metrics = run.layer_metrics(tracer, measured)
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_METRICS)}


def test_uninstall_restores_every_attribute():
    tracer = tr.Tracer(monopgc)
    before = _namespaces(tracer)
    with tracer:
        assert monopgc.cli.load_image is not before["data"]["load_image"]
        assert monopgc.numerics.matmul is not before["numerics"]["matmul"]
        cfg = RunConfig()
        sample = pipeline.make_synthetic_samples(cfg)[0]
        pipeline.MonoPGCModel(cfg).forward(sample)
    _assert_restored(before, _namespaces(tracer))
    with pytest.raises(ZeroDivisionError):
        with tr.Tracer(monopgc):
            1 / 0
    _assert_restored(before, _namespaces(tracer))


def test_seed0_counts_match_roadmap():
    # ROADMAP item 1 counts 1,080 tape nodes for forward plus loss; the
    # forward pass alone makes 1,003 of them.
    cfg = RunConfig()
    sample = pipeline.make_synthetic_samples(cfg)[0]
    model = pipeline.MonoPGCModel(cfg)
    targets = pipeline.build_targets(sample, cfg)
    tracer = tr.Tracer(monopgc)
    with tracer:
        outputs = model.forward(sample)
        forward_nodes = tracer.nodes
        model.loss(outputs, targets)
    assert forward_nodes == tracer.forward_nodes == 1003
    assert tracer.nodes == 1080
    assert tracer.kernel_calls["matmul"] == 262
    assert tracer.kernel_calls["conv2d"] == 20


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_runs_repeat_their_counts(name, tmp_path):
    first = _traced_counts(name, 3, tmp_path / "a")
    second = _traced_counts(name, 3, tmp_path / "b")
    assert first == second
    model_side = first["numerics.matmul.calls"] > 0
    assert model_side == (name != "eval_ap40")


def test_infer_checks_fail_when_a_command_writes_nothing(tmp_path, monkeypatch):
    workload = wl.InferCli(tmp_path, 3, **SMALL["infer_cli"])
    workload.setup()
    workload.warmup(wl.Measurement())
    first = wl.Measurement()
    workload.measure(0, first)
    assert first.attempted and not first.failures
    # an infer command that finds no images exits 0 and writes nothing
    monkeypatch.setattr(wl.cli, "main", lambda argv: 0)
    second = wl.Measurement()
    workload.measure(0, second)
    assert second.failures


def test_tail_percentile_leaves_ten_samples_beyond():
    value, pct, n = run.tail_percentile([float(i) for i in range(30)])
    assert (value, n) == (19.0, 30)
    assert sum(x > value for x in range(30)) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "eval_ap40", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
