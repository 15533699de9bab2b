"""Tests for the benchmark's own code: input generation, metric names,
failure accounting and the tracer.  Run with ``python3 -m pytest perfbench``.
"""

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402
from worker import Runner  # noqa: E402
from workloads import END_TO_END, WORKLOADS, layer_unit, per_layer_names  # noqa: E402

TINY = {
    "eval-bow": dict(docs=60, vocab=80, users=10, user_rows=2),
    "induce-mlffn": dict(docs=40, vocab=50, lines=200),
    "cluster": dict(lines=400, small=40, small_k=4, large=60, large_k=4),
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    oracle_a, _ = gen.generate(workload, 5, tmp_path / "a", **TINY[workload])
    oracle_b, _ = gen.generate(workload, 5, tmp_path / "b", **TINY[workload])
    gen.generate(workload, 6, tmp_path / "c", **TINY[workload])
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert oracle_a == oracle_b
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_metric_names_are_well_formed_and_match_benchmark_json():
    names = list(END_TO_END) + per_layer_names()
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    for metric in spec["end_to_end"]:
        unit, better, bound = END_TO_END[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)
        assert metric["bound"] == bound
    assert [m["name"] for m in spec["per_layer"]] == per_layer_names()
    for metric in spec["per_layer"]:
        assert (metric["unit"], metric["better"]) == layer_unit(metric["name"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


@pytest.fixture
def tiny_eval(tmp_path, monkeypatch):
    oracle, _ = gen.generate("eval-bow", 3, tmp_path, **TINY["eval-bow"])
    monkeypatch.chdir(tmp_path)
    return oracle


def test_failing_command_counts_and_is_not_dropped(tiny_eval):
    extrinsic = WORKLOADS["eval-bow"][1]
    missing = dataclasses.replace(
        extrinsic, name="missing",
        argv=tuple("absent.csv" if a == "users.csv" else a for a in extrinsic.argv),
    )
    runner = Runner([WORKLOADS["eval-bow"][0], missing], tiny_eval, {})
    passes = runner.passes(0.0)
    assert (runner.attempted, runner.failed) == (2, 1)
    assert passes[0]["missing"]["ok"] is False
    worker = {"attempted": runner.attempted, "failed": runner.failed,
              "peak_rss_mb": 1.0}
    metrics = run.end_to_end(passes, [0.1], worker)
    assert metrics["ok_ratio"] == 0.5
    seconds = [r["seconds"] for r in passes[0].values()]
    assert metrics["pass_s"] == pytest.approx(sum(seconds))
    # the failed command scores 0 and stays in the mean with the good one
    assert metrics["quality"] == pytest.approx(passes[0]["intrinsic"]["quality"] / 2)


def test_wrong_output_and_changed_bytes_count_as_failures(tiny_eval):
    extrinsic = WORKLOADS["eval-bow"][1]
    runner = Runner([extrinsic], {"users": 999}, {})
    runner.passes(0.0)
    assert runner.failed == 1 and "scored users" in runner.errors[0]
    stale = {extrinsic.name: {"extrinsic.tsv": "0" * 64, "extrinsic.tsv.prov": ""}}
    runner = Runner([extrinsic], tiny_eval, stale)
    runner.passes(0.0)
    assert runner.failed == 1 and "differ" in runner.errors[0]


def test_tracer_records_spans_and_restores_the_program(tiny_eval):
    import importlib

    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in TARGETS}
    intrinsic = WORKLOADS["eval-bow"][0]
    untraced = Runner([intrinsic], tiny_eval, {})
    untraced.passes(0.0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Runner([intrinsic], tiny_eval, untraced.reference)
        record = traced.passes(0.0, tracer)[0]["intrinsic"]
    finally:
        tracer.uninstall()
    assert traced.failed == 0  # traced outputs hash equal to untraced ones
    layers = record["layers"]
    assert layers["numerics.ridge_fit.calls"] == 5
    assert layers["corpus.build_corpus.calls"] == 16  # load + 3 methods x 5 folds
    assert layers["cli.hashed_bytes"] > 0
    assert 0 < layers["cli.main.self_s"] < layers["cli.main.s"]
    for metric in intrinsic.layers:
        assert metric in layers, metric
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn
