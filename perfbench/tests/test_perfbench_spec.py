"""The metrics the benchmark emits are exactly the ones BENCHMARK.json declares."""

from __future__ import annotations

import json
import time
from pathlib import Path

import rep
import run as bench_run
from tracer import LayerTracer
from workloads import WORKLOADS, build_reflect_outbreak

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_declared_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_are_computed():
    outcome = {"packets_in": 10, "peak_frames": 7, "captures": 1,
               "failed": 0, "attempted": 10}
    reps = [{"outcome": outcome, "run_s": 2.0, "setup_s": 0.5, "peak_rss_mb": 9.0}]
    result = bench_run.end_to_end(reps, None)
    for metric in SPEC["end_to_end"]:
        assert result[metric["name"]] > 0, metric["name"]
    assert result["pkts_per_s"] == 5.0


def test_per_layer_metrics_match_the_declaration():
    tracer = LayerTracer()
    with tracer:
        prepared = build_reflect_outbreak(seed=2)
        prepared.until = 2.0
        tracer.reset()
        start = time.perf_counter_ns()
        prepared.run()
        wall = time.perf_counter_ns() - start
    outcome = prepared.outcome()
    layers = rep.layer_metrics(tracer, {"generate_ms": 0.0, "records": 0}, wall,
                               outcome, rep.farm_stats_of(prepared))
    metrics = bench_run.per_layer([{"layers": layers}], wall / 1e9)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
