"""plan.json and BENCHMARK.json list the same per-layer metrics, every
metric and workload a layer is said to move exists, and every layer is
measured on a workload of BENCHMARK.json."""

import json
import os

from perfbench import run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _load(*parts: str) -> dict:
    with open(os.path.join(ROOT, *parts)) as f:
        return json.load(f)


def test_plan_matches_benchmark_json():
    bench, plan = _load("BENCHMARK.json"), _load("perfbench", "plan.json")
    assert [(m["name"], m["unit"]) for m in plan["per_layer"]] == [
        (m["name"], m["unit"]) for m in bench["per_layer"]
    ]
    metrics = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    assert workloads <= set(run.WORKLOADS)
    for m in plan["per_layer"]:
        assert set(m["moves"]) <= metrics, m["name"]
        assert set(m["workloads"]) <= set(run.WORKLOADS), m["name"]
        assert set(m["workloads"]) & workloads, m["name"]
