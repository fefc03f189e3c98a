"""The benchmark records at the repository root: each ``BENCH_*.json`` names its change,
the layer it moved and its parent commit, and its claim names a workload and an end-to-end
metric that ``BENCHMARK.json`` declares, so a record cannot claim a figure the benchmark
never measures."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_bench_record_claims_a_declared_workload_and_metric():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {workload["name"] for workload in benchmark["workloads"]}
    metrics = {metric["name"] for metric in benchmark["end_to_end"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records, f"no BENCH_*.json in {ROOT}"
    for path in records:
        record = json.loads(path.read_text())
        for field in ("change", "layer", "parent_commit"):
            assert record.get(field), f"{path.name} has no {field}"
        claim = record.get("claim") or {}
        assert claim.get("workload") in workloads, \
            f"{path.name} claims workload {claim.get('workload')!r}, not one of {sorted(workloads)}"
        assert claim.get("metric") in metrics, \
            f"{path.name} claims metric {claim.get('metric')!r}, not one of {sorted(metrics)}"
