"""BENCHMARK.json agrees with what run.py prints."""

import json
import re
from pathlib import Path

from perfbench import metrics
from perfbench.workloads import WORKLOADS

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metrics_match_the_printed_tables():
    end_to_end = {m["name"]: m for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m for m in SPEC["per_layer"]}
    assert list(end_to_end) == metrics.REPORTED_END_TO_END
    assert list(per_layer) == list(metrics.PER_LAYER)
    for name, metric in end_to_end.items():
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["unit"] == metrics.END_TO_END[name]
        assert 0 < metric["bound"] <= 0.25
    for name, metric in per_layer.items():
        assert set(metric) == {"name", "unit", "better"}
        assert metric["unit"] == metrics.PER_LAYER[name]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"])
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("higher", "lower")


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
