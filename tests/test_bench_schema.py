"""Every checked-in ``BENCH_*.json`` covers what ``BENCHMARK.json`` declares.

Reads the files only; the benchmark itself is not run.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
STATS = ("parent_median", "parent_q1", "parent_q3", "change_median")


def test_a_bench_file_is_checked_in():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_lists_every_workload_and_end_to_end_metric(path):
    bench = json.loads(path.read_text())
    assert bench.get("parent")
    for workload in BENCHMARK["workloads"]:
        metrics = bench["workloads"][workload["name"]]["metrics"]
        for metric in BENCHMARK["end_to_end"]:
            entry = metrics[metric["name"]]
            for stat in STATS:
                assert math.isfinite(entry[stat]), (workload["name"], metric["name"], stat)
