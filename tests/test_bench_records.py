"""Every committed BENCH_*.json records each workload and end-to-end metric of BENCHMARK.json."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_covers_every_workload_and_metric(path):
    record = json.loads(path.read_text())
    assert record["seeds"] and record["pairs"] >= 1 and record["host"]
    for workload in SPEC["workloads"]:
        rows = record["workloads"][workload["name"]]
        for metric in SPEC["end_to_end"]:
            row = rows[metric["name"]]
            assert row["unit"] == metric["unit"]
            for side in ("parent", "change"):
                stats = row[side]
                assert stats["q1"] <= stats["median"] <= stats["q3"]
