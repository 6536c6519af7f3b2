"""The keys of every checked-in BENCH_*.json (tools/bench_record.py); no timing is checked."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
FILES = sorted(ROOT.glob("BENCH_*.json"))

TOP = {"schema", "label", "seconds", "meta", "workloads"}
META = {"commit", "src_sha256", "seed", "nproc", "python", "loadavg"}
STATS = {"median", "q1", "q3", "n", "unit"}
SCALED = {"wall_s", "cpu_s", "setup_s"}  # the metrics perfbench also prints a raw median for


def test_a_record_is_checked_in():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_bench_file_keys(path):
    text = path.read_text()
    data = json.loads(text)
    assert text == json.dumps(data, sort_keys=True, indent=1) + "\n"  # canonical, as written
    assert set(data) == TOP and data["schema"] == 1
    assert path.name == f"BENCH_{data['label']}.json"
    assert data["seconds"] == 38  # every record runs perfbench for the same time
    names = {w["name"] for w in BENCHMARK["workloads"]}
    assert set(data["workloads"]) == names
    for meta in [data["meta"]] + [row["trace_meta"] for row in data["workloads"].values()]:
        assert set(meta) == META
        assert isinstance(meta["commit"], str) and len(meta["commit"]) == 40  # names its commit
        assert meta["seed"] == 0  # perfbench's default seed
        assert len(meta["src_sha256"]) == 64
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"] for m in BENCHMARK["per_layer"]}
    for row in data["workloads"].values():
        assert set(row) == {"end_to_end", "speed_factor", "fail_ratio", "per_layer", "trace_meta"}
        assert set(row["end_to_end"]) == set(e2e)
        for metric, stats in row["end_to_end"].items():
            assert set(stats) == STATS | ({"raw_median"} if metric in SCALED else set())
            assert stats["unit"] == e2e[metric] and isinstance(stats["n"], int)
            assert all(isinstance(stats[k], (int, float)) for k in ("median", "q1", "q3"))
        assert set(row["speed_factor"]) == {"median", "min", "max"}
        assert set(row["fail_ratio"]) == {"failed", "attempted"}
        assert layers <= set(row["per_layer"])
        for metric in row["per_layer"].values():
            assert set(metric) == {"value", "unit"} and isinstance(metric["value"], (int, float))
