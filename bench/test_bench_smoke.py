"""Tier-1 hook: the benchmark itself must keep working.

Runs ``bench/run.py --smoke`` (all eight workloads on second-sized
programs, one untraced and one traced pass) and checks what the real
runs rely on: every named metric is there, finite and has a unit, each
traced workload's layer self times add up to its wall time, and no
output check fails.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_smoke_pass_reports_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--repeats", "1", "--trace",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = json.loads(out.read_text())
    assert list(doc["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, row in doc["workloads"].items():
        assert row["ops_failed"] == 0, (name, row["failures"])
        assert row["ops_attempted"] > 0
        for metric in spec["end_to_end"]:
            assert metric["unit"]
            value = row["metrics"][metric["name"]]["median"]
            assert math.isfinite(value) and value > 0, (name, metric["name"], value)
        for metric in spec["per_layer"]:
            assert metric["unit"]
            value = row["per_layer"][metric["name"]]
            assert math.isfinite(value) and value >= 0, (name, metric["name"], value)
        assert abs(row["per_layer"]["trace.layer_sum_ratio"] - 1.0) <= 0.05, name
    # The layers a workload exists to exercise are actually entered.
    layers = {name: row["per_layer"] for name, row in doc["workloads"].items()}
    assert layers["merge_search"]["engine.merges"] > 0
    assert layers["merge_search"]["search.pick_s"] > 0
    assert layers["par2_wc"]["parallel.partitions"] > 0
    assert layers["campaign_wc"]["campaign.checkpoint_epochs"] > 0
    assert layers["campaign_wc"]["campaign.checkpoint_bytes"] > 0
    assert layers["store_cold"]["solver.store_inserts"] > 0
    assert layers["store_warm"]["solver.store_hit_ratio"] > 0
    assert layers["plain_wc"]["engine.merges"] == 0


def test_contract_run_prints_one_json_object():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "store_warm", "--seed", "7",
         "--seconds", "0.5", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
