"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, with every output check on.

Run it with ``python3 -m pytest perfbench/test_smoke.py`` from the root of
the repository.  The Tier-1 suite collects only ``tests/`` and leaves it out.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_smoke_mode_checks_every_workload_and_prints_every_metric():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 2 * len(SPEC["workloads"])
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for plain, traced in zip(results[::2], results[1::2]):
        for result in (plain, traced):
            assert result["correct"] is True
            assert result["failed"] == 0 and result["attempted"] > 0
        assert {k: v["unit"] for k, v in plain["metrics"].items()} == end_to_end
        assert {k: v["unit"] for k, v in traced["metrics"].items()} == per_layer
        assert all(v["value"] > 0 for v in plain["metrics"].values())
