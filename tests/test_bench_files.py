"""Shape of the committed BENCH_<n>.json files at the root of the repo.

Each file records a before/after measurement of one change: the parent's
and the change's ``bench/run.py --workload all`` runs, untraced and
traced.  The workloads and end-to-end metrics are spelled out here, not
read from BENCHMARK.json, so an older file stays valid when a later
change adds a workload or a metric.
"""

import json
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("gflow_core", "gflow_flow", "ball_tree", "newton_scenes")
END_TO_END = ("setup_s", "wall_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")
BENCH_FILES = sorted(REPO.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES
    for path in BENCH_FILES:
        assert re.fullmatch(r"BENCH_\d+\.json", path.name), path.name


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_shape(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["bench"] == int(path.stem.split("_")[1])
    for side in ("parent", "change"):
        runs = doc[side]
        for run in ("run_all_trace0", "run_all_trace1"):
            assert isinstance(runs[run]["metrics"], dict) and runs[run]["metrics"], (side, run)
        metrics = runs["run_all_trace0"]["metrics"]
        for workload in WORKLOADS:
            for name in END_TO_END:
                value = metrics[f"{workload}.{name}"]
                assert isinstance(value, (int, float)) and value >= 0, (side, workload, name)
            traced = runs["run_all_trace1"]["metrics"]
            assert any(key.startswith(f"{workload}.") for key in traced), (side, workload)
