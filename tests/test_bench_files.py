"""The committed benchmark results, `BENCH_*.json` at the repository root.

Each is the `--out` file of `python3 perfbench/run.py --all`, kept so the
numbers of successive changes can be read side by side. These tests keep
every such file machine-readable: it parses, and each workload's untraced
run names its throughput and where it was measured.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_are_committed():
    assert BENCH_FILES, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_carries_throughput_and_provenance(path):
    bench = json.loads(path.read_text())
    assert bench["results"], path.name
    for workload, runs in bench["results"].items():
        untraced = runs["trace0"]
        ops_per_s = untraced["result"]["metrics"]["ops_per_s"]["value"]
        assert isinstance(ops_per_s, (int, float)) and ops_per_s > 0, workload
        provenance = untraced["report"]["provenance"]
        assert provenance["git_commit"], workload
        assert provenance["workload"] == workload
        assert provenance["seed"] == bench["seed"], workload
