"""Tests for the perfbench snapshot and gate script (benchmarks/snapshot.py)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "snapshot", Path(__file__).resolve().parent.parent / "benchmarks" / "snapshot.py"
)
snapshot = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(snapshot)

WORKLOADS = ("packed-fixed", "numpy-sweep", "service-mixed", "exact-small")
METRICS = {"setup_s": 0.2, "primary_s": 0.01, "secondary_s": 0.03, "peak_rss_mb": 100.0}


def result_file(directory: Path, workload: str, scale: float = 1.0, **fields) -> str:
    """A perfbench result record whose end-to-end metrics are ``scale`` x METRICS."""
    record = {
        "workload": workload,
        "seed": 1,
        "seconds": 3.0,
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "environment": {"nproc": 2},
        "metrics": {
            name: {"value": value * scale, "unit": "MB" if name == "peak_rss_mb" else "s"}
            for name, value in METRICS.items()
        },
        **fields,
    }
    path = directory / f"result-{workload}-seed1-trace0.json"
    path.write_text(json.dumps(record))
    return str(path)


@pytest.fixture
def baseline(tmp_path) -> str:
    results = [result_file(tmp_path, workload) for workload in WORKLOADS]
    path = tmp_path / "baseline.json"
    assert snapshot.main(["write", str(path), *results]) == 0
    return str(path)


def fresh(tmp_path, scale: float = 1.0, skip: str | None = None, **fields) -> list[str]:
    directory = tmp_path / "fresh"
    directory.mkdir(exist_ok=True)
    return [
        result_file(directory, workload, scale, **fields)
        for workload in WORKLOADS
        if workload != skip
    ]


def test_write_round_trips_the_four_metrics(baseline):
    written = json.loads(Path(baseline).read_text())
    assert written["kind"] == "perfbench_snapshot" and written["date"]
    assert sorted(written["workloads"]) == sorted(WORKLOADS)
    for entry in written["workloads"].values():
        assert (entry["seed"], entry["seconds"], entry["attempted"], entry["failed"]) == (
            1, 3.0, 10, 0,
        )
        assert entry["environment"] == {"nproc": 2}
        assert {name: metric["value"] for name, metric in entry["metrics"].items()} == METRICS
        assert entry["metrics"]["peak_rss_mb"]["unit"] == "MB"


@pytest.mark.parametrize("scale,status", [(2.9, 0), (3.1, 1)])
def test_check_fails_past_the_threshold(tmp_path, baseline, scale, status):
    assert snapshot.THRESHOLD == 3.0
    assert snapshot.main(["check", baseline, *fresh(tmp_path, scale)]) == status


def test_check_fails_on_a_failed_output_check(tmp_path, baseline, capsys):
    assert snapshot.main(["check", baseline, *fresh(tmp_path, failed=1)]) == 1
    assert "1 of 10 output checks failed" in capsys.readouterr().out


def test_check_fails_on_an_incorrect_result(tmp_path, baseline):
    assert snapshot.main(["check", baseline, *fresh(tmp_path, correct=False)]) == 1


def test_check_fails_on_a_missing_workload(tmp_path, baseline, capsys):
    assert snapshot.main(["check", baseline, *fresh(tmp_path, skip="exact-small")]) == 1
    assert "exact-small: no result" in capsys.readouterr().out


def test_committed_quick_baseline_covers_every_workload():
    declared = json.loads((snapshot.ROOT / "BENCHMARK.json").read_text())["workloads"]
    committed = json.loads((snapshot.ROOT / "benchmarks" / "BENCH_quick_baseline.json").read_text())
    assert committed["kind"] == snapshot.KIND
    assert sorted(committed["workloads"]) == sorted(w["name"] for w in declared)
    assert all(entry["failed"] == 0 for entry in committed["workloads"].values())
