"""Tests for the perf-snapshot entry point (run_benchmarks.py)."""

from __future__ import annotations

import datetime
import importlib.util
import types
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "run_benchmarks",
    Path(__file__).resolve().parent.parent / "benchmarks" / "run_benchmarks.py",
)
run_benchmarks = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_benchmarks)


class _FixedDate:
    @staticmethod
    def today() -> datetime.date:
        return datetime.date(2026, 1, 2)


class TestDefaultOutputGuard:
    def test_existing_default_snapshot_is_never_overwritten(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(run_benchmarks, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(
            run_benchmarks, "datetime", types.SimpleNamespace(date=_FixedDate)
        )
        sections_run = []
        for name in dir(run_benchmarks):
            if name.startswith("bench_"):
                monkeypatch.setattr(
                    run_benchmarks,
                    name,
                    lambda quick, name=name: sections_run.append(name),
                )
        existing = tmp_path / "BENCH_2026-01-02.json"
        committed = b'{"date": "2026-01-02", "quick": false}\n'
        existing.write_bytes(committed)

        assert run_benchmarks.main([]) != 0

        assert sections_run == []
        assert existing.read_bytes() == committed
        err = capsys.readouterr().err
        assert str(existing) in err
        assert "--output" in err
