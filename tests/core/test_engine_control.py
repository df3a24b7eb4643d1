"""Cooperative control of streaming runs: ``stop_event`` and ``run_timeout``.

Both land at a chunk boundary *after* a durable checkpoint, so a drained
or deadlined run is exactly as resumable as an interrupted one — the
contract the serving layer's graceful shutdown and per-job deadlines are
built on.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.checkpoint import load_engine_checkpoint
from repro.core.engine import (
    RunDeadlineExceeded,
    RunInterrupted,
    RunSpec,
    stream_probes,
)
from repro.experiments.sweep import run_sweep

#: Probe_Tree on Tree(h=2) at p = 0.2.
RUN = RunSpec("tree", 2, 0.2)


def _baseline(**kwargs):
    return stream_probes(RUN, trials=64, chunk_size=16, seed=7, **kwargs)


def _same_statistics(a, b) -> bool:
    return (
        a.mean == b.mean
        and a.std == b.std
        and a.histogram == b.histogram
        and a.witness_red == b.witness_red
        and a.n_trials_used == b.n_trials_used
    )


class TestStopEvent:
    def test_set_event_stops_at_first_chunk_boundary(self, tmp_path):
        checkpoint = tmp_path / "run.ckpt"
        event = threading.Event()
        event.set()
        with pytest.raises(RunInterrupted, match="stop_event"):
            _baseline(checkpoint_path=checkpoint, stop_event=event)
        state = load_engine_checkpoint(checkpoint)
        assert state.chunks_merged == 1  # the boundary the stop landed on

    def test_drained_run_resumes_byte_identically(self, tmp_path):
        checkpoint = tmp_path / "run.ckpt"
        event = threading.Event()
        event.set()
        with pytest.raises(RunInterrupted):
            _baseline(checkpoint_path=checkpoint, stop_event=event)
        resumed = stream_probes(RUN, resume=checkpoint)
        assert _same_statistics(resumed, _baseline())

    def test_unset_event_is_a_no_op(self):
        result = _baseline(stop_event=threading.Event())
        assert _same_statistics(result, _baseline())

    def test_stop_without_checkpoint_path_names_the_loss(self):
        event = threading.Event()
        event.set()
        with pytest.raises(RunInterrupted, match="progress discarded"):
            _baseline(stop_event=event)


class TestRunTimeout:
    def test_non_positive_timeout_rejected(self):
        with pytest.raises(ValueError, match="run_timeout"):
            _baseline(run_timeout=0)

    def test_expired_deadline_checkpoints_then_raises(self, tmp_path, monkeypatch):
        checkpoint = tmp_path / "run.ckpt"
        # A clock that jumps past any deadline after the first chunk.
        ticks = iter([0.0] + [1e9] * 100)
        from repro.core import engine

        real_monotonic = engine.time.monotonic
        monkeypatch.setattr(
            engine.time, "monotonic", lambda: next(ticks, real_monotonic())
        )
        with pytest.raises(RunDeadlineExceeded, match="run_timeout"):
            _baseline(checkpoint_path=checkpoint, run_timeout=10.0)
        monkeypatch.undo()
        state = load_engine_checkpoint(checkpoint)
        assert state.next_start < 64
        resumed = stream_probes(RUN, resume=checkpoint)
        assert _same_statistics(resumed, _baseline())

    def test_generous_deadline_changes_nothing(self):
        result = _baseline(run_timeout=3600.0)
        assert _same_statistics(result, _baseline())


class TestSweepControl:
    GRID = dict(sizes=[2], ps=[0.2, 0.4], trials=32, seed=5, chunk_size=16)

    def test_preset_stop_event_stops_before_first_cell(self, tmp_path):
        checkpoint = tmp_path / "sweep"
        event = threading.Event()
        event.set()
        with pytest.raises(RunInterrupted, match="sweep stopped"):
            run_sweep(
                "tree", checkpoint_path=checkpoint, stop_event=event, **self.GRID
            )
        assert list(checkpoint.iterdir()) == []

    def test_drained_sweep_resumes_byte_identically(self, tmp_path):
        checkpoint = tmp_path / "sweep"
        event = threading.Event()
        event.set()
        with pytest.raises(RunInterrupted):
            run_sweep(
                "tree", checkpoint_path=checkpoint, stop_event=event, **self.GRID
            )
        resumed = run_sweep("tree", resume=checkpoint, **self.GRID)
        baseline = run_sweep("tree", **self.GRID)
        from repro.service.jobs import deterministic_view

        assert deterministic_view(resumed.to_dict()) == deterministic_view(
            baseline.to_dict()
        )

    def test_sweep_drained_mid_cell_resumes_from_its_last_merge(self, tmp_path):
        class StopAtMerge:
            """Set from the second merged chunk on: the sweep polls before
            every cell, the engine after every merge."""

            def __init__(self):
                self.polls = 0

            def is_set(self):
                self.polls += 1
                return self.polls >= 3

        grid = dict(self.GRID, trials=64)  # four chunks per cell
        checkpoint = tmp_path / "sweep"
        with pytest.raises(RunInterrupted, match=r"durable at .*cell-2-0\.2\.ckpt"):
            run_sweep(
                "tree", checkpoint_path=checkpoint, stop_event=StopAtMerge(), **grid
            )
        state = load_engine_checkpoint(checkpoint / "cell-2-0.2.ckpt")
        assert state.chunks_merged == 2
        resumed = run_sweep("tree", resume=checkpoint, **grid)
        baseline = run_sweep("tree", **grid)
        from repro.service.jobs import deterministic_view

        assert deterministic_view(resumed.to_dict()) == deterministic_view(
            baseline.to_dict()
        )

    def test_sweep_deadline_is_validated(self):
        with pytest.raises(ValueError, match="run_timeout"):
            run_sweep("tree", run_timeout=-1, **self.GRID)
