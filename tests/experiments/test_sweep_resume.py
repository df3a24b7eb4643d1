"""Sweep resume from per-cell engine checkpoints, and per-cell recovery
accounting.

A sweep's checkpoint is a directory holding one engine checkpoint per
cell, named from the cell's ``(size, p)``.  Resuming continues every cell
from its own file: a finished cell runs no chunk, an interrupted one only
its unmerged chunks, and a cell without a file runs afresh — so a killed,
drained, sub- or extended grid resumes byte-identically to an
uninterrupted sweep.  The engine's own rule refuses a cell written by
another run, and the refusal ends the sweep instead of degrading the cell.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.core import engine
from repro.core.checkpoint import CheckpointRefused, load_engine_checkpoint
from repro.experiments import sweep as sweep_module
from repro.experiments.sweep import (
    load_sweep_artifact,
    render_sweep,
    run_sweep,
    write_sweep_artifact,
)
from repro.testing import faults
from repro.testing.faults import KILL_EXIT_CODE, Fault


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    monkeypatch.setattr(engine, "_sleep", lambda seconds: None)


GRID = dict(sizes=(2, 3), ps=(0.3, 0.5), trials=64, chunk_size=16, seed=9)

#: Adaptive grid whose cells stop after different chunk counts: the p = 0
#: cells have no variance and stop after one chunk, (2, 0.5) after six.
ADAPTIVE = dict(sizes=(2, 3), ps=(0.0, 0.5), target_ci=0.3, chunk_size=16, seed=9)


def _stats(result):
    """Per-cell statistics, excluding wall-clock and recovery fields."""
    return [
        (c.size, c.p, c.mean, c.std, c.ci95, c.trials, c.n_trials_used, c.status)
        for c in result.cells
    ]


def _counting_chunks(monkeypatch):
    """Record ``(entropy, start)`` of every chunk the engine runs inline."""
    chunks = []
    real = engine._run_chunk

    def counting(algorithm, source, entropy, start, size):
        chunks.append((entropy, start))
        return real(algorithm, source, entropy, start, size)

    monkeypatch.setattr(engine, "_run_chunk", counting)
    return chunks


class TestResume:
    def test_killed_mid_cell_resumes_without_rerunning_merged_chunks(
        self, tmp_path, monkeypatch
    ):
        # The process dies like SIGKILL at the third merge of cell (2, 0.5):
        # cell (2, 0.0) is finished, (2, 0.5) has two durable chunks and
        # the size-3 row has not started.
        directory = tmp_path / "ckpt"
        plan = faults.write_plan([Fault("merge", 3, "kill")], tmp_path / "plan")
        script = (
            "from repro.experiments.sweep import run_sweep\n"
            f"run_sweep('tree', checkpoint_path={str(directory)!r}, **{ADAPTIVE!r})\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH", "")])
        )
        env[faults.ENV_VAR] = str(plan)
        process = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            timeout=120,
        )
        assert process.returncode == KILL_EXIT_CODE
        assert sorted(path.name for path in directory.iterdir()) == [
            "cell-2-0.0.ckpt",
            "cell-2-0.5.ckpt",
        ]
        finished = load_engine_checkpoint(directory / "cell-2-0.0.ckpt")
        interrupted = load_engine_checkpoint(directory / "cell-2-0.5.ckpt")
        assert interrupted.chunks_merged == 2

        chunks = _counting_chunks(monkeypatch)
        clean = run_sweep("tree", **ADAPTIVE)
        # The resume runs every chunk of the clean run except the finished
        # cell's and the two the interrupted cell merged before the kill.
        expected = [
            (entropy, start)
            for entropy, start in chunks
            if entropy != finished.entropy
            and not (entropy == interrupted.entropy and start < interrupted.next_start)
        ]
        assert len(expected) == len(chunks) - 3
        chunks.clear()
        resumed = run_sweep(
            "tree", checkpoint_path=directory, resume=directory, **ADAPTIVE
        )
        assert chunks == expected
        assert _stats(resumed) == _stats(clean)

    def test_finished_grid_resumes_without_running_a_chunk(self, tmp_path, monkeypatch):
        full = run_sweep("tree", checkpoint_path=tmp_path, **GRID)
        assert len(list(tmp_path.glob("cell-*.ckpt"))) == 4
        chunks = _counting_chunks(monkeypatch)
        resumed = run_sweep("tree", resume=tmp_path, **GRID)
        assert chunks == []
        assert _stats(resumed) == _stats(full)

    def test_sub_grid_and_extended_grid_resume_the_shared_cells(
        self, tmp_path, monkeypatch
    ):
        run_sweep("tree", checkpoint_path=tmp_path, **GRID)
        chunks = _counting_chunks(monkeypatch)
        sub = dict(GRID, sizes=(3,), ps=(0.5,))
        assert _stats(run_sweep("tree", resume=tmp_path, **sub)) == _stats(
            run_sweep("tree", **sub)
        )
        assert len(chunks) == 4  # the clean sub-grid's four; the resume ran none
        chunks.clear()
        extended = dict(GRID, ps=(0.3, 0.5, 0.7))
        resumed = run_sweep("tree", resume=tmp_path, **extended)
        # Two new cells of four chunks each; the four shared cells ran none.
        assert len(chunks) == 8
        assert _stats(resumed) == _stats(run_sweep("tree", **extended))

    def test_interrupt_mid_grid_resumes_byte_identically(self, tmp_path, monkeypatch):
        full = run_sweep("tree", **GRID)
        with faults.active_plan([Fault("merge", 3, "interrupt")], tmp_path / "plan"):
            with pytest.raises(KeyboardInterrupt):
                run_sweep("tree", checkpoint_path=tmp_path / "ckpt", **GRID)
        state = load_engine_checkpoint(tmp_path / "ckpt" / "cell-2-0.3.ckpt")
        assert state.chunks_merged == 3
        chunks = _counting_chunks(monkeypatch)
        resumed = run_sweep("tree", resume=tmp_path / "ckpt", **GRID)
        assert _stats(resumed) == _stats(full)
        assert len(chunks) == 16 - 3

    def test_failed_cell_reruns_on_resume(self, tmp_path, monkeypatch):
        real = sweep_module.stream_probes
        calls = []

        def flaky(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("transient infrastructure failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(sweep_module, "stream_probes", flaky)
        degraded = run_sweep("tree", checkpoint_path=tmp_path, **GRID)
        monkeypatch.setattr(sweep_module, "stream_probes", real)
        assert len(degraded.failed_cells) == 1
        assert len(list(tmp_path.glob("cell-*.ckpt"))) == 3

        resumed = run_sweep("tree", resume=tmp_path, **GRID)
        assert resumed.failed_cells == ()
        assert _stats(resumed) == _stats(run_sweep("tree", **GRID))

    @pytest.mark.parametrize(
        "change,differs",
        [
            ({"distribution": "fixed_count"}, r"distribution='fixed_count' \(checkpoint: 'bernoulli'\)"),
            ({"randomized": True}, r"randomized=True \(checkpoint: False\)"),
            ({"seed": 10}, "seed="),
            ({"trials": 128}, "trials=128"),
        ],
    )
    def test_mismatched_config_is_refused_naming_the_difference(
        self, tmp_path, change, differs
    ):
        run_sweep("tree", checkpoint_path=tmp_path, **GRID)
        # A refusal ends the sweep: it never becomes a degraded cell.
        with pytest.raises(
            CheckpointRefused, match=rf"cell-2-0\.3\.ckpt: written by another run.*{differs}"
        ):
            run_sweep("tree", resume=tmp_path, **{**GRID, **change})

    def test_missing_resume_directory_is_a_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no-such-dir"):
            run_sweep("tree", resume=tmp_path / "no-such-dir", **GRID)

    def test_sweep_checkpoint_file_of_an_older_build_is_refused(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        path.write_text(json.dumps({"kind": "sweep_checkpoint", "schema": 4}))
        with pytest.raises(CheckpointRefused, match=r"sweep\.ckpt: .*start afresh"):
            run_sweep("tree", checkpoint_path=path, resume=path, **GRID)

    def test_no_checkpoint_means_no_file_system_work(self, monkeypatch):
        # Every checkpoint path of a sweep is built through Path.
        def forbidden(*args):
            raise AssertionError("the sweep touched a checkpoint path")

        monkeypatch.setattr(sweep_module, "Path", forbidden)
        assert run_sweep("tree", **GRID).failed_cells == ()


class TestRunSettings:
    """A bad run setting fails the sweep before any cell runs or any file
    is written, instead of turning every cell into a failed one."""

    @pytest.mark.parametrize(
        "setting,message",
        [
            ({"chunk_size": 0}, "chunk_size"),
            ({"trials": None, "target_ci": -1.0}, "target_ci"),
            ({"trials": None, "target_ci": float("nan")}, "target_ci"),
            ({"trials": None, "target_ci": 0.5, "min_trials": 50, "max_trials": 40},
             "min_trials"),
            ({"retries": -1}, "retries"),
            ({"chunk_timeout": 0}, "chunk_timeout"),
            ({"jobs": 0}, "jobs"),
            ({"run_timeout": -1}, "run_timeout"),
            ({"trials": 0}, "trials must be at least 1"),
            ({"seed": -1}, "seed must be at least 0"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"seed": True}, "seed must be an integer"),
            ({"target_ci": 0.5}, "either trials"),
        ],
    )
    def test_bad_setting_raises_before_any_cell(
        self, tmp_path, monkeypatch, setting, message
    ):
        calls = []
        monkeypatch.setattr(
            sweep_module, "stream_probes", lambda *a, **k: calls.append(None)
        )
        with pytest.raises(ValueError, match=message):
            run_sweep("tree", checkpoint_path=tmp_path / "ckpt", **{**GRID, **setting})
        assert calls == []
        assert not (tmp_path / "ckpt").exists()


class TestRecoveryCounters:
    def test_faulted_cell_records_retries_and_artifact_round_trips(self, tmp_path):
        clean = run_sweep("tree", **GRID)
        with faults.active_plan([Fault("chunk", 16, "raise")], tmp_path / "plan"):
            bumpy = run_sweep("tree", **GRID)
        assert _stats(bumpy) == _stats(clean)
        assert sum(c.retries_used for c in bumpy.cells) == 1

        path = tmp_path / "sweep.json"
        write_sweep_artifact(bumpy, path)
        loaded = load_sweep_artifact(path)
        assert [c.retries_used for c in loaded.cells] == [
            c.retries_used for c in bumpy.cells
        ]

    def test_render_reports_recovery_only_when_bumpy(self, tmp_path):
        clean = run_sweep("tree", **GRID)
        assert "recovery:" not in render_sweep(clean)
        with faults.active_plan([Fault("chunk", 16, "raise")], tmp_path / "plan"):
            bumpy = run_sweep("tree", **GRID)
        assert "recovery: 1 chunk retries" in render_sweep(bumpy)

    def test_legacy_artifact_without_recovery_fields_loads_with_zeros(self, tmp_path):
        result = run_sweep("tree", **GRID)
        payload = result.to_dict()
        for cell in payload["cells"]:
            for key in ("retries_used", "pool_respawns"):
                del cell[key]
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(payload))
        loaded = load_sweep_artifact(path)
        assert all(c.retries_used == 0 for c in loaded.cells)
        assert _stats(loaded) == _stats(result)

    def test_files_with_the_retired_reassignment_counter_still_load(self, tmp_path):
        # Artifacts written while the TCP transport existed carry its lease
        # reassignment counter in every cell; the loader drops the key.
        full = run_sweep("tree", **GRID)
        artifact = tmp_path / "old.json"
        write_sweep_artifact(full, artifact)
        payload = json.loads(artifact.read_text())
        for cell in payload["cells"]:
            cell["worker_reassignments"] = 2
        artifact.write_text(json.dumps(payload))
        assert _stats(load_sweep_artifact(artifact)) == _stats(full)

    def test_loaders_drop_only_the_retired_counter(self, tmp_path):
        # The drop is for that one key: any other unknown cell field still
        # fails the load instead of vanishing.
        path = tmp_path / "odd.json"
        write_sweep_artifact(run_sweep("tree", **GRID), path)
        payload = json.loads(path.read_text())
        payload["cells"][0]["lease_reassignments"] = 2
        path.write_text(json.dumps(payload))
        with pytest.raises(TypeError, match="lease_reassignments"):
            load_sweep_artifact(path)
