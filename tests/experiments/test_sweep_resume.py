"""Grid-level sweep resume and per-cell recovery accounting.

The sweep checkpoints after every measured cell; resuming skips exactly
the cells already held (their seeds depended only on ``(size, p)``, so
the recorded cell *is* the cell) and re-runs the rest, byte-identically
to an uninterrupted sweep.  Checkpoints from a different run
configuration are refused loudly, and the loader rejects torn or foreign
files with messages naming the problem.
"""

from __future__ import annotations

import json

import pytest

from repro.core import engine
from repro.core.checkpoint import CheckpointRefused
from repro.experiments import sweep as sweep_module
from repro.experiments.sweep import (
    SweepCheckpoint,
    load_sweep_artifact,
    load_sweep_checkpoint,
    render_sweep,
    run_sweep,
    save_sweep_checkpoint,
    write_sweep_artifact,
)
from repro.testing import faults
from repro.testing.faults import Fault


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    monkeypatch.setattr(engine, "_sleep", lambda seconds: None)


GRID = dict(sizes=(2, 3), ps=(0.3, 0.5), trials=64, chunk_size=16, seed=9)


def _stats(result):
    """Per-cell statistics, excluding wall-clock and recovery fields."""
    return [
        (c.size, c.p, c.mean, c.std, c.ci95, c.trials, c.n_trials_used, c.status)
        for c in result.cells
    ]


def _counting_stream_probes(monkeypatch):
    calls = []
    real = sweep_module.stream_probes

    def counting(*args, **kwargs):
        calls.append(kwargs.get("seed"))
        return real(*args, **kwargs)

    monkeypatch.setattr(sweep_module, "stream_probes", counting)
    return calls


class TestResume:
    def test_resume_skips_completed_cells_and_matches_full_run(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "sweep.ckpt"
        full = run_sweep("tree", checkpoint_path=path, **GRID)
        state = load_sweep_checkpoint(path)
        assert state.complete and len(state.cells) == 4

        # Drop one measured cell: resuming must re-run that cell only.
        doctored = SweepCheckpoint(
            config=state.config, cells=state.cells[:-1], complete=False
        )
        save_sweep_checkpoint(path, doctored)
        calls = _counting_stream_probes(monkeypatch)
        resumed = run_sweep("tree", resume=path, **GRID)
        assert len(calls) == 1
        assert _stats(resumed) == _stats(full)

    def test_complete_checkpoint_resumes_without_running_anything(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "sweep.ckpt"
        full = run_sweep("tree", checkpoint_path=path, **GRID)
        calls = _counting_stream_probes(monkeypatch)
        resumed = run_sweep("tree", resume=path, **GRID)
        assert calls == []
        assert _stats(resumed) == _stats(full)

    def test_interrupt_mid_grid_resumes_byte_identically(self, tmp_path, monkeypatch):
        full = run_sweep("tree", **GRID)
        path = tmp_path / "sweep.ckpt"
        real = sweep_module.stream_probes
        calls = []

        def interrupting(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise KeyboardInterrupt("operator hit ctrl-C")
            return real(*args, **kwargs)

        monkeypatch.setattr(sweep_module, "stream_probes", interrupting)
        with pytest.raises(KeyboardInterrupt):
            run_sweep("tree", checkpoint_path=path, **GRID)
        monkeypatch.setattr(sweep_module, "stream_probes", real)

        state = load_sweep_checkpoint(path)
        assert not state.complete and len(state.cells) == 2
        resumed = run_sweep("tree", resume=path, **GRID)
        assert _stats(resumed) == _stats(full)
        # The two pre-interrupt cells came straight from the checkpoint,
        # wall-clock fields included.
        assert resumed.cells[0].seconds == state.cells[0].seconds

    def test_failed_cells_are_not_checkpointed_and_rerun_on_resume(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "sweep.ckpt"
        real = sweep_module.stream_probes
        calls = []

        def flaky(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("transient infrastructure failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(sweep_module, "stream_probes", flaky)
        degraded = run_sweep("tree", checkpoint_path=path, **GRID)
        monkeypatch.setattr(sweep_module, "stream_probes", real)
        assert len(degraded.failed_cells) == 1

        # Only the three ok cells persist; resume re-measures the failure.
        state = load_sweep_checkpoint(path)
        assert len(state.cells) == 3
        resumed = run_sweep("tree", resume=path, **GRID)
        assert resumed.failed_cells == ()
        assert _stats(resumed) == _stats(run_sweep("tree", **GRID))

    def test_mismatched_config_is_refused_naming_the_difference(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        run_sweep("tree", checkpoint_path=path, **GRID)
        with pytest.raises(CheckpointRefused, match=r"sweep\.ckpt: .*different run.*seed"):
            run_sweep("tree", resume=path, **{**GRID, "seed": 10})
        with pytest.raises(ValueError, match="trials"):
            run_sweep("tree", resume=path, **{**GRID, "trials": 128})


class TestCheckpointLoader:
    def test_truncated_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        run_sweep("tree", checkpoint_path=path, **GRID)
        faults.truncate_file(path, 40)
        with pytest.raises(ValueError, match="sweep.ckpt"):
            load_sweep_checkpoint(path)

    def test_missing_config_field_rejected(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        run_sweep("tree", checkpoint_path=path, **GRID)
        faults.drop_json_field(path, "config")
        with pytest.raises(ValueError, match="config"):
            load_sweep_checkpoint(path)

    def test_foreign_kind_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "experiment", "schema": 1}))
        with pytest.raises(ValueError, match="kind"):
            load_sweep_checkpoint(path)

    @pytest.mark.parametrize(
        "schema,drawn",
        [
            (1, "Bernoulli colorings as floats"),
            (2, "order choices with generator.integers"),
            (3, "Bernoulli colorings from the sampler stream 'bitplane-v2'"),
        ],
    )
    def test_checkpoint_of_an_older_draw_stream_refused(self, tmp_path, schema, drawn):
        # Version-1 grids drew Bernoulli floats, version-2 grids the gate
        # order choices with generator.integers, version-3 grids the
        # Bernoulli colorings of bitplane-v2; resuming one would mix its
        # cells with cells of the current stream.
        path = tmp_path / "sweep.ckpt"
        run_sweep("tree", checkpoint_path=path, **GRID)
        payload = json.loads(path.read_text())
        payload["schema"] = schema
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointRefused, match=f"sweep.ckpt.*{drawn}.*sampler stream"):
            run_sweep("tree", resume=path, **GRID)


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
        # Files written while the TCP transport existed carry its lease
        # reassignment counter in every cell; the loaders drop the key.
        full = run_sweep("tree", **GRID)
        artifact = tmp_path / "old.json"
        write_sweep_artifact(full, artifact)
        payload = json.loads(artifact.read_text())
        for cell in payload["cells"]:
            cell["worker_reassignments"] = 2
        artifact.write_text(json.dumps(payload))
        assert _stats(load_sweep_artifact(artifact)) == _stats(full)

        path = tmp_path / "old.ckpt"
        run_sweep("tree", checkpoint_path=path, **GRID)
        state = json.loads(path.read_text())
        # As if interrupted after two cells: resume measures the other two.
        state["cells"], state["complete"] = state["cells"][:2], False
        for cell in state["cells"]:
            cell["worker_reassignments"] = 2
        path.write_text(json.dumps(state))
        assert len(load_sweep_checkpoint(path).cells) == 2
        resumed = run_sweep("tree", resume=path, **GRID)
        assert _stats(resumed) == _stats(full)

    def test_loaders_drop_only_the_retired_counter(self, tmp_path):
        # The drop is for that one key: any other unknown cell field still
        # fails the load instead of vanishing.
        path = tmp_path / "odd.ckpt"
        run_sweep("tree", checkpoint_path=path, **GRID)
        state = json.loads(path.read_text())
        state["cells"][0]["lease_reassignments"] = 2
        path.write_text(json.dumps(state))
        with pytest.raises(TypeError, match="lease_reassignments"):
            load_sweep_checkpoint(path)
