"""Atomic writes and engine-checkpoint serialization.

The durability contract: a reader of an artifact/checkpoint path sees
either the previous complete file or the new complete file — never a torn
write — and every loader failure names the file and the offending field.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointRefused,
    EngineCheckpoint,
    atomic_write_json,
    atomic_write_text,
    check_schema_version,
    load_engine_checkpoint,
    load_json_payload,
    required_field,
    save_engine_checkpoint,
)
from repro.core.engine import RunSpec
from repro.testing.faults import drop_json_field, truncate_file


def _checkpoint(**overrides) -> EngineCheckpoint:
    base = dict(
        entropy=7,
        trials=64,
        target_ci=None,
        chunk_size=16,
        min_trials=16,
        max_trials=1_000_000,
        run=RunSpec("tree", 2, 0.2),
        count=32,
        witness_red=3,
        histogram=(0, 0, 5, 10, 17),
        chunks_merged=2,
        next_start=32,
    )
    base.update(overrides)
    return EngineCheckpoint(**base)


class TestAtomicWrites:
    def test_writes_content_and_leaves_no_temp_files(self, tmp_path):
        path = atomic_write_text(tmp_path / "out.txt", "hello\n")
        assert path.read_text() == "hello\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_creates_parent_directories(self, tmp_path):
        path = atomic_write_json(tmp_path / "a" / "b" / "out.json", {"x": 1})
        assert json.loads(path.read_text()) == {"x": 1}

    def test_failed_replace_preserves_old_file_and_cleans_temp(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "out.txt"
        target.write_text("old\n")

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError):
            atomic_write_text(target, "new\n")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestPayloadValidation:
    def test_required_field_names_file_and_field(self, tmp_path):
        with pytest.raises(ValueError, match=r"x\.json.*'count'"):
            required_field({}, "count", tmp_path / "x.json")

    def test_missing_file_names_kind(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no such engine_checkpoint"):
            load_json_payload(tmp_path / "gone.json", "engine_checkpoint")

    def test_corrupt_json_is_a_clear_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "engine_che')
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_json_payload(path, "engine_checkpoint")

    def test_wrong_kind_is_rejected(self, tmp_path):
        path = atomic_write_json(tmp_path / "other.json", {"kind": "p_sweep"})
        with pytest.raises(ValueError, match="expected kind 'engine_checkpoint'"):
            load_json_payload(path, "engine_checkpoint")

    def test_newer_schema_version_is_rejected(self, tmp_path):
        payload = {"schema": CHECKPOINT_SCHEMA_VERSION + 1}
        with pytest.raises(ValueError, match="newer|reads versions"):
            check_schema_version(
                payload, CHECKPOINT_SCHEMA_VERSION, tmp_path / "f.json"
            )

    def test_missing_schema_legacy_gate(self, tmp_path):
        assert check_schema_version({}, 1, "f.json", legacy_ok=True) == 0
        with pytest.raises(ValueError, match="'schema'"):
            check_schema_version({}, 1, "f.json")


class TestEngineCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        state = _checkpoint()
        path = tmp_path / "run.ckpt"
        save_engine_checkpoint(path, state)
        assert load_engine_checkpoint(path) == state

    def test_file_holds_the_run_spec_and_no_pickle(self, tmp_path):
        path = save_engine_checkpoint(tmp_path / "run.ckpt", _checkpoint())
        payload = json.loads(path.read_text())
        assert payload["schema"] == CHECKPOINT_SCHEMA_VERSION == 7
        assert payload["run"] == {
            "system": "tree", "size": 2, "p": 0.2,
            "randomized": False, "distribution": "bernoulli",
        }
        for gone in ("algorithm", "source", "n", "pair_digest", "pair_blob"):
            assert gone not in payload
        # The settings and the position determine the mode and whether the
        # run finished.
        assert "mode" not in payload and "complete" not in payload

    def test_the_run_loads_canonical(self, tmp_path):
        path = save_engine_checkpoint(tmp_path / "run.ckpt", _checkpoint())
        payload = json.loads(path.read_text())
        payload["run"].update(system="TREE", p=0, distribution="iid")
        path.write_text(json.dumps(payload))
        state = load_engine_checkpoint(path)
        assert state == _checkpoint(run=RunSpec("tree", 2, 0.0))
        assert type(state.run.p) is float

    @pytest.mark.parametrize("run", [None, "tree", {"system": "tree"}, {
        "system": "no-such-system", "size": 2, "p": 0.2,
        "randomized": False, "distribution": "bernoulli",
    }])
    def test_a_run_that_is_no_run_spec_names_the_file(self, tmp_path, run):
        path = save_engine_checkpoint(tmp_path / "run.ckpt", _checkpoint())
        payload = json.loads(path.read_text())
        payload["run"] = run
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"run\.ckpt: field 'run' holds no RunSpec"):
            load_engine_checkpoint(path)

    @pytest.mark.parametrize("schema", [4, 5, 6])
    def test_schemas_4_to_6_are_refused_with_start_afresh(
        self, tmp_path, write_schema_6_checkpoint, schema
    ):
        path = write_schema_6_checkpoint(tmp_path / "run.ckpt", schema=schema)
        with pytest.raises(
            CheckpointRefused, match=rf"run\.ckpt: schema version {schema} .*start afresh"
        ):
            load_engine_checkpoint(path)

    def test_truncated_checkpoint_names_the_file(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_engine_checkpoint(path, _checkpoint())
        truncate_file(path, 40)
        with pytest.raises(ValueError, match="run.ckpt.*truncated or corrupt"):
            load_engine_checkpoint(path)

    def test_dropped_field_names_the_field(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_engine_checkpoint(path, _checkpoint())
        drop_json_field(path, "histogram")
        with pytest.raises(ValueError, match=r"run.ckpt.*'histogram'"):
            load_engine_checkpoint(path)

    def test_never_raises_raw_key_error(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_engine_checkpoint(path, _checkpoint())
        for field in ("entropy", "trials", "run", "count", "next_start"):
            drop_json_field(path, field)
            try:
                load_engine_checkpoint(path)
            except ValueError as error:
                assert repr(field) in str(error)
            else:  # pragma: no cover - would be a regression
                raise AssertionError(f"missing {field!r} was accepted")
            save_engine_checkpoint(path, _checkpoint())
