"""Request normalization and the durable job journal."""

from __future__ import annotations

import pytest

from repro.service import jobs
from repro.service.cache import cache_key
from repro.service.jobs import (
    NORMALIZERS,
    BadRequest,
    Job,
    JobJournal,
    deterministic_view,
    normalize_estimate,
    normalize_sweep,
)
from repro.testing.faults import drop_json_field, truncate_file


class TestNormalizeEstimate:
    def test_defaults_pin_every_byte_determining_knob(self):
        params = normalize_estimate({"system": "maj", "p": 0.3})
        assert params["seed"] == 0  # cache-friendly default
        assert params["trials"] == 1000
        assert params["target_ci"] is None
        assert params["size"] == 8
        assert params["distribution"] == "bernoulli"
        assert params["backend"] == "numpy"
        assert params["randomized"] is False

    def test_identical_requests_normalize_identically(self):
        a = normalize_estimate({"system": "maj", "p": 0.3})
        b = normalize_estimate({"p": 0.3, "system": "maj", "seed": 0})
        assert a == b

    def test_unknown_field_rejected(self):
        with pytest.raises(BadRequest, match="unknown field.*trails"):
            normalize_estimate({"system": "maj", "p": 0.3, "trails": 10})

    def test_missing_system_rejected(self):
        with pytest.raises(BadRequest, match="system"):
            normalize_estimate({"p": 0.3})

    def test_missing_p_rejected(self):
        with pytest.raises(BadRequest, match="'p'"):
            normalize_estimate({"system": "maj"})

    def test_unknown_system_rejected(self):
        with pytest.raises(BadRequest, match="unknown system"):
            normalize_estimate({"system": "quorumish", "p": 0.3})

    def test_unknown_backend_rejected(self):
        with pytest.raises(BadRequest, match="unknown backend"):
            normalize_estimate({"system": "maj", "p": 0.3, "backend": "gpu"})

    def test_trials_and_target_ci_are_exclusive(self):
        with pytest.raises(BadRequest, match="not both"):
            normalize_estimate(
                {"system": "maj", "p": 0.3, "trials": 10, "target_ci": 0.1}
            )

    def test_adaptive_mode_resolves_trials_to_none(self):
        params = normalize_estimate({"system": "maj", "p": 0.3, "target_ci": 0.5})
        assert params["trials"] is None

    def test_non_object_body_rejected(self):
        with pytest.raises(BadRequest, match="JSON object"):
            normalize_estimate([1, 2])

    def test_boolean_seed_rejected(self):
        with pytest.raises(BadRequest, match="seed"):
            normalize_estimate({"system": "maj", "p": 0.3, "seed": True})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("trials", "abc", "trials must be an integer"),
            ("trials", 2.5, "trials must be an integer"),
            ("trials", True, "trials must be an integer"),
            ("trials", 0, "trials must be at least 1"),
            ("chunk_size", 0, "chunk_size must be at least 1"),
            ("chunk_size", "16", "chunk_size must be an integer"),
            ("min_trials", 0, "min_trials must be at least 1"),
            ("min_trials", 1.0, "min_trials must be an integer"),
            ("max_trials", -5, "max_trials must be at least 1"),
            ("max_trials", False, "max_trials must be an integer"),
            ("target_ci", -1, "target_ci must be a positive finite number"),
            ("target_ci", 0, "target_ci must be a positive finite number"),
            ("target_ci", float("inf"), "target_ci must be a positive finite number"),
            ("target_ci", float("nan"), "target_ci must be a positive finite number"),
            ("target_ci", "0.1", "target_ci must be a positive finite number"),
            ("target_ci", True, "target_ci must be a positive finite number"),
            ("seed", -1, "seed must be at least 0"),
            ("seed", 1.5, "seed must be an integer"),
            ("randomized", "false", "randomized must be a JSON boolean"),
            ("randomized", 1, "randomized must be a JSON boolean"),
        ],
    )
    def test_malformed_run_field_rejected(self, field, value, message):
        with pytest.raises(BadRequest, match=message):
            normalize_estimate({"system": "maj", "p": 0.3, field: value})

    def test_min_trials_above_max_trials_rejected(self):
        with pytest.raises(BadRequest, match=r"min_trials \(50\) must not exceed max_trials \(40\)"):
            normalize_estimate(
                {"system": "maj", "p": 0.3, "target_ci": 0.1,
                 "min_trials": 50, "max_trials": 40}
            )
        # Without max_trials the cap is the engine's default.
        with pytest.raises(BadRequest, match="must not exceed max_trials"):
            normalize_estimate(
                {"system": "maj", "p": 0.3, "target_ci": 0.1, "min_trials": 2_000_000}
            )

    def test_valid_run_fields_keep_their_form(self):
        body = {"system": "maj", "p": 0.3, "target_ci": 1, "chunk_size": 16,
                "min_trials": 16, "max_trials": 64, "seed": 0, "randomized": True}
        params = normalize_estimate(body)
        for field in ("target_ci", "chunk_size", "min_trials", "max_trials",
                      "seed", "randomized"):
            assert params[field] == body[field]
            assert type(params[field]) is type(body[field])

    @pytest.mark.parametrize("p", ["high", [0.3]])
    def test_non_numeric_p_rejected(self, p):
        with pytest.raises(BadRequest, match="p must be a number"):
            normalize_estimate({"system": "maj", "p": p})


class TestNormalizeSweep:
    def test_minimal_grid(self):
        params = normalize_sweep(
            {"system": "tree", "sizes": [2, 3], "ps": [0.1, 0.2]}
        )
        assert params["sizes"] == [2, 3]
        assert params["ps"] == [0.1, 0.2]
        assert params["trials"] == 1000

    def test_empty_grid_rejected(self):
        with pytest.raises(BadRequest, match="sizes"):
            normalize_sweep({"system": "tree", "sizes": [], "ps": [0.1]})
        with pytest.raises(BadRequest, match="ps"):
            normalize_sweep({"system": "tree", "sizes": [2], "ps": []})

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"backend": "gpu"}, "unknown backend"),
            ({"trials": 10, "target_ci": 0.1}, "not both"),
            ({"seed": True}, "seed"),
            ({"distribution": "nope"}, "nope"),
            ({"system": "quorumish"}, "unknown system"),
            ({"ps": ["x"]}, "ps"),
            ({"chunk_size": 0}, "chunk_size"),
            ({"randomized": "yes"}, "randomized"),
        ],
    )
    def test_shares_the_estimate_checks(self, extra, message):
        with pytest.raises(BadRequest, match=message):
            normalize_sweep({"system": "tree", "sizes": [2], "ps": [0.1], **extra})


#: Cache keys of request bodies, computed before the two normalizers shared
#: their field table; results cached under them must keep hitting.  They
#: fold in ``SAMPLER_STREAM`` and were re-taken at ``bitplane-v3``.
PINNED_KEYS = [
    ("estimate", {"system": "maj", "size": 9, "p": 0.3},
     "3bf9a6cba8f09c93cf05c88d6a41075d5169d58160ebe4d0c75274f45fc405f7"),
    ("estimate", {"system": "tree", "size": 2, "p": 0.2, "trials": 64, "chunk_size": 16},
     "58261307b64e9ae9a7156b8fed1cad759c7c9dd8dd8a2fe78a1b74a111a05f76"),
    ("estimate", {"system": "triang", "size": 10, "p": 0.5, "target_ci": 0.5,
                  "randomized": True, "seed": 7, "distribution": "fixed_count"},
     "c0163bafca4ba910acc8b8fba41165d26471943f87b61d232a2caa4e37fbf6f7"),
    ("sweep", {"system": "tree", "sizes": [2], "ps": [0.2, 0.4], "trials": 32},
     "557d5d269f740da7491ef0d12012f0e77779c3d5a56d2194df01b256b3acc4a3"),
    ("sweep", {"system": "maj", "sizes": [5, 7], "ps": [0.5], "target_ci": 0.25,
               "max_trials": 4000, "backend": "bitpacked"},
     "75492dffbb687ce09b06f5e635f51f26cc7a120c729f9d65fec13c3170a4c2b8"),
]


@pytest.mark.parametrize("kind, body, key", PINNED_KEYS)
def test_cache_keys_are_pinned(kind, body, key):
    assert cache_key({"kind": kind, **NORMALIZERS[kind](body)}) == key


def test_deterministic_view_strips_wall_clock_recursively():
    payload = {
        "seconds": 1.0,
        "cells": [{"mean": 2.0, "seconds": 0.1, "retries_used": 3}],
        "recovery": {"pool_respawns": 1},
        "nested": {"pool_respawns": 2, "kept": True},
    }
    assert deterministic_view(payload) == {
        "cells": [{"mean": 2.0}],
        "recovery": {},
        "nested": {"kept": True},
    }


PARAMS = {"system": "maj", "size": 9, "p": 0.3, "seed": 0}


class TestJournal:
    def test_write_load_roundtrip(self, tmp_path):
        journal = JobJournal(tmp_path)
        job = journal.new_job("estimate", PARAMS)
        journal.write(job)
        loaded = journal.load(job.id)
        assert loaded == job

    def test_sequence_numbers_survive_restart(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.write(journal.new_job("estimate", PARAMS))
        journal.write(journal.new_job("sweep", PARAMS))
        reopened = JobJournal(tmp_path)
        job = reopened.new_job("estimate", PARAMS)
        assert job.seq == 3  # never reuses an id

    def test_recover_demotes_running_and_keeps_terminal(self, tmp_path):
        journal = JobJournal(tmp_path)
        submitted = journal.new_job("estimate", PARAMS)
        journal.write(submitted)
        running = journal.new_job("estimate", {**PARAMS, "p": 0.4})
        running.state = "running"
        journal.write(running)
        done = journal.new_job("estimate", {**PARAMS, "p": 0.5})
        done.state = "done"
        done.result = {"statistics": {}}
        journal.write(done)

        pending, finished = JobJournal(tmp_path).recover()
        assert [job.id for job in pending] == [submitted.id, running.id]
        assert all(job.state == "submitted" for job in pending)
        assert [job.id for job in finished] == [done.id]
        # The demotion is durable, not just in memory.
        assert JobJournal(tmp_path).load(running.id).state == "submitted"

    def test_opening_and_recovering_read_each_record_once(self, tmp_path, monkeypatch):
        journal = JobJournal(tmp_path)
        for p in (0.3, 0.4, 0.5):
            journal.write(journal.new_job("estimate", {**PARAMS, "p": p}))
        reads = []
        load = jobs.load_json_payload
        monkeypatch.setattr(
            jobs, "load_json_payload", lambda path, kind: reads.append(path) or load(path, kind)
        )
        reopened = JobJournal(tmp_path)
        pending, finished = reopened.recover()
        assert len(pending) == 3 and finished == []
        assert sorted(reads) == sorted(tmp_path.glob("job-*.json"))
        assert reopened.new_job("estimate", PARAMS).seq == 4

    def test_done_record_carries_the_result_crc(self, tmp_path):
        journal = JobJournal(tmp_path)
        job = journal.new_job("estimate", PARAMS)
        job.state, job.result = "done", {"statistics": {"mean": 1.5}}
        payload = job.to_payload()
        assert payload["schema"] == 2
        assert Job.from_payload(payload) == job
        payload["result"]["statistics"]["mean"] = 2.5
        with pytest.raises(ValueError, match="job.json: field 'result_crc32'"):
            Job.from_payload(payload, "job.json")
        del payload["result_crc32"]
        with pytest.raises(ValueError, match="job.json: missing required field 'result_crc32'"):
            Job.from_payload(payload, "job.json")

    def test_schema_1_record_loads_without_a_crc(self, tmp_path):
        journal = JobJournal(tmp_path)
        job = journal.new_job("estimate", PARAMS)
        job.state, job.result = "done", {"statistics": {"mean": 1.5}}
        payload = job.to_payload()
        del payload["result_crc32"]
        payload["schema"] = 1
        loaded = Job.from_payload(payload)
        assert (loaded.schema, loaded.result) == (1, job.result)

    def test_missing_record_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="job-9"):
            JobJournal(tmp_path).load("job-9")

    def test_truncated_record_fails_loudly_naming_the_file(self, tmp_path):
        journal = JobJournal(tmp_path)
        job = journal.new_job("estimate", PARAMS)
        path = journal.write(job)
        truncate_file(path, 20)
        with pytest.raises(ValueError, match=str(path)):
            JobJournal(tmp_path)  # startup scan loads every record

    def test_dropped_field_fails_loudly_naming_the_field(self, tmp_path):
        journal = JobJournal(tmp_path)
        job = journal.new_job("estimate", PARAMS)
        path = journal.write(job)
        drop_json_field(path, "state")
        with pytest.raises(ValueError, match="'state'"):
            journal.load(job.id)

    def test_dropped_schema_fails_loudly(self, tmp_path):
        journal = JobJournal(tmp_path)
        job = journal.new_job("estimate", PARAMS)
        path = journal.write(job)
        drop_json_field(path, "schema")
        with pytest.raises(ValueError, match="schema"):
            journal.load(job.id)

    def test_unknown_state_rejected(self, tmp_path):
        journal = JobJournal(tmp_path)
        job = journal.new_job("estimate", PARAMS)
        payload = job.to_payload()
        payload["state"] = "zombie"
        with pytest.raises(ValueError, match="zombie"):
            Job.from_payload(payload)

    def test_checkpoint_paths_distinguish_kinds(self, tmp_path):
        journal = JobJournal(tmp_path)
        estimate = journal.new_job("estimate", PARAMS)
        sweep = journal.new_job("sweep", PARAMS)
        assert journal.checkpoint_path(estimate).suffix == ".ckpt"
        assert journal.checkpoint_path(sweep).name == f"{sweep.id}.sweep"

    def test_sweep_checkpoint_file_of_an_older_daemon_is_removed_on_open(
        self, tmp_path
    ):
        old = tmp_path / "checkpoints" / "job-000001.sweep.ckpt"
        old.parent.mkdir()
        old.write_text("{}")
        estimate = tmp_path / "checkpoints" / "job-000002.ckpt"
        estimate.write_text("{}")
        JobJournal(tmp_path)
        assert not old.exists() and estimate.exists()

    def test_stale_tmp_swept_on_open(self, tmp_path):
        stale = tmp_path / ".job-000001.json.1234.tmp"
        stale.write_text("partial")
        JobJournal(tmp_path)
        assert not stale.exists()
