"""The probe-estimation service: lifecycle, admission, recovery, HTTP API.

The load-bearing robustness claims (ISSUE 10):

* a job's result is byte-identical to a direct engine run with the same
  resolved parameters — and stays byte-identical across drains, retries
  and restarts;
* a full queue or a non-ready service answers 503 + ``Retry-After``;
* a lost worker pool flips the service into degraded read-only mode;
* the startup scan re-queues interrupted jobs and never re-runs
  completed ones;
* corruption of durable service state fails loudly, naming the file.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest
from helpers import http_get, http_post, wait_for_state

from repro.algorithms import ProbeTree
from repro.core.engine import stream_probes
from repro.service import ProbeService, ServiceUnavailable, cache_key, canonical_json
from repro.service.app import RETRY_AFTER_SECONDS
from repro.service.jobs import BadRequest, estimate_result_payload, normalize_estimate
from repro.systems import build_system
from repro.testing import faults
from repro.testing.faults import ANY_KEY, Fault

REQUEST = {"system": "tree", "size": 2, "p": 0.2, "trials": 64, "chunk_size": 16}


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    from repro.service import app

    monkeypatch.setattr(app, "_sleep", lambda seconds: None)


def expected_statistics():
    """What the engine computes directly for ``REQUEST`` (seed 0)."""
    result = stream_probes(
        ProbeTree(build_system("tree", 2)), p=0.2, trials=64, chunk_size=16, seed=0
    )
    return estimate_result_payload(result)["statistics"]


def submit_and_wait(service, request=REQUEST, kind="estimate"):
    status, body = service.submit(kind, request)
    assert status == 202
    return wait_for_state(service.job_view, body["id"])


def _job_with_an_older_stream_checkpoint(service_factory, kind, request_body):
    """A running ``kind`` job in ``<tmp>/data`` whose checkpoint (a sweep's
    first cell file) is on the pre-bitplane-v3 stream, as a daemon upgraded
    mid-job finds it."""
    from repro.service.jobs import normalize_sweep

    normalize = {"estimate": normalize_estimate, "sweep": normalize_sweep}[kind]
    old = service_factory(start=False)
    job = old.journal.new_job(kind, normalize(dict(request_body)))
    old.journal.write(job)
    old._execute(job)  # leaves the job's checkpoint
    checkpoint = old.journal.checkpoint_path(job)
    if kind == "sweep":
        checkpoint = sorted(checkpoint.glob("cell-*.ckpt"))[0]
    payload = json.loads(checkpoint.read_text())
    payload["schema"] = 3
    checkpoint.write_text(json.dumps(payload))
    return job, checkpoint


class TestLifecycle:
    def test_estimate_matches_direct_engine_run_byte_for_byte(self, service_factory):
        service = service_factory()
        record = submit_and_wait(service)
        assert record["state"] == "done"
        assert canonical_json(record["result"]["statistics"]) == canonical_json(
            expected_statistics()
        )

    def test_repeat_query_is_a_cache_hit(self, service_factory):
        service = service_factory()
        record = submit_and_wait(service)
        status, body = service.submit("estimate", dict(REQUEST))
        assert status == 200
        assert body["cached"] is True
        assert body["result"] == record["result"]
        assert service.metrics.value("cache_hits_total") == 1
        # A cache hit creates no new job record.
        assert len(service.journal.load_all()) == 1

    def test_done_is_published_only_after_the_cache_put(self, service_factory, monkeypatch):
        # A slow cache write widens the window between the result being
        # computed and it being addressable; ``done`` must not show inside it.
        from repro.service.cache import ResultCache

        put = ResultCache.put

        def slow_put(self, *args, **kwargs):
            time.sleep(0.3)
            return put(self, *args, **kwargs)

        monkeypatch.setattr(ResultCache, "put", slow_put)
        service = service_factory()
        record = submit_and_wait(service)
        status, body = service.submit("estimate", dict(REQUEST))
        assert status == 200 and body["cached"] is True
        assert body["result"] == record["result"]
        assert service.journal.load(record["id"]).state == "done"
        assert len(service.journal.load_all()) == 1

    def test_sweep_job_completes(self, service_factory):
        service = service_factory()
        record = submit_and_wait(
            service,
            {"system": "tree", "sizes": [2], "ps": [0.2, 0.4], "trials": 32},
            kind="sweep",
        )
        assert record["state"] == "done"
        statistics = record["result"]["statistics"]
        assert statistics["kind"] == "p_sweep"
        assert len(statistics["cells"]) == 2

    def test_resumed_sweep_still_validates_the_backend(self, service_factory):
        # A sweep job resumes from its checkpoint with the request's own
        # parameters, so a backend the grid refused stays refused.
        from repro.experiments.sweep import run_sweep
        from repro.service.jobs import normalize_sweep

        service = service_factory(start=False)
        request = {"system": "maj", "sizes": [5], "ps": [0.2], "trials": 32,
                   "randomized": True, "backend": "bitpacked"}
        job = service.journal.new_job("sweep", normalize_sweep(request))
        checkpoint = service.journal.checkpoint_path(job)
        first = run_sweep("maj", [5], [0.2], trials=32, seed=0, randomized=True,
                          backend="bitpacked", checkpoint_path=checkpoint)
        assert checkpoint.is_dir() and first.cells[0].status == "failed"
        cells = service._execute(job)["statistics"]["cells"]
        assert [cell["status"] for cell in cells] == ["failed"]

    def test_unknown_job_id_is_never_looked_up_on_disk(self, service_factory):
        service = service_factory()
        planted = service.data_dir.parent / "outside.json"
        planted.write_text('{"kind": "service_job"}')  # would fail to load
        assert service.job_view("../../outside") is None
        assert service.job_view("job-000001") is None

    def test_done_jobs_survive_restart_without_rerunning(self, service_factory):
        service = service_factory()
        record = submit_and_wait(service)
        service.drain()
        reopened = service_factory(subdir="data")
        assert reopened.metrics.value("jobs_recovered_total") == 0
        view = reopened.job_view(record["id"])
        assert view["state"] == "done"
        assert view["attempts"] == record["attempts"]  # never re-run
        assert view["result"] == record["result"]

    def test_metrics_account_for_the_work(self, service_factory):
        service = service_factory()
        submit_and_wait(service)
        metrics = service.metrics
        assert metrics.value("jobs_submitted_total") == 1
        assert metrics.value("jobs_done_total") == 1
        assert metrics.value("trials_total") == 64
        rendered = metrics.render()
        assert "repro_jobs_done_total 1" in rendered
        assert "repro_service_state 0" in rendered


class TestAdmission:
    def test_full_queue_rejects_with_retry_after(self, service_factory):
        service = service_factory(start=False, queue_size=2)
        assert service.submit("estimate", dict(REQUEST))[0] == 202
        assert service.submit("estimate", {**REQUEST, "p": 0.3})[0] == 202
        with pytest.raises(ServiceUnavailable, match="queue full") as excinfo:
            service.submit("estimate", {**REQUEST, "p": 0.4})
        assert excinfo.value.retry_after == RETRY_AFTER_SECONDS
        assert service.metrics.value("jobs_rejected_total") == 1

    def test_draining_service_rejects_submissions(self, service_factory):
        service = service_factory()
        service.begin_drain()
        with pytest.raises(ServiceUnavailable, match="draining"):
            service.submit("estimate", dict(REQUEST))

    def test_bad_request_does_not_touch_the_journal(self, service_factory):
        service = service_factory()
        with pytest.raises(BadRequest):
            service.submit("estimate", {"system": "nope", "p": 0.2})
        assert service.journal.load_all() == []

    @pytest.mark.parametrize(
        "field, value",
        [("trials", "abc"), ("trials", 2.5), ("chunk_size", 0), ("min_trials", 0),
         ("max_trials", 0), ("target_ci", -1), ("seed", -1), ("randomized", "false")],
    )
    def test_malformed_run_field_answers_bad_request_unjournaled(
        self, service_factory, field, value
    ):
        service = service_factory()
        body = {key: item for key, item in REQUEST.items() if key != "trials"}
        with pytest.raises(BadRequest, match=field):
            service.submit("estimate", {**body, field: value})
        assert service.journal.load_all() == []

    @pytest.mark.parametrize(
        "option, value, name",
        [("engine_jobs", 0, "jobs must be at least 1"),
         ("deadline", 0, "run_timeout"), ("deadline", -1.0, "run_timeout"),
         ("retries", -1, "retries"), ("chunk_timeout", 0, "chunk_timeout"),
         ("engine_jobs", 1.5, "jobs"), ("retries", True, "retries")],
    )
    def test_engine_options_are_checked_before_anything_is_written(
        self, tmp_path, option, value, name
    ):
        # Checked as the engine checks them, at start-up: not accepted and
        # then failed job by job.
        with pytest.raises(ValueError, match=name):
            ProbeService(tmp_path / "data", **{option: value})
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--deadline", "0", "run_timeout"), ("--retries", "-1", "retries"),
         ("--chunk-timeout", "0", "chunk_timeout")],
    )
    def test_serve_exits_on_a_bad_engine_option_before_binding(
        self, tmp_path, monkeypatch, flag, value, name
    ):
        from repro.cli import main
        from repro.service import app

        def bind(*args, **kwargs):
            raise AssertionError("serve bound a port")

        monkeypatch.setattr(app, "make_server", bind)
        with pytest.raises(SystemExit, match=name):
            main(["serve", "--data-dir", str(tmp_path / "data"), "--port", "0",
                  flag, value])
        assert not (tmp_path / "data").exists()


class TestCheckpointWrites:
    def test_a_four_chunk_job_writes_its_checkpoint_four_times(
        self, service_factory, monkeypatch
    ):
        # One write per merged chunk; the end of the run writes nothing more.
        from repro.core import checkpoint as checkpoint_module

        written = []
        real = checkpoint_module.save_engine_checkpoint
        monkeypatch.setattr(
            checkpoint_module,
            "save_engine_checkpoint",
            lambda path, state: written.append(state.chunks_merged) or real(path, state),
        )
        record = submit_and_wait(service_factory())
        assert record["state"] == "done"
        assert record["result"]["statistics"]["chunks"] == 4
        assert written == [1, 2, 3, 4]


class TestRepeatsJoinInFlightJobs:
    def test_repeat_of_a_queued_request_joins_its_job(self, service_factory):
        service = service_factory(start=False)
        status, first = service.submit("estimate", dict(REQUEST))
        repeat_status, repeat = service.submit("estimate", dict(REQUEST))
        assert status == repeat_status == 202
        assert repeat["id"] == first["id"]
        assert repeat["cache_key"] == first["cache_key"]
        assert [job.id for job in service.journal.load_all()] == [first["id"]]
        assert service.metrics.value("jobs_submitted_total") == 1

    def test_concurrent_repeats_make_one_job(self, service_factory):
        service = service_factory(start=False)
        bodies = []

        def submit():
            bodies.append(service.submit("estimate", dict(REQUEST))[1])

        threads = [threading.Thread(target=submit) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(bodies) == 8 and len({body["id"] for body in bodies}) == 1
        assert len(service.journal.load_all()) == 1

    def test_repeat_after_a_failure_makes_a_new_job(self, service_factory, tmp_path):
        plan = [Fault("chunk", 0, "raise", once=False)]
        with faults.active_plan(plan, tmp_path / "plan"):
            service = service_factory(retries=0, job_retries=0)
            failed = submit_and_wait(service)
        assert failed["state"] == "failed"
        status, body = service.submit("estimate", dict(REQUEST))
        assert status == 202 and body["id"] != failed["id"]
        assert wait_for_state(service.job_view, body["id"])["state"] == "done"

    def test_repeat_after_a_restart_joins_the_recovered_job(
        self, service_factory, tmp_path
    ):
        _, body = service_factory(start=False).submit("estimate", dict(REQUEST))
        # Slow chunks keep the recovered job in flight while the repeat arrives.
        plan = [Fault("chunk", ANY_KEY, "delay", seconds=0.2, once=False)]
        with faults.active_plan(plan, tmp_path / "plan"):
            restarted = service_factory(subdir="data")
            status, repeat = restarted.submit("estimate", dict(REQUEST))
            assert (status, repeat["id"]) == (202, body["id"])
            record = wait_for_state(restarted.job_view, body["id"])
        assert record["state"] == "done"
        assert [job.id for job in restarted.journal.load_all()] == [body["id"]]


class TestFaultRecovery:
    def test_failed_run_retries_then_succeeds_byte_identically(
        self, service_factory, tmp_path
    ):
        plan = [Fault("chunk", 0, "raise")]  # first chunk fails once
        with faults.active_plan(plan, tmp_path / "plan"):
            service = service_factory(retries=0, job_retries=1)
            record = submit_and_wait(service)
        assert record["state"] == "done"
        assert record["attempts"] == 2
        assert service.metrics.value("job_retries_total") == 1
        assert canonical_json(record["result"]["statistics"]) == canonical_json(
            expected_statistics()
        )

    def test_exhausted_retries_fail_with_the_original_error(
        self, service_factory, tmp_path
    ):
        plan = [Fault("chunk", 0, "raise", once=False)]  # fails every attempt
        with faults.active_plan(plan, tmp_path / "plan"):
            service = service_factory(retries=0, job_retries=1)
            record = submit_and_wait(service)
        assert record["state"] == "failed"
        assert "FaultInjected" in record["error"]
        assert service.metrics.value("jobs_failed_total") == 1

    def test_deadline_exceeded_fails_the_job(self, service_factory, tmp_path):
        plan = [Fault("chunk", ANY_KEY, "delay", seconds=0.05, once=False)]
        with faults.active_plan(plan, tmp_path / "plan"):
            service = service_factory(deadline=0.01)
            record = submit_and_wait(service)
        assert record["state"] == "failed"
        assert "deadline" in record["error"]

    def test_lost_pool_flips_degraded_read_only(self, service_factory, tmp_path):
        service = service_factory()
        done = submit_and_wait(service)  # seq 1: primes the cache
        plan = [Fault("service-pool", 2, "raise")]
        with faults.active_plan(plan, tmp_path / "plan"):
            status, body = service.submit("estimate", {**REQUEST, "p": 0.35})
            assert status == 202
            deadline = time.monotonic() + 30
            while service.state != "degraded" and time.monotonic() < deadline:
                time.sleep(0.02)
        assert service.state == "degraded"
        record = service.job_view(body["id"])
        assert record["state"] == "submitted"  # durable, will run after restart
        # Read-only: status and cached results keep serving, compute is refused.
        with pytest.raises(ServiceUnavailable, match="degraded"):
            service.submit("estimate", {**REQUEST, "p": 0.45})
        assert service.job_view(done["id"])["state"] == "done"
        status, body = service.submit("estimate", dict(REQUEST))
        assert (status, body["cached"]) == (200, True)
        # The stranded job is durable and completes on a healthy restart.
        service.drain()
        healthy = service_factory(subdir="data")
        assert healthy.metrics.value("jobs_recovered_total") == 1
        recovered = wait_for_state(healthy.job_view, record["id"])
        assert recovered["state"] == "done"


class TestDrainAndCrashRecovery:
    def test_drain_checkpoints_in_flight_job_and_restart_finishes_it(
        self, service_factory, tmp_path
    ):
        plan = [Fault("chunk", ANY_KEY, "delay", seconds=0.05, once=False)]
        with faults.active_plan(plan, tmp_path / "plan"):
            service = service_factory()
            status, body = service.submit(
                "estimate", {**REQUEST, "trials": 64, "chunk_size": 8}
            )
            assert status == 202
            wait_for_state(service.job_view, body["id"], states=("running",))
            service.begin_drain()
            service.drain()
            job = service.journal.load(body["id"])
            assert job.state == "submitted"  # durable, not failed
            assert service.journal.checkpoint_path(job).is_file()
        # Restart without faults: the job resumes from its checkpoint.
        reopened = service_factory(subdir="data")
        assert reopened.metrics.value("jobs_recovered_total") == 1
        record = wait_for_state(reopened.job_view, body["id"])
        assert record["state"] == "done"
        # Byte-identical to a fault-free run of the same request.
        baseline = service_factory(subdir="baseline")
        fresh = submit_and_wait(
            baseline, {**REQUEST, "trials": 64, "chunk_size": 8}
        )
        assert canonical_json(record["result"]["statistics"]) == canonical_json(
            fresh["result"]["statistics"]
        )

    def test_drained_sweep_job_resumes_mid_cell(self, service_factory, tmp_path):
        # The first merge-3 pauses, so the drain lands on merge 2 or 3 of the
        # first cell's eight chunks; the restart continues that cell there.
        from repro.core.checkpoint import load_engine_checkpoint
        from repro.service.jobs import deterministic_view

        request = {"system": "tree", "sizes": [2, 3], "ps": [0.2, 0.4],
                   "trials": 64, "chunk_size": 8}
        plan = [Fault("merge", 3, "delay", seconds=1.0)]
        with faults.active_plan(plan, tmp_path / "plan"):
            service = service_factory()
            status, body = service.submit("sweep", request)
            assert status == 202
            job = service.journal.load(body["id"])
            cell = service.journal.checkpoint_path(job) / "cell-2-0.2.ckpt"
            deadline = time.monotonic() + 30
            while not (cell.is_file() and load_engine_checkpoint(cell).chunks_merged >= 2):
                assert time.monotonic() < deadline, "the sweep never merged a chunk"
                time.sleep(0.01)
            service.begin_drain()
            service.drain()
        assert service.journal.load(body["id"]).state == "submitted"
        state = load_engine_checkpoint(cell)
        assert 2 <= state.chunks_merged <= 3
        assert not (cell.parent / "cell-3-0.2.ckpt").exists()
        reopened = service_factory(subdir="data")
        record = wait_for_state(reopened.job_view, body["id"])
        assert record["state"] == "done"
        fresh = submit_and_wait(service_factory(subdir="baseline"), request, kind="sweep")
        assert deterministic_view(record["result"]) == deterministic_view(fresh["result"])
        assert not cell.parent.exists()

    def test_crash_between_checkpoint_and_done_write_reconciles(
        self, service_factory
    ):
        # Simulate the crash window: the engine checkpoint is complete on
        # disk but the journal still says "running" with no result, so
        # nothing indexes the result either.
        crashed = service_factory(start=False)
        job = crashed.journal.new_job("estimate", normalize_estimate(dict(REQUEST)))
        job.state = "running"
        crashed.journal.write(job)
        crashed._execute(job)
        assert crashed.journal.checkpoint_path(job).is_file()
        reopened = service_factory(subdir="data")
        recovered = wait_for_state(reopened.job_view, job.id)
        assert recovered["state"] == "done"
        assert canonical_json(recovered["result"]["statistics"]) == canonical_json(
            expected_statistics()
        )
        assert not reopened.journal.checkpoint_path(job).exists()
        # The finished job's result serves repeats again.
        status, body = reopened.submit("estimate", dict(REQUEST))
        assert (status, body["cached"]) == (200, True)

    def test_resumed_estimate_with_another_run_fails_at_once(
        self, service_factory, tmp_path
    ):
        # The job rebuilds its RunSpec from its parameters and compares it
        # with the checkpoint's ``run``, field by field: another run fails
        # the job at its first attempt, naming the checkpoint and the field,
        # and a repeat of the request then runs afresh.
        plan = [Fault("chunk", ANY_KEY, "delay", seconds=0.05, once=False)]
        request = {**REQUEST, "chunk_size": 8}
        with faults.active_plan(plan, tmp_path / "plan"):
            service = service_factory()
            status, body = service.submit("estimate", request)
            wait_for_state(service.job_view, body["id"], states=("running",))
            service.drain()
        job = service.journal.load(body["id"])
        checkpoint = service.journal.checkpoint_path(job)
        payload = json.loads(checkpoint.read_text())
        assert payload["run"]["p"] == 0.2 and payload["next_start"] < payload["trials"]
        payload["run"]["p"] = 0.9
        checkpoint.write_text(json.dumps(payload))
        restarted = service_factory(subdir="data", job_retries=3)
        record = wait_for_state(restarted.job_view, body["id"])
        # One attempt after the drained one: the refusal is not retried.
        assert record["state"] == "failed" and record["attempts"] == job.attempts + 1
        assert record["error"].startswith(f"CheckpointRefused: {checkpoint}: ")
        assert "p=0.2 (checkpoint: 0.9)" in record["error"]
        repeat = submit_and_wait(restarted, request)
        fresh = submit_and_wait(service_factory(subdir="baseline"), request)
        assert repeat["state"] == "done" and repeat["id"] != body["id"]
        assert canonical_json(repeat["result"]["statistics"]) == canonical_json(
            fresh["result"]["statistics"]
        )

    def test_recovered_job_with_a_schema_6_checkpoint_fails_at_once(
        self, service_factory, write_schema_6_checkpoint
    ):
        # A daemon upgraded past schema 7 finds an in-flight job's checkpoint
        # named by a pickle digest: the job fails on its first attempt,
        # naming the file, and is not retried.
        old = service_factory(start=False)
        job = old.journal.new_job("estimate", normalize_estimate(dict(REQUEST)))
        job.state = "running"
        old.journal.write(job)
        checkpoint = write_schema_6_checkpoint(old.journal.checkpoint_path(job))
        upgraded = service_factory(subdir="data", job_retries=3)
        record = wait_for_state(upgraded.job_view, job.id)
        assert record["state"] == "failed" and record["attempts"] == 1
        assert record["error"].startswith(f"CheckpointRefused: {checkpoint}: schema version 6")
        assert "start afresh" in record["error"]
        assert upgraded.metrics.value("job_retries_total") == 0

    @pytest.mark.parametrize(
        "kind, request_body",
        [
            ("estimate", REQUEST),
            ("sweep", {"system": "tree", "sizes": [2], "ps": [0.2, 0.4], "trials": 32}),
        ],
    )
    def test_checkpoint_of_an_older_stream_fails_the_job_at_once(
        self, service_factory, kind, request_body
    ):
        # A daemon upgraded past a stream switch finds its in-flight jobs'
        # checkpoints on the old stream.  The refusal is deterministic, so
        # the job fails on its first attempt, naming the file and stream.
        job, checkpoint = _job_with_an_older_stream_checkpoint(
            service_factory, kind, request_body
        )
        upgraded = service_factory(subdir="data", job_retries=3)
        record = wait_for_state(upgraded.job_view, job.id)
        assert record["state"] == "failed" and record["attempts"] == 1
        assert record["error"].startswith(f"CheckpointRefused: {checkpoint}: ")
        assert "'bitplane-v2'" in record["error"]
        assert upgraded.metrics.value("job_retries_total") == 0

    def test_done_results_are_indexed_from_the_journal(self, service_factory):
        service = service_factory()
        record = submit_and_wait(service)
        service.drain()
        reopened = service_factory(subdir="data")
        status, body = reopened.submit("estimate", dict(REQUEST))
        assert (status, body["cached"]) == (200, True)
        assert body["result"] == record["result"]
        assert len(reopened.journal.load_all()) == 1
        # The journal is the only durable store: nothing under cache/.
        assert not (reopened.data_dir / "cache").exists()

    def test_existing_cache_directory_is_ignored_and_kept(self, service_factory):
        old = service_factory(start=False).data_dir / "cache"
        old.mkdir()
        entry = old / (cache_key({"kind": "estimate", **normalize_estimate(REQUEST)}) + ".json")
        entry.write_text("{}")
        service = service_factory(subdir="data")
        assert submit_and_wait(service)["state"] == "done"
        assert [path.name for path in old.iterdir()] == [entry.name]

    def test_edited_done_result_fails_startup_naming_the_field(
        self, service_factory
    ):
        service = service_factory()
        record = submit_and_wait(service)
        service.drain()
        path = service.journal.path_for(record["id"])
        payload = json.loads(path.read_text())
        payload["result"]["statistics"]["mean"] += 1.0  # bit rot
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=rf"{path}.*'result_crc32'"):
            ProbeService(service.data_dir)

    def test_schema_1_done_record_is_served_but_not_indexed(self, service_factory):
        service = service_factory()
        record = submit_and_wait(service)
        service.drain()
        # Rewrite the record as a schema-1 journal wrote it: no CRC field.
        path = service.journal.path_for(record["id"])
        payload = json.loads(path.read_text())
        del payload["result_crc32"]
        payload["schema"] = 1
        path.write_text(json.dumps(payload))
        reopened = service_factory(subdir="data")
        assert reopened.job_view(record["id"]) == record
        # A repeat runs once more, then hits.
        status, body = reopened.submit("estimate", dict(REQUEST))
        assert status == 202
        rerun = wait_for_state(reopened.job_view, body["id"])
        assert rerun["result"]["statistics"] == record["result"]["statistics"]
        status, body = reopened.submit("estimate", dict(REQUEST))
        assert (status, body["cached"]) == (200, True)

    def test_corrupt_journal_record_fails_startup_loudly(self, service_factory):
        service = service_factory()
        record = submit_and_wait(service)
        service.drain()
        path = service.journal.path_for(record["id"])
        faults.truncate_file(path, 30)
        with pytest.raises(ValueError, match=str(path)):
            ProbeService(service.data_dir)


class TestCheckpointCleanup:
    """A job's checkpoint lives exactly as long as the job can resume it."""

    def test_done_jobs_leave_no_checkpoints(self, service_factory):
        service = service_factory()
        assert submit_and_wait(service)["state"] == "done"
        sweep = {"system": "tree", "sizes": [2], "ps": [0.2, 0.4], "trials": 32}
        assert submit_and_wait(service, sweep, kind="sweep")["state"] == "done"
        assert list(service.journal.checkpoints.iterdir()) == []

    def test_sweep_checkpoint_directory_goes_once_done_is_durable(
        self, service_factory, monkeypatch
    ):
        service = service_factory(start=False)
        seen = []
        write = service.journal.write

        def recording(job):
            if job.state == "done":
                directory = service.journal.checkpoint_path(job)
                seen.append(sorted(path.name for path in directory.iterdir()))
            return write(job)

        monkeypatch.setattr(service.journal, "write", recording)
        service.start()
        sweep = {"system": "tree", "sizes": [2], "ps": [0.2, 0.4], "trials": 32}
        assert submit_and_wait(service, sweep, kind="sweep")["state"] == "done"
        # Every cell's checkpoint was still there when the done record was
        # written, and the directory went after it.
        assert seen == [["cell-2-0.2.ckpt", "cell-2-0.4.ckpt"]]
        assert list(service.journal.checkpoints.iterdir()) == []

    def test_deadline_failed_job_leaves_no_checkpoint(self, service_factory, tmp_path):
        plan = [Fault("chunk", ANY_KEY, "delay", seconds=0.05, once=False)]
        with faults.active_plan(plan, tmp_path / "plan"):
            service = service_factory(deadline=0.01)
            record = submit_and_wait(service)
        assert record["state"] == "failed" and "deadline" in record["error"]
        assert list(service.journal.checkpoints.iterdir()) == []

    def test_drained_job_keeps_its_checkpoint_until_restart_finishes_it(
        self, service_factory, tmp_path
    ):
        plan = [Fault("chunk", ANY_KEY, "delay", seconds=0.05, once=False)]
        with faults.active_plan(plan, tmp_path / "plan"):
            service = service_factory()
            status, body = service.submit("estimate", {**REQUEST, "chunk_size": 8})
            assert status == 202
            wait_for_state(service.job_view, body["id"], states=("running",))
            service.begin_drain()
            service.drain()
        checkpoint = service.journal.checkpoint_path(service.journal.load(body["id"]))
        assert checkpoint.is_file()
        reopened = service_factory(subdir="data")
        assert wait_for_state(reopened.job_view, body["id"])["state"] == "done"
        assert not checkpoint.exists()
        assert list(reopened.journal.checkpoints.iterdir()) == []

    def _record_checkpoints_at_backoff(self, monkeypatch, services):
        """Make the retry backoff record which checkpoint files exist."""
        from repro.service import app

        seen = []
        monkeypatch.setattr(
            app,
            "_sleep",
            lambda seconds: seen.append(
                [path.name for path in services[0].journal.checkpoints.iterdir()]
            ),
        )
        return seen

    def test_retried_job_keeps_its_checkpoint_between_attempts(
        self, service_factory, tmp_path, monkeypatch
    ):
        services = []
        seen = self._record_checkpoints_at_backoff(monkeypatch, services)
        plan = [Fault("chunk", 32, "raise")]  # third chunk, once
        with faults.active_plan(plan, tmp_path / "plan"):
            services.append(service_factory(retries=0, job_retries=1))
            record = submit_and_wait(services[0])
        assert record["state"] == "done" and record["attempts"] == 2
        assert len(seen) == 1 and len(seen[0]) == 1
        assert canonical_json(record["result"]["statistics"]) == canonical_json(
            expected_statistics()
        )
        assert list(services[0].journal.checkpoints.iterdir()) == []

    def test_job_out_of_retries_leaves_no_checkpoint(
        self, service_factory, tmp_path, monkeypatch
    ):
        services = []
        seen = self._record_checkpoints_at_backoff(monkeypatch, services)
        plan = [Fault("chunk", 32, "raise", once=False)]  # third chunk, always
        with faults.active_plan(plan, tmp_path / "plan"):
            services.append(service_factory(retries=0, job_retries=1))
            record = submit_and_wait(services[0])
        assert record["state"] == "failed" and record["attempts"] == 2
        assert len(seen) == 1 and len(seen[0]) == 1
        assert list(services[0].journal.checkpoints.iterdir()) == []

    def test_restart_drops_the_checkpoints_of_settled_jobs(
        self, service_factory, monkeypatch
    ):
        # A crash between a job's terminal record and the unlink of its
        # checkpoint leaves the file behind; the next start removes it.  An
        # unsettled job keeps its checkpoint to resume from.
        old = service_factory(start=False)
        jobs = {}
        for seed, state in enumerate(("done", "failed", "submitted")):
            job = old.journal.new_job(
                "estimate", normalize_estimate({**REQUEST, "seed": seed})
            )
            if state == "done":
                job.result = old._execute(job)  # leaves the job's checkpoint
            else:
                old.journal.checkpoint_path(job).write_text("{}")
            job.state = state
            old.journal.write(job)
            jobs[state] = old.journal.checkpoint_path(job)
        assert all(path.is_file() for path in jobs.values())
        # Keep the submitted job off the queue, so only start() acts.
        monkeypatch.setattr(ProbeService, "_enqueue", lambda self, job: None)
        service_factory(subdir="data")
        assert not jobs["done"].exists() and not jobs["failed"].exists()
        assert jobs["submitted"].is_file()

    @pytest.mark.parametrize(
        "kind, request_body",
        [
            ("estimate", REQUEST),
            ("sweep", {"system": "tree", "sizes": [2], "ps": [0.2, 0.4], "trials": 32}),
        ],
    )
    def test_refused_checkpoint_goes_with_its_failed_job(
        self, service_factory, kind, request_body
    ):
        job, checkpoint = _job_with_an_older_stream_checkpoint(
            service_factory, kind, request_body
        )
        upgraded = service_factory(subdir="data")
        record = wait_for_state(upgraded.job_view, job.id)
        assert record["state"] == "failed" and "CheckpointRefused" in record["error"]
        assert not checkpoint.exists()
        assert list(upgraded.journal.checkpoints.iterdir()) == []


class TestHTTP:
    def test_health_ready_metrics_and_jobs(self, service_factory):
        service, base = service_factory(http=True)
        assert http_get(base + "/healthz")[0] == 200
        assert http_get(base + "/readyz")[0] == 200
        status, body, _ = http_post(base + "/estimate", REQUEST)
        assert status == 202
        record = wait_for_state(
            lambda job_id: http_get(base + f"/jobs/{job_id}")[1], body["id"]
        )
        assert record["state"] == "done"
        status, text, _ = http_get(base + "/metrics")
        assert status == 200
        assert "repro_jobs_done_total 1" in text
        assert http_get(base + "/jobs/nope")[0] == 404
        assert http_get(base + "/elsewhere")[0] == 404

    def test_job_path_outside_the_journal_answers_json_404(self, service_factory):
        service, base = service_factory(http=True)
        # "/jobs/../x" once resolved to <data>/journal/../x.json.
        (service.data_dir / "x.json").write_text("not a job record")
        status, body, _ = http_get(base + "/jobs/../x")
        assert (status, body) == (404, {"error": "no such job"})

    def test_queue_full_answers_503_with_retry_after(self, service_factory):
        service, base = service_factory(http=True, start=False, queue_size=1)
        assert http_post(base + "/estimate", REQUEST)[0] == 202
        status, body, headers = http_post(
            base + "/estimate", {**REQUEST, "p": 0.3}
        )
        assert status == 503
        assert "queue full" in body["error"]
        assert headers["Retry-After"] == "1"

    def test_healthz_flips_during_drain(self, service_factory):
        service, base = service_factory(http=True)
        assert http_get(base + "/healthz")[0] == 200
        service.begin_drain()
        assert http_get(base + "/healthz")[0] == 503
        assert http_get(base + "/readyz")[0] == 503
        assert http_post(base + "/estimate", REQUEST)[0] == 503

    def test_handler_fault_answers_500_and_keeps_serving(
        self, service_factory, tmp_path
    ):
        service, base = service_factory(http=True)
        plan = [Fault("service-handler", 1, "raise")]
        with faults.active_plan(plan, tmp_path / "plan"):
            assert http_post(base + "/estimate", REQUEST)[0] == 500
            assert http_post(base + "/estimate", REQUEST)[0] == 202

    def test_malformed_json_answers_400(self, service_factory):
        import urllib.request

        service, base = service_factory(http=True)
        request = urllib.request.Request(
            base + "/estimate",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        try:
            urllib.request.urlopen(request, timeout=30)
            status = 200
        except urllib.error.HTTPError as error:
            status = error.code
            body = json.loads(error.read())
        assert status == 400
        assert "invalid JSON" in body["error"]

    def test_bad_request_answers_400(self, service_factory):
        service, base = service_factory(http=True)
        status, body, _ = http_post(base + "/estimate", {"system": "nope", "p": 0.2})
        assert status == 400
        assert "unknown system" in body["error"]

    def test_non_integer_trials_answers_400(self, service_factory):
        service, base = service_factory(http=True)
        status, body, _ = http_post(base + "/estimate", {**REQUEST, "trials": "abc"})
        assert status == 400
        assert "trials must be an integer" in body["error"]
        assert service.journal.load_all() == []
