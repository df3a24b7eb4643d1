"""The probe-estimation daemon: HTTP API, job queue, and crash-safe serving.

``repro-probe serve`` runs a stdlib-only HTTP service over the same
engine every other entry point uses:

* ``POST /estimate`` — submit one streaming estimation (``202`` + job id,
  or ``200`` immediately on a result-cache hit);
* ``POST /sweep`` — submit a ``(sizes, ps)`` grid;
* ``GET /jobs/<id>`` — the job's journal record (state, result, error);
* ``GET /healthz`` — liveness: ``200`` while serving (including degraded),
  ``503`` once draining;
* ``GET /readyz`` — readiness: ``200`` only when accepting new jobs;
* ``GET /metrics`` — Prometheus text metrics.

Robustness model (the point of this module):

* **Durability** — every accepted job is journaled before the ``202``
  leaves the socket, and every state change is an atomic write.  Runs
  checkpoint through the engine's own ``checkpoint_path`` hook, so
  ``kill -9`` at *any* moment loses at most the chunks since the last
  durable boundary: the startup scan re-queues interrupted jobs, which
  rebuild their :class:`~repro.core.engine.RunSpec` from the journaled
  parameters and resume from the checkpoint's chunk state alone (no code
  object is read back from disk), byte-identical to uninterrupted runs
  (the engine's ``(seed, start)`` chunk keying).  Completed jobs are
  never re-run, and a job's checkpoint is removed once its terminal
  (``done`` or ``failed``) record is durable (or at the next start, after
  a crash in between), so the data directory holds checkpoints of
  unsettled jobs only.
* **Admission control** — a bounded queue; a full queue or a non-ready
  service answers ``503`` with a ``Retry-After`` header instead of
  accepting work it cannot do.  Failed runs retry with exponential
  backoff up to a bounded attempt budget; each attempt runs under the
  service deadline (the engine's ``run_timeout``) and the existing
  chunk-timeout machinery.  A refused checkpoint
  (:class:`~repro.core.checkpoint.CheckpointRefused`: an older draw
  stream or schema, or another run) fails the job at once, naming the
  file.
* **Degraded mode** — a lost worker pool (``BrokenExecutor``, or the
  ``"service-pool"`` fault site) flips the service read-only: job status
  and cached results keep serving, new submissions get ``503``.
* **Graceful shutdown** — SIGTERM/SIGINT set the engine ``stop_event``;
  in-flight runs stop at the next chunk boundary with a durable
  checkpoint and return to ``submitted``, then the server exits.  A
  second signal force-exits.
* **Caching** — results are content-addressed by the resolved request
  parameters (:mod:`repro.service.cache`); a repeated query is one lookup
  in an in-memory index of the journal's ``done`` records, whose CRCs are
  checked when the journal loads.  The journal is the only durable copy
  of a result.
"""

from __future__ import annotations

import json
import logging
import queue
import shutil
import threading
import time
from concurrent.futures import BrokenExecutor
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.core.checkpoint import CheckpointRefused
from repro.core.engine import (
    ChunkPool,
    RunDeadlineExceeded,
    RunInterrupted,
    check_run_settings,
    stream_probes,
)
from repro.service.cache import ResultCache, cache_key
from repro.service.jobs import (
    NORMALIZERS,
    BadRequest,
    Job,
    JobJournal,
    estimate_result_payload,
    estimate_spec,
    sweep_result_payload,
)
from repro.service.metrics import STATE_CODES, ServiceMetrics
from repro.testing.faults import FaultInjected, fire_fault

_logger = logging.getLogger("repro.service")

#: Base of the exponential backoff between a failed job's attempts, in
#: seconds: attempt ``k`` waits ``JOB_RETRY_BACKOFF * 2^(k-1)``.
JOB_RETRY_BACKOFF = 0.05

#: Seconds a ``503`` answer's ``Retry-After`` header asks a client to wait.
RETRY_AFTER_SECONDS = 1.0

# Patchable in tests (retry-backoff pauses).
_sleep = time.sleep


class ServiceUnavailable(RuntimeError):
    """The service cannot accept this work right now (HTTP 503)."""

    retry_after = RETRY_AFTER_SECONDS


class ProbeService:
    """Job queue + worker threads + durable state under one directory.

    The HTTP layer (:class:`ProbeServer`) is a thin shell over this
    object; tests drive it directly.  ``data_dir`` holds everything
    durable: ``journal/`` (job records, results included) and
    ``journal/checkpoints/`` (the engine checkpoints of unsettled jobs: one
    file per estimate, one directory of per-cell files per sweep, removed
    once the job's ``done`` or ``failed`` record is durable).
    """

    def __init__(
        self,
        data_dir: str | Path,
        *,
        queue_size: int = 16,
        workers: int = 1,
        engine_jobs: int = 1,
        job_retries: int = 1,
        retries: int | None = None,
        chunk_timeout: float | None = None,
        deadline: float | None = None,
    ) -> None:
        if queue_size < 1:
            raise ValueError("queue_size must be at least 1")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if job_retries < 0:
            raise ValueError("job_retries must be >= 0")
        # The engine options every job runs with, checked as the engine
        # checks them, before anything is written.
        check_run_settings(
            jobs=engine_jobs,
            retries=retries,
            chunk_timeout=chunk_timeout,
            run_timeout=deadline,
        )
        self.data_dir = Path(data_dir)
        self.queue_size = queue_size
        self.workers = workers
        self.engine_jobs = engine_jobs
        self.job_retries = job_retries
        self.retries = retries
        self.chunk_timeout = chunk_timeout
        self.deadline = deadline

        self.journal = JobJournal(self.data_dir / "journal")
        self.cache = ResultCache()
        self.metrics = ServiceMetrics()
        self.stop_event = threading.Event()
        self.state = "ready"

        self._lock = threading.RLock()
        self._jobs: dict[str, Job] = {}
        # Cache key -> id of the queued or running job computing it, so a
        # repeat of an in-flight request joins that job.
        self._active: dict[str, str] = {}
        # Admission is enforced by ``_queued`` against ``queue_size`` (the
        # Queue itself is unbounded so the recovery scan can always
        # re-enqueue every interrupted job, however many there are).
        self._queue: queue.Queue = queue.Queue()
        self._queued = 0
        self._in_flight = 0
        self._requests = 0
        self._threads: list[threading.Thread] = []
        self._pool: ChunkPool | None = None
        self._started = False

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Recover the journal, then start the worker threads."""
        if self._started:
            return
        self._started = True
        pending, finished = self.journal.recover()
        for job in finished:
            self._jobs[job.id] = job
            # A crash between the terminal record and its unlink left this.
            self._drop_checkpoint(job)
            # Schema-1 records carry no CRC: served, but not indexed.
            if job.state == "done" and job.schema >= 2:
                self.cache.put(job.cache_key, job.result)
        for job in pending:
            self._jobs[job.id] = job
            self._active[job.cache_key] = job.id
            self.metrics.inc("jobs_recovered_total")
            self._enqueue(job)
        if pending:
            _logger.info(
                "journal recovery: re-queued %d interrupted job(s)", len(pending)
            )
        if self.engine_jobs > 1:
            self._pool = ChunkPool(self.engine_jobs)
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"probe-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def begin_drain(self) -> None:
        """Flip to draining and ask in-flight runs to stop (non-blocking).

        Safe to call from a signal handler: it only sets flags — the
        engine notices ``stop_event`` at the next chunk boundary, writes
        a durable checkpoint and raises out of the run.
        """
        with self._lock:
            if self.state == "draining":
                return
            self._set_state("draining")
        self.stop_event.set()
        _logger.info("draining: in-flight jobs will checkpoint and stop")

    def drain(self) -> None:
        """Drain and wait: workers exit once in-flight runs checkpoint."""
        self.begin_drain()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join()
        self._threads.clear()
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _set_state(self, state: str) -> None:
        self.state = state
        self.metrics.set_gauge("service_state", STATE_CODES[state])

    # -- submission and reads -----------------------------------------------------

    def submit(self, kind: str, payload: dict) -> tuple[int, dict]:
        """Accept (or reject) one request; returns ``(status, body)``.

        Raises :class:`~repro.service.jobs.BadRequest` for malformed
        requests and :class:`ServiceUnavailable` when admission control
        rejects — the HTTP layer maps those to 400 and 503.  A repeat of a
        request whose job is still queued or running joins that job: 202
        with its id, and no new journal record.
        """
        params = NORMALIZERS[kind](payload)
        key = cache_key({"kind": kind, **params})
        cached = self.cache.get(key)
        if cached is not None:
            self.metrics.inc("cache_hits_total")
            return 200, {
                "state": "done",
                "cached": True,
                "cache_key": key,
                "result": cached,
            }
        self.metrics.inc("cache_misses_total")
        with self._lock:
            if self.state != "ready":
                self.metrics.inc("jobs_rejected_total")
                raise ServiceUnavailable(f"service is {self.state}; not accepting new jobs")
            active = self._active.get(key)
            if active is not None:
                job = self._jobs[active]
                return 202, {"id": job.id, "state": job.state, "cache_key": key}
            if self._queued >= self.queue_size:
                self.metrics.inc("jobs_rejected_total")
                raise ServiceUnavailable(f"queue full ({self.queue_size} job(s) waiting)")
            job = self.journal.new_job(kind, params)
            # Durable before the 202 leaves the socket: an accepted job
            # survives any crash from here on.
            self.journal.write(job)
            self._jobs[job.id] = job
            self._active[key] = job.id
            self.metrics.inc("jobs_submitted_total")
            self._enqueue(job)
        return 202, {"id": job.id, "state": "submitted", "cache_key": job.cache_key}

    def job_view(self, job_id: str) -> dict | None:
        """The public record for ``job_id``, or ``None`` (404).

        Every record is loaded at :meth:`start` and every new job joins at
        :meth:`submit`, so an id this service does not know is unknown —
        it is never looked up on disk.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            # Under the lock: ``state`` and ``result`` are never torn.
            return None if job is None else job.public_view()

    def next_request_ordinal(self) -> int:
        """1-based POST ordinal (the ``"service-handler"`` fault key)."""
        with self._lock:
            self._requests += 1
            return self._requests

    def _enqueue(self, job: Job) -> None:
        with self._lock:
            self._queued += 1
            self.metrics.set_gauge("queue_depth", self._queued)
        self._queue.put(job.id)

    # -- the worker side ----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._lock:
                self._queued -= 1
                self.metrics.set_gauge("queue_depth", self._queued)
                job = self._jobs[job_id]
            if self.stop_event.is_set():
                # Draining: the job is already durable as ``submitted``;
                # the next start re-queues it.
                continue
            try:
                self._run_job(job)
            except Exception:  # pragma: no cover - worker must never die
                _logger.exception("unexpected error running %s", job.id)

    def _run_job(self, job: Job) -> None:
        with self._lock:
            job.state = "running"
            job.attempts += 1
            self._in_flight += 1
            self.metrics.set_gauge("jobs_in_flight", self._in_flight)
        self.journal.write(job)
        started = time.monotonic()
        try:
            try:
                fire_fault("service-pool", job.seq)
            except FaultInjected as error:
                # The injected stand-in for a lost pool — distinct from a
                # FaultInjected escaping the engine run, which retries.
                self._enter_degraded(job, error)
                return
            result = self._execute(job)
        except BrokenExecutor as error:
            self._enter_degraded(job, error)
            return
        except RunInterrupted:
            # Drain: the engine checkpointed at the boundary; the job goes
            # back to submitted and the next start resumes it exactly.
            with self._lock:
                job.state = "submitted"
            self.journal.write(job)
            return
        except RunDeadlineExceeded as error:
            self._finish_failed(job, f"deadline exceeded: {error}")
            return
        except CheckpointRefused as error:
            # Deterministic: every retry would read the same checkpoint.
            self._finish_failed(job, f"{type(error).__name__}: {error}")
            return
        except Exception as error:
            self._retry_or_fail(job, error)
            return
        finally:
            with self._lock:
                self._in_flight -= 1
                self.metrics.set_gauge("jobs_in_flight", self._in_flight)
        self._finish_done(job, result, time.monotonic() - started)

    def _execute(self, job: Job) -> dict:
        params = job.params
        checkpoint = self.journal.checkpoint_path(job)
        resume = checkpoint if checkpoint.exists() else None
        if job.kind == "estimate":
            result = stream_probes(
                estimate_spec(params),
                trials=params["trials"],
                target_ci=params["target_ci"],
                chunk_size=params["chunk_size"],
                min_trials=params["min_trials"],
                max_trials=params["max_trials"],
                seed=params["seed"],
                jobs=self.engine_jobs,
                executor=self._pool,
                retries=self.retries,
                chunk_timeout=self.chunk_timeout,
                checkpoint_path=checkpoint,
                resume=resume,
                backend=params["backend"],
                stop_event=self.stop_event,
                run_timeout=self.deadline,
            )
            return estimate_result_payload(result)
        from repro.experiments.sweep import run_sweep

        result = run_sweep(
            params["system"],
            params["sizes"],
            params["ps"],
            trials=params["trials"],
            target_ci=params["target_ci"],
            seed=params["seed"],
            randomized=params["randomized"],
            distribution=params["distribution"],
            chunk_size=params["chunk_size"],
            min_trials=params["min_trials"],
            max_trials=params["max_trials"],
            jobs=self.engine_jobs,
            retries=self.retries,
            chunk_timeout=self.chunk_timeout,
            checkpoint_path=checkpoint,
            resume=resume,
            backend=params["backend"],
            stop_event=self.stop_event,
            run_timeout=self.deadline,
        )
        return sweep_result_payload(result)

    def _finish_done(self, job: Job, result: dict, seconds: float) -> None:
        # Durable and indexed before anyone can read ``done``: a client
        # that sees it and repeats the request at once hits the cache, and
        # a crash before the publish re-runs a job no client saw finish.
        # The ``done`` record is the result's one durable copy; a restart
        # indexes it again from the journal.
        with self._lock:
            done = replace(job, state="done", result=result, error="")
        self.journal.write(done)
        self._drop_checkpoint(job)
        self.cache.put(job.cache_key, result)
        self.metrics.inc("jobs_done_total")
        self.metrics.inc("job_seconds_total", seconds)
        recovery = result.get("recovery", {})
        self.metrics.inc("chunk_retries_total", recovery.get("retries_used", 0))
        self.metrics.inc("pool_respawns_total", recovery.get("pool_respawns", 0))
        self.metrics.inc("trials_total", _trials_of(job.kind, result))
        with self._lock:
            job.state, job.result, job.error = "done", result, ""
            job.updated = done.updated
            self._settle(job)
        _logger.info("%s done (%d attempt(s))", job.id, job.attempts)

    def _finish_failed(self, job: Job, error: str) -> None:
        with self._lock:
            job.state = "failed"
            job.error = error
            self._settle(job)
        self.metrics.inc("jobs_failed_total")
        self.journal.write(job)
        self._drop_checkpoint(job)
        _logger.warning("%s failed: %s", job.id, error)

    def _drop_checkpoint(self, job: Job) -> None:
        """Remove a settled job's checkpoint once its terminal record is
        durable; drained and retried jobs keep theirs to resume from."""
        path = self.journal.checkpoint_path(job)
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink(missing_ok=True)

    def _settle(self, job: Job) -> None:
        """Drop ``job`` from the in-flight index (call under ``_lock``)."""
        if self._active.get(job.cache_key) == job.id:
            del self._active[job.cache_key]

    def _retry_or_fail(self, job: Job, error: BaseException) -> None:
        if job.attempts > self.job_retries:
            self._finish_failed(
                job,
                f"{type(error).__name__}: {error} "
                f"(after {job.attempts} attempt(s))",
            )
            return
        backoff = JOB_RETRY_BACKOFF * (2 ** (job.attempts - 1))
        _logger.warning(
            "%s attempt %d failed (%s); retrying in %.2fs",
            job.id,
            job.attempts,
            error,
            backoff,
        )
        self.metrics.inc("job_retries_total")
        _sleep(backoff)
        with self._lock:
            job.state = "submitted"
        self.journal.write(job)
        self._enqueue(job)

    def _enter_degraded(self, job: Job, error: BaseException) -> None:
        """Worker pool lost: stop computing, keep serving reads."""
        _logger.error("worker pool lost; entering degraded mode: %s", error)
        with self._lock:
            if self.state == "ready":
                self._set_state("degraded")
            job.state = "submitted"
        # The job is durable and will run on the next (healthy) start.
        self.journal.write(job)


def _trials_of(kind: str, result: dict) -> int:
    statistics = result.get("statistics", {})
    if kind == "estimate":
        return int(statistics.get("n_trials_used", 0))
    return sum(
        int(cell.get("n_trials_used", 0))
        for cell in statistics.get("cells", ())
        if cell.get("status") == "ok"
    )


# -- the HTTP shell ---------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-probe"

    @property
    def service(self) -> ProbeService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        _logger.debug("%s %s", self.address_string(), format % args)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self.service.metrics.inc("requests_total")
        service = self.service
        if self.path == "/healthz":
            if service.state == "draining":
                self._send_json(503, {"state": service.state})
            else:
                self._send_json(200, {"state": service.state})
            return
        if self.path == "/readyz":
            status = 200 if service.state == "ready" else 503
            self._send_json(status, {"state": service.state})
            return
        if self.path == "/metrics":
            body = service.metrics.render().encode()
            self._respond(200, "text/plain; version=0.0.4", body)
            return
        if self.path.startswith("/jobs/"):
            view = service.job_view(self.path[len("/jobs/") :])
            if view is None:
                self._send_json(404, {"error": "no such job"})
            else:
                self._send_json(200, view)
            return
        self._send_json(404, {"error": f"no such endpoint {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self.service.metrics.inc("requests_total")
        kind = {"/estimate": "estimate", "/sweep": "sweep"}.get(self.path)
        if kind is None:
            self._send_json(404, {"error": f"no such endpoint {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
            payload = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, json.JSONDecodeError) as error:
            self._send_json(400, {"error": f"invalid JSON body: {error}"})
            return
        try:
            fire_fault("service-handler", self.service.next_request_ordinal())
            status, body = self.service.submit(kind, payload)
        except BadRequest as error:
            self._send_json(400, {"error": str(error)})
            return
        except ServiceUnavailable as error:
            self._send_json(
                503,
                {"error": str(error), "state": self.service.state},
                headers={"Retry-After": f"{error.retry_after:g}"},
            )
            return
        except FaultInjected as error:
            # The 500 path: answer cleanly, keep serving.
            _logger.error("handler error: %s", error)
            self._send_json(500, {"error": str(error)})
            return
        self._send_json(status, body)

    def _send_json(
        self, status: int, payload: dict, headers: dict | None = None
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self._respond(status, "application/json", body, headers)

    def _respond(
        self, status: int, content_type: str, body: bytes, headers: dict | None = None
    ) -> None:
        """Send one whole response; every answer leaves through here."""
        if status >= 400:
            self.service.metrics.inc("request_errors_total")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)


class ProbeServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`ProbeService`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: ProbeService) -> None:
        super().__init__(address, _Handler)
        self.service = service


def make_server(
    service: ProbeService, host: str = "127.0.0.1", port: int = 0
) -> ProbeServer:
    """Bind (but do not run) the HTTP shell; ``port=0`` picks a free port."""
    return ProbeServer((host, port), service)


def _announce(message: str) -> None:
    # Flushed, so a supervisor reading our pipe sees the bound address
    # immediately (stdout is block-buffered when not a tty).
    print(message, flush=True)


def serve(
    data_dir: str | Path,
    host: str = "127.0.0.1",
    port: int = 8421,
    *,
    announce=_announce,
    **service_options,
) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns an exit status.

    The first signal begins a graceful drain — ``/healthz`` flips to 503
    immediately, in-flight runs checkpoint at their next chunk boundary —
    and the server exits once they have.  A second signal raises
    ``KeyboardInterrupt`` and exits without waiting.
    """
    service = ProbeService(data_dir, **service_options)
    service.start()
    server = make_server(service, host, port)
    bound_host, bound_port = server.server_address[:2]
    announce(f"serving on http://{bound_host}:{bound_port} (data: {data_dir})")

    def _finish() -> None:
        service.drain()
        server.shutdown()

    def _on_signal(signum: int) -> None:
        # Flag flips are signal-safe; the blocking drain runs elsewhere.
        service.begin_drain()
        threading.Thread(target=_finish, daemon=True).start()

    from repro.signals import trap_to_callback

    try:
        with trap_to_callback(_on_signal):
            server.serve_forever()
    except KeyboardInterrupt:
        announce("second signal: exiting without waiting for drain")
        return 130
    finally:
        server.server_close()
    service.drain()
    announce("drained; all accepted jobs are durable")
    return 0
