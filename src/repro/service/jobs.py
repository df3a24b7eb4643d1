"""Durable job records: request normalization and the journal.

Every estimation job the service accepts is persisted as one JSON record
(``journal/job-NNNNNN.json``) written atomically at every state change,
so the journal on disk is always a crash-consistent description of the
service's work:

* ``submitted`` — accepted and queued; the request is fully resolved
  (seed, trials/tolerance, backend all pinned), so the record alone
  reproduces the run bit-for-bit.
* ``running`` — a worker picked it up; its engine checkpoint (written by
  the run itself under ``checkpoints/``: ``<job>.ckpt``, or for a sweep
  the directory ``<job>.sweep/`` of per-cell engine checkpoints) carries
  the chunk-level state.
* ``done`` / ``failed`` — terminal; ``result`` (with its CRC-32,
  ``result_crc32``) or ``error`` is recorded.  A ``done`` record is the
  one durable copy of its result: the service's result cache is an
  in-memory index built from these records.

Recovery after ``kill -9`` is one scan of this directory when the journal
opens: ``done``/``failed`` jobs are served from their records (never
re-run), ``running`` jobs are re-queued and resume from their engine
checkpoint, rebuilding the run from the record's own parameters, and
``submitted`` jobs are re-queued from scratch.  Because requests are
resolved at submission and engine chunks are keyed by ``(seed, start)``,
a recovered job's statistics are byte-identical to an uninterrupted
run's.

Loading is strict, like every persisted format in the repo: a truncated
or corrupt record, a wrong ``kind``, a newer schema or a missing field
fail with a message naming the file and the field — never a raw
``KeyError``/``JSONDecodeError``.  So does a result that no longer
matches its ``result_crc32``: the service never serves bytes it cannot
vouch for.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from repro.core.batched import check_backend_name
from repro.core.checkpoint import (
    atomic_write_json,
    check_schema_version,
    load_json_payload,
    remove_stale_tmp,
    required_field,
    sweep_stale_tmp,
)
from repro.core.distributions import canonical_source_name
from repro.core.engine import RunSpec, StreamResult, check_run_settings
from repro.service.cache import cache_key, result_crc
from repro.systems.factory import canonical_system_name
from repro.testing.faults import fire_fault

_logger = logging.getLogger("repro.service")

#: ``kind`` field of job journal records.
JOB_KIND = "service_job"

#: Version of the job record JSON schema.  Version 2 added
#: ``result_crc32``; version-1 records still load, and their results are
#: served but not indexed by the result cache.
JOB_SCHEMA_VERSION = 2

#: The job lifecycle; ``done``/``failed`` are terminal.
JOB_STATES = ("submitted", "running", "done", "failed")

#: Request kinds the service runs.
JOB_KINDS = ("estimate", "sweep")

#: Result keys that describe *how* a run went, not *what* it computed —
#: wall clock and fault-recovery counters.  Excluded from the
#: ``statistics`` block, so byte-identity claims compare real payloads.
NONDETERMINISTIC_KEYS = ("seconds", "retries_used", "pool_respawns")


class BadRequest(ValueError):
    """A request that cannot be turned into a runnable job (HTTP 400)."""


def _require(payload: dict, key: str):
    value = payload.get(key)
    if value is None:
        raise BadRequest(f"missing required field {key!r}")
    return value


def _take(payload: dict, allowed: dict[str, Any]) -> dict:
    """Apply defaults and reject unknown keys loudly."""
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise BadRequest(
            f"unknown field(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )
    resolved = dict(allowed)
    resolved.update({key: value for key, value in payload.items() if value is not None})
    return resolved


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"{name} must be an integer, got {value!r}")
    return value


#: Request fields both job kinds take, with their defaults, in the order
#: they follow each kind's own fields.
_RUN_FIELDS = {
    "randomized": False,
    "distribution": "bernoulli",
    "trials": None,
    "target_ci": None,
    "chunk_size": None,
    "min_trials": None,
    "max_trials": None,
    "seed": 0,
    "backend": "numpy",
}


def _as_float(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise BadRequest(f"{name} must be a number, got {value!r}") from None


def _resolve(payload, own_fields: dict[str, Any]) -> dict:
    """What both normalizers share: defaults, unknown keys, the system
    name, the distribution, the run settings, the backend and the seed.

    The run settings and the seed are checked by the engine's own
    :func:`~repro.core.engine.check_run_settings`, never converted, so an
    accepted value keeps the exact form the cache key is computed from;
    only ``trials`` is resolved (1000 in fixed mode, ``None`` in adaptive).
    """
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    params = _take(payload, {"system": None, **own_fields, **_RUN_FIELDS})
    params["system"] = str(_require(params, "system"))
    if not isinstance(params["randomized"], bool):
        raise BadRequest(
            f"randomized must be a JSON boolean, got {params['randomized']!r}"
        )
    try:
        params["trials"] = check_run_settings(
            params["trials"],
            params["target_ci"],
            params["chunk_size"],
            params["min_trials"],
            params["max_trials"],
            seed=params["seed"],
        ).trials
        params["distribution"] = canonical_source_name(str(params["distribution"]))
        params["backend"] = check_backend_name(str(params["backend"]))
    except ValueError as error:
        raise BadRequest(str(error)) from None
    return params


def normalize_estimate(payload: dict) -> dict:
    """Resolve a ``POST /estimate`` body into canonical run parameters.

    Everything that pins the run's bytes is made explicit here — seed
    (default 0, so identical queries are cache hits; pass your own for
    independent samples), stopping mode, chunk size, backend — and the
    run's :class:`~repro.core.engine.RunSpec` is built once to validate
    it.  The returned dict *is* the cache key's content.
    """
    params = _resolve(payload, {"size": 8, "p": None})
    params["size"] = _as_int(params["size"], "size")
    params["p"] = _as_float(_require(params, "p"), "p")
    try:
        estimate_spec(params).build()
    except ValueError as error:
        raise BadRequest(str(error)) from None
    return params


def estimate_spec(params: dict) -> RunSpec:
    """The :class:`~repro.core.engine.RunSpec` of an estimate job's params."""
    return RunSpec(**{key.name: params[key.name] for key in fields(RunSpec)})


def normalize_sweep(payload: dict) -> dict:
    """Resolve a ``POST /sweep`` body into canonical grid parameters."""
    params = _resolve(payload, {"sizes": None, "ps": None})
    sizes = _require(params, "sizes")
    ps = _require(params, "ps")
    if not isinstance(sizes, list) or not sizes:
        raise BadRequest("sizes must be a non-empty list of integers")
    if not isinstance(ps, list) or not ps:
        raise BadRequest("ps must be a non-empty list of numbers")
    params["sizes"] = [_as_int(size, "sizes[]") for size in sizes]
    params["ps"] = [_as_float(p, "ps[]") for p in ps]
    try:
        canonical_system_name(params["system"])
    except ValueError as error:
        raise BadRequest(str(error)) from None
    return params


NORMALIZERS = {"estimate": normalize_estimate, "sweep": normalize_sweep}


# -- result payloads --------------------------------------------------------------


def deterministic_view(payload):
    """``payload`` with every wall-clock/recovery key removed, recursively.

    This is the part of a result two runs of the same job must agree on
    byte-for-byte — what the crash-recovery tests compare and what the
    cache CRC ultimately protects.
    """
    if isinstance(payload, dict):
        return {
            key: deterministic_view(value)
            for key, value in payload.items()
            if key not in NONDETERMINISTIC_KEYS
        }
    if isinstance(payload, list):
        return [deterministic_view(item) for item in payload]
    return payload


def estimate_result_payload(result: StreamResult) -> dict:
    """JSON result of an estimate job: deterministic statistics apart."""
    return {
        "statistics": {
            "algorithm": result.algorithm,
            "source": result.source,
            "mode": result.mode,
            "mean": result.mean,
            "std": result.std,
            "ci95": result.ci95,
            "n_trials_used": result.n_trials_used,
            "chunk_size": result.chunk_size,
            "chunks": result.chunks,
            "witness_red": result.witness_red,
            "histogram": list(result.histogram),
            "target_ci": result.target_ci,
            "reached_target": result.reached_target,
            "backend": result.backend,
        },
        "seconds": result.seconds,
        "recovery": {
            "retries_used": result.retries_used,
            "pool_respawns": result.pool_respawns,
        },
    }


def sweep_result_payload(result) -> dict:
    """JSON result of a sweep job (``repro.experiments.sweep`` result)."""
    cells = [cell for cell in result.cells if cell.status == "ok"]
    return {
        "statistics": deterministic_view(result.to_dict()),
        "seconds": sum(cell.seconds for cell in cells),
        "recovery": {
            "retries_used": sum(cell.retries_used for cell in cells),
            "pool_respawns": sum(cell.pool_respawns for cell in cells),
        },
    }


# -- the journal ------------------------------------------------------------------


@dataclass
class Job:
    """One accepted request and its lifecycle state."""

    id: str
    seq: int
    kind: str
    params: dict
    cache_key: str
    state: str = "submitted"
    attempts: int = 0
    error: str = ""
    result: dict | None = None
    created: float = field(default_factory=time.time)
    updated: float = 0.0
    #: Schema of the record this job was loaded from; only results of
    #: version 2 and up carry a CRC the journal has checked.
    schema: int = JOB_SCHEMA_VERSION

    def to_payload(self) -> dict:
        return {
            "kind": JOB_KIND,
            "schema": JOB_SCHEMA_VERSION,
            "id": self.id,
            "seq": self.seq,
            "job_kind": self.kind,
            "params": self.params,
            "cache_key": self.cache_key,
            "state": self.state,
            "attempts": self.attempts,
            "error": self.error,
            "result": self.result,
            "result_crc32": None if self.result is None else result_crc(self.result),
            "created": self.created,
            "updated": self.updated,
        }

    @classmethod
    def from_payload(cls, payload: dict, path: str | Path = "<payload>") -> "Job":
        schema = check_schema_version(payload, JOB_SCHEMA_VERSION, path)
        state = str(required_field(payload, "state", path))
        if state not in JOB_STATES:
            raise ValueError(f"{path}: unknown job state {state!r}")
        kind = str(required_field(payload, "job_kind", path))
        if kind not in JOB_KINDS:
            raise ValueError(f"{path}: unknown job kind {kind!r}")
        result = payload.get("result")
        if schema >= 2 and result is not None:
            if required_field(payload, "result_crc32", path) != result_crc(result):
                raise ValueError(
                    f"{path}: field 'result_crc32' does not match the recorded result"
                )
        return cls(
            id=str(required_field(payload, "id", path)),
            seq=int(required_field(payload, "seq", path)),
            kind=kind,
            params=dict(required_field(payload, "params", path)),
            cache_key=str(required_field(payload, "cache_key", path)),
            state=state,
            attempts=int(required_field(payload, "attempts", path)),
            error=str(payload.get("error", "")),
            result=result,
            created=float(required_field(payload, "created", path)),
            updated=float(required_field(payload, "updated", path)),
            schema=schema,
        )

    def public_view(self) -> dict:
        """What ``GET /jobs/<id>`` returns."""
        view = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "params": self.params,
            "cache_key": self.cache_key,
            "attempts": self.attempts,
            "created": self.created,
            "updated": self.updated,
        }
        if self.error:
            view["error"] = self.error
        if self.result is not None:
            view["result"] = self.result
        return view


class JobJournal:
    """Atomic per-job JSON records under one directory.

    The journal is the service's source of truth: every transition is
    persisted *before* it takes effect in memory (write-ahead), through
    the same tmp + fsync + ``os.replace`` writer as engine checkpoints.
    The ``"journal-write"`` fault site fires just before each write, so
    the crash-between-checkpoint-and-journal window is directly testable.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.checkpoints = self.directory / "checkpoints"
        self.checkpoints.mkdir(exist_ok=True)
        # A crash between tmp write and replace leaves orphans; sweep them
        # on startup (satellite of the same durability story).
        sweep_stale_tmp(self.directory)
        sweep_stale_tmp(self.checkpoints)
        # Sweep checkpoints of older daemons were single grid files; sweeps
        # now resume from per-cell engine checkpoints, so these go unread.
        for stale in self.checkpoints.glob("*.sweep.ckpt"):
            stale.unlink()
            _logger.warning(
                "removed a sweep checkpoint of an older format: %s", stale
            )
        # The one read of the directory: ``recover`` hands these out.
        self._opened = self.load_all()
        self._next_seq = 1 + max((job.seq for job in self._opened), default=0)
        self._writes = 0

    def path_for(self, job_id: str) -> Path:
        return self.directory / f"{job_id}.json"

    def checkpoint_path(self, job: Job) -> Path:
        """The job's engine checkpoint file, or for a sweep the directory of
        its cells' engine checkpoints."""
        suffix = "sweep" if job.kind == "sweep" else "ckpt"
        return self.checkpoints / f"{job.id}.{suffix}"

    def new_job(self, kind: str, params: dict) -> Job:
        """Build (but do not persist) the next job record."""
        if kind not in JOB_KINDS:
            raise BadRequest(f"unknown job kind {kind!r}")
        seq = self._next_seq
        self._next_seq += 1
        return Job(
            id=f"job-{seq:06d}",
            seq=seq,
            kind=kind,
            params=params,
            cache_key=cache_key({"kind": kind, **params}),
        )

    def write(self, job: Job) -> Path:
        """Persist ``job``'s current state durably.

        The ``"journal-write"`` fault site fires just before the write,
        keyed by the 1-based ordinal of this write within the process —
        so a plan can crash the daemon exactly between a job's engine
        checkpoint and its ``done`` record (write 3 for a lone job).
        """
        self._writes += 1
        fire_fault("journal-write", self._writes)
        job.updated = time.time()
        path = self.path_for(job.id)
        remove_stale_tmp(path)
        return atomic_write_json(path, job.to_payload())

    def load(self, job_id: str) -> Job:
        """Load one record; strict about kind, schema and fields."""
        path = self.path_for(job_id)
        payload = load_json_payload(path, JOB_KIND)
        return Job.from_payload(payload, path)

    def load_all(self) -> list[Job]:
        """Every record, in submission order; corrupt records raise."""
        jobs = [
            Job.from_payload(load_json_payload(path, JOB_KIND), path)
            for path in sorted(self.directory.glob("job-*.json"))
        ]
        return sorted(jobs, key=lambda job: job.seq)

    def recover(self) -> tuple[list[Job], list[Job]]:
        """Sort the records read when the journal opened (once: a second
        call returns nothing).

        Returns ``(pending, finished)``: ``pending`` holds the jobs to
        re-enqueue in submission order — ``submitted`` ones untouched and
        ``running`` ones demoted back to ``submitted`` (their engine
        checkpoint, if any, makes the re-run a byte-identical resume) —
        and ``finished`` the terminal ones, served from their records.
        """
        pending: list[Job] = []
        finished: list[Job] = []
        opened, self._opened = self._opened, []
        for job in opened:
            if job.state in ("done", "failed"):
                finished.append(job)
                continue
            if job.state == "running":
                job.state = "submitted"
                self.write(job)
            pending.append(job)
        return pending, finished
