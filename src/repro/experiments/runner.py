"""Unified experiment runner: resolve specs, run, fan out, write artifacts.

One pipeline for every registered experiment
(:mod:`repro.experiments.registry`):

* :func:`run_experiment` resolves an :class:`ExperimentSpec`, merges
  parameter overrides into the declared schema and invokes the driver;
* :func:`run_experiments` runs a selection of specs, optionally fanning
  them out across worker processes (``jobs > 1``) — results are returned
  in request order and are bit-identical to a sequential run, because
  every spec derives its own per-cell seeded streams
  (:mod:`repro.core.seeding`) and no state is shared;
* :func:`write_artifact` / :func:`load_artifact` serialize a run as one
  JSON artifact with a common schema (kind ``"experiment"``): rows +
  resolved params + environment metadata.  Artifacts are deliberately free
  of wall-clock fields so that re-runs at the same seed — sequential or
  parallel — are byte-identical (see README, "Artifact schema").
"""

from __future__ import annotations

import platform
from collections.abc import Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.checkpoint import (
    atomic_write_json,
    check_schema_version,
    load_json_payload,
    remove_stale_tmp,
    required_field,
)
from repro.experiments.registry import get_spec
from repro.experiments.report import Row, row_from_dict, row_to_dict, violations

#: Version of the unified artifact JSON schema.  Version 2 added the
#: ``status``/``error`` fields (degraded runs); version 3 adds the
#: ``recovery`` counters (chunk retries / pool respawns observed by the
#: run's engine calls; older files may also hold a TCP lease-reassignment
#: count, loaded as is); version 4
#: added a ``backend`` kernel-backend knob, which version 6 drops again
#: (each algorithm has one kernel); version 5 marks numbers seeded on the
#: bit-plane Bernoulli stream, version 7 randomized gate numbers seeded on
#: the bit-plane order choices, version 8 Bernoulli numbers seeded on the
#: tail-queue stream ``bitplane-v3`` at every p with ``K(p) > 10``.  Older
#: artifacts still load, with ``"ok"`` status and empty recovery; their
#: ``backend`` field is ignored.
ARTIFACT_SCHEMA_VERSION = 8

#: ``kind`` field of unified experiment artifacts.
ARTIFACT_KIND = "experiment"


def environment_metadata() -> dict[str, str]:
    """Deterministic (per host) environment fingerprint stored in artifacts."""
    import numpy

    from repro import __version__

    return {
        "package": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


@dataclass(frozen=True)
class RunResult:
    """A completed experiment run: resolved inputs, rows and metadata.

    ``status`` is ``"ok"`` for a run that completed and ``"failed"`` for
    one whose driver raised under :func:`run_experiments`' degraded mode;
    a failed run records the error (``"Type: message"``) in ``error`` and
    carries no rows.

    ``recovery`` sums the engine's fault-recovery counters over every
    streaming run the experiment issued (see
    :func:`repro.core.engine.collect_recovery`); like ``environment`` it
    describes the execution, not the result — a recovered run's rows are
    byte-identical to a fault-free run's.
    """

    spec_id: str
    title: str
    tags: tuple[str, ...]
    params: dict[str, Any]
    rows: tuple[Row, ...]
    extra: tuple[str, ...]
    environment: dict[str, str]
    status: str = "ok"
    error: str = ""
    recovery: dict[str, int] = field(default_factory=dict)

    @property
    def violation_rows(self) -> list[Row]:
        return violations(list(self.rows))

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready artifact payload (deterministic: no wall-clock fields)."""
        return {
            "kind": ARTIFACT_KIND,
            "schema": ARTIFACT_SCHEMA_VERSION,
            "id": self.spec_id,
            "title": self.title,
            "tags": list(self.tags),
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "environment": dict(self.environment),
            "rows": [row_to_dict(row) for row in self.rows],
            "extra": list(self.extra),
            "violations": len(self.violation_rows),
            "status": self.status,
            "error": self.error,
            "recovery": dict(self.recovery),
        }

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, Any], path: str | Path = "<payload>"
    ) -> "RunResult":
        kind = payload.get("kind")
        if kind != ARTIFACT_KIND:
            raise ValueError(
                f"{path}: expected kind {ARTIFACT_KIND!r}, found {kind!r}"
            )
        check_schema_version(payload, ARTIFACT_SCHEMA_VERSION, path, legacy_ok=True)
        return cls(
            spec_id=required_field(payload, "id", path),
            title=required_field(payload, "title", path),
            tags=tuple(payload.get("tags", ())),
            params={k: _untuple(v) for k, v in payload.get("params", {}).items()},
            rows=tuple(row_from_dict(row) for row in payload.get("rows", ())),
            extra=tuple(payload.get("extra", ())),
            environment=dict(payload.get("environment", {})),
            status=payload.get("status", "ok"),
            error=payload.get("error", ""),
            recovery={
                key: int(value)
                for key, value in payload.get("recovery", {}).items()
            },
        )


def _jsonable(value: Any) -> Any:
    return list(value) if isinstance(value, tuple) else value


def _untuple(value: Any) -> Any:
    """Invert :func:`_jsonable`: JSON arrays come back as tuples."""
    return tuple(value) if isinstance(value, list) else value


def run_experiment(
    experiment_id: str,
    overrides: Mapping[str, Any] | None = None,
    strict: bool = True,
) -> RunResult:
    """Resolve and run one registered experiment.

    ``overrides`` replace declared parameter defaults; with ``strict=False``
    override names a spec does not declare are ignored, so one shared
    override set (e.g. ``trials=20``) can be applied across many specs.
    """
    from repro.core.engine import collect_recovery

    spec = get_spec(experiment_id)
    with collect_recovery() as recovery:
        params, result = spec.run(overrides, strict=strict)
    return RunResult(
        spec_id=spec.id,
        title=spec.title,
        tags=spec.tags,
        params=params,
        rows=result.rows,
        extra=result.extra,
        environment=environment_metadata(),
        recovery=dict(recovery),
    )


def _run_for_pool(experiment_id: str, overrides: dict[str, Any] | None) -> RunResult:
    """Top-level worker entry point (must be picklable for process pools)."""
    return run_experiment(experiment_id, overrides, strict=False)


def failed_result(experiment_id: str, error: BaseException) -> RunResult:
    """A ``status="failed"`` placeholder for an experiment whose run raised."""
    spec = get_spec(experiment_id)
    return RunResult(
        spec_id=spec.id,
        title=spec.title,
        tags=spec.tags,
        params={},
        rows=(),
        extra=(),
        environment=environment_metadata(),
        status="failed",
        error=f"{type(error).__name__}: {error}",
    )


def run_experiments(
    experiment_ids: Sequence[str],
    overrides: Mapping[str, Any] | None = None,
    jobs: int = 1,
    fail_fast: bool = False,
) -> list[RunResult]:
    """Run several experiments, optionally across ``jobs`` processes.

    Results come back in request order.  Parallel runs are bit-identical to
    sequential ones: specs share no RNG state, and every Monte-Carlo cell
    draws from its own parameter-keyed stream.

    Degraded mode (the default): an experiment whose driver raises does
    not abort the batch — its slot comes back as a ``status="failed"``
    result carrying the error, and the remaining experiments run normally
    (they share no state).  Pass ``fail_fast=True`` to re-raise the first
    error instead.  Unknown experiment ids always raise up front, before
    anything runs.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    ids = list(experiment_ids)
    shared = dict(overrides or {})
    for experiment_id in ids:
        # Input errors are not runtime faults: unknown ids and unparseable
        # parameter values raise up front, before anything runs, even in
        # degraded mode.
        get_spec(experiment_id).resolve_params(shared, strict=False)

    def guarded(run_one, experiment_id: str) -> RunResult:
        if fail_fast:
            return run_one()
        try:
            return run_one()
        except KeyboardInterrupt:
            raise
        except Exception as error:
            return failed_result(experiment_id, error)

    if jobs <= 1 or len(ids) <= 1:
        return [
            guarded(lambda i=i: _run_for_pool(i, shared), i) for i in ids
        ]
    with ProcessPoolExecutor(max_workers=min(jobs, len(ids))) as pool:
        futures = [
            pool.submit(_run_for_pool, experiment_id, shared)
            for experiment_id in ids
        ]
        return [
            guarded(future.result, experiment_id)
            for future, experiment_id in zip(futures, ids)
        ]


def artifact_path(result: RunResult, directory: str | Path) -> Path:
    """Canonical artifact location for ``result`` under ``directory``."""
    return Path(directory) / f"{result.spec_id}.json"


def write_artifact(result: RunResult, path: str | Path) -> Path:
    """Write one run's JSON artifact atomically and return its path.

    Atomic (tmp + fsync + ``os.replace``): a crash mid-write never leaves
    a truncated artifact under the target name.  Stale ``*.tmp`` files an
    earlier crash left beside the target are logged and removed first.
    """
    remove_stale_tmp(path)
    return atomic_write_json(path, result.to_dict())


def write_artifacts(results: Sequence[RunResult], directory: str | Path) -> list[Path]:
    """Write one ``<id>.json`` artifact per result under ``directory``."""
    return [write_artifact(result, artifact_path(result, directory)) for result in results]


def load_artifact(path: str | Path) -> RunResult:
    """Load an artifact written by :func:`write_artifact`.

    Strict: corrupt JSON, a wrong ``kind``, a newer schema version or a
    missing field all fail with a message naming the file and the field —
    never a raw ``KeyError``.
    """
    return RunResult.from_dict(load_json_payload(path, ARTIFACT_KIND), path)
