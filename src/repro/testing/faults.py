"""Deterministic fault injection for the execution layer.

The streaming engine (:mod:`repro.core.engine`) calls :func:`fire_fault`
at two well-defined sites:

* ``"chunk"`` — inside :func:`~repro.core.engine._run_chunk`, keyed by the
  chunk's absolute start trial index.  Runs in the worker process under
  ``jobs > 1``, in the main process sequentially.
* ``"merge"`` — in the parent, keyed by the 1-based ordinal of the chunk
  merge that just completed.

The estimation service (:mod:`repro.service`) adds three sites of its own:

* ``"journal-write"`` — just before a job-journal record is persisted,
  keyed by the 1-based ordinal of the write within this process (for one
  job: 1 = submitted, 2 = running, 3 = done).  A ``"kill"`` at the done
  write is the daemon crashing between the engine checkpoint and the
  journal update — the recovery scan must reconcile the two.
* ``"service-handler"`` — inside the HTTP request handler after parsing,
  before any state changes, keyed by the 1-based ordinal of the POST
  request.  A ``"raise"`` exercises the 500 path: the daemon must answer
  with a clean error and keep serving.
* ``"service-pool"`` — just before a job's engine run starts, keyed by
  the job's submission sequence number.  A ``"raise"`` here is consumed
  by the service as a lost worker pool and must flip it into degraded
  read-only mode.

A *fault plan* is a list of :class:`Fault` records written to a JSON file;
the file's path travels to worker processes through the ``REPRO_FAULTS``
environment variable, so the same plan fires no matter which process ends
up executing the chunk.  Faults default to firing **once**: the first
process to reach the site claims an on-disk sentinel with
``O_CREAT | O_EXCL`` (atomic across processes, including pool respawns),
so a killed-and-retried chunk is not killed again — which is exactly the
transient-fault shape recovery must handle.

Actions:

* ``"kill"``      — ``os._exit(KILL_EXIT_CODE)``: the process dies without
  cleanup, like SIGKILL.  In a worker this surfaces as
  ``BrokenProcessPool`` in the parent.
* ``"raise"``     — raise :class:`FaultInjected` (a kernel-level error).
* ``"delay"``     — sleep ``seconds`` (drives chunk-timeout paths).
* ``"interrupt"`` — raise ``KeyboardInterrupt`` (drives checkpoint-on-
  interrupt paths; meaningful at the ``"merge"`` site).

When ``REPRO_FAULTS`` is unset, :func:`fire_fault` is a single dict lookup
— the production path pays one environment read per chunk.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

#: Environment variable naming the active fault-plan file.
ENV_VAR = "REPRO_FAULTS"

#: Exit status of a ``"kill"`` fault — distinctive, so tests can assert
#: the process died by injection and not by accident.
KILL_EXIT_CODE = 43

#: Any-key wildcard for :attr:`Fault.key`.
ANY_KEY = -1

_SITES = ("chunk", "merge", "journal-write", "service-handler", "service-pool")
_ACTIONS = ("kill", "raise", "delay", "interrupt")


class FaultInjected(RuntimeError):
    """The error raised by ``"raise"`` faults."""


@dataclass(frozen=True)
class Fault:
    """One planned fault: fire ``action`` when ``site`` reaches ``key``."""

    site: str
    key: int
    action: str
    seconds: float = 0.0
    once: bool = True

    def __post_init__(self) -> None:
        if self.site not in _SITES:
            raise ValueError(f"unknown fault site {self.site!r}; sites: {_SITES}")
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; actions: {_ACTIONS}"
            )

    def matches(self, site: str, key: int) -> bool:
        return self.site == site and self.key in (key, ANY_KEY)


#: Plans are immutable once written, so cache them per path — worker
#: processes re-read at most once per plan.
_PLAN_CACHE: dict[str, tuple[Fault, ...]] = {}


def clear_plan_cache() -> None:
    """Drop cached plans (tests that rewrite a plan file in place)."""
    _PLAN_CACHE.clear()


def write_plan(faults: Sequence[Fault], directory: str | Path) -> Path:
    """Write a fault plan into ``directory`` and return the plan path.

    The directory doubles as the once-only ledger: sentinel files marking
    fired faults live next to the plan.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "fault_plan.json"
    payload = {
        "kind": "fault_plan",
        "faults": [
            {
                "site": fault.site,
                "key": fault.key,
                "action": fault.action,
                "seconds": fault.seconds,
                "once": fault.once,
            }
            for fault in faults
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    _PLAN_CACHE.pop(str(path), None)
    return path


def _load_plan(path: str) -> tuple[Fault, ...]:
    cached = _PLAN_CACHE.get(path)
    if cached is not None:
        return cached
    payload = json.loads(Path(path).read_text())
    faults = tuple(
        Fault(
            site=entry["site"],
            key=int(entry["key"]),
            action=entry["action"],
            seconds=float(entry.get("seconds", 0.0)),
            once=bool(entry.get("once", True)),
        )
        for entry in payload.get("faults", ())
    )
    _PLAN_CACHE[path] = faults
    return faults


@contextmanager
def active_plan(faults: Sequence[Fault], directory: str | Path) -> Iterator[Path]:
    """Install a fault plan for the duration of the block.

    Writes the plan under ``directory``, points ``REPRO_FAULTS`` at it
    (inherited by worker processes spawned inside the block — including
    pool respawns), and restores the previous environment on exit.
    """
    path = write_plan(faults, directory)
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = str(path)
    try:
        yield path
    finally:
        if previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous
        _PLAN_CACHE.pop(str(path), None)


def _claim(plan_path: str, index: int) -> bool:
    """Atomically claim fault ``index``; ``True`` exactly once per plan.

    The sentinel is created with ``O_CREAT | O_EXCL`` in the plan's
    directory, so the claim is exclusive across processes and survives
    worker-pool respawns — a retried chunk never re-fires a once-only
    fault.
    """
    sentinel = Path(plan_path).parent / f"fault-{index}.fired"
    try:
        os.close(os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def fire_fault(site: str, key: int) -> None:
    """Execute any planned fault matching ``(site, key)``.

    No-op (one env lookup) when no plan is installed.
    """
    plan_path = os.environ.get(ENV_VAR)
    if not plan_path:
        return
    for index, fault in enumerate(_load_plan(plan_path)):
        if not fault.matches(site, key):
            continue
        if fault.once and not _claim(plan_path, index):
            continue
        _execute(fault, site, key)


def _execute(fault: Fault, site: str, key: int) -> None:
    if fault.action == "kill":
        # Dies like SIGKILL: no cleanup, no Python-level unwinding.
        os._exit(KILL_EXIT_CODE)
    if fault.action == "raise":
        raise FaultInjected(f"injected fault at {site} {key}: {fault}")
    if fault.action == "delay":
        time.sleep(fault.seconds)
        return
    if fault.action == "interrupt":
        raise KeyboardInterrupt(f"injected interrupt at {site} {key}")


# -- file-corruption helpers (checkpoint/artifact robustness tests) ---------------


def truncate_file(path: str | Path, keep_bytes: int) -> Path:
    """Cut ``path`` down to its first ``keep_bytes`` bytes, in place.

    Simulates the torn write a crash mid-``write_text`` would leave —
    the failure mode the atomic writers exist to prevent, and the input
    shape loaders must reject with a clear message.
    """
    path = Path(path)
    data = path.read_bytes()
    path.write_bytes(data[: max(0, keep_bytes)])
    return path


def drop_json_field(path: str | Path, field: str) -> Path:
    """Rewrite a JSON file with ``field`` removed (schema-validation tests)."""
    path = Path(path)
    payload = json.loads(path.read_text())
    payload.pop(field, None)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
