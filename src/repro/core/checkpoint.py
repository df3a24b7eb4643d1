"""Crash-safe persistence: atomic file writes and engine checkpoints.

Two concerns live here because they share one durability primitive:

* :func:`atomic_write_text` / :func:`atomic_write_json` — write-to-temp,
  ``fsync``, then ``os.replace``.  Readers of the target path see either
  the previous complete file or the new complete file, never a torn
  write.  Every artifact writer in the repo (experiment artifacts, sweep
  artifacts, engine checkpoints) goes through these helpers.
* :class:`EngineCheckpoint` — the serialized state of a streaming
  estimation run (:mod:`repro.core.engine`): the run's
  :class:`~repro.core.engine.RunSpec` and settings, its exact integer
  histogram and its position.  Because chunks are keyed by ``(seed, start
  trial)``, a resume needs nothing else: it re-runs only the
  not-yet-merged chunks and produces results byte-identical to an
  uninterrupted run.  No checkpoint holds a pickle or a pickle's digest.

Checkpoint loading is strict: a truncated or corrupt file, an unknown
``kind``, a newer schema version, or a missing field all fail with a
message naming the file and the offending field — never a raw
``KeyError``.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any

from repro.core.distributions import SAMPLER_STREAM
from repro.core.engine import RunSpec

_logger = logging.getLogger("repro.checkpoint")

#: ``kind`` field of engine checkpoint files.
CHECKPOINT_KIND = "engine_checkpoint"

#: Version of the engine checkpoint JSON schema (2: bit-plane Bernoulli
#: stream; 3: bit-plane gate order choices; 4: Bernoulli tail queue, stream
#: ``bitplane-v3``; 5: the pair's digest instead of its pickle; 6: no
#: ``mode`` or ``complete`` field; 7: the run's ``RunSpec`` in ``run``
#: instead of names and a digest).  Versions before 4 drew from another
#: stream; versions 4-6 name their run by a pickle, which this build does
#: not compare.  Neither is continued.
CHECKPOINT_SCHEMA_VERSION = 7

#: What each pre-``bitplane-v3`` checkpoint schema drew differently.
_OLDER_STREAMS = {
    1: "Bernoulli colorings as floats",
    2: "the randomized gate kernels' order choices with generator.integers",
    3: "Bernoulli colorings from the sampler stream 'bitplane-v2'",
}


class CheckpointRefused(ValueError):
    """A checkpoint that this build will not continue: it was written on an
    older draw stream or schema, or for another run.  The refusal is
    deterministic, so a caller that retries failed work should not retry
    it."""


# -- atomic writes ----------------------------------------------------------------


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (tmp + fsync + ``os.replace``).

    A crash at any point leaves either the old file or the new one — a
    half-written temp file is never visible under the target name.
    """
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=destination.parent, prefix=f".{destination.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, destination)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return destination


def atomic_write_json(path: str | Path, payload: Any) -> Path:
    """Serialize ``payload`` as indented JSON and write it atomically."""
    return atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def remove_stale_tmp(path: str | Path) -> list[Path]:
    """Remove leftover ``.{name}.*.tmp`` siblings of ``path``.

    A crash between :func:`atomic_write_text`'s temp write and its
    ``os.replace`` leaves an orphaned ``.{name}.XXXX.tmp`` next to the
    target — harmless to correctness (readers never see it under the
    target name) but it accumulates forever.  The durable writers
    (:func:`save_engine_checkpoint`, the artifact and journal writers)
    call this before writing; removals are logged so an operator can see
    a crash happened.  Two concurrent writers of the *same* target are
    not supported (the engine enforces one writer per checkpoint), so a
    matching tmp is always stale.
    """
    target = Path(path)
    removed = []
    if not target.parent.is_dir():
        return removed
    for stale in target.parent.glob(f".{target.name}.*.tmp"):
        try:
            stale.unlink()
        except OSError:  # pragma: no cover - raced with another sweep
            continue
        _logger.warning("removed stale temp file left by a crash: %s", stale)
        removed.append(stale)
    return removed


def sweep_stale_tmp(directory: str | Path) -> list[Path]:
    """Remove every ``.*.tmp`` atomic-write leftover in ``directory``.

    The directory-wide variant of :func:`remove_stale_tmp` for startup
    scans of state directories (the service's journal), where
    the crashed writer's target name is not known in advance.
    """
    removed = []
    directory = Path(directory)
    if not directory.is_dir():
        return removed
    for stale in directory.glob(".*.tmp"):
        try:
            stale.unlink()
        except OSError:  # pragma: no cover - raced with another sweep
            continue
        _logger.warning("removed stale temp file left by a crash: %s", stale)
        removed.append(stale)
    return removed


# -- strict payload access --------------------------------------------------------


def required_field(payload: Mapping[str, Any], key: str, path: str | Path) -> Any:
    """``payload[key]``, failing with a message naming the file and field."""
    try:
        return payload[key]
    except KeyError:
        raise ValueError(f"{path}: missing required field {key!r}") from None


def load_json_payload(path: str | Path, kind: str) -> dict[str, Any]:
    """Read a JSON artifact and verify its ``kind``, with clear errors."""
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise FileNotFoundError(f"{path}: no such {kind} file") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ValueError(
            f"{path}: not a valid {kind} file (truncated or corrupt JSON: {error})"
        ) from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a valid {kind} file (expected a JSON object)")
    found = payload.get("kind")
    if found != kind:
        raise ValueError(f"{path}: expected kind {kind!r}, found {found!r}")
    return payload


def check_schema_version(
    payload: Mapping[str, Any], current: int, path: str | Path, *, legacy_ok: bool = False
) -> int:
    """Validate the ``schema`` field against the newest version we read."""
    if "schema" not in payload:
        if legacy_ok:
            return 0
        raise ValueError(f"{path}: missing required field 'schema'")
    version = payload["schema"]
    if not isinstance(version, int):
        raise ValueError(f"{path}: schema version must be an integer, got {version!r}")
    if version > current:
        raise ValueError(
            f"{path}: written by schema version {version}, "
            f"but this build reads versions <= {current}"
        )
    return version


# -- engine checkpoints -----------------------------------------------------------


@dataclass(frozen=True)
class EngineCheckpoint:
    """Durable state of one streaming run at a chunk boundary.

    ``next_start`` is the absolute trial index of the first chunk not yet
    merged; every preceding chunk's statistics are folded into
    ``histogram``/``count``/``witness_red``.  The stored configuration
    (``trials``/``target_ci``/``chunk_size``/guards/``entropy``) is the
    *resolved* one, so a resumed run reproduces the exact chunk schedule
    and stopping decisions of the interrupted run: the stopping mode is
    fixed when ``target_ci`` is ``None``, and whether the run finished
    follows from the settings and the position — a finished checkpoint
    resumes with no chunk to run.  ``run`` is the
    :class:`~repro.core.engine.RunSpec` the run was built from, stored as
    its JSON fields: a resume passes its own spec, and every field must
    equal this one.  Files of schema 4-6 name the run by a pickle digest
    instead and are refused with "start afresh".
    """

    entropy: int
    trials: int | None
    target_ci: float | None
    chunk_size: int
    min_trials: int
    max_trials: int
    run: RunSpec
    count: int
    witness_red: int
    histogram: tuple[int, ...]
    chunks_merged: int
    next_start: int

    def to_payload(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "kind": CHECKPOINT_KIND,
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "entropy": self.entropy,
            "trials": self.trials,
            "target_ci": self.target_ci,
            "chunk_size": self.chunk_size,
            "min_trials": self.min_trials,
            "max_trials": self.max_trials,
            "run": asdict(self.run),
            "count": self.count,
            "witness_red": self.witness_red,
            "histogram": list(self.histogram),
            "chunks_merged": self.chunks_merged,
            "next_start": self.next_start,
        }

    @classmethod
    def from_payload(
        cls, payload: Mapping[str, Any], path: str | Path = "<payload>"
    ) -> "EngineCheckpoint":
        version = check_schema_version(payload, CHECKPOINT_SCHEMA_VERSION, path)
        if version < CHECKPOINT_SCHEMA_VERSION:
            why = (
                f"drew {_OLDER_STREAMS[max(version, 1)]}, not from the sampler stream "
                f"{SAMPLER_STREAM!r}; resuming would mix two streams"
                if version < 4
                else "names its run by a pickle digest, not by the RunSpec this build compares"
            )
            raise CheckpointRefused(f"{path}: schema version {version} {why}, so start afresh")
        field = lambda key: required_field(payload, key, path)  # noqa: E731
        run = field("run")
        try:
            spec = RunSpec(**{key.name: run[key.name] for key in fields(RunSpec)})
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(
                f"{path}: field 'run' holds no RunSpec ({type(error).__name__}: {error})"
            ) from None
        return cls(
            entropy=int(field("entropy")),
            trials=None if field("trials") is None else int(payload["trials"]),
            target_ci=(
                None if field("target_ci") is None else float(payload["target_ci"])
            ),
            chunk_size=int(field("chunk_size")),
            min_trials=int(field("min_trials")),
            max_trials=int(field("max_trials")),
            run=spec,
            count=int(field("count")),
            witness_red=int(field("witness_red")),
            histogram=tuple(int(c) for c in field("histogram")),
            chunks_merged=int(field("chunks_merged")),
            next_start=int(field("next_start")),
        )


def save_engine_checkpoint(path: str | Path, state: EngineCheckpoint) -> Path:
    """Write ``state`` durably (atomic replace, fsynced).

    Also sweeps stale ``*.tmp`` leftovers a previous crash may have left
    beside this checkpoint (see :func:`remove_stale_tmp`).
    """
    remove_stale_tmp(path)
    return atomic_write_json(path, state.to_payload())


def load_engine_checkpoint(path: str | Path) -> EngineCheckpoint:
    """Load a checkpoint written by :func:`save_engine_checkpoint`.

    Raises ``ValueError`` with a message naming the file and the missing
    or unreadable field; never a bare ``KeyError``.
    """
    payload = load_json_payload(path, CHECKPOINT_KIND)
    return EngineCheckpoint.from_payload(payload, path)
