"""Content-addressed result cache with integrity-checked entries.

The millions-of-users traffic pattern is many clients asking the *same*
question — same system, algorithm, distribution, intensity, stopping rule,
seed and backend.  Every run in this repo is deterministic in exactly
those inputs (the engine's seeding contract), so a completed result can be
served forever: the cache key is the blake2s digest of the canonical JSON
of the resolved request parameters, and a hit is one file read instead of
a Monte-Carlo run.

Entries are JSON files named by their key, written atomically
(:func:`repro.core.checkpoint.atomic_write_json`) and carrying a CRC-32 of
the canonical result payload.  ``get`` verifies the CRC before serving:
a corrupted entry (disk fault, manual edit) is logged, removed and treated
as a miss — the service must never serve bytes it cannot vouch for, but a
recomputation is always safe, so cache corruption is the one persisted-
state failure that does *not* raise.
"""

from __future__ import annotations

import hashlib
import json
import logging
import zlib
from pathlib import Path
from typing import Any

from repro.core.checkpoint import (
    atomic_write_json,
    load_json_payload,
    remove_stale_tmp,
    required_field,
    sweep_stale_tmp,
)
from repro.core.distributions import SAMPLER_STREAM

_logger = logging.getLogger("repro.service.cache")

#: ``kind`` field of cache entry files.
CACHE_ENTRY_KIND = "result_cache_entry"

#: Version of the cache entry JSON schema.
CACHE_ENTRY_SCHEMA_VERSION = 1


def canonical_json(payload: Any) -> str:
    """The one canonical serialization (sorted keys, no whitespace).

    Both the cache key and the integrity CRC are computed over this form,
    so two requests that parse to the same parameters always address the
    same entry, byte-for-byte.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cache_key(params: dict) -> str:
    """Content address of a resolved request's parameters and of the
    Bernoulli sampler stream, so results of another stream miss."""
    return hashlib.blake2s(f"{SAMPLER_STREAM}:{canonical_json(params)}".encode()).hexdigest()


def result_crc(result: dict) -> int:
    """CRC-32 over the canonical serialization of a result payload."""
    return zlib.crc32(canonical_json(result).encode())


class ResultCache:
    """Directory of completed results addressed by request content.

    ``get``/``put`` are safe under concurrent readers and one writer per
    key (atomic replace); two writers racing the same key write identical
    bytes by construction, so last-writer-wins is harmless.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        # Leftovers of a crash mid-put are stale by definition.
        sweep_stale_tmp(self.directory)

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The cached result for ``key``, or ``None`` (miss/corrupt).

        A corrupt entry — unreadable JSON, wrong kind, missing fields, or
        a CRC mismatch — is logged and removed so the next completion
        rewrites it; the caller just recomputes.
        """
        path = self.path_for(key)
        if not path.is_file():
            self.misses += 1
            return None
        try:
            payload = load_json_payload(path, CACHE_ENTRY_KIND)
            stored_crc = int(required_field(payload, "crc32", path))
            result = required_field(payload, "result", path)
        except (ValueError, FileNotFoundError) as error:
            self._evict_corrupt(path, str(error))
            return None
        if result_crc(result) != stored_crc:
            self._evict_corrupt(path, "CRC-32 mismatch")
            return None
        self.hits += 1
        return result

    def put(self, key: str, params: dict, result: dict) -> Path:
        """Persist ``result`` under ``key`` (atomic, CRC-stamped)."""
        path = self.path_for(key)
        remove_stale_tmp(path)
        return atomic_write_json(
            path,
            {
                "kind": CACHE_ENTRY_KIND,
                "schema": CACHE_ENTRY_SCHEMA_VERSION,
                "key": key,
                "params": params,
                "crc32": result_crc(result),
                "result": result,
            },
        )

    def _evict_corrupt(self, path: Path, reason: str) -> None:
        self.misses += 1
        _logger.warning("evicting corrupt cache entry %s: %s", path, reason)
        try:
            path.unlink()
        except OSError:  # pragma: no cover - raced with another eviction
            pass
