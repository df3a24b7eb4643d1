"""Content-addressed index of completed results.

The millions-of-users traffic pattern is many clients asking the *same*
question — same system, algorithm, distribution, intensity, stopping rule,
seed and backend.  Every run in this repo is deterministic in exactly
those inputs (the engine's seeding contract), so a completed result can be
served forever: the cache key is the blake2s digest of the canonical JSON
of the resolved request parameters, and a hit is one dict lookup instead
of a Monte-Carlo run.

A result has one durable home, the job journal's ``done`` record
(:mod:`repro.service.jobs`), which carries :func:`result_crc` of the
result and is verified when the journal loads.  :class:`ResultCache` is
only the in-memory index from key to result: the service fills it from
the journal's ``done`` records at startup and adds each new result right
after its ``done`` record is durable, so there is no second file to keep
consistent with the first.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from typing import Any

from repro.core.distributions import SAMPLER_STREAM


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
    """Completed results by cache key (the service's ``/metrics`` counts
    hits and misses).

    Lookups and inserts are single dict operations, safe under the
    service's threads; two workers finishing the same key store identical
    results by construction, so last-writer-wins is harmless.
    """

    def __init__(self) -> None:
        self._results: dict[str, dict] = {}

    def get(self, key: str) -> dict | None:
        """The result stored under ``key``, or ``None`` (a miss)."""
        return self._results.get(key)

    def put(self, key: str, result: dict) -> None:
        """Index ``result`` under ``key``; the caller has made it durable."""
        self._results[key] = result
