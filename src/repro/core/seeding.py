"""Parameter-keyed seed streams (the per-cell seeding primitives).

A Monte-Carlo experiment is a grid of *cells* — one ``(system, p)`` point,
one urn case, one ablation variant group.
Reusing the experiment seed for every cell correlates the samples across
cells, which silently couples sampling errors between rows that are
supposed to be independent measurements.

The fix, introduced for the sweep runner and now shared by every layer
(drivers, the sweep runner, the streaming engine), is to key each cell's
stream by the cell's own parameter values: a numpy ``SeedSequence`` whose
entropy is the experiment seed and whose spawn key encodes the cell
parameters.  Two properties follow:

* cells are statistically independent of each other, and
* a cell reproduces bit-identically no matter which grid (or sub-grid) it
  is part of — reordering sizes, dropping a ``p`` or running a single cell
  in isolation does not change any other cell's samples.

Keys may be ints (two's complement into uint64), floats (IEEE-754 bit
pattern) or strings (BLAKE2s digest), since ``SeedSequence`` only accepts
non-negative integer entropy.

The module lives in :mod:`repro.core` so that lower layers can derive cell
streams without importing the experiments package.
"""

from __future__ import annotations

import hashlib

import numpy as np

_UINT64_MASK = 0xFFFFFFFFFFFFFFFF


def _key_to_uint64(key: int | float | str) -> int:
    """Encode one cell-key component as an unsigned 64-bit word."""
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, (int, np.integer)):
        return int(key) & _UINT64_MASK
    if isinstance(key, (float, np.floating)):
        return int(np.float64(key).view(np.uint64))
    if isinstance(key, str):
        digest = hashlib.blake2s(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")
    raise TypeError(f"unsupported cell key {key!r} of type {type(key).__name__}")


def cell_sequence(seed: int, *keys: int | float | str) -> np.random.SeedSequence:
    """The ``SeedSequence`` for the cell identified by ``keys``."""
    return np.random.SeedSequence(
        entropy=int(seed) & _UINT64_MASK,
        spawn_key=tuple(_key_to_uint64(key) for key in keys),
    )


def cell_generator(seed: int, *keys: int | float | str) -> np.random.Generator:
    """A fresh numpy generator on the cell's stream (the sweep runner's path)."""
    return np.random.default_rng(cell_sequence(seed, *keys))


def cell_seed(seed: int | None, *keys: int | float | str) -> int | None:
    """Derive an integer seed for the cell identified by ``keys``.

    This is the driver-facing form: the result feeds the ``seed=`` argument
    of the sequential and batched estimators.  ``None`` passes through, so
    unseeded (OS-entropy) runs stay unseeded.
    """
    if seed is None:
        return None
    return int(cell_sequence(seed, *keys).generate_state(1, np.uint64)[0])
