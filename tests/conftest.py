"""Shared fixtures for the test-suite."""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from repro.core.bitpacked import PackedColorings
from repro.core.distributions import bernoulli_threshold, compare_planes
from repro.systems import (
    HQS,
    CrumblingWall,
    GridSystem,
    MajoritySystem,
    SingletonSystem,
    TreeSystem,
    TriangSystem,
    WheelSystem,
)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random source for reproducible tests."""
    return random.Random(12345)


def small_nd_systems() -> list:
    """Small instances of every ND coterie family studied in the paper.

    Kept small enough for exhaustive checks (quorum enumeration, exact
    solvers, self-duality).
    """
    return [
        MajoritySystem(3),
        MajoritySystem(5),
        MajoritySystem(7),
        WheelSystem(4),
        WheelSystem(6),
        TriangSystem(2),
        TriangSystem(3),
        TriangSystem(4),
        CrumblingWall([1, 2, 2]),
        CrumblingWall([1, 3, 2]),
        TreeSystem(1),
        TreeSystem(2),
        HQS(1),
        HQS(2),
        SingletonSystem(3, center=2),
    ]


def medium_systems() -> list:
    """Mid-size systems used for algorithm correctness sweeps."""
    return [
        MajoritySystem(15),
        WheelSystem(12),
        TriangSystem(6),
        CrumblingWall([1, 4, 3, 5]),
        TreeSystem(4),
        HQS(3),
        GridSystem(4, 4),
    ]


@pytest.fixture(params=small_nd_systems(), ids=lambda s: s.name)
def small_nd_system(request):
    return request.param


@pytest.fixture(params=medium_systems(), ids=lambda s: s.name)
def medium_system(request):
    return request.param


def _chi_square_p_value(statistic: float, df: int) -> float:
    """Upper tail of the chi-square distribution with ``df`` degrees of
    freedom, by the Wilson–Hilferty cube-root normal approximation (the
    tests run without scipy)."""
    z = ((statistic / df) ** (1.0 / 3.0) - (1.0 - 2.0 / (9.0 * df))) / math.sqrt(2.0 / (9.0 * df))
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@pytest.fixture
def chi_square_p_value():
    """:func:`_chi_square_p_value`, for goodness-of-fit tests."""
    return _chi_square_p_value


def _bitplane_v2_packed(n: int, p: float, trials: int, seed: int) -> PackedColorings:
    """``trials`` Bernoulli colorings of the retired ``bitplane-v2`` stream:
    word ``w`` reads draws ``[w·K·n, (w+1)·K·n)`` of ``PCG64(seed)`` as
    planes ``(plane, element)`` and marks the lanes whose ``K(p)`` leading
    bits are below ``B``'s.  Frozen here so the kernels' golden digests do
    not move when the sampler's stream does."""
    bits = bernoulli_threshold(p)[1]
    n_words = -(-trials // 64)
    if bits and n:
        raw = np.random.PCG64(seed).random_raw(n_words * len(bits) * n)
        words = compare_planes(raw.reshape(n_words, len(bits), n), bits)[0]
    else:
        words = np.full((n_words, n), (1 << 64) - 1 if p == 1 else 0, dtype=np.uint64)
    packed = PackedColorings(words, trials)
    words &= packed.valid_mask()[:, None]
    return packed


@pytest.fixture
def bitplane_v2_packed():
    """:func:`_bitplane_v2_packed`, for digests pinned on fixed colorings."""
    return _bitplane_v2_packed


#: An engine checkpoint exactly as the schema-6 build wrote it: Probe_Tree
#: on Tree(h=2) at p = 0.2, seed 7, stopped after one 16-trial chunk.  It
#: names its run by names and a digest of the pickled pair, not a RunSpec.
SCHEMA_6_CHECKPOINT = {
    "kind": "engine_checkpoint", "schema": 6, "entropy": 7, "trials": 64,
    "target_ci": None, "chunk_size": 16, "min_trials": 16, "max_trials": 1000000,
    "algorithm": "ProbeTree", "source": "bernoulli", "n": 7,
    "pair_digest": "a7312daca7c6de707fc32d89ef334f69", "count": 16, "witness_red": 1,
    "histogram": [0, 0, 0, 8, 3, 3, 2], "chunks_merged": 1, "next_start": 16,
}


@pytest.fixture
def write_schema_6_checkpoint():
    """Writes :data:`SCHEMA_6_CHECKPOINT`, with ``changes``, to a path."""

    def write(path, **changes):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**SCHEMA_6_CHECKPOINT, **changes}))
        return path

    return write
