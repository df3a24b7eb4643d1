"""Content-addressed result index: addressing, integrity CRC, counters."""

from __future__ import annotations

import hashlib

import pytest

from repro.service.cache import ResultCache, cache_key, canonical_json, result_crc

PARAMS = {"kind": "estimate", "system": "maj", "size": 9, "p": 0.3, "seed": 0}
RESULT = {"statistics": {"mean": 3.5, "histogram": [1, 2, 3]}, "seconds": 0.01}


def test_cache_key_ignores_dict_ordering():
    shuffled = dict(reversed(list(PARAMS.items())))
    assert cache_key(PARAMS) == cache_key(shuffled)


def test_cache_key_separates_different_parameters():
    assert cache_key(PARAMS) != cache_key({**PARAMS, "seed": 1})


@pytest.mark.parametrize(
    "stream",
    ["", "bitplane-v1:", "bitplane-v2:"],
    ids=["float-stream", "bitplane-v1", "bitplane-v2"],
)
def test_entry_keyed_before_a_sampler_stream_change_misses(stream):
    # Keys before the first stream change hashed the parameters alone (float
    # Bernoulli draws); "bitplane-v1" keys date from gate order choices drawn
    # with generator.integers, "bitplane-v2" keys from Bernoulli words that
    # read every plane densely.  No such result is what the seed gives now.
    cache = ResultCache()
    old_key = hashlib.blake2s(f"{stream}{canonical_json(PARAMS)}".encode()).hexdigest()
    cache.put(old_key, RESULT)
    assert cache_key(PARAMS) != old_key
    assert cache.get(cache_key(PARAMS)) is None


def test_canonical_json_is_compact_and_sorted():
    assert canonical_json({"b": 1, "a": [2]}) == '{"a":[2],"b":1}'


def test_roundtrip():
    cache = ResultCache()
    key = cache_key(PARAMS)
    assert cache.get(key) is None
    cache.put(key, RESULT)
    assert cache.get(key) == RESULT


def test_result_crc_tracks_content():
    assert result_crc(RESULT) != result_crc({**RESULT, "seconds": 0.02})
