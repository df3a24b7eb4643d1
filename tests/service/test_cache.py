"""Content-addressed result cache: addressing, integrity, eviction."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.service.cache import ResultCache, cache_key, canonical_json, result_crc
from repro.testing.faults import truncate_file

PARAMS = {"kind": "estimate", "system": "maj", "size": 9, "p": 0.3, "seed": 0}
RESULT = {"statistics": {"mean": 3.5, "histogram": [1, 2, 3]}, "seconds": 0.01}


def test_cache_key_ignores_dict_ordering():
    shuffled = dict(reversed(list(PARAMS.items())))
    assert cache_key(PARAMS) == cache_key(shuffled)


def test_cache_key_separates_different_parameters():
    assert cache_key(PARAMS) != cache_key({**PARAMS, "seed": 1})


@pytest.mark.parametrize("stream", ["", "bitplane-v1:"], ids=["float-stream", "bitplane-v1"])
def test_entry_keyed_before_a_sampler_stream_change_misses(tmp_path, stream):
    # Keys before the first stream change hashed the parameters alone (float
    # Bernoulli draws); "bitplane-v1" keys date from gate order choices drawn
    # with generator.integers.  Neither result is what the seed gives now.
    cache = ResultCache(tmp_path)
    old_key = hashlib.blake2s(f"{stream}{canonical_json(PARAMS)}".encode()).hexdigest()
    cache.put(old_key, PARAMS, RESULT)
    assert cache_key(PARAMS) != old_key
    assert cache.get(cache_key(PARAMS)) is None


def test_canonical_json_is_compact_and_sorted():
    assert canonical_json({"b": 1, "a": [2]}) == '{"a":[2],"b":1}'


def test_roundtrip_and_counters(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache_key(PARAMS)
    assert cache.get(key) is None
    cache.put(key, PARAMS, RESULT)
    assert cache.get(key) == RESULT
    assert (cache.hits, cache.misses) == (1, 1)


def test_truncated_entry_is_evicted_and_misses(tmp_path, caplog):
    cache = ResultCache(tmp_path)
    key = cache_key(PARAMS)
    path = cache.put(key, PARAMS, RESULT)
    truncate_file(path, 25)
    with caplog.at_level("WARNING", logger="repro.service.cache"):
        assert cache.get(key) is None
    assert not path.exists()
    assert "corrupt cache entry" in caplog.text


def test_crc_mismatch_is_evicted(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache_key(PARAMS)
    path = cache.put(key, PARAMS, RESULT)
    payload = json.loads(path.read_text())
    payload["result"]["statistics"]["mean"] = 99.0  # bit rot
    path.write_text(json.dumps(payload))
    assert cache.get(key) is None
    assert not path.exists()
    # The next put repairs the entry.
    cache.put(key, PARAMS, RESULT)
    assert cache.get(key) == RESULT


def test_wrong_kind_is_evicted(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache_key(PARAMS)
    path = cache.path_for(key)
    path.write_text(json.dumps({"kind": "engine_checkpoint"}))
    assert cache.get(key) is None
    assert not path.exists()


def test_result_crc_tracks_content():
    assert result_crc(RESULT) != result_crc({**RESULT, "seconds": 0.02})


def test_stale_tmp_swept_on_startup(tmp_path):
    stale = tmp_path / ".abc123.json.9999.tmp"
    stale.write_text("partial")
    ResultCache(tmp_path)
    assert not stale.exists()
