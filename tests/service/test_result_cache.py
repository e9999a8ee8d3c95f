"""Content-addressed result cache: keying, durability, concurrency."""

import json
import os
import threading
import time

import pytest

import repro.service.result_cache as result_cache_mod
from repro.service.result_cache import CACHE_VERSION, ResultCache, cache_key
from repro.service.schemas import parse_request
from repro.sim.config import GPUConfig

pytestmark = pytest.mark.service


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "results")


class TestCacheKey:
    def test_stable_across_calls(self):
        request = parse_request("simulate", {"benchmark": "NW"})
        first = cache_key("simulate", request.identity(),
                          request.resolved_config())
        second = cache_key("simulate", request.identity(),
                           request.resolved_config())
        assert first == second
        assert len(first) == 64  # sha256 hex

    def test_kind_separates_keys(self):
        request = parse_request("simulate", {"benchmark": "NW"})
        config = request.resolved_config()
        assert cache_key("simulate", request.identity(), config) != \
            cache_key("estimate", request.identity(), config)

    def test_identity_fields_separate_keys(self):
        base = parse_request("simulate", {"benchmark": "NW"})
        cdp = parse_request("simulate", {"benchmark": "NW", "cdp": True})
        assert cache_key("simulate", base.identity(),
                         base.resolved_config()) != \
            cache_key("simulate", cdp.identity(), cdp.resolved_config())

    def test_any_config_field_separates_keys(self):
        identity = {"benchmark": "NW"}
        base = GPUConfig()
        for variant in (
            base.with_(num_sms=8),
            base.with_(sample_fraction=0.5),
            base.with_(sample_seed=7),
            base.with_(telemetry_interval=5000),
        ):
            assert cache_key("simulate", identity, base) != \
                cache_key("simulate", identity, variant)

    def test_scheduling_knobs_share_a_key(self):
        fast = parse_request(
            "simulate", {"benchmark": "NW", "priority": 9, "timeout_s": 5}
        )
        slow = parse_request("simulate", {"benchmark": "NW"})
        assert cache_key("simulate", fast.identity(),
                         fast.resolved_config()) == \
            cache_key("simulate", slow.identity(), slow.resolved_config())

    def test_source_fingerprint_invalidates(self, monkeypatch):
        """Editing any trace-producing source retires every entry."""
        identity = {"benchmark": "NW"}
        config = GPUConfig()
        before = cache_key("simulate", identity, config)
        monkeypatch.setattr(
            result_cache_mod, "source_fingerprint", lambda: "edited-tree"
        )
        after = cache_key("simulate", identity, config)
        assert before != after


class TestPayloads:
    def test_round_trip(self, cache):
        payload = {"stats": {"cycles": 123, "ipc": 0.75}, "label": "NW"}
        key = "ab" * 32
        cache.put(key, payload)
        assert cache.get(key) == payload
        assert (cache.hits, cache.misses, cache.stores) == (1, 0, 1)

    def test_miss_on_unknown_key(self, cache):
        assert cache.get("cd" * 32) is None
        assert cache.misses == 1

    def test_round_trip_is_bit_identical(self, cache):
        """Float payloads survive json round-trip bit-for-bit (repr
        floats): what comes back equals what went in, exactly."""
        payload = {"pi": 3.141592653589793, "tiny": 5e-324,
                   "counts": {"7": 1234567890123}}
        key = "ef" * 32
        cache.put(key, payload)
        again = cache.get(key)
        assert again == payload
        assert json.dumps(again, sort_keys=True) == json.dumps(
            payload, sort_keys=True
        )

    def test_corrupt_entry_retired_as_miss(self, cache):
        key = "12" * 32
        cache.put(key, {"ok": True})
        cache.path_for(key).write_text('{"version": 1, "payl')  # torn write
        assert cache.get(key) is None
        assert not cache.path_for(key).exists()  # retired, not raised

    def test_foreign_version_retired(self, cache):
        key = "34" * 32
        cache.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_text(
            json.dumps({"version": CACHE_VERSION + 1, "payload": {}})
        )
        assert cache.get(key) is None
        assert not cache.path_for(key).exists()

    def test_overwrite_is_idempotent(self, cache):
        key = "56" * 32
        cache.put(key, {"v": 1})
        cache.put(key, {"v": 1})
        assert cache.get(key) == {"v": 1}
        assert len(cache) == 1

    def test_survives_restart(self, tmp_path):
        key = "78" * 32
        ResultCache(tmp_path).put(key, {"persisted": True})
        reopened = ResultCache(tmp_path)
        assert reopened.get(key) == {"persisted": True}
        assert len(reopened) == 1


def _write_payloads(root, count):
    """``count`` payload files, one second apart in ``st_mtime``, written
    past any cache handle (as a crashed or older writer leaves them)."""
    root.mkdir(parents=True, exist_ok=True)
    keys = [f"{i:02x}" * 32 for i in range(count)]
    now = time.time()
    for age, key in enumerate(reversed(keys)):
        path = root / f"{key}.json"
        path.write_text(json.dumps(
            {"version": CACHE_VERSION, "key": key, "payload": {"key": key}}
        ))
        os.utime(path, (now - 10 - age, now - 10 - age))
    return keys  # oldest first


class TestIndex:
    """The directory listing is the index: payload files are entries,
    nothing else is."""

    def test_corrupt_index_tolerated(self, tmp_path):
        """An ``index.json`` / ``index.lock`` left by an older cache
        layout is never counted, served or evicted as a payload."""
        tmp_path.mkdir(exist_ok=True)
        leftovers = {
            "index.json": json.dumps({"version": CACHE_VERSION,
                                      "entries": {"ab" * 32: {}}}),
            "index.lock": "12345",
        }
        for name, text in leftovers.items():
            (tmp_path / name).write_text(text)
        cache = ResultCache(tmp_path, max_entries=2)
        assert len(cache) == 0
        for i, key in enumerate(("bc" * 32, "cd" * 32, "de" * 32)):
            cache.put(key, {"n": i})
            time.sleep(0.01)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get("bc" * 32) is None
        assert cache.get("ab" * 32) is None  # listed in index.json only
        assert cache.get("de" * 32) == {"n": 2}
        for name, text in leftovers.items():
            assert (tmp_path / name).read_text() == text

    def test_concurrent_writers_all_land(self, tmp_path):
        """N threads with their own cache handles share one directory."""
        keys = [f"{i:02x}" * 32 for i in range(8)]
        errors = []

        def writer(key):
            try:
                ResultCache(tmp_path).put(key, {"key": key})
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(key,)) for key in keys
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        cache = ResultCache(tmp_path)
        assert len(cache) == 8
        for key in keys:
            assert cache.get(key) == {"key": key}


class TestEviction:
    def test_max_entries_evicts_oldest(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        for i, key in enumerate(("a1" * 32, "b2" * 32, "c3" * 32)):
            cache.put(key, {"n": i})
            time.sleep(0.01)  # distinct created timestamps
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get("a1" * 32) is None  # oldest gone...
        assert not cache.path_for("a1" * 32).exists()  # ...payload too
        assert cache.get("b2" * 32) == {"n": 1}
        assert cache.get("c3" * 32) == {"n": 2}

    def test_max_bytes_evicts_until_under(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=1)
        cache.put("d4" * 32, {"first": True})
        # The freshly published entry always survives, even oversized:
        # a budget below one payload degrades to a single-entry cache.
        assert len(cache) == 1
        assert cache.evictions == 0
        time.sleep(0.01)
        cache.put("e5" * 32, {"second": True})
        assert len(cache) == 1
        assert cache.evictions == 1
        assert cache.get("d4" * 32) is None
        assert cache.get("e5" * 32) == {"second": True}

    def test_one_put_trims_every_payload_on_disk(self, tmp_path):
        """Payloads the cache never recorded (a crash mid-put, a torn
        listing) still count: one put at ``max_entries=2`` leaves 2."""
        keys = _write_payloads(tmp_path, 7)
        cache = ResultCache(tmp_path, max_entries=2)
        cache.put("ff" * 32, {"new": True})
        assert len(cache) == 2
        assert len(list(tmp_path.glob("*.json"))) == 2
        assert cache.evictions == 6
        assert cache.get(keys[0]) is None  # oldest not served
        assert cache.get(keys[-1]) == {"key": keys[-1]}
        assert cache.get("ff" * 32) == {"new": True}

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(8):
            cache.put(f"{i:02d}" * 32, {"n": i})
        assert len(cache) == 8
        assert cache.evictions == 0

    def test_budget_floor_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(tmp_path, max_entries=0)
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(tmp_path, max_bytes=0)

    def test_service_reports_eviction_metrics(self, tmp_path):
        from repro.service.service import SimulationService

        service = SimulationService(
            cache_root=tmp_path / "results",
            workers=1,
            start=False,
            cache_max_entries=5,
            cache_max_bytes=1 << 20,
        )
        try:
            stats = service.metrics_dict()["result_cache"]
            assert stats["evictions"] == 0
            assert stats["max_entries"] == 5
            assert stats["max_bytes"] == 1 << 20
        finally:
            service.shutdown()
