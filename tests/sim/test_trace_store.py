"""Persistent trace store: round trips, corruption, coordination, and
the sweep paths (exact and estimated) that read it."""

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.sweep import (
    TraceCache,
    app_key,
    run_sweep,
    sweep_point,
)
from repro.data.datasets import DatasetSize
from repro.kernels import build_application
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPUSimulator
from repro.sim.replay import CachedApplication, replay_application
from repro.sim.trace_store import (
    TraceStore,
    decode_bytes,
    encode_bytes,
)

CONFIG = GPUConfig(num_sms=4)


def _point(abbr="SW", label=None, cdp=False, config=CONFIG):
    return sweep_point(
        label or f"{abbr}:{cdp}", abbr, config, cdp=cdp,
        size=DatasetSize.SMALL,
    )


def _cached(abbr="SW", cdp=False):
    return CachedApplication(
        build_application(abbr, cdp=cdp, size=DatasetSize.SMALL)
    )


def _stats(entry):
    return dataclasses.asdict(
        replay_application(entry, GPUSimulator(CONFIG))
    )


# -- binary round trips ------------------------------------------------------

def test_round_trip_preserves_replay():
    entry = _cached("SW")
    stored = decode_bytes(encode_bytes(entry))
    assert stored.name == entry.name
    assert stored.may_device_launch == entry.may_device_launch
    assert _stats(stored) == _stats(entry)


def test_round_trip_preserves_cdp_launch_graph():
    entry = _cached("PairHMM", cdp=True)
    stored = decode_bytes(encode_bytes(entry))
    stats = _stats(stored)
    assert stats["device_launches"] > 0
    assert stats == _stats(entry)


def test_round_trip_preserves_counts():
    entry = _cached("CLUSTER")
    stored = decode_bytes(encode_bytes(entry))
    assert stored.total_counts.instructions == \
        entry.total_counts.instructions
    assert stored.total_counts.op_mix == entry.total_counts.op_mix
    assert stored.total_counts.mem_mix == entry.total_counts.mem_mix
    assert stored.total_counts.warp_occupancy == \
        entry.total_counts.warp_occupancy


# -- corruption fallback -----------------------------------------------------

def test_decode_rejects_bad_magic():
    data = encode_bytes(_cached())
    with pytest.raises(ValueError):
        decode_bytes(b"XXXX" + data[4:])


def test_decode_rejects_truncation():
    data = encode_bytes(_cached())
    with pytest.raises(ValueError):
        decode_bytes(data[: len(data) // 2])


def test_decode_rejects_bit_flip():
    data = bytearray(encode_bytes(_cached()))
    data[len(data) // 2] ^= 0xFF
    with pytest.raises(ValueError):
        decode_bytes(bytes(data))


def test_load_retires_corrupt_file_and_regenerates(tmp_path):
    store = TraceStore(tmp_path)
    key = app_key(_point())
    store.save(key, _cached())
    path = store.path_for(key)
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0xFF
    path.write_bytes(bytes(raw))

    assert store.load(key) is None
    assert not path.exists()  # corrupt entry retired
    # get_or_build regenerates rather than crashing.
    entry = store.get_or_build(key, lambda: _cached())
    assert entry is not None
    assert path.exists()


def test_load_tolerates_truncated_file(tmp_path):
    store = TraceStore(tmp_path)
    key = app_key(_point())
    store.save(key, _cached())
    path = store.path_for(key)
    path.write_bytes(path.read_bytes()[:10])
    assert store.load(key) is None


def test_load_retires_a_version_1_entry(tmp_path):
    """Entries of the retired v1 layout go through the corrupt-file
    path: unlinked, then rebuilt in the current layout."""
    import struct as _struct

    store = TraceStore(tmp_path)
    key = app_key(_point())
    store.save(key, _cached())
    path = store.path_for(key)
    raw = bytearray(path.read_bytes())
    raw[4:6] = _struct.pack("<H", 1)
    path.write_bytes(bytes(raw))
    assert store.load(key) is None
    assert not path.exists()


def test_decoded_entry_is_a_cached_application():
    """A store hit is the same replayable type a cold build returns,
    with the launch profiles and class keys the estimator reads."""
    entry = _cached("NW", cdp=True)
    stored = decode_bytes(encode_bytes(entry))
    assert isinstance(stored, CachedApplication)
    assert stored.base is None
    assert sorted(p[1:] for p in stored.launch_profiles.values()) == \
        sorted(p[1:] for p in entry.launch_profiles.values())


def test_load_misses_on_absent_entry(tmp_path):
    assert TraceStore(tmp_path).load(("no", "such", "key")) is None


# -- store keying ------------------------------------------------------------

def test_distinct_app_keys_get_distinct_paths(tmp_path):
    store = TraceStore(tmp_path)
    paths = {
        store.path_for(app_key(point))
        for point in (
            _point("SW"),
            _point("SW", cdp=True, label="SW:cdp"),
            _point("NW", label="NW"),
            _point("SW", label="SW:ws16",
                   config=CONFIG.with_(warp_size=16)),
        )
    }
    assert len(paths) == 4


def test_timing_knobs_share_one_path(tmp_path):
    store = TraceStore(tmp_path)
    a = store.path_for(app_key(_point("SW")))
    b = store.path_for(app_key(_point(
        "SW", label="SW:perfmem",
        config=CONFIG.with_(perfect_memory=True),
    )))
    assert a == b


# -- get_or_build coordination ----------------------------------------------

def test_get_or_build_builds_once_then_hits(tmp_path):
    store = TraceStore(tmp_path)
    key = app_key(_point())
    built = []

    def build():
        built.append(1)
        return _cached()

    first = store.get_or_build(key, build)
    second = store.get_or_build(key, build)
    assert len(built) == 1
    assert store.builds == 1
    assert store.hits == 1
    assert _stats(first) == _stats(second)


def test_stale_lock_is_broken(tmp_path, monkeypatch):
    import repro.sim.trace_store as ts

    monkeypatch.setattr(ts, "STALE_LOCK_S", 0.01)
    store = TraceStore(tmp_path)
    key = app_key(_point())
    lock = store.path_for(key).with_name(
        store.path_for(key).name + ".lock"
    )
    tmp_path.mkdir(exist_ok=True)
    lock.write_text("dead-writer")
    os.utime(lock, (0, 0))  # ancient mtime: the writer is gone
    entry = store.get_or_build(key, lambda: _cached())
    assert entry is not None
    assert not lock.exists()


def test_dead_writer_lock_recovered(tmp_path):
    """A writer SIGKILLed while holding the O_EXCL lock must not wedge
    later readers: once the lock crosses the stale age they take over
    and build themselves."""
    import multiprocessing
    import time as time_mod

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork to stage a killable writer")
    store = TraceStore(tmp_path, stale_lock_s=0.3)
    key = app_key(_point())
    path = store.path_for(key)
    lock = path.with_name(path.name + ".lock")
    ctx = multiprocessing.get_context("fork")

    def doomed_writer():
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        time_mod.sleep(60)  # "building" forever; killed by the parent

    tmp_path.mkdir(exist_ok=True)
    writer = ctx.Process(target=doomed_writer)
    writer.start()
    deadline = time_mod.monotonic() + 5
    while not lock.exists():  # wait until the victim holds the lock
        assert time_mod.monotonic() < deadline
        time_mod.sleep(0.005)
    writer.kill()
    writer.join(timeout=10)

    started = time_mod.monotonic()
    entry = store.get_or_build(key, lambda: _cached())
    assert entry is not None
    assert time_mod.monotonic() - started < 5  # took over, no 60s wait
    assert store.builds == 1
    assert not lock.exists()
    assert path.exists()  # and the takeover published normally


def test_stale_lock_s_constructor_override(tmp_path):
    """Per-store stale age: an old lock is broken after ~stale_lock_s,
    not after the 60s module default."""
    import time as time_mod

    store = TraceStore(tmp_path, stale_lock_s=0.1)
    assert store.stale_lock_s == 0.1
    key = app_key(_point())
    path = store.path_for(key)
    lock = path.with_name(path.name + ".lock")
    tmp_path.mkdir(exist_ok=True)
    lock.write_text("dead")
    os.utime(lock, (0, 0))
    started = time_mod.monotonic()
    assert store.get_or_build(key, lambda: _cached()) is not None
    assert time_mod.monotonic() - started < 5


def test_stale_lock_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_LOCK_TIMEOUT", "0.25")
    assert TraceStore(tmp_path).stale_lock_s == 0.25
    monkeypatch.setenv("REPRO_TRACE_LOCK_TIMEOUT", "not-a-number")
    assert TraceStore(tmp_path).stale_lock_s == 60.0  # fallback
    monkeypatch.setenv("REPRO_TRACE_LOCK_TIMEOUT", "-5")
    assert TraceStore(tmp_path).stale_lock_s == 60.0  # rejects <= 0
    monkeypatch.delenv("REPRO_TRACE_LOCK_TIMEOUT")
    assert TraceStore(tmp_path).stale_lock_s == 60.0


def test_live_writer_is_awaited_not_preempted(tmp_path):
    """A fresh lock means the writer is alive: the reader waits for the
    published file and loads it instead of building a duplicate."""
    import threading
    import time as time_mod

    store = TraceStore(tmp_path, stale_lock_s=30.0)
    key = app_key(_point())
    path = store.path_for(key)
    lock = path.with_name(path.name + ".lock")
    tmp_path.mkdir(exist_ok=True)
    entry = _cached()

    def writer():
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
        time_mod.sleep(0.15)  # mid-build
        store.save(key, entry)
        os.unlink(lock)

    thread = threading.Thread(target=writer)
    thread.start()
    deadline = time_mod.monotonic() + 5
    while not lock.exists():
        assert time_mod.monotonic() < deadline
        time_mod.sleep(0.005)
    reader = TraceStore(tmp_path, stale_lock_s=30.0)
    stored = reader.get_or_build(
        key, lambda: pytest.fail("reader must wait, not rebuild")
    )
    thread.join(timeout=10)
    assert stored is not None
    assert reader.builds == 0
    assert reader.hits == 1
    assert _stats(stored) == _stats(entry)


def _contend(root: str) -> int:
    """Pool worker: race a cold build of the same sweep point."""
    cache = TraceCache(store=TraceStore(root))
    entry = cache.get(_point())
    return 0 if entry is not None else 1


def test_concurrent_cold_builds_generate_once(tmp_path):
    """Fan-out contention: many processes, one generation."""
    try:
        with ProcessPoolExecutor(max_workers=4) as pool:
            codes = list(pool.map(_contend, [str(tmp_path)] * 4))
    except (OSError, PermissionError):
        pytest.skip("no process pool in this environment")
    assert codes == [0, 0, 0, 0]
    log = (tmp_path / "builds.log").read_text().splitlines()
    assert len(log) == 1  # exactly one worker materialized


# -- sweep integration -------------------------------------------------------

def _sweep_points():
    return [
        _point("SW", label="SW|a"),
        _point("SW", label="SW|b",
               config=CONFIG.with_(perfect_memory=True)),
        _point("NW", label="NW|a"),
        _point("NW", label="NW|b", cdp=True),
    ]


def test_cold_parallel_sweep_builds_each_app_once(tmp_path):
    points = _sweep_points()
    results = run_sweep(points, jobs=4, store=str(tmp_path))
    log = (tmp_path / "builds.log").read_text().splitlines()
    distinct = {app_key(point) for point in points}
    assert len(log) == len(distinct)  # one generation per application
    # And the stored path is bit-identical to the plain serial path.
    plain = run_sweep(points, jobs=0, store=None)
    assert results == plain


def test_warm_sweep_builds_nothing(tmp_path):
    points = _sweep_points()
    run_sweep(points, jobs=0, store=str(tmp_path))
    log_before = (tmp_path / "builds.log").read_text()
    warm = run_sweep(points, jobs=0, store=str(tmp_path))
    assert (tmp_path / "builds.log").read_text() == log_before
    assert warm == run_sweep(points, jobs=0, store=None)


def _estimated(points):
    return [
        dataclasses.replace(
            point, config=point.config.with_(sample_fraction=0.1)
        )
        for point in points
    ]


def _dicts(results):
    return {label: stats.to_dict() for label, stats in results.items()}


def test_estimated_sweep_builds_into_the_store_once(tmp_path):
    """An in-process estimated sweep reads and fills the store: a cold
    one builds each application once into it, a warm one appends
    nothing to ``builds.log``, and both give the store-less results."""
    points = _estimated(_sweep_points())
    distinct = {app_key(point) for point in points}
    cold_cache = TraceCache(store=TraceStore(tmp_path))
    cold = run_sweep(points, jobs=0, cache=cold_cache)
    assert cold_cache.misses == len(distinct)
    log = tmp_path / "builds.log"
    assert len(log.read_text().splitlines()) == len(distinct)

    log_before = log.read_text()
    warm_cache = TraceCache(store=TraceStore(tmp_path))
    warm = run_sweep(points, jobs=0, cache=warm_cache)
    assert log.read_text() == log_before
    assert warm_cache.store_hits == len(distinct)
    plain = run_sweep(points, jobs=0, store=None)
    assert _dicts(warm) == _dicts(cold) == _dicts(plain)


def test_store_hit_feeds_the_estimator(tmp_path):
    """A store hit reaching ``run_point`` through a non-empty cache
    estimates exactly like a cold build."""
    from repro.core.sweep import run_point

    point = _estimated([_point("NW")])[0]
    TraceCache(store=TraceStore(tmp_path)).get(point)  # warm the store
    cache = TraceCache(store=TraceStore(tmp_path))
    cache.get(_point("GL"))
    estimate = run_point(point, cache)
    assert cache.store_hits == 1
    assert estimate.to_dict() == run_point(point).to_dict()


def test_store_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
    run_sweep([_point("SW", label="env")], jobs=0)  # store="env" default
    assert (tmp_path / "builds.log").exists()
    monkeypatch.delenv("REPRO_TRACE_STORE")
    assert TraceStore.from_env() is None


def test_trace_cache_counts_store_hits(tmp_path):
    store = TraceStore(tmp_path)
    warm_cache = TraceCache(store=store)
    assert warm_cache.get(_point()) is not None
    assert warm_cache.store_hits == 0  # cold: built, not loaded

    fresh = TraceCache(store=TraceStore(tmp_path))
    assert fresh.get(_point()) is not None
    assert fresh.store_hits == 1  # new process: served from disk
    assert fresh.get(_point()) is not None
    assert fresh.store_hits == 1  # second access: in-memory


# -- pack / unpack (host-to-host sync) --------------------------------------

def _populated_store(root):
    store = TraceStore(root)
    point = _point()
    store.save(app_key(point), _cached())
    return store


def test_pack_unpack_round_trip(tmp_path):
    src = _populated_store(tmp_path / "src")
    archive = tmp_path / "traces.rpak"
    assert src.pack(archive) == 1
    dst = TraceStore(tmp_path / "dst")
    assert dst.unpack(archive) == 1
    assert dst.entry_names() == src.entry_names()
    loaded = dst.load(app_key(_point()))
    assert loaded is not None
    assert _stats(loaded) == _stats(_cached())


def test_pack_subset_by_name(tmp_path):
    store = _populated_store(tmp_path / "src")
    store.save(app_key(_point(cdp=True)), _cached(cdp=True))
    names = store.entry_names()
    assert len(names) == 2
    archive = tmp_path / "one.rpak"
    assert store.pack(archive, names=names[:1]) == 1
    dst = TraceStore(tmp_path / "dst")
    assert dst.unpack(archive) == 1
    assert dst.entry_names() == names[:1]


def test_unpack_rejects_wrong_magic(tmp_path):
    archive = tmp_path / "bogus.rpak"
    archive.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="not a trace-store archive"):
        TraceStore(tmp_path / "dst").unpack(archive)


def test_unpack_rejects_foreign_fingerprint(tmp_path, monkeypatch):
    import repro.sim.trace_store as ts

    src = _populated_store(tmp_path / "src")
    archive = tmp_path / "traces.rpak"
    src.pack(archive)
    monkeypatch.setattr(ts, "source_fingerprint", lambda: "f" * 64)
    dst = TraceStore(tmp_path / "dst")
    with pytest.raises(ValueError, match="different source tree"):
        dst.unpack(archive)
    assert dst.entry_names() == []


def test_unpack_rejects_crc_corruption_and_keeps_nothing(tmp_path):
    src = _populated_store(tmp_path / "src")
    archive = tmp_path / "traces.rpak"
    src.pack(archive)
    data = bytearray(archive.read_bytes())
    data[-1] ^= 0xFF  # damage the last entry's payload in transit
    archive.write_bytes(bytes(data))
    dst = TraceStore(tmp_path / "dst")
    with pytest.raises(ValueError, match="CRC"):
        dst.unpack(archive)
    assert dst.entry_names() == []


def test_unpack_rejects_unsafe_entry_names(tmp_path):
    import struct as _struct
    import zlib as _zlib

    from repro.sim.trace_store import (
        PACK_MAGIC,
        PACK_VERSION,
        source_fingerprint,
    )

    archive = tmp_path / "evil.rpak"
    payload = b"whatever"
    name = b"../evil.trace"
    fingerprint = source_fingerprint().encode()
    archive.write_bytes(
        PACK_MAGIC + _struct.pack("<H", PACK_VERSION)
        + _struct.pack("<I", len(fingerprint)) + fingerprint
        + _struct.pack("<I", 1)
        + _struct.pack("<I", len(name)) + name
        + _struct.pack("<QI", len(payload), _zlib.crc32(payload))
        + payload
    )
    dst = TraceStore(tmp_path / "dst")
    with pytest.raises(ValueError, match="unsafe entry name"):
        dst.unpack(archive)
    assert dst.entry_names() == []


def test_unpack_rejects_future_version(tmp_path):
    import struct as _struct

    archive = tmp_path / "future.rpak"
    archive.write_bytes(b"RPAK" + _struct.pack("<H", 99) + b"\x00" * 8)
    with pytest.raises(ValueError, match="version 99"):
        TraceStore(tmp_path / "dst").unpack(archive)


def test_unpack_rejects_truncated_archive(tmp_path):
    src = _populated_store(tmp_path / "src")
    archive = tmp_path / "traces.rpak"
    src.pack(archive)
    data = archive.read_bytes()
    archive.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError):
        TraceStore(tmp_path / "dst").unpack(archive)


def test_unpack_rejects_trailing_garbage(tmp_path):
    """Bytes past the last entry mean the file was mangled somewhere;
    refuse the whole archive rather than import what happens to parse."""
    src = _populated_store(tmp_path / "src")
    archive = tmp_path / "traces.rpak"
    src.pack(archive)
    archive.write_bytes(archive.read_bytes() + b"corrupt")
    dst = TraceStore(tmp_path / "dst")
    with pytest.raises(ValueError, match="trailing"):
        dst.unpack(archive)
    assert dst.entry_names() == []
