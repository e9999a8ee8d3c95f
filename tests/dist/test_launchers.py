"""The real local launcher: bit-identity and violent failure modes.

These tests fork actual chunk children.  Faults are injected by
patching the chunk body (``launchers._chunk_main``) in the parent: every
later fork inherits the patch, and the name of the forking dispatch
thread (``repro-dsweep-<slot>``) tells the slots apart inside the
child.  A child can exit without replying (indistinguishable from a
SIGKILL to the parent) or wedge; one test also sends a genuine
``SIGKILL`` to a pid taken from ``pids()``.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.core.config_presets import baseline_config, with_cache_sizes
from repro.core.sweep import run_sweep, sweep_point
from repro.dist import (
    DistSweepError,
    LocalProcessLauncher,
    coordinator,
    launchers,
    run_dsweep,
)
from repro.dist.launchers import ChunkFailed, ChunkTimeout, WorkerDied

CONFIG = baseline_config(num_sms=4)


@pytest.fixture(scope="module")
def points():
    small_l1 = with_cache_sizes(CONFIG, 32 * 1024, 512 * 1024)
    return [
        sweep_point(f"NW{'-cdp' if cdp else ''}|{tag}", "NW", cfg, cdp=cdp)
        for cdp in (False, True)
        for tag, cfg in (("base", CONFIG), ("32k", small_l1))
    ]


@pytest.fixture(scope="module")
def serial(points):
    return run_sweep(points, jobs=0, store=None)


@pytest.fixture(scope="module")
def distinct():
    """Four applications, one point each: four single-point chunks."""
    return [
        sweep_point(f"{abbr}{'-cdp' if cdp else ''}", abbr, CONFIG, cdp=cdp)
        for abbr in ("NW", "SW")
        for cdp in (False, True)
    ]


def _exit_without_reply():
    os._exit(13)  # like a SIGKILL mid-chunk: no reply, no cleanup


def _wedge():
    time.sleep(60)


@pytest.fixture
def fault(monkeypatch):
    """``fault(action, slots=None)`` runs ``action`` at the start of
    every chunk child forked for one of ``slots`` (every child when
    None)."""

    def install(action, slots=None):
        real = launchers._chunk_main
        names = None if slots is None else {
            f"repro-dsweep-{slot}" for slot in slots
        }

        def chunk_main(conn, *args):
            if names is None or threading.current_thread().name in names:
                action()
            real(conn, *args)

        monkeypatch.setattr(launchers, "_chunk_main", chunk_main)

    return install


def _children() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


def test_two_workers_bit_identical(points, serial):
    with LocalProcessLauncher(workers=2) as launcher:
        results = run_dsweep(points, launcher)
    assert results == serial
    assert list(results) == [p.label for p in points]


def test_killed_worker_mid_chunk_loses_nothing(distinct, fault):
    """Every child slot 0 forks exits without replying; the sweep must
    finish bit-identically off slot 1 after quarantining slot 0."""
    serial = run_sweep(distinct, jobs=0, store=None)
    fault(_exit_without_reply, slots={0})
    with LocalProcessLauncher(workers=2) as launcher:
        results = run_dsweep(distinct, launcher, max_retries=2)
    assert results == serial
    assert run_dsweep.last_stats["retries"] >= 1
    assert run_dsweep.last_stats["workers_retired"] == 1


def test_sigkill_during_sweep_is_survived(points, serial, fault, tmp_path):
    """A genuine SIGKILL of a live chunk child: the parent sees the
    death, the chunk is re-queued, and the next fork runs it."""
    marker = tmp_path / "wedged"

    def wedge_once():
        if not marker.exists():
            marker.write_text("")
            _wedge()

    fault(wedge_once, slots={1})
    killed = []

    def kill_the_wedged_child(launcher):
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            pid = launcher.pids().get(1)
            if pid is not None and marker.exists():
                os.kill(pid, signal.SIGKILL)
                killed.append(pid)
                return
            time.sleep(0.01)

    with LocalProcessLauncher(workers=2) as launcher:
        killer = threading.Thread(target=kill_the_wedged_child,
                                  args=(launcher,))
        killer.start()
        results = run_dsweep(points, launcher)
        killer.join(timeout=30)
    assert not killer.is_alive()
    assert killed
    assert results == serial
    assert run_dsweep.last_stats["workers_retired"] == 0


def test_chunk_timeout_kills_and_retries_elsewhere(points, serial, fault,
                                                  monkeypatch):
    """Slot 0 wedges on every chunk; the deadline fires, its child is
    killed, and the chunk reruns on the healthy slot."""
    monkeypatch.setattr(coordinator, "WORKER_FAILURE_LIMIT", 1)
    fault(_wedge, slots={0})
    with LocalProcessLauncher(workers=2) as launcher:
        results = run_dsweep(points, launcher, chunk_timeout=10.0,
                             max_retries=2)
    assert results == serial
    assert run_dsweep.last_stats["workers_retired"] == 1


def test_timeout_exhaustion_fails_loudly(points, fault, monkeypatch):
    """Every child wedges: retries exhaust and the error names the lost
    points instead of hanging or returning a partial grid."""
    monkeypatch.setattr(coordinator, "WORKER_FAILURE_LIMIT", 5)
    fault(_wedge)
    with LocalProcessLauncher(workers=1) as launcher:
        with pytest.raises(DistSweepError) as err:
            run_dsweep(points[:2], launcher, chunk_timeout=1.0,
                       max_retries=1)
    assert len(err.value.lost) == 2


# One child per chunk: whatever the outcome, no child outlives it.

def test_direct_run_chunk_reply_leaves_no_child(points, serial):
    before = _children()
    with LocalProcessLauncher(workers=1) as launcher:
        stats = launcher.run_chunk(0, 0, points[:1], timeout=None)
        assert stats == [serial[points[0].label]]
        assert launcher.pids() == {}
        assert _children() <= before


def test_direct_run_chunk_failure_raises(points, monkeypatch):
    def boom(point, cache):
        raise ValueError("boom")

    monkeypatch.setattr(launchers, "run_point", boom)
    before = _children()
    with LocalProcessLauncher(workers=1) as launcher:
        with pytest.raises(ChunkFailed, match="ValueError: boom"):
            launcher.run_chunk(0, 0, points[:1], timeout=None)
        assert launcher.pids() == {}
        assert _children() <= before


def test_direct_run_chunk_timeout_raises(points, fault):
    fault(_wedge)
    before = _children()
    with LocalProcessLauncher(workers=1) as launcher:
        with pytest.raises(ChunkTimeout):
            launcher.run_chunk(0, 0, points[:1], timeout=1.0)
        assert launcher.pids() == {}
        assert _children() <= before


def test_direct_run_chunk_worker_death_raises(points, fault):
    fault(_exit_without_reply)
    before = _children()
    with LocalProcessLauncher(workers=1) as launcher:
        with pytest.raises(WorkerDied, match=r"exited \(code 13\)"):
            launcher.run_chunk(0, 0, points[:1], timeout=None)
        assert launcher.pids() == {}
        assert _children() <= before


def test_close_is_idempotent(points, fault):
    """``close()`` kills a chunk child still running; the chunk's
    ``run_chunk`` then reports the death."""
    fault(_wedge)
    launcher = LocalProcessLauncher(workers=1)
    raised = []

    def run():
        try:
            launcher.run_chunk(0, 0, points[:1], timeout=None)
        except WorkerDied as exc:
            raised.append(exc)

    runner = threading.Thread(target=run)
    runner.start()
    deadline = time.monotonic() + 30
    while not launcher.pids():
        assert time.monotonic() < deadline
        time.sleep(0.01)
    launcher.close()
    launcher.close()
    runner.join(timeout=30)
    assert not runner.is_alive()
    assert raised
    assert launcher.pids() == {}


def test_no_store_means_no_store_even_with_env(points, tmp_path,
                                              monkeypatch):
    """``store=None`` must keep chunk children off ``$REPRO_TRACE_STORE``."""
    monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
    with LocalProcessLauncher(workers=1, store=None) as launcher:
        run_dsweep(points[:1], launcher)
    run_sweep(points[:1], jobs=2, store=None)
    assert list(tmp_path.iterdir()) == []
