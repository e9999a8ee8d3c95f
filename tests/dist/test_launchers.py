"""The real worker pool: bit-identity and violent failure modes.

These tests fork actual worker processes running
``repro.dist.worker.serve``.
Failure injection uses the worker's env knobs (``REPRO_DIST_DIE_AFTER``
kills the process with no reply mid-chunk — indistinguishable from a
SIGKILL to the parent — and ``REPRO_DIST_STALL_S`` wedges it), plus one
genuine ``SIGKILL`` aimed at a live pid.
"""

import os
import signal

import pytest

from repro.core.config_presets import baseline_config, with_cache_sizes
from repro.core.sweep import run_sweep, sweep_point
from repro.dist import (
    DistSweepError,
    LocalProcessLauncher,
    coordinator,
    run_dsweep,
)
from repro.dist.launchers import ChunkTimeout, WorkerDied

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


def test_two_workers_bit_identical(points, serial):
    with LocalProcessLauncher(workers=2) as launcher:
        results = run_dsweep(points, launcher)
    assert results == serial
    assert list(results) == [p.label for p in points]


def test_worker_reused_across_chunks(points, serial):
    with LocalProcessLauncher(workers=1) as launcher:
        assert run_dsweep(points, launcher) == serial
        assert launcher.spawns == 1


def test_killed_worker_mid_chunk_loses_nothing(distinct):
    """Worker 0 exits without replying on its first chunk, and again on
    every respawn; the sweep must finish bit-identically off worker 1
    after quarantining the dying slot."""
    serial = run_sweep(distinct, jobs=0, store=None)
    launcher = LocalProcessLauncher(
        workers=2, worker_env={0: {"REPRO_DIST_DIE_AFTER": "1"}},
    )
    with launcher:
        results = run_dsweep(distinct, launcher, max_retries=2)
    assert results == serial
    assert run_dsweep.last_stats["retries"] >= 1
    assert run_dsweep.last_stats["workers_retired"] == 1


def test_sigkill_during_sweep_is_survived(points, serial):
    """A genuine SIGKILL of a live worker: the next dispatch sees EOF,
    the chunk is re-queued, the slot respawns."""
    with LocalProcessLauncher(workers=2) as launcher:
        # Pre-spawn both slots so there is a pid to murder.
        launcher.run_chunk(0, -1, points[:1], timeout=None)
        launcher.run_chunk(1, -1, points[:1], timeout=None)
        victim = launcher.pids()[1]
        os.kill(victim, signal.SIGKILL)
        results = run_dsweep(points, launcher)
    assert results == serial
    assert run_dsweep.last_stats["workers_retired"] == 0


def test_chunk_timeout_kills_and_retries_elsewhere(points, serial,
                                                  monkeypatch):
    """Worker 0 wedges on every chunk; the deadline fires, the worker
    is killed, and the chunk reruns on the healthy slot."""
    monkeypatch.setattr(coordinator, "WORKER_FAILURE_LIMIT", 1)
    launcher = LocalProcessLauncher(
        workers=2, worker_env={0: {"REPRO_DIST_STALL_S": "60"}},
    )
    with launcher:
        results = run_dsweep(points, launcher, chunk_timeout=10.0,
                             max_retries=2)
    assert results == serial
    assert run_dsweep.last_stats["workers_retired"] == 1


def test_timeout_exhaustion_fails_loudly(points, monkeypatch):
    """Every slot wedges: retries exhaust and the error names the lost
    points instead of hanging or returning a partial grid."""
    monkeypatch.setattr(coordinator, "WORKER_FAILURE_LIMIT", 5)
    launcher = LocalProcessLauncher(
        workers=1, extra_env={"REPRO_DIST_STALL_S": "60"},
    )
    with launcher:
        with pytest.raises(DistSweepError) as err:
            run_dsweep(points[:2], launcher, chunk_timeout=1.0,
                       max_retries=1)
    assert len(err.value.lost) == 2


def test_direct_run_chunk_timeout_raises(points):
    launcher = LocalProcessLauncher(
        workers=1, extra_env={"REPRO_DIST_STALL_S": "60"},
    )
    with launcher:
        with pytest.raises(ChunkTimeout):
            launcher.run_chunk(0, 0, points[:1], timeout=1.0)
        # The wedged worker was killed; the slot respawns clean.
        assert launcher.pids() == {}


def test_direct_run_chunk_worker_death_raises(points):
    launcher = LocalProcessLauncher(
        workers=1, extra_env={"REPRO_DIST_DIE_AFTER": "1"},
    )
    with launcher:
        with pytest.raises(WorkerDied):
            launcher.run_chunk(0, 0, points[:1], timeout=None)


def test_worker_sees_eof_despite_siblings(points):
    """Later forks close the pipe ends of earlier workers, so closing a
    worker's parent-side pipe end still ends it while its siblings live."""
    with LocalProcessLauncher(workers=3) as launcher:
        for worker_id in range(3):
            launcher.run_chunk(worker_id, worker_id, points[:1])
        first = launcher._live[0]
        first.conn.close()
        first.proc.join(timeout=10)
        assert not first.proc.is_alive()
        assert set(launcher.pids()) == {1, 2}


def test_close_is_idempotent(points):
    launcher = LocalProcessLauncher(workers=1)
    launcher.run_chunk(0, 0, points[:1], timeout=None)
    launcher.close()
    launcher.close()
    assert launcher.pids() == {}


def test_no_store_means_no_store_even_with_env(points, tmp_path,
                                              monkeypatch):
    """``store=None`` must keep workers off ``$REPRO_TRACE_STORE``."""
    monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
    with LocalProcessLauncher(workers=1, store=None) as launcher:
        run_dsweep(points[:1], launcher)
    run_sweep(points[:1], jobs=2, store=None)
    assert list(tmp_path.iterdir()) == []
