"""Coordinator semantics, driven through scripted in-process launchers.

Every failure mode the real pool can hit is reproduced here
deterministically: chunk failures, dying workers, retry exhaustion,
duplicate delivery after a straggler re-dispatch, quarantine of a slot
that keeps dying, and journal resume after an interrupt.  The real
forked worker pool is exercised in ``test_launchers.py``.
"""

import math
import threading

import pytest

from repro.core.config_presets import baseline_config, with_cache_sizes
from repro.core.sweep import TraceCache, point_key, run_point, run_sweep, sweep_point
from repro.dist import (
    DistSweepError,
    SweepJournal,
    coordinator,
    run_dsweep,
)
from repro.dist.coordinator import make_chunks
from repro.dist.launchers import ChunkFailed, ChunkTimeout, WorkerDied

CONFIG = baseline_config(num_sms=4)


@pytest.fixture(scope="module")
def points():
    """2 benchmarks x 2 configs: two application groups of two."""
    small_l1 = with_cache_sizes(CONFIG, 32 * 1024, 512 * 1024)
    return [
        sweep_point(f"{abbr}|{tag}", abbr, cfg)
        for abbr in ("NW", "CLUSTER")
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
        for abbr in ("NW", "CLUSTER")
        for cdp in (False, True)
    ]


@pytest.fixture(scope="module")
def distinct_serial(distinct):
    return run_sweep(distinct, jobs=0, store=None)


class ScriptedLauncher:
    """In-process launcher with per-chunk scripted failures.

    ``plan`` maps a chunk id to a list of exceptions; each dispatch of
    that chunk pops and raises one until the list is empty, then the
    chunk runs for real.  Execution is serialized under one lock, so
    the shared TraceCache needs no thread-safety of its own.
    """

    def __init__(self, workers=2, plan=None):
        self.workers = workers
        self.plan = {k: list(v) for k, v in (plan or {}).items()}
        self.calls = []
        self.points = []  # the points of each dispatch, in call order
        self.cache = TraceCache()
        self.lock = threading.Lock()

    def close(self):
        pass

    def run_chunk(self, worker_id, chunk_id, points, timeout=None):
        with self.lock:
            self.calls.append((worker_id, chunk_id))
            self.points.append(list(points))
            failures = self.plan.get(chunk_id)
            if failures:
                raise failures.pop(0)
            return [run_point(p, self.cache) for p in points]


class TestChunking:
    def test_chunks_group_by_application(self, points, distinct):
        assert make_chunks(points) == [[0, 1], [2, 3]]
        assert make_chunks(distinct) == [[0], [1], [2], [3]]


class TestHappyPath:
    def test_bit_identical_to_run_sweep(self, points, serial):
        results = run_dsweep(points, ScriptedLauncher())
        assert results == serial
        assert list(results) == [p.label for p in points]

    def test_single_worker_single_point_chunks(self, distinct,
                                               distinct_serial):
        launcher = ScriptedLauncher(workers=1)
        assert run_dsweep(distinct, launcher) == distinct_serial
        assert len(launcher.calls) == 4

    def test_duplicate_labels_rejected(self, points):
        twice = points + points
        with pytest.raises(ValueError, match="unique"):
            run_dsweep(twice, ScriptedLauncher())


class TestRetries:
    def test_failed_chunk_is_retried_elsewhere(self, points, serial):
        launcher = ScriptedLauncher(plan={0: [ChunkFailed("sim raised")]})
        results = run_dsweep(points, launcher)
        assert results == serial
        assert run_dsweep.last_stats["retries"] == 1

    def test_worker_death_and_timeout_are_retried(self, points, serial):
        launcher = ScriptedLauncher(plan={
            0: [WorkerDied("gone")],
            1: [ChunkTimeout("too slow")],
        })
        assert run_dsweep(points, launcher) == serial
        assert run_dsweep.last_stats["retries"] == 2

    def test_exhausted_retries_fail_loudly_with_identities(self, points):
        launcher = ScriptedLauncher(
            plan={0: [ChunkFailed("boom")] * 3},
        )
        with pytest.raises(DistSweepError) as err:
            run_dsweep(points, launcher, max_retries=2)
        assert len(err.value.lost) == 2  # both points of chunk 0
        for point in points[:2]:
            assert any(point_key(point) in lost for lost in err.value.lost)
        assert "boom" in err.value.cause

    def test_zero_max_retries_means_one_shot(self, points):
        launcher = ScriptedLauncher(plan={0: [ChunkFailed("boom")]})
        with pytest.raises(DistSweepError):
            run_dsweep(points, launcher, max_retries=0)


class TestQuarantine:
    def test_repeatedly_dying_slot_is_retired_not_fatal(
        self, distinct, distinct_serial
    ):
        class DyingSlotLauncher(ScriptedLauncher):
            def run_chunk(self, worker_id, chunk_id, pts, timeout=None):
                if worker_id == 0:
                    raise WorkerDied("slot 0 keeps dying")
                return super().run_chunk(worker_id, chunk_id, pts, timeout)

        results = run_dsweep(distinct, DyingSlotLauncher(workers=2),
                             max_retries=2)
        assert results == distinct_serial
        assert run_dsweep.last_stats["workers_retired"] == 1

    def test_all_slots_dying_is_fatal_and_names_everything(self, points):
        class AllDeadLauncher(ScriptedLauncher):
            def run_chunk(self, worker_id, chunk_id, pts, timeout=None):
                raise WorkerDied("host on fire")

        with pytest.raises(DistSweepError, match="every worker slot") as err:
            run_dsweep(points, AllDeadLauncher(workers=2), max_retries=5)
        assert len(err.value.lost) == len(points)
        assert err.value.cause.endswith("WorkerDied: host on fire")


class TestStragglers:
    def test_duplicate_delivery_first_wins(self, distinct, distinct_serial,
                                           monkeypatch):
        """A straggler re-dispatch races the original; the late copy's
        result must be dropped, not double-merged."""
        second_done = threading.Event()
        state = {"c0": 0}

        class StallingLauncher(ScriptedLauncher):
            def run_chunk(self, worker_id, chunk_id, pts, timeout=None):
                if chunk_id == 0:
                    with self.lock:
                        state["c0"] += 1
                        copy = state["c0"]
                    if copy == 1:
                        # First copy wedges until the re-dispatched
                        # copy has answered, then delivers a duplicate.
                        assert second_done.wait(timeout=30)
                result = super().run_chunk(
                    worker_id, chunk_id, pts, timeout
                )
                if chunk_id == 0 and state["c0"] >= 2:
                    second_done.set()
                return result

        monkeypatch.setattr(coordinator, "STRAGGLER_FACTOR", 0.1)
        results = run_dsweep(distinct, StallingLauncher(workers=2))
        assert results == distinct_serial
        assert run_dsweep.last_stats["redispatches"] >= 1
        assert run_dsweep.last_stats["duplicates_dropped"] >= 1

    def test_straggler_disabled_means_no_redispatch(
        self, distinct, distinct_serial, monkeypatch
    ):
        monkeypatch.setattr(coordinator, "STRAGGLER_FACTOR", math.inf)
        results = run_dsweep(distinct, ScriptedLauncher())
        assert results == distinct_serial
        assert run_dsweep.last_stats["redispatches"] == 0


class TestJournalResume:
    def test_interrupted_sweep_resumes_from_journal(
        self, tmp_path, points, serial
    ):
        path = tmp_path / "sweep.journal"
        # First attempt: chunk 1 fails hard enough to lose the sweep;
        # chunk 0's completion must already be journaled.
        bad = ScriptedLauncher(
            workers=1, plan={1: [ChunkFailed("power cut")] * 9},
        )
        with pytest.raises(DistSweepError):
            run_dsweep(points, bad, journal=path, max_retries=1)
        # Second attempt with a healthy pool: chunk 0's points resume
        # from the journal, only the other chunk's points are dispatched.
        good = ScriptedLauncher(workers=1)
        results = run_dsweep(points, good, journal=path)
        assert results == serial
        assert run_dsweep.last_stats["resumed"] == 2
        assert good.calls == [(0, 0)]
        assert good.points == [points[2:]]

    def test_completed_sweep_replays_fully(self, tmp_path, points, serial):
        path = tmp_path / "sweep.journal"
        run_dsweep(points, ScriptedLauncher(), journal=path)
        idle = ScriptedLauncher()
        assert run_dsweep(points, idle, journal=path) == serial
        assert idle.calls == []
        assert run_dsweep.last_stats["resumed"] == 4

    def test_rechunked_journal_resumes(self, tmp_path, points, serial):
        """Records are per point, not per chunk: a journal of two
        two-point chunks resumes a grid whose chunks differ (reordered)
        and the per-point in-process sweep, appending nothing."""
        path = tmp_path / "sweep.journal"
        run_dsweep(points, ScriptedLauncher(), journal=path)
        written = path.read_text()
        idle = ScriptedLauncher()
        reordered = [points[3], points[0], points[2], points[1]]
        assert run_dsweep(reordered, idle, journal=path) == {
            point.label: serial[point.label] for point in reordered
        }
        assert idle.calls == []
        assert run_dsweep.last_stats["chunks"] == 0
        assert run_sweep(points, jobs=0, store=None, journal=path) == serial
        assert path.read_text() == written

    def test_journal_instance_accepted(self, tmp_path, points, serial):
        journal = SweepJournal(tmp_path / "sweep.journal")
        assert run_dsweep(points, ScriptedLauncher(),
                          journal=journal) == serial

    def test_truncated_sequential_journal_resumes(
        self, tmp_path, distinct, distinct_serial
    ):
        """A crash mid-append in a ``run_sweep(jobs=0)`` journal costs
        only the torn point: ``run_dsweep`` re-runs just the missing
        ones and merges to the serial result."""
        path = tmp_path / "sweep.journal"
        run_sweep(distinct[:3], jobs=0, store=None, journal=path)
        whole = path.read_text()
        path.write_text(whole[: len(whole) - len(whole.splitlines()[-1]) // 2])
        launcher = ScriptedLauncher(workers=1)
        assert run_dsweep(distinct, launcher,
                          journal=path) == distinct_serial
        assert launcher.points == [[distinct[2]], [distinct[3]]]
        assert run_dsweep.last_stats["resumed"] == 2


def _journal_of(tmp_path, points, serial, labels):
    """A journal holding the serial results of ``labels``' points."""
    journal = SweepJournal(tmp_path / "sweep.journal")
    journal.open()
    chosen = [p for p in points if p.label in labels]
    journal.record([point_key(p) for p in chosen],
                   [serial[p.label] for p in chosen])
    return journal


class TestResume:
    def test_resume_skips_known_points(self, tmp_path, points, serial):
        journal = _journal_of(tmp_path, points, serial,
                              {points[0].label, points[3].label})
        launcher = ScriptedLauncher(workers=1)
        results = run_dsweep(points, launcher, journal=journal)
        assert results == serial
        assert len(launcher.calls) == 2  # only the two unknown points

    def test_resume_covering_everything_dispatches_nothing(
        self, tmp_path, points, serial
    ):
        journal = _journal_of(tmp_path, points, serial,
                              {p.label for p in points})
        launcher = ScriptedLauncher()
        assert run_dsweep(points, launcher, journal=journal) == serial
        assert launcher.calls == []
        assert run_dsweep.last_stats["chunks"] == 0
