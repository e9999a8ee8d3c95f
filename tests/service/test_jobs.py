"""Job queue semantics: lifecycle, priorities, cancellation, timeouts.

These tests drive :class:`repro.service.jobs.JobQueue` directly with
closure executors (inherited across ``fork``, so no pickling), which
keeps every scenario deterministic: sleep executors stand in for long
simulations, ``start=False`` freezes dispatch until the queue is
fully loaded.
"""

import multiprocessing
import time

import pytest

from repro.service.jobs import JobQueue, JobState

pytestmark = pytest.mark.service

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="kill-based control needs the fork start method"
)


def quick(request, artifact_dir):
    return {"echo": request}, {"sim_s": 0.0}


def failing(request, artifact_dir):
    raise RuntimeError("deliberate explosion")


def sleeper(request, artifact_dir):
    time.sleep(float(request))
    return {"slept": request}, {}


@pytest.fixture
def queue():
    jobs = JobQueue(
        {"quick": quick, "fail": failing, "sleep": sleeper},
        workers=2,
        use_processes=False,
    )
    yield jobs
    jobs.shutdown()


@pytest.fixture
def forked_queue():
    jobs = JobQueue(
        {"quick": quick, "fail": failing, "sleep": sleeper},
        workers=2,
        use_processes=True,
    )
    yield jobs
    jobs.shutdown()


class TestLifecycle:
    def test_submit_poll_result(self, queue):
        job = queue.submit("quick", "hello")
        assert queue.get(job.id) is job
        done = queue.wait(job.id, timeout=10)
        assert done.state == JobState.DONE
        assert done.result == {"echo": "hello"}
        assert done.error is None
        assert done.finished_at >= done.started_at >= done.submitted_at
        assert done.timings["queue_wait_s"] >= 0.0
        assert done.timings["run_s"] >= 0.0
        assert done.timings["sim_s"] == 0.0  # executor-reported stage

    def test_failure_reported_not_raised(self, queue):
        job = queue.submit("fail", None)
        done = queue.wait(job.id, timeout=10)
        assert done.state == JobState.FAILED
        assert "deliberate explosion" in done.error
        assert done.result is None

    def test_unknown_kind_rejected_at_submit(self, queue):
        with pytest.raises(KeyError, match="no executor"):
            queue.submit("compile", None)

    def test_wait_times_out(self, queue):
        job = queue.submit("sleep", "5")
        with pytest.raises(TimeoutError):
            queue.wait(job.id, timeout=0.05)
        queue.cancel(job.id)

    def test_wait_unknown_job(self, queue):
        with pytest.raises(KeyError):
            queue.wait("feedbeef0000", timeout=0.1)

    def test_executed_counts_real_runs_only(self, queue):
        queue.wait(queue.submit("quick", "a").id, timeout=10)
        queue.record_completed("quick", {"echo": "cached"}, cached=True)
        assert queue.executed == 1

    def test_record_completed_is_terminal(self, queue):
        job = queue.record_completed("quick", {"echo": "hit"}, cached=True)
        assert job.state == JobState.DONE
        assert job.cached is True
        assert job.result == {"echo": "hit"}
        assert queue.wait(job.id, timeout=1) is job  # no blocking

    def test_view_round_trips_state(self, queue):
        job = queue.submit("quick", "x")
        queue.wait(job.id, timeout=10)
        view = job.view()
        assert view.id == job.id
        assert view.state == JobState.DONE
        assert view.timings == job.timings


class TestPriorities:
    def test_higher_priority_dispatches_first(self):
        order = []

        def recorder(request, artifact_dir):
            order.append(request)
            return {}, {}

        # start=False: load the whole queue before any worker exists,
        # then a single worker drains it strictly by priority.
        jobs = JobQueue(
            {"rec": recorder}, workers=1, start=False, use_processes=False
        )
        try:
            jobs.submit("rec", "low", priority=0)
            jobs.submit("rec", "mid", priority=5)
            jobs.submit("rec", "high", priority=9)
            jobs.submit("rec", "mid2", priority=5)
            jobs.start()
            last = jobs.submit("rec", "late-low", priority=0)
            jobs.wait(last.id, timeout=10)
        finally:
            jobs.shutdown()
        assert order == ["high", "mid", "mid2", "low", "late-low"]

    def test_fifo_within_a_priority(self):
        order = []

        def recorder(request, artifact_dir):
            order.append(request)
            return {}, {}

        jobs = JobQueue(
            {"rec": recorder}, workers=1, start=False, use_processes=False
        )
        try:
            for name in ("a", "b", "c"):
                jobs.submit("rec", name, priority=3)
            jobs.start()
            jobs.wait(jobs.submit("rec", "d", priority=3).id, timeout=10)
        finally:
            jobs.shutdown()
        assert order == ["a", "b", "c", "d"]


class TestCancellation:
    def test_cancel_queued_job_never_runs(self):
        ran = []

        def recorder(request, artifact_dir):
            ran.append(request)
            return {}, {}

        jobs = JobQueue(
            {"rec": recorder}, workers=1, start=False, use_processes=False
        )
        try:
            victim = jobs.submit("rec", "victim")
            survivor = jobs.submit("rec", "survivor")
            assert jobs.cancel(victim.id) is True
            assert victim.state == JobState.CANCELLED
            assert "queued" in victim.error
            jobs.start()
            jobs.wait(survivor.id, timeout=10)
        finally:
            jobs.shutdown()
        assert ran == ["survivor"]

    @needs_fork
    def test_cancel_running_job_kills_it(self, forked_queue):
        job = forked_queue.submit("sleep", "30")
        deadline = time.monotonic() + 10
        while job.state == JobState.QUEUED:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert forked_queue.cancel(job.id) is True
        done = forked_queue.wait(job.id, timeout=10)
        assert done.state == JobState.CANCELLED
        assert "cancelled while running" in done.error
        # The 30s sleep was killed, not awaited.
        assert done.timings["run_s"] < 10

    def test_cancel_finished_job_is_false(self, queue):
        job = queue.submit("quick", "x")
        queue.wait(job.id, timeout=10)
        assert queue.cancel(job.id) is False

    def test_cancel_unknown_job_is_false(self, queue):
        assert queue.cancel("feedbeef0000") is False

    def test_shutdown_cancels_queued(self):
        jobs = JobQueue(
            {"sleep": sleeper}, workers=1, start=False, use_processes=False
        )
        job = jobs.submit("sleep", "30")
        jobs.shutdown()
        assert job.state == JobState.CANCELLED
        assert "shutting down" in job.error
        with pytest.raises(RuntimeError, match="shut down"):
            jobs.submit("sleep", "1")


class TestTimeouts:
    @needs_fork
    def test_timeout_kills_the_job(self, forked_queue):
        job = forked_queue.submit("sleep", "30", timeout_s=0.2)
        done = forked_queue.wait(job.id, timeout=10)
        assert done.state == JobState.TIMEOUT
        assert "timeout_s=0.2" in done.error
        assert done.timings["run_s"] < 10  # killed, not slept out

    @needs_fork
    def test_fast_job_beats_its_timeout(self, forked_queue):
        job = forked_queue.submit("sleep", "0", timeout_s=30)
        done = forked_queue.wait(job.id, timeout=10)
        assert done.state == JobState.DONE
        assert done.result == {"slept": "0"}


class TestConcurrencyBounds:
    def test_workers_bound_parallelism(self):
        """With one worker, jobs serialize; the gauge never exceeds 1."""
        running = []

        def tracked(request, artifact_dir):
            running.append(1)
            peak = len(running)
            time.sleep(0.05)
            running.pop()
            return {"peak": peak}, {}

        jobs = JobQueue({"t": tracked}, workers=1, use_processes=False)
        try:
            submitted = [jobs.submit("t", i) for i in range(4)]
            results = [jobs.wait(job.id, timeout=30) for job in submitted]
        finally:
            jobs.shutdown()
        assert all(job.result["peak"] == 1 for job in results)

    def test_two_workers_overlap(self):
        barrier_hits = []

        def meet(request, artifact_dir):
            barrier_hits.append(request)
            deadline = time.monotonic() + 5
            while len(barrier_hits) < 2:  # both jobs must be in flight
                if time.monotonic() > deadline:
                    return {"met": False}, {}
                time.sleep(0.005)
            return {"met": True}, {}

        jobs = JobQueue({"meet": meet}, workers=2, use_processes=False)
        try:
            first = jobs.submit("meet", "a")
            second = jobs.submit("meet", "b")
            done = [jobs.wait(job.id, timeout=30) for job in (first, second)]
        finally:
            jobs.shutdown()
        assert all(job.result == {"met": True} for job in done)

    def test_two_jobs_run_concurrently(self):
        """Every job holds one slot: two sleeps on two workers take
        one sleep's wall time, not two."""
        jobs = JobQueue({"sleep": sleeper}, workers=2, use_processes=False)
        try:
            first = jobs.submit("sleep", 0.2)
            second = jobs.submit("sleep", 0.2)
            started = time.monotonic()
            jobs.wait(first.id, timeout=30)
            jobs.wait(second.id, timeout=30)
            elapsed = time.monotonic() - started
        finally:
            jobs.shutdown()
        assert elapsed < 0.38  # ran concurrently, not back-to-back

    def test_depth_gauges(self, queue):
        job = queue.submit("quick", "x")
        queue.wait(job.id, timeout=10)
        depth = queue.depth()
        assert depth["workers"] == 2
        assert depth["queued"] == 0
        assert depth["states"].get(JobState.DONE, 0) >= 1

    def test_worker_floor(self):
        with pytest.raises(ValueError, match="at least one worker"):
            JobQueue({"quick": quick}, workers=0)
