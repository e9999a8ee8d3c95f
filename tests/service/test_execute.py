"""Job executors load applications through the env-named trace store."""

import time

import pytest

from repro.core import sweep
from repro.core.forked import CAN_FORK
from repro.service.execute import EXECUTORS
from repro.service.jobs import JobState
from repro.service.schemas import parse_request
from repro.service.service import SimulationService

pytestmark = pytest.mark.service

_REQUESTS = {
    "simulate": {"benchmark": "NW", "cdp": True, "config": {"num_sms": 4}},
    "estimate": {"benchmark": "NW", "cdp": True, "config": {"num_sms": 4}},
    "profile": {"benchmark": "NW", "cdp": True, "config": {"num_sms": 4},
                "artifacts": []},
}


@pytest.mark.parametrize("kind", sorted(_REQUESTS))
def test_a_warm_store_serves_the_job(kind, tmp_path, monkeypatch):
    """With ``REPRO_TRACE_STORE`` naming a warm store the job builds
    nothing (``builds.log`` is unchanged) and returns the stats a
    store-less job returns."""
    request = parse_request(kind, _REQUESTS[kind])
    execute = EXECUTORS[kind]
    monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
    plain, _ = execute(request, None)

    monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
    cold, _ = execute(request, None)
    log = tmp_path / "builds.log"
    built = log.read_text()
    assert len(built.splitlines()) == 1

    warm, timings = execute(request, None)
    assert log.read_text() == built
    assert warm == cold == plain
    assert "trace_load_s" in timings


@pytest.mark.skipif(not CAN_FORK, reason="cancellation kills a forked job")
def test_a_cancelled_cold_build_does_not_stall_the_next_job(
    tmp_path, monkeypatch
):
    """Cancelling a cold simulate job SIGKILLs its child inside the
    store's build.  The identical request that follows takes the build
    lock at once: the kernel released it with the killed child."""
    store = tmp_path / "store"
    monkeypatch.setenv("REPRO_TRACE_STORE", str(store))
    building = tmp_path / "building"
    real_build = sweep.TraceCache._build

    def build_wedged_once(self, point):
        if not building.exists():
            building.write_text("")
            time.sleep(60)  # cancelled long before this returns
        return real_build(self, point)

    # Patched in the parent, so every forked job child inherits it.
    monkeypatch.setattr(sweep.TraceCache, "_build", build_wedged_once)
    service = SimulationService(workers=1)
    try:
        victim = service.submit("simulate", _REQUESTS["simulate"])
        deadline = time.monotonic() + 30
        while not building.exists():  # the child holds the build lock
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert service.cancel(victim.id)
        assert service.wait(victim.id, timeout=10).state == \
            JobState.CANCELLED

        started = time.monotonic()
        job = service.submit("simulate", _REQUESTS["simulate"])
        done = service.wait(job.id, timeout=30)
        elapsed = time.monotonic() - started
    finally:
        service.shutdown()
    assert done.state == JobState.DONE, done.error
    assert elapsed < 10
    assert len((store / "builds.log").read_text().splitlines()) == 1
