"""The forked-child primitive: replies, death, deadlines, pipe hygiene."""

import os
import signal
import time

import pytest

from repro.core.config_presets import baseline_config
from repro.core.forked import (
    CAN_FORK,
    ChildCancelled,
    ChildDied,
    ChildTimeout,
    ForkedChild,
)
from repro.core.sweep import sweep_point
from repro.dist import LocalProcessLauncher
from repro.service.jobs import JobQueue, JobState

pytestmark = pytest.mark.skipif(not CAN_FORK, reason="needs fork")


def echo(conn):
    """Answer every message with itself until the parent closes its end."""
    while True:
        try:
            conn.send(conn.recv())
        except EOFError:
            return


def sleep_forever(conn):
    time.sleep(60)


def test_send_recv_round_trip():
    child = ForkedChild(echo)
    try:
        child.send({"points": [1, 2.5, "x"]})
        assert child.recv(deadline=time.monotonic() + 10) == {
            "points": [1, 2.5, "x"]
        }
    finally:
        child.close()
    assert child.proc.exitcode == 0  # EOF ended it; no kill needed


def test_passed_deadline_raises_and_reaps():
    child = ForkedChild(sleep_forever)
    started = time.monotonic()
    with pytest.raises(ChildTimeout):
        child.recv(deadline=started + 0.2)
    assert time.monotonic() - started < 10
    assert not child.proc.is_alive()
    assert child.proc.exitcode == -signal.SIGKILL


def test_cancel_raises_and_reaps():
    child = ForkedChild(sleep_forever)
    with pytest.raises(ChildCancelled):
        child.recv(cancelled=lambda: True)
    assert not child.proc.is_alive()


def test_killed_child_raises():
    child = ForkedChild(sleep_forever)
    os.kill(child.proc.pid, signal.SIGKILL)
    with pytest.raises(ChildDied, match=r"exited \(code -9\)"):
        child.recv(deadline=time.monotonic() + 30)
    assert not child.proc.is_alive()


def test_exit_without_reply_raises():
    child = ForkedChild(lambda conn: os._exit(3))
    with pytest.raises(ChildDied, match=r"exited \(code 3\) without a result"):
        child.recv(deadline=time.monotonic() + 30)


def test_closing_an_end_spares_siblings_of_both_users(tmp_path):
    """Closing one parent-side end ends exactly that child, although a
    service job child and a dsweep worker were forked after it: each
    later fork closed the earlier parent ends it inherited."""
    def job(request, artifact_dir):
        (tmp_path / "job-started").write_text("")
        time.sleep(60)
        return {}, {}

    victim = ForkedChild(echo)
    queue = JobQueue({"sleep": job}, workers=1, artifact_root=tmp_path / "a")
    running = queue.submit("sleep", None)
    launcher = LocalProcessLauncher(workers=1)
    try:
        deadline = time.monotonic() + 30
        while not (tmp_path / "job-started").exists():
            assert time.monotonic() < deadline
            time.sleep(0.01)
        point = sweep_point("NW", "NW", baseline_config(num_sms=4))
        launcher.run_chunk(0, 0, [point])

        victim.conn.close()
        victim.proc.join(timeout=10)
        assert not victim.proc.is_alive()
        assert victim.proc.exitcode == 0
        assert set(launcher.pids()) == {0}
        assert running.state == JobState.RUNNING
    finally:
        victim.close()
        launcher.close()
        queue.cancel(running.id)
        queue.shutdown()
