"""The forked-child primitive: replies, death, deadlines, cancellation."""

import os
import signal
import time

import pytest

from repro.core.forked import (
    CAN_FORK,
    ChildCancelled,
    ChildDied,
    ChildTimeout,
    ForkedChild,
)

pytestmark = pytest.mark.skipif(not CAN_FORK, reason="needs fork")


def reply(conn, payload):
    conn.send(payload)


def sleep_forever(conn):
    time.sleep(60)


def test_reply_round_trip():
    """The child's arguments go out with the fork; its one reply comes
    back pickled, and the child exits on its own."""
    child = ForkedChild(reply, {"points": [1, 2.5, "x"]})
    try:
        assert child.recv(deadline=time.monotonic() + 10) == {
            "points": [1, 2.5, "x"]
        }
    finally:
        child.close()
    assert child.proc.exitcode == 0  # it returned; no kill needed


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
