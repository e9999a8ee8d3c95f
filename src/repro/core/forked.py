"""One forked child process that sends one reply.

The repo's only parallelism is process fan-out: the service forks one
child per job (:mod:`repro.service.jobs`) and ``repro sweep --jobs
N`` forks one child per chunk (:mod:`repro.dist.launchers`).  Both go
through :class:`ForkedChild`: fork with the work as arguments, wait
for the child's pickled reply over a ``multiprocessing`` pipe with a
deadline and a cancellation check, and kill.

Every fork happens under one lock, and the parent closes its copy of
the child's pipe end before releasing the lock, so no later fork
inherits that end and the parent's end reads EOF once the child is
gone.

:data:`CAN_FORK` is the repo's one probe for the ``fork`` start
method; without it callers run their work inline.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from multiprocessing.connection import wait

CAN_FORK = "fork" in multiprocessing.get_all_start_methods()
_CTX = multiprocessing.get_context("fork") if CAN_FORK else None

#: How often :meth:`ForkedChild.recv` re-checks its ``cancelled`` callable.
_POLL_S = 0.02

# Guards every fork, so no child inherits another child's pipe end.
_LOCK = threading.Lock()


class ChildDied(RuntimeError):
    """The child exited (or its pipe broke) without a reply."""


class ChildTimeout(RuntimeError):
    """The deadline passed before a reply; the child was killed."""


class ChildCancelled(RuntimeError):
    """``cancelled()`` turned true before a reply; the child was killed."""


def _child_main(target, args, conn) -> None:
    global _LOCK
    # The fork copied the lock held; start clean.
    _LOCK = threading.Lock()
    target(conn, *args)


class ForkedChild:
    """A forked child running ``target(conn, *args)``.

    ``conn`` is the child's end of a pipe; the child sends its reply
    there and the parent reads it with :meth:`recv`.  Raises
    ``OSError`` when the platform cannot fork.
    """

    def __init__(self, target, *args):
        if _CTX is None:
            raise OSError("the fork start method is unavailable")
        with _LOCK:
            self.conn, child_end = _CTX.Pipe()
            self.proc = _CTX.Process(
                target=_child_main,
                args=(target, args, child_end),
                daemon=True,
            )
            try:
                self.proc.start()
            except OSError:
                self.conn.close()
                raise
            finally:
                child_end.close()

    def recv(self, deadline: float | None = None, cancelled=None):
        """The child's reply.

        ``deadline`` is a ``time.monotonic()`` instant; ``cancelled`` a
        callable polled every few milliseconds.  Death, a passed
        deadline and cancellation each kill and reap the child, then
        raise :class:`ChildDied`, :class:`ChildTimeout` or
        :class:`ChildCancelled`.
        """
        while True:
            if cancelled is not None and cancelled():
                self.kill()
                raise ChildCancelled("cancelled")
            timeout = _POLL_S if cancelled is not None else None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.kill()
                    raise ChildTimeout("deadline passed")
                timeout = remaining if timeout is None else min(
                    timeout, remaining)
            if not wait([self.conn, self.proc.sentinel], timeout):
                continue
            try:
                if self.conn.poll():
                    return self.conn.recv()
            except (EOFError, OSError):
                pass
            # EOF, or the child exited with nothing left in the pipe.
            self.proc.join(timeout=1)
            code = self.proc.exitcode
            self.kill()
            raise ChildDied(f"exited (code {code}) without a result")

    def kill(self) -> None:
        """SIGKILL the child, reap it and close the parent end."""
        self.proc.kill()
        self.proc.join()
        self.conn.close()

    def close(self, timeout: float = 5.0) -> None:
        """Close the parent end and reap the child, killing it if it
        outlives ``timeout`` seconds."""
        self.conn.close()
        self.proc.join(timeout)
        if self.proc.is_alive():
            self.kill()
