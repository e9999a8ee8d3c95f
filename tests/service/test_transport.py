"""The client/server transport: persistent connections and their ends.

A ``ServiceClient`` keeps a small pool of persistent HTTP/1.1
connections; the server answers each request in one write on a
``TCP_NODELAY`` socket, closes idle connections and closes every open
one on shutdown.  These tests pin the connection lifecycle: reuse,
sharing across threads, transparent retry after an idle close, fork
safety, and no answer after shutdown.
"""

import gc
import statistics
import sys
import threading
import time
import warnings

import pytest

import repro.service.server as server_mod
from repro.core.forked import CAN_FORK, ForkedChild
from repro.service.client import POOL_SIZE, ServiceClient, ServiceError
from repro.service.server import make_server

pytestmark = pytest.mark.service

TINY = {"num_sms": 2, "num_mem_partitions": 2}


def _start(tmp_path):
    httpd = make_server(
        "127.0.0.1", 0, cache_root=tmp_path / "results",
        artifact_root=tmp_path / "artifacts", workers=1,
    )
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    return httpd, thread


def _stop(httpd, thread):
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=10)


@pytest.fixture
def server(tmp_path):
    httpd, thread = _start(tmp_path)
    yield httpd
    _stop(httpd, thread)


@pytest.fixture
def client(server):
    with ServiceClient(*server.server_address) as client:
        yield client


def _pooled_ports(client) -> list:
    """Local ports of the client's idle pooled connections."""
    return [conn.sock.getsockname()[1] for conn in client._idle]


class TestReuse:
    def test_sequential_calls_reuse_one_connection(self, client):
        client.health()
        (port,) = _pooled_ports(client)
        durations = []
        for _ in range(20):
            started = time.perf_counter()
            client.health()
            durations.append(time.perf_counter() - started)
            assert _pooled_ports(client) == [port]
        # A reused connection that waited for the peer's delayed ACK
        # would take 40 ms or more on every call.
        assert statistics.median(durations) < 0.010, durations

    def test_cache_hits_reuse_the_connection(self, client):
        client.run("simulate", benchmark="STAR", config=TINY)
        (port,) = _pooled_ports(client)
        for _ in range(5):
            assert client.simulate("STAR", config=TINY)["cached"] is True
        assert _pooled_ports(client) == [port]

    def test_threads_share_one_client(self, client):
        """Eight threads, one client, frequent thread switches: every
        call gets its own answer (two threads on one connection would
        read each other's), and the pool never holds a connection
        twice or more than ``POOL_SIZE`` of them."""
        errors, done = [], []

        def hammer(index):
            job_id = f"{index:012x}"
            try:
                for _ in range(10):
                    assert client.health()["ok"] is True
                    with pytest.raises(ServiceError) as err:
                        client.job(job_id)
                    assert job_id in err.value.body["error"]
                done.append(index)
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert sorted(done) == list(range(8))
        idle = [id(conn) for conn in client._idle]
        assert 1 <= len(idle) <= POOL_SIZE
        assert len(set(idle)) == len(idle)

    def test_close_empties_the_pool_and_client_stays_usable(self, server):
        client = ServiceClient(*server.server_address)
        with client:
            client.health()
            (conn,) = client._idle
        assert client._idle == []
        assert conn.sock is None  # closed, not just dropped
        with client:
            assert client.health()["ok"] is True

    def test_unread_body_does_not_poison_the_connection(self, client):
        """A 404 leaves the POST body unread, so the server closes that
        connection rather than parse the body as the next request."""
        with pytest.raises(ServiceError) as err:
            client.submit("compile", benchmark="STAR")
        assert err.value.status == 404
        assert client.health()["ok"] is True

    def test_dropped_client_closes_its_sockets(self, server):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            client = ServiceClient(*server.server_address)
            client.health()
            del client
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]


class TestConnectionEnds:
    def test_idle_close_is_retried(self, tmp_path, monkeypatch):
        monkeypatch.setattr(server_mod, "IDLE_TIMEOUT_S", 0.2)
        httpd, thread = _start(tmp_path)
        try:
            with ServiceClient(*httpd.server_address) as client:
                client.health()
                (first,) = _pooled_ports(client)
                time.sleep(0.6)  # the server closes the idle connection
                assert client.health()["ok"] is True
                (second,) = _pooled_ports(client)
                assert second != first
                # A POST meets the same closed connection the same way.
                time.sleep(0.6)
                view = client.simulate("STAR", config=TINY)
                assert client.wait(view["id"])["state"] == "done"
                assert client.metrics()["requests"]["simulate"] == 1
        finally:
            _stop(httpd, thread)

    @pytest.mark.skipif(not CAN_FORK, reason="needs the fork start method")
    def test_forked_child_opens_its_own_connection(self, client):
        client.health()
        (parent_port,) = _pooled_ports(client)

        def child(conn, client):
            client.health()
            conn.send(_pooled_ports(client))

        forked = ForkedChild(child, client)
        try:
            child_ports = forked.recv(deadline=time.monotonic() + 30)
        finally:
            forked.close()
        assert len(child_ports) == 1
        assert child_ports[0] != parent_port
        # The parent's connection survived the child's exit.
        client.health()
        assert _pooled_ports(client) == [parent_port]

    def test_no_answer_after_shutdown(self, tmp_path):
        httpd, thread = _start(tmp_path)
        address = httpd.server_address
        with ServiceClient(*address, timeout=0.5) as client:
            client.health()
            httpd.shutdown()
            # The listening socket still queues connections, but nobody
            # accepts them: the pooled connection is closed, and the
            # fresh one gets no answer.
            with pytest.raises(OSError):
                client.health()
            httpd.server_close()
            thread.join(timeout=10)
            with pytest.raises(ConnectionRefusedError):
                client.health()

    def test_server_close_ends_pooled_connections(self, tmp_path):
        httpd, thread = _start(tmp_path)
        with ServiceClient(*httpd.server_address) as client:
            client.health()
            _stop(httpd, thread)
            with pytest.raises(ConnectionRefusedError):
                client.health()
