"""The coordinator over live ``repro serve`` endpoints (the remote
launcher)."""

import threading

import pytest

from repro.core.config_presets import baseline_config
from repro.core.sweep import run_sweep, sweep_point
from repro.dist import run_dsweep
from repro.dist.launchers import ChunkFailed, ServiceLauncher

pytestmark = pytest.mark.service

CONFIG = baseline_config(num_sms=4)


@pytest.fixture(scope="module")
def points():
    return [
        sweep_point(f"NW|{sms}", "NW", CONFIG.with_(num_sms=sms))
        for sms in (2, 4, 6, 8)
    ]


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    from repro.service.server import make_server

    tmp = tmp_path_factory.mktemp("svc")
    server = make_server(
        "127.0.0.1", 0,
        artifact_root=tmp / "artifacts",
        cache_root=tmp / "cache",
        workers=1,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def _endpoint(server) -> str:
    host, port = server.server_address
    return f"{host}:{port}"


def test_dsweep_over_http_bit_identical(server, points):
    serial = run_sweep(points, jobs=0, store=None)
    launcher = ServiceLauncher([_endpoint(server)], timeout=120.0)
    results = run_dsweep(points, launcher)
    assert results == serial


def test_second_sweep_answers_from_result_cache(server, points):
    """Identical chunks re-submitted must hit the server's cache and
    still merge bit-identically."""
    launcher = ServiceLauncher([_endpoint(server)], timeout=120.0)
    first = run_dsweep(points, launcher)
    second = run_dsweep(points, launcher)
    assert first == second


def test_unreachable_endpoint_is_a_worker_death(points):
    from repro.dist.launchers import WorkerDied

    launcher = ServiceLauncher(["127.0.0.1:1"], timeout=2.0)
    with pytest.raises(WorkerDied):
        launcher.run_chunk(0, 0, points[:1], timeout=5.0)


def test_rejected_chunk_is_chunk_failed(server, points):
    """A schema-level rejection marks the chunk failed, not the worker
    dead (the endpoint is healthy and must keep its slot)."""
    launcher = ServiceLauncher([_endpoint(server)], timeout=30.0)
    broken = [points[0], points[0]]  # duplicate labels -> rejected
    with pytest.raises(ChunkFailed):
        launcher.run_chunk(0, 0, broken, timeout=30.0)
