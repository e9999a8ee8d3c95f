"""Job executors load applications through the env-named trace store."""

import pytest

from repro.service.execute import EXECUTORS
from repro.service.schemas import parse_request

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
