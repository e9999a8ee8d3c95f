"""End-to-end service tests: a live HTTP server, real simulations.

One server per test class (bound to port 0, cache in a temp dir), so
cache/metrics assertions always start from a clean slate.  Simulations
run at a tiny 2-SM config to keep each request sub-second.
"""

import json
import socket
import threading
from http.client import HTTPConnection

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.server import make_server
from repro.sim.sampled import EstimatedRunStats

pytestmark = pytest.mark.service

#: Tiny machine: every suite benchmark finishes in well under a second.
TINY = {"num_sms": 2, "num_mem_partitions": 2}


@pytest.fixture
def server(tmp_path):
    """A live server on an ephemeral port with a fresh result cache."""
    httpd = make_server(
        "127.0.0.1", 0,
        cache_root=tmp_path / "results",
        artifact_root=tmp_path / "artifacts",
        workers=2,
    )
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=10)


@pytest.fixture
def client(server):
    with ServiceClient(*server.server_address) as client:
        yield client


class TestLifecycle:
    def test_submit_poll_result(self, client):
        view = client.simulate("STAR", config=TINY)
        assert view["state"] in ("queued", "running", "done")
        assert view["cached"] is False
        done = client.wait(view["id"])
        assert done["state"] == "done"
        assert done["timings"]["queue_wait_s"] >= 0.0
        for stage in ("run_s", "trace_load_s", "sim_s", "serialize_s"):
            assert stage in done["timings"]
        envelope = client.result(view["id"])
        assert envelope["result"]["label"] == "STAR"
        stats = client.stats(view["id"])
        assert stats.cycles > 0

    def test_result_409_until_done(self, client):
        view = client.simulate(
            "NvB", config=TINY, use_cache=False, priority=0
        )
        if view["state"] != "done":
            try:
                client.result(view["id"])
            except ServiceError as err:
                assert err.status == 409
            else:  # the tiny run can legitimately win the race
                pass
        client.wait(view["id"])
        assert client.result(view["id"])["result"]["label"] == "NvB"

    def test_job_listing(self, client):
        first = client.simulate("STAR", config=TINY)
        client.wait(first["id"])
        listed = client.jobs()
        assert first["id"] in [job["id"] for job in listed]

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.job("feedbeef0000")
        assert err.value.status == 404

    def test_health(self, client):
        assert client.health()["ok"] is True

    def test_request_id_round_trip(self, server):
        conn = HTTPConnection(*server.server_address, timeout=30)
        try:
            conn.request("GET", "/healthz",
                         headers={"X-Request-Id": "trace-me-123"})
            response = conn.getresponse()
            response.read()
            assert response.getheader("X-Request-Id") == "trace-me-123"
        finally:
            conn.close()

    def test_request_id_minted_when_absent(self, server):
        conn = HTTPConnection(*server.server_address, timeout=30)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            assert response.getheader("X-Request-Id")
        finally:
            conn.close()


class TestValidation:
    def test_malformed_body_is_400_with_field(self, client):
        with pytest.raises(ServiceError) as err:
            client.simulate("STAR", config={"num_smss": 8})
        assert err.value.status == 400
        assert err.value.body["field"] == "config"
        assert "unknown key" in err.value.body["error"]

    def test_impossible_machine_is_400_naming_the_key(self, client):
        for key, bad in (("int_latency", -3), ("host_launch_cycles", -5000),
                         ("max_threads_per_sm", 0)):
            with pytest.raises(ServiceError) as err:
                client.simulate("STAR", config={key: bad})
            assert err.value.status == 400
            assert err.value.body["field"] == "config"
            assert f"{key} must be" in err.value.body["error"]

    def test_unknown_benchmark_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.simulate("BLAST")
        assert err.value.status == 400
        assert "unknown benchmark" in err.value.body["error"]

    def test_invalid_json_400(self, server):
        conn = HTTPConnection(*server.server_address, timeout=30)
        try:
            conn.request("POST", "/v1/simulate", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert "invalid JSON" in body["error"]
        finally:
            conn.close()

    @pytest.mark.parametrize("length", ["abc", "-5", "-1"])
    def test_bad_content_length_400_names_the_header(self, server, length):
        """Not a non-negative integer: a 400 in the error envelope, and
        the connection closes (the body's end is unknown)."""
        with socket.create_connection(server.server_address,
                                      timeout=3) as sock:
            sock.sendall(
                b"POST /v1/simulate HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n"
                b'{"benchmark": "STAR"}'
            )
            reply = b""
            while chunk := sock.recv(65536):  # EOF: the server closed
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), reply
        assert b"Connection: close" in head
        envelope = json.loads(body)
        assert envelope["field"] == "Content-Length"
        assert "Content-Length" in envelope["error"]
        assert repr(length) in envelope["error"]
        assert envelope["request_id"]

    def test_chunked_body_400_names_the_header(self, server):
        """A chunked body is refused and the connection closes: its
        chunks are never parsed as the next request."""
        with socket.create_connection(server.server_address,
                                      timeout=3) as sock:
            body = b'{"benchmark": "STAR"}'
            sock.sendall(
                b"POST /v1/simulate HTTP/1.1\r\nHost: test\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                + b"%x\r\n" % len(body) + body + b"\r\n0\r\n\r\n"
                b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
            )
            reply = b""
            while chunk := sock.recv(65536):  # EOF: the server closed
                reply += chunk
        head, _, rest = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), reply
        assert b"Connection: close" in head
        envelope = json.loads(rest)
        assert envelope["field"] == "Transfer-Encoding"
        assert "chunked" in envelope["error"]
        assert b"Bad request syntax" not in reply

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit("compile", benchmark="STAR")
        assert err.value.status == 404

    def test_error_envelope_carries_request_id(self, client):
        with pytest.raises(ServiceError) as err:
            client.simulate("BLAST")
        assert err.value.body["request_id"]


class TestCaching:
    def test_cache_hit_bit_identical_and_no_worker(self, client):
        cold_view = client.simulate("SW", config=TINY)
        client.wait(cold_view["id"])
        cold_stats = client.stats(cold_view["id"])
        executed_after_cold = client.metrics()["jobs_executed"]

        warm_view = client.simulate("SW", config=TINY)
        # Answered inline: already done, flagged cached, result attached.
        assert warm_view["state"] == "done"
        assert warm_view["cached"] is True
        assert warm_view["result"]["label"] == "SW"
        warm_stats = client.stats(warm_view["id"])
        assert warm_stats == cold_stats  # bit-identical RunStats
        # No worker dispatched for the hit.
        metrics = client.metrics()
        assert metrics["jobs_executed"] == executed_after_cold
        assert metrics["cache"]["hits"] == 1
        assert metrics["result_cache"]["entries"] >= 1

    def test_estimate_caches_and_round_trips(self, client):
        cold = client.run(
            "estimate", benchmark="SW", config=TINY,
            sample_fraction=0.5, sample_seed=3,
        )
        warm_view = client.estimate(
            "SW", config=TINY, sample_fraction=0.5, sample_seed=3
        )
        assert warm_view["cached"] is True
        warm_stats = client.stats(warm_view["id"])
        assert isinstance(warm_stats, EstimatedRunStats)
        assert warm_stats.to_dict() == cold["result"]["stats"]

    def test_sample_fraction_is_part_of_the_key(self, client):
        client.run("estimate", benchmark="STAR", config=TINY,
                   sample_fraction=0.5)
        other = client.estimate("STAR", config=TINY, sample_fraction=0.9)
        assert other["cached"] is False  # different fraction, cold run
        client.wait(other["id"])

    def test_config_change_misses(self, client):
        client.run("simulate", benchmark="STAR", config=TINY)
        other = client.simulate(
            "STAR", config={**TINY, "l1.size_bytes": 65536}
        )
        assert other["cached"] is False
        client.wait(other["id"])

    def test_use_cache_false_bypasses(self, client):
        client.run("simulate", benchmark="STAR", config=TINY)
        bypass = client.simulate("STAR", config=TINY, use_cache=False)
        assert bypass["cached"] is False
        client.wait(bypass["id"])
        assert client.metrics()["jobs_executed"] == 2

    def test_cache_survives_restart(self, tmp_path):
        root = tmp_path / "results"
        stats_before = None
        for generation in range(2):
            httpd = make_server("127.0.0.1", 0, cache_root=root, workers=1)
            thread = threading.Thread(
                target=httpd.serve_forever, daemon=True
            )
            thread.start()
            try:
                client = ServiceClient(*httpd.server_address)
                view = client.simulate("GL", config=TINY)
                if generation == 0:
                    assert view["cached"] is False
                    client.wait(view["id"])
                    stats_before = client.stats(view["id"])
                else:
                    # A fresh process answers from the on-disk cache.
                    assert view["cached"] is True
                    assert client.stats(view["id"]) == stats_before
                    assert client.metrics()["jobs_executed"] == 0
            finally:
                httpd.shutdown()
                httpd.server_close()
                thread.join(timeout=10)

    def test_fingerprint_change_invalidates(self, client, monkeypatch):
        import repro.service.result_cache as result_cache_mod

        client.run("simulate", benchmark="GG", config=TINY)
        monkeypatch.setattr(
            result_cache_mod, "source_fingerprint",
            lambda: "kernels-were-edited",
        )
        stale = client.simulate("GG", config=TINY)
        assert stale["cached"] is False  # old entry no longer addressed
        client.wait(stale["id"])


class TestCancellation:
    def test_delete_cancels(self, client, server):
        # Saturate both workers with slow jobs, then cancel a queued one.
        blockers = [
            client.simulate("NvB", size="medium", use_cache=False)
            for _ in range(2)
        ]
        victim = client.simulate("NvB", size="medium", use_cache=False,
                                 priority=-1)
        response = client.cancel(victim["id"])
        assert response["cancelled"] is True
        final = client.wait(victim["id"])
        assert final["state"] == "cancelled"
        for job in blockers:
            client.wait(job["id"], timeout=120)

    def test_cancel_finished_is_false(self, client):
        view = client.simulate("STAR", config=TINY, use_cache=False)
        client.wait(view["id"])
        assert client.cancel(view["id"])["cancelled"] is False


class TestProfileArtifacts:
    def test_artifacts_downloadable(self, client):
        view = client.profile("STAR", config=TINY, interval=2000)
        done = client.wait(view["id"])
        assert sorted(done["artifacts"]) == ["telemetry.jsonl", "trace.json"]

        jsonl = client.artifact(view["id"], "telemetry.jsonl")
        lines = [json.loads(line) for line in jsonl.splitlines() if line]
        assert lines[0]["interval"] == 2000  # header
        samples = [s for s in lines[1:] if s.get("type") == "interval"]
        assert samples and all("end" in sample for sample in samples)

        trace = json.loads(client.artifact(view["id"], "trace.json"))
        assert trace["traceEvents"]

    def test_profile_never_cached(self, client):
        for expected_executed in (1, 2):
            view = client.profile("STAR", config=TINY, interval=2000)
            assert view["cached"] is False
            client.wait(view["id"])
            assert client.metrics()["jobs_executed"] == expected_executed

    def test_missing_artifact_404(self, client):
        view = client.profile("STAR", config=TINY, artifacts=["jsonl"])
        client.wait(view["id"])
        with pytest.raises(ServiceError) as err:
            client.artifact(view["id"], "trace.json")
        assert err.value.status == 404


class TestMetrics:
    def test_metrics_shape(self, client):
        client.run("simulate", benchmark="STAR", config=TINY)
        client.simulate("STAR", config=TINY)  # a hit
        metrics = client.metrics()
        assert metrics["requests"]["simulate"] == 2
        assert metrics["cache"] == {
            "hits": 1, "misses": 1, "coalesced": 0, "stores": 1,
        }
        assert metrics["queue"]["workers"] == 2
        stage = metrics["stage_latency"]["sim_s"]
        # Exactly the one real execution; the hit didn't dilute it.
        assert stage["count"] == 1
        assert stage["max_s"] >= stage["mean_s"] > 0.0
        assert metrics["result_cache"]["entries"] == 1


class TestConcurrentClients:
    def test_identical_requests_execute_once(self, client):
        """The stress invariant: N clients hammering one request spec
        produce bit-identical stats from exactly one execution."""
        results, errors = [], []

        def hammer():
            try:
                local = ServiceClient(client.host, client.port)
                envelope = local.run(
                    "simulate", benchmark="GSG", config=TINY, timeout=60
                )
                results.append(envelope["result"]["stats"])
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(results) == 8
        canonical = json.dumps(results[0], sort_keys=True)
        assert all(
            json.dumps(stats, sort_keys=True) == canonical
            for stats in results
        )
        metrics = client.metrics()
        # Deterministic invariant: one cold execution, everyone else
        # either coalesced onto it or hit the cache afterwards.
        assert metrics["jobs_executed"] == 1
        assert metrics["cache"]["stores"] == 1
        assert (
            metrics["cache"]["hits"] + metrics["cache"]["coalesced"] == 7
        )

    def test_mixed_workload_all_complete(self, client):
        """Different requests from concurrent clients all finish and
        land the right payloads (no cross-talk between jobs)."""
        benchmarks = ["SW", "NW", "STAR", "GG", "GL", "GSG"]
        outcomes, errors = {}, []

        def run_one(name):
            try:
                local = ServiceClient(client.host, client.port)
                envelope = local.run(
                    "simulate", benchmark=name, config=TINY,
                    use_cache=False, timeout=120,
                )
                outcomes[name] = envelope["result"]["label"]
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append((name, exc))

        threads = [
            threading.Thread(target=run_one, args=(name,))
            for name in benchmarks
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
        assert not errors
        assert outcomes == {name: name for name in benchmarks}
        assert client.metrics()["jobs_executed"] == len(benchmarks)
