"""Schema round-trip and rejection tests (the wire contract)."""

import pytest

from repro.service.schemas import (
    PROFILE_ARTIFACTS,
    SCHEMA_VERSION,
    EstimateRequest,
    JobView,
    ProfileRequest,
    SchemaError,
    SimulateRequest,
    SweepRequest,
    error_body,
    parse_request,
)

pytestmark = pytest.mark.service


class TestRoundTrip:
    """to_dict -> from_dict must be the identity for every schema."""

    @pytest.mark.parametrize("kind,payload", [
        ("simulate", {"benchmark": "NW"}),
        ("simulate", {
            "benchmark": "SW", "cdp": True, "size": "medium",
            "config": {"num_sms": 8, "dram.controller": "fifo"},
            "priority": 5, "timeout_s": 30.0, "use_cache": False,
        }),
        ("estimate", {
            "benchmark": "PairHMM", "sample_fraction": 0.25,
            "sample_seed": 7,
        }),
        ("sweep", {
            "benchmarks": ["NW", "STAR"], "cdp_variants": False,
            "config": {"l1.size_bytes": 65536},
        }),
        ("profile", {
            "benchmark": "NvB", "interval": 5000,
            "artifacts": ["jsonl"],
        }),
    ])
    def test_request_round_trip(self, kind, payload):
        request = parse_request(kind, payload)
        again = parse_request(kind, request.to_dict())
        assert again == request

    def test_defaults_applied(self):
        request = parse_request("simulate", {"benchmark": "NW"})
        assert request.size == "small"
        assert request.use_cache is True
        assert request.priority == 0
        assert request.timeout_s is None

    def test_profile_defaults_all_artifacts(self):
        request = parse_request("profile", {"benchmark": "NW"})
        assert request.artifacts == PROFILE_ARTIFACTS

    def test_resolved_config_carries_sample_knobs(self):
        request = parse_request("estimate", {
            "benchmark": "NW", "sample_fraction": 0.5, "sample_seed": 3,
        })
        config = request.resolved_config()
        assert config.sample_fraction == 0.5
        assert config.sample_seed == 3

    def test_resolved_config_applies_overrides(self):
        request = parse_request("simulate", {
            "benchmark": "NW",
            "config": {"num_sms": 8, "noc.topology": "mesh"},
        })
        config = request.resolved_config()
        assert config.num_sms == 8
        assert config.noc.topology == "mesh"

    def test_job_view_round_trip(self):
        view = JobView(
            id="abc123", kind="simulate", state="queued", priority=1,
            cached=False, coalesced=False, request_id="rid",
            submitted_at=1.5, started_at=None, finished_at=None,
            timings={"queue_wait_s": 0.1}, error=None,
            artifacts=("telemetry.jsonl",),
        )
        assert JobView.from_dict(view.to_dict()) == view

    def test_job_view_rejects_version_skew(self):
        payload = JobView(
            id="abc", kind="simulate", state="queued", priority=0,
            cached=False, coalesced=False, request_id=None,
            submitted_at=0.0, started_at=None, finished_at=None,
            timings={}, error=None, artifacts=(),
        ).to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError, match="schema_version"):
            JobView.from_dict(payload)


class TestRejection:
    """Malformed payloads fail loudly, naming the offending field."""

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match="unknown request kind"):
            parse_request("compile", {})

    def test_non_object_body(self):
        with pytest.raises(SchemaError, match="must be an object"):
            parse_request("simulate", [1, 2, 3])

    def test_missing_benchmark(self):
        with pytest.raises(SchemaError, match="benchmark"):
            parse_request("simulate", {})

    def test_unknown_benchmark(self):
        with pytest.raises(SchemaError, match="unknown benchmark"):
            parse_request("simulate", {"benchmark": "BLAST"})

    def test_unknown_field(self):
        with pytest.raises(SchemaError, match="unknown field"):
            parse_request("simulate", {"benchmark": "NW", "gpus": 2})

    @pytest.mark.parametrize("field,value,match", [
        ("cdp", "yes", "boolean"),
        ("size", "huge", "unknown size"),
        ("priority", 1.5, "integer"),
        ("priority", True, "integer"),
        ("timeout_s", -1, "positive"),
        ("timeout_s", "soon", "number"),
        ("use_cache", 1, "boolean"),
        ("config", ["num_sms"], "object"),
    ])
    def test_simulate_field_types(self, field, value, match):
        with pytest.raises(SchemaError, match=match):
            parse_request("simulate", {"benchmark": "NW", field: value})

    @pytest.mark.parametrize("overrides,match", [
        ({"num_smss": 8}, "unknown key"),
        ({"dram.controler": "fifo"}, "unknown key"),
        ({"warp.size": 16}, "unknown component"),
        ({"num_sms": "many"}, "integer"),
        ({"num_sms": 0}, "at least one SM"),
    ])
    def test_config_overrides_validated(self, overrides, match):
        with pytest.raises(SchemaError, match=match):
            parse_request(
                "simulate", {"benchmark": "NW", "config": overrides}
            )

    @pytest.mark.parametrize("key,bad", [
        ("max_ctas_per_sm", 0), ("max_threads_per_sm", 0),
        ("registers_per_sm", 0), ("shared_mem_per_sm", -1),
        ("int_latency", -3), ("fp_latency", -1), ("sfu_latency", -1),
        ("shared_latency", -1), ("branch_latency", -1),
        ("host_launch_cycles", -5000), ("cdp_launch_cycles", -1),
        ("cdp_dispatch_cycles", -1),
    ])
    def test_impossible_machine_names_the_key(self, key, bad):
        with pytest.raises(SchemaError, match=f"{key} must be") as err:
            parse_request("simulate", {"benchmark": "NW", "config": {key: bad}})
        assert err.value.field == "config"

    @pytest.mark.parametrize("kind", ["simulate", "profile"])
    def test_exact_endpoints_reject_sampling_config(self, kind):
        """A sampled config on an exact endpoint fails at parse time,
        pointing to the estimate endpoint (not inside the forked job)."""
        with pytest.raises(SchemaError, match="/v1/estimate") as err:
            parse_request(kind, {
                "benchmark": "NW", "config": {"sample_fraction": 0.5},
            })
        assert err.value.field == "config"
        parse_request(kind, {
            "benchmark": "NW", "config": {"sample_fraction": 0.0},
        })

    @pytest.mark.parametrize("key", [
        "sample_min_per_class", "sample_max_launches_per_class",
        "parallel_shards",
    ])
    def test_removed_sample_knobs_rejected(self, key):
        with pytest.raises(SchemaError, match=f"unknown key '{key}'"):
            parse_request("estimate", {"benchmark": "NW", "config": {key: 4}})

    def test_removed_dram_queue_knob_rejected(self):
        with pytest.raises(SchemaError, match="unknown key 'queue_entries' for dram"):
            parse_request("simulate", {
                "benchmark": "NW", "config": {"dram.queue_entries": 64},
            })

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5, "half"])
    def test_estimate_fraction_range(self, fraction):
        with pytest.raises(SchemaError, match="sample_fraction"):
            parse_request("estimate", {
                "benchmark": "NW", "sample_fraction": fraction,
            })

    def test_sweep_rejects_unknown_subset_member(self):
        with pytest.raises(SchemaError, match="unknown benchmark"):
            parse_request("sweep", {"benchmarks": ["NW", "BLAST"]})

    def test_sweep_rejects_non_list_subset(self):
        with pytest.raises(SchemaError, match="expected a list"):
            parse_request("sweep", {"benchmarks": "NW"})

    @pytest.mark.parametrize("payload,match", [
        ({"benchmark": "NW", "interval": 0}, "positive"),
        ({"benchmark": "NW", "artifacts": ["pdf"]}, "unknown artifact"),
        ({"benchmark": "NW", "artifacts": "jsonl"}, "expected a list"),
    ])
    def test_profile_rejections(self, payload, match):
        with pytest.raises(SchemaError, match=match):
            parse_request("profile", payload)

    def test_schema_error_carries_field(self):
        with pytest.raises(SchemaError) as err:
            parse_request("simulate", {"benchmark": "NW", "cdp": "yes"})
        assert err.value.field == "cdp"


class TestRequestClasses:
    def test_dataclasses_are_frozen(self):
        request = SimulateRequest(benchmark="NW")
        with pytest.raises(Exception):
            request.benchmark = "SW"

    def test_identity_excludes_scheduling_knobs(self):
        fast = SimulateRequest(benchmark="NW", priority=9, timeout_s=1.0)
        slow = SimulateRequest(benchmark="NW", priority=0, use_cache=False)
        assert fast.identity() == slow.identity()

    def test_kind_registry_covers_all(self):
        assert {cls.KIND for cls in (
            SimulateRequest, EstimateRequest, SweepRequest, ProfileRequest
        )} == {"simulate", "estimate", "sweep", "profile"}

    def test_error_body_shape(self):
        body = error_body("boom", request_id="rid", field_name="cdp")
        assert body == {
            "schema_version": SCHEMA_VERSION,
            "error": "boom",
            "request_id": "rid",
            "field": "cdp",
        }


class TestSweepPointsMode:
    """Explicit wire-encoded points (the dsweep ServiceLauncher path)."""

    def _points(self):
        from repro.core.sweep import encode_point, sweep_point
        from repro.sim.config import GPUConfig

        config = GPUConfig(num_sms=4)
        return [
            encode_point(sweep_point("NW|a", "NW", config)),
            encode_point(sweep_point("NW|b", "NW", config, cdp=True)),
        ]

    def test_points_round_trip_canonically(self):
        encoded = self._points()
        request = parse_request("sweep", {"points": encoded})
        assert list(request.to_dict()["points"]) == encoded
        assert len(request.points) == 2

    def test_identity_is_the_point_keys(self):
        encoded = self._points()
        request = parse_request("sweep", {"points": encoded})
        assert request.identity() == {
            "points": [entry["key"] for entry in encoded]
        }

    def test_points_exclude_grid_fields(self):
        encoded = self._points()
        for extra in (
            {"benchmarks": ["NW"]},
            {"cdp_variants": False},
            {"size": "small"},
            {"config": {"num_sms": 8}},
        ):
            with pytest.raises(SchemaError, match="do not combine"):
                parse_request("sweep", {"points": encoded, **extra})

    def test_corrupt_point_rejected_with_index(self):
        encoded = self._points()
        encoded[1]["cdp"] = False  # stale identity key
        with pytest.raises(SchemaError) as err:
            parse_request("sweep", {"points": encoded})
        assert err.value.field == "points[1]"

    def test_non_object_point_rejected(self):
        with pytest.raises(SchemaError, match="expected an object"):
            parse_request("sweep", {"points": ["NW"]})

    def test_duplicate_labels_rejected(self):
        entry = self._points()[0]
        with pytest.raises(SchemaError, match="unique"):
            parse_request("sweep", {"points": [entry, dict(entry)]})
