"""Sweep engine: parallel and cached paths must match serial exactly."""

import pickle

import pytest

from repro.core.config_presets import baseline_config, with_cache_sizes
from repro.core.runner import run_benchmark, run_suite, variant_name
from repro.core.sweep import (
    SweepPoint,
    TraceCache,
    app_key,
    default_jobs,
    run_point,
    run_sweep,
    suite_points,
    sweep_point,
)
from repro.data.datasets import DatasetSize
from repro.kernels import build_application
from repro.sim.gpu import GPUSimulator


@pytest.fixture(scope="module")
def config():
    return baseline_config(num_sms=4)


@pytest.fixture(scope="module")
def points(config):
    """3 benchmarks x CDP on/off x 2 configs (12 independent points)."""
    small_l1 = with_cache_sizes(config, 32 * 1024, 512 * 1024)
    result = []
    for abbr in ("NW", "STAR", "CLUSTER"):
        for cdp in (False, True):
            name = variant_name(abbr, cdp)
            result.append(sweep_point(f"{name}|base", abbr, config, cdp=cdp))
            result.append(sweep_point(f"{name}|32k", abbr, small_l1, cdp=cdp))
    return result


@pytest.fixture(scope="module")
def serial(points):
    """The live oracle: every point materializes its application afresh,
    every warp through its generator (templates off)."""
    return {
        p.label: GPUSimulator(p.config).run_application(
            build_application(p.abbr, cdp=p.cdp, size=p.size)
        )
        for p in points
    }


class TestDeterminism:
    def test_cached_path_matches_serial(self, points, serial):
        cache = TraceCache()
        results = run_sweep(points, jobs=0, cache=cache)
        assert results == serial
        # Two points per application -> one miss + one hit each.
        assert cache.misses == 6
        assert cache.hits == 6

    def test_parallel_path_matches_serial(self, points, serial):
        assert run_sweep(points, jobs=2) == serial

    def test_single_worker_matches_serial(self, points, serial):
        assert run_sweep(points[:4], jobs=1) == {
            p.label: serial[p.label] for p in points[:4]
        }

    def test_result_order_follows_input_order(self, points, serial):
        reordered = list(reversed(points))
        results = run_sweep(reordered, jobs=0)
        assert list(results) == [p.label for p in reordered]

    def test_repeated_replay_is_stable(self, points, serial):
        cache = TraceCache()
        for _ in range(2):
            for point in points:
                assert run_point(point, cache) == serial[point.label]

    def test_uncached_run_point_matches(self, points, serial):
        point = points[0]
        assert run_point(point) == serial[point.label]


class TestCoordinatorFanOut:
    """``jobs>=1`` runs on the dist coordinator over forked workers."""

    def test_one_chunk_per_application_group(self, points, serial):
        from repro.dist import run_dsweep

        assert run_sweep(points, jobs=2) == serial
        assert run_dsweep.last_stats["chunks"] == 6

    def test_failing_point_is_named(self, config):
        from repro.core.sweep import point_key
        from repro.dist import DistSweepError

        good = sweep_point("NW", "NW", config)
        bad = sweep_point("NW|bad", "NW", config, no_such_option=1)
        with pytest.raises(DistSweepError) as err:
            run_sweep([good, bad], jobs=2)
        assert err.value.lost == [f"NW|bad [{point_key(bad)}]"]


class TestCacheKeying:
    def test_timing_knobs_share_traces(self, config):
        a = sweep_point("a", "NW", config)
        b = sweep_point(
            "b", "NW", with_cache_sizes(config, 0, 128 * 1024)
        )
        assert app_key(a) == app_key(b)

    def test_identity_fields_invalidate(self, config):
        base = sweep_point("a", "NW", config)
        assert app_key(base) != app_key(sweep_point("b", "NW", config, cdp=True))
        assert app_key(base) != app_key(sweep_point("c", "STAR", config))
        assert app_key(base) != app_key(
            sweep_point("d", "NW", config, size=DatasetSize.MEDIUM)
        )
        assert app_key(base) != app_key(
            sweep_point("e", "NW", config, use_shared=False)
        )

    def test_release_drops_one_application(self, config):
        cache = TraceCache()
        nw = sweep_point("a", "NW", config)
        cache.get(nw)
        cache.get(sweep_point("b", "STAR", config))
        cache.release(sweep_point("c", "NW", with_cache_sizes(config, 0, 1024)))
        assert len(cache) == 1
        cache.release(nw)
        assert len(cache) == 1


class TestValidation:
    def test_duplicate_labels_rejected(self, config):
        twice = [sweep_point("x", "NW", config), sweep_point("x", "STAR", config)]
        with pytest.raises(ValueError, match="unique"):
            run_sweep(twice, jobs=0)

    def test_negative_jobs_rejected(self, config):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep([sweep_point("x", "NW", config)], jobs=-1)

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestSuiteIntegration:
    def test_run_suite_jobs_matches_serial(self, config):
        benchmarks = ["NW", "STAR"]
        plain = {
            variant_name(abbr, cdp): run_benchmark(
                abbr, cdp=cdp, size=DatasetSize.SMALL, config=config
            )
            for abbr in benchmarks
            for cdp in (False, True)
        }
        cached = run_suite(
            benchmarks, size=DatasetSize.SMALL, config=config, jobs=0
        )
        pooled = run_suite(
            benchmarks, size=DatasetSize.SMALL, config=config, jobs=2
        )
        assert cached == plain
        assert pooled == plain
        assert list(cached) == list(plain)

    def test_suite_points_labels(self, config):
        labels = [p.label for p in suite_points(["NW"], config=config)]
        assert labels == ["NW", "NW-CDP"]


class TestPicklability:
    """Everything crossing the pool boundary must pickle cheaply."""

    def test_sweep_point_round_trip(self, config):
        point = sweep_point("NW|base", "NW", config, cdp=True,
                            use_shared=False)
        clone = pickle.loads(pickle.dumps(point))
        assert clone == point
        assert isinstance(clone, SweepPoint)

    def test_config_round_trip(self, config):
        assert pickle.loads(pickle.dumps(config)) == config

    def test_run_stats_round_trip(self, points, serial):
        for label, stats in serial.items():
            blob = pickle.dumps(stats)
            assert len(blob) < 16 * 1024, f"{label} stats pickle too large"
            assert pickle.loads(blob) == stats


class TestTelemetryOptIn:
    """A point whose config sets ``telemetry_interval`` is sampled."""

    def test_every_point_carries_a_summary(self, config):
        sampled = config.with_(telemetry_interval=2_000)
        pts = [
            sweep_point(variant_name(a, c), a, sampled, cdp=c)
            for a, c in (("NW", False), ("STAR", True))
        ]
        results = run_sweep(pts, jobs=0)
        for label, stats in results.items():
            summary = stats.telemetry
            assert summary is not None, label
            assert summary["meta"]["interval"] == 2_000
            assert summary["rows"]

    def test_sampling_does_not_change_aggregates(self, config):
        plain = run_sweep([sweep_point("NW", "NW", config)], jobs=0)["NW"]
        sampled = run_sweep(
            [sweep_point("NW", "NW",
                         config.with_(telemetry_interval=2_000))], jobs=0,
        )["NW"]
        import dataclasses

        a = dataclasses.asdict(plain)
        b = dataclasses.asdict(sampled)
        a.pop("telemetry"), b.pop("telemetry")
        assert a == b
        assert plain.telemetry is None

    def test_interval_not_in_app_key(self, config):
        sampled = config.with_(telemetry_interval=2_000)
        assert app_key(sweep_point("a", "NW", config)) == app_key(
            sweep_point("b", "NW", sampled)
        )

    def test_summary_survives_process_pool(self, config):
        pts = [sweep_point("NW", "NW",
                           config.with_(telemetry_interval=2_000))]
        serial_run = run_sweep(pts, jobs=0)["NW"]
        pooled = run_sweep(pts, jobs=2)["NW"]
        assert pooled.telemetry == serial_run.telemetry


class TestPointIdentityAndMerge:
    """point_key / assert_merge_complete: the fan-out merge contract."""

    def test_point_key_ignores_label(self, config):
        a = sweep_point("one", "NW", config)
        b = sweep_point("two", "NW", config)
        from repro.core.sweep import point_key

        assert point_key(a) == point_key(b)

    def test_point_key_tracks_content(self, config):
        from repro.core.sweep import point_key

        base = sweep_point("NW", "NW", config)
        assert point_key(base) != point_key(
            sweep_point("NW", "NW", config.with_(num_sms=8))
        )
        assert point_key(base) != point_key(
            sweep_point("NW", "NW", config, cdp=True)
        )

    def test_non_scalar_option_rejected(self, config):
        from repro.core.sweep import point_key

        bad = sweep_point("NW", "NW", config, shape=(3, 4))
        with pytest.raises(TypeError, match="JSON scalar"):
            point_key(bad)

    def test_merge_complete_passes(self, config):
        from repro.core.sweep import assert_merge_complete

        pts = [sweep_point("NW", "NW", config)]
        assert_merge_complete(pts, ["anything"])

    def test_merge_missing_point_named(self, config):
        from repro.core.sweep import (
            SweepMergeError,
            assert_merge_complete,
            point_key,
        )

        pts = [sweep_point("NW", "NW", config),
               sweep_point("SW", "SW", config)]
        with pytest.raises(SweepMergeError) as err:
            assert_merge_complete(pts, ["ok", None])
        assert err.value.missing == [f"SW [{point_key(pts[1])}]"]

    def test_merge_length_mismatch_rejected(self, config):
        from repro.core.sweep import SweepMergeError, assert_merge_complete

        pts = [sweep_point("NW", "NW", config)]
        with pytest.raises(SweepMergeError):
            assert_merge_complete(pts, [])


def _journal(path, entries):
    """A sweep journal at ``path`` holding ``{point: RunStats}``."""
    from repro.core.sweep import point_key
    from repro.dist.journal import SweepJournal

    journal = SweepJournal(path)
    journal.open()
    for point, stats in entries.items():
        journal.record([point_key(point)], [stats])
    return journal


class TestResume:
    def test_resume_fills_known_points_without_running(self, config,
                                                       tmp_path):
        pts = [sweep_point("NW|a", "NW", config),
               sweep_point("NW|b", "NW", config.with_(num_sms=8))]
        # A result the point itself would never produce: seeing it back
        # proves the point was filled from the journal, not simulated.
        marker = run_point(sweep_point("x", "NW", config.with_(num_sms=2)))
        cache = TraceCache()
        results = run_sweep(
            pts, jobs=0, cache=cache,
            journal=_journal(tmp_path / "j.jsonl", {pts[0]: marker}),
        )
        assert results["NW|a"] == marker
        assert results["NW|b"] != marker
        assert cache.hits + cache.misses == 1  # only the unknown point ran

    def test_resume_preserves_input_order(self, config, tmp_path):
        pts = [sweep_point(f"NW|{i}", "NW", config.with_(num_sms=2 + i))
               for i in range(3)]
        full = run_sweep(pts, jobs=0)
        resumed = run_sweep(
            pts, jobs=0,
            journal=_journal(tmp_path / "j.jsonl", {pts[1]: full["NW|1"]}),
        )
        assert resumed == full
        assert list(resumed) == ["NW|0", "NW|1", "NW|2"]

    def test_resume_keys_match_final_config(self, config, tmp_path):
        """Resume identity covers the whole config, telemetry included."""
        plain = sweep_point("NW", "NW", config)
        sampled = sweep_point("NW", "NW",
                              config.with_(telemetry_interval=2_000))
        marker = run_point(sweep_point("x", "NW", config.with_(num_sms=2)))
        results = run_sweep(
            [sampled], jobs=0,
            journal=_journal(tmp_path / "plain.jsonl", {plain: marker}),
        )
        assert results["NW"] != marker
        assert results["NW"].telemetry is not None
        results = run_sweep(
            [sampled], jobs=0,
            journal=_journal(tmp_path / "sampled.jsonl", {sampled: marker}),
        )
        assert results["NW"] == marker

    def test_sequential_sweep_journals_every_point(self, config, tmp_path):
        """An interrupted ``jobs=0`` sweep keeps its finished points."""
        pts = [sweep_point(f"NW|{i}", "NW", config.with_(num_sms=2 + i))
               for i in range(3)]
        full = run_sweep(pts, jobs=0)
        path = tmp_path / "j.jsonl"
        run_sweep(pts[:2], jobs=0, journal=path)  # "interrupted" early
        cache = TraceCache()
        assert run_sweep(pts, jobs=0, cache=cache, journal=path) == full
        assert cache.hits + cache.misses == 1  # only NW|2 ran
