"""The sweep journal: resume by point identity without ever lying."""

import json

import pytest

from repro.core.config_presets import baseline_config
from repro.core.runner import run_benchmark
from repro.core.sweep import point_key, resume_merge, sweep_point
from repro.dist.journal import SweepJournal

CONFIG = baseline_config(num_sms=4)


@pytest.fixture(scope="module")
def stats():
    return run_benchmark("NW", config=CONFIG)


@pytest.fixture(scope="module")
def points():
    return [
        sweep_point(f"NW|{i}", "NW", CONFIG.with_(num_sms=2 + i))
        for i in range(4)
    ]


def _keys(points):
    return [point_key(p) for p in points]


def _todo(points, known):
    """The points ``resume_merge`` would still run given ``known``."""
    ran = []

    def run(todo):
        ran.extend(todo)
        return [object() for _ in todo]

    resume_merge(points, known, run)
    return ran


class TestJournal:
    def test_fresh_open_writes_header_and_replays_nothing(
        self, tmp_path, points
    ):
        assert SweepJournal(tmp_path / "j.jsonl").open() == {}
        header = json.loads(
            (tmp_path / "j.jsonl").read_text().splitlines()[0]
        )
        assert header == {"kind": "repro-sweep-journal", "version": 2}

    def test_record_then_replay(self, tmp_path, points, stats):
        keys = _keys(points)
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.open()
        journal.record(keys[2:], [stats, stats])
        replayed = SweepJournal(tmp_path / "j.jsonl").open()
        assert replayed == {keys[2]: stats, keys[3]: stats}

    def test_truncated_tail_line_is_skipped(self, tmp_path, points, stats):
        keys = _keys(points)
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.open()
        journal.record(keys[:2], [stats, stats])
        # Simulate a crash mid-append: chop the last record in half.
        whole = path.read_text()
        path.write_text(whole + whole.splitlines()[-1][: len(whole) // 4])
        assert list(SweepJournal(path).open()) == keys[:2]
        # The next record starts a line of its own, not the torn one.
        journal.record(keys[2:3], [stats])
        assert list(SweepJournal(path).open()) == keys[:3]

    def test_foreign_grid_resumes_only_shared_points(
        self, tmp_path, points, stats
    ):
        other = sweep_point("SW|0", "SW", CONFIG)
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.open()
        journal.record([point_key(other), point_key(points[1])],
                       [stats, stats])
        known = SweepJournal(tmp_path / "j.jsonl").open()
        assert _todo(points, known) == [points[0], points[2], points[3]]

    def test_headerless_file_rejected(self, tmp_path, points):
        path = tmp_path / "notes.jsonl"
        path.write_text('{"chunk": 0}\n')
        with pytest.raises(ValueError, match="notes.jsonl is not a sweep"):
            SweepJournal(path).open()
        assert path.read_text() == '{"chunk": 0}\n'  # never appended to

    def test_stale_record_reruns_instead_of_resuming(
        self, tmp_path, points, stats
    ):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.open()
        # Keys that belong to nothing in this grid: must be ignored.
        journal.record(["feedfacefeedface"] * 2, [stats, stats])
        assert _todo(points, SweepJournal(path).open()) == points

    def test_wrong_stats_count_is_skipped(self, tmp_path, points, stats):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.open()
        journal.record(_keys(points)[:2], [stats])  # two keys, one result
        assert SweepJournal(path).open() == {}

    def test_version_one_chunk_journal_loads(self, tmp_path, points, stats):
        path = tmp_path / "old.jsonl"
        path.write_text(
            json.dumps({"kind": "repro-dsweep-journal", "version": 1,
                        "sweep": "0123456789abcdef", "chunks": 2}) + "\n"
            + json.dumps({"chunk": 1, "keys": _keys(points)[2:],
                          "stats": [stats.to_dict()] * 2}) + "\n"
        )
        assert SweepJournal(path).open() == {
            point_key(points[2]): stats, point_key(points[3]): stats,
        }


class TestResultsFiles:
    """The journal is the sweep's one results file."""

    def test_round_trip(self, tmp_path, points, stats):
        journal = SweepJournal(tmp_path / "results.jsonl")
        journal.open()
        for point in points:
            journal.record([point_key(point)], [stats])
        loaded = SweepJournal(tmp_path / "results.jsonl").open()
        assert loaded == {point_key(p): stats for p in points}

    def test_partial_results_write_partial_files(
        self, tmp_path, points, stats
    ):
        journal = SweepJournal(tmp_path / "partial.jsonl")
        journal.open()
        journal.record([point_key(points[0])], [stats])
        loaded = SweepJournal(tmp_path / "partial.jsonl").open()
        assert list(loaded) == [point_key(points[0])]

    def test_non_results_file_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError, match="not a sweep journal"):
            SweepJournal(path).open()

    def test_unparseable_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_bytes(b"{nope\xff\n")
        with pytest.raises(ValueError, match="not a sweep journal"):
            SweepJournal(path).open()

    def test_corrupt_entry_dropped_not_fatal(self, tmp_path, points, stats):
        path = tmp_path / "results.jsonl"
        journal = SweepJournal(path)
        journal.open()
        for point in points:
            journal.record([point_key(point)], [stats])
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["stats"] = [{"bogus": True}]
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        loaded = SweepJournal(path).open()
        assert point_key(points[0]) not in loaded
        assert len(loaded) == len(points) - 1
