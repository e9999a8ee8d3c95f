"""Tests for the command-line interface."""

import dataclasses
import os
import re
from pathlib import Path

import pytest

from repro import bench, cli
from repro.cli import build_parser, main
from repro.data.datasets import DatasetSize
from repro.dist import launchers
from repro.sim.gpu import SimulationDeadlock


class TestCommandInventory:
    def test_docstring_and_docs_name_the_parser_commands(self):
        """The module docstring lists exactly the parser's commands, and
        every ``python -m repro <cmd>`` in the docs names one of them."""
        commands = build_parser()._subparsers._group_actions[0].choices
        listing = cli.__doc__.partition("--------\n")[2]
        headings = re.findall(r"^([a-z]+)\b", listing, re.MULTILINE)
        assert sorted(headings) == sorted(commands)
        root = Path(__file__).resolve().parents[2]
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            named = re.findall(r"python -m repro ([a-z]+)",
                               (root / doc).read_text())
            assert set(named) <= set(commands), doc


class TestList:
    def test_lists_all_benchmarks(self, capsys):
        assert main(["list", "--sms", "4"]) == 0
        out = capsys.readouterr().out
        for abbr in ("SW", "NW", "STAR", "NvB"):
            assert abbr in out


class TestRun:
    def test_run_prints_characterization(self, capsys):
        assert main(["run", "STAR", "--sms", "4"]) == 0
        out = capsys.readouterr().out
        assert "instructions" in out
        assert "Stall breakdown" in out

    def test_run_cdp_with_profile(self, capsys):
        assert main(["run", "STAR", "--cdp", "--sms", "4", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Per-kernel profile" in out
        assert "star_child" in out
        assert "device" in out

    def test_unknown_benchmark(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "BLAST", "--sms", "4"])
        assert exit_info.value.code == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestFigure:
    def test_table3(self, capsys):
        assert main(["figure", "table3", "--sms", "4"]) == 0
        assert "Needleman-Wunsch" in capsys.readouterr().out

    def test_fig7(self, capsys):
        assert main(["figure", "fig7", "--sms", "8"]) == 0
        assert "slowdown_without" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "fig99", "--sms", "4"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["suite", "cache", "fig02"])
    def test_only_registry_keys_resolve(self, capsys, name):
        """Helpers of ``repro.bench`` (``suite_variants``, the raw cache
        sweep) and result-file spellings are not figures: exit 2 with
        the key list."""
        assert main(["figure", name]) == 2
        err = capsys.readouterr().err
        assert f"unknown figure {name!r}; known: table1, table2" in err
        assert "extension_cross_gpu" in err

    @pytest.mark.parametrize("argv,size", [
        (["--size", "medium"], DatasetSize.MEDIUM),
        ([], None),
    ], ids=["medium", "default"])
    def test_size_reaches_the_figure(self, monkeypatch, capsys, argv, size):
        """``--size`` is honoured (it was once dropped silently); without
        it the figure keeps its own default."""
        seen = []

        def fig21_noc_latency(config=None, size=DatasetSize.SMALL):
            seen.append(dict(config=config, size=size))
            return [{"benchmark": "SW", "cycles": 1}]

        monkeypatch.setitem(bench.EXPERIMENTS, "fig21", dataclasses.replace(
            bench.EXPERIMENTS["fig21"], run=fig21_noc_latency))
        assert main(["figure", "fig21", *argv]) == 0
        assert seen[0]["size"] == (size or DatasetSize.SMALL)
        assert seen[0]["config"] is not None
        assert "cycles" in capsys.readouterr().out

    @pytest.mark.parametrize("name,flags,flag", [
        ("table1", ["--size", "medium"], "--size"),
        ("table3", ["--size", "small"], "--size"),
        ("fig6", ["--size", "large"], "--size"),
        ("table2", ["--sms", "4"], "--sms"),
    ])
    def test_flag_the_table_cannot_take_exits_2(self, capsys, name, flags,
                                                 flag):
        assert main(["figure", name, *flags]) == 2
        assert f"argument {flag}: " in capsys.readouterr().err


class TestDataset:
    def test_exports_pairwise_fasta(self, tmp_path, capsys):
        assert main(["dataset", "SW", "--out", str(tmp_path)]) == 0
        files = list(tmp_path.glob("*.fasta"))
        assert len(files) == 1
        assert files[0].read_text().startswith(">query")

    def test_exports_nvb_reference_and_fastq(self, tmp_path):
        assert main(["dataset", "NvB", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "nvb_reference.fasta").exists()
        assert (tmp_path / "nvb_reads.fastq").exists()

    def test_exports_pairhmm_two_files(self, tmp_path):
        assert main(["dataset", "PairHMM", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "pairhmm_reads.fasta").exists()
        assert (tmp_path / "pairhmm_haplotypes.fasta").exists()

    @pytest.mark.parametrize("kind", ["regular-file", "uncreatable"])
    def test_rejects_an_unusable_out(self, tmp_path, capsys, kind):
        """An ``--out`` that is a file, or whose parent is one, exits 2
        naming the flag and the path, without a traceback."""
        if kind == "regular-file":
            out = tmp_path / "out"
            out.write_text("")
        else:
            (tmp_path / "file").write_text("")
            out = tmp_path / "file" / "out"
        assert main(["dataset", "SW", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"--out: cannot use {out}: " in captured.err
        assert "not a directory" in captured.err.lower()
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestSuiteCommand:
    def test_suite_subset_runs(self, capsys):
        # The full suite is exercised in benchmarks/; here just make
        # sure the command wiring works end to end on a tiny machine.
        assert main(["suite", "--sms", "4", "--no-cdp"]) == 0
        out = capsys.readouterr().out
        assert "device_time" in out
        assert "NvB" in out


class TestTraceReplay:
    def test_capture_and_replay(self, tmp_path, capsys):
        trace = tmp_path / "star.trace"
        assert main(["trace", "STAR", "--out", str(trace)]) == 0
        assert trace.exists()
        capsys.readouterr()
        assert main(["replay", str(trace), "--sms", "4"]) == 0
        out = capsys.readouterr().out
        assert "replayed" in out
        assert "IPC" in out

    def test_replays_a_cdp_store_entry(self, tmp_path, capsys):
        """RTRX holds CDP launch graphs: a whole CDP application written
        by the store replays like the live run."""
        from repro.core.runner import load_benchmark, run_benchmark
        from repro.sim.config import GPUConfig
        from repro.sim.trace_store import TraceStore

        path = TraceStore(tmp_path).save(
            ("STAR-CDP",), load_benchmark("STAR", cdp=True))
        assert main(["replay", str(path), "--sms", "4"]) == 0
        stats = run_benchmark("STAR", cdp=True, config=GPUConfig(num_sms=4))
        assert f"{stats.instructions} instructions" in (
            capsys.readouterr().out)

    @pytest.mark.parametrize("kind", ["missing", "foreign", "truncated"])
    def test_replay_rejects_a_bad_file(self, tmp_path, capsys, kind):
        """A missing, non-RTRX or truncated file exits 2 naming the file
        and the reason, without a traceback."""
        trace = tmp_path / "nw.trace"
        if kind == "foreign":
            trace.write_text('{"kernel": "nw_diag"}\n')
            reason = "not a trace-store file"
        elif kind == "truncated":
            assert main(["trace", "NW", "--out", str(trace)]) == 0
            trace.write_bytes(trace.read_bytes()[:-7])
            reason = "truncated"
        else:
            reason = "No such file or directory"
        capsys.readouterr()
        assert main(["replay", str(trace)]) == 2
        captured = capsys.readouterr()
        assert str(trace) in captured.err
        assert reason in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_trace_rejects_an_unusable_out_before_building(
            self, tmp_path, capsys, monkeypatch):
        import repro.kernels

        monkeypatch.setattr(
            repro.kernels, "build_application",
            lambda *a, **k: pytest.fail("built before checking --out"))
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "nw.trace"
        assert main(["trace", "NW", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"--out: cannot write {out}: " in captured.err
        assert "not a directory" in captured.err.lower()
        assert "Traceback" not in captured.err

    def test_store_pack_rejects_an_unusable_archive(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        archive = tmp_path / "file" / "traces.rpak"
        assert main(["store", "pack", str(archive),
                     "--store", str(tmp_path / "store")]) == 2
        captured = capsys.readouterr()
        assert f"archive: cannot write {archive}: " in captured.err
        assert "not a directory" in captured.err.lower()
        assert "Traceback" not in captured.err


class TestProfile:
    def test_profile_prints_interval_table(self, capsys):
        assert main(["profile", "NW", "--sms", "4",
                     "--interval", "2000"]) == 0
        out = capsys.readouterr().out
        assert "sampled every 2000 cycles" in out
        assert "top_stall" in out
        assert "ipc" in out

    def test_profile_writes_trace_and_jsonl(self, tmp_path, capsys):
        import json

        trace = tmp_path / "nw.trace.json"
        jsonl = tmp_path / "nw.jsonl"
        assert main(["profile", "NW", "--sms", "4", "--interval", "2000",
                     "--trace", str(trace), "--jsonl", str(jsonl)]) == 0
        payload = json.loads(trace.read_text())
        assert any(e["ph"] == "X" for e in payload["traceEvents"])

        from repro.sim.telemetry import load_jsonl

        summary = load_jsonl(jsonl)
        assert summary["rows"] and summary["meta"]["interval"] == 2000

    def test_profile_cdp_variant(self, capsys):
        assert main(["profile", "STAR", "--cdp", "--sms", "4",
                     "--interval", "2000"]) == 0
        assert "STAR-CDP" in capsys.readouterr().out

    def test_profile_unknown_benchmark(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["profile", "BLAST"])
        assert exit_info.value.code == 2
        assert "unknown benchmark" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--trace", "--jsonl"])
    @pytest.mark.parametrize("kind", ["missing-dir", "file-as-dir", "dir"])
    def test_profile_rejects_an_unwritable_output(self, tmp_path, capsys,
                                                  flag, kind):
        """A bad export path exits 2 naming the flag and path before
        anything is simulated."""
        if kind == "missing-dir":
            path, reason = tmp_path / "missing" / "x.json", "No such file"
        elif kind == "file-as-dir":
            (tmp_path / "file").write_text("")
            path, reason = tmp_path / "file" / "x.json", "Not a directory"
        else:
            path, reason = tmp_path, "Is a directory"
        assert main(["profile", "NW", "--interval", "1000",
                     flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert f"{flag}: cannot write {path}: {reason}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestSweepJournal:
    """``sweep benchmark`` in-process and over workers share one
    point-keyed journal."""

    GRID = ["--no-cdp", "--size", "small", "--sms", "4"]

    def _run(self, capsys, argv, journal, table) -> str:
        """Run one sweep command over the grid; returns its stderr."""
        assert main([*argv, *self.GRID, "--journal", str(journal)]) == 0
        captured = capsys.readouterr()
        assert captured.out == table
        return captured.err

    def test_journal_resumes_across_commands(self, tmp_path, capsys):
        """The in-process journal (one record per point) fully resumes
        the worker sweep (one record per chunk) and the other way
        round, with nothing re-simulated (nothing appended)."""
        assert main(["sweep", "benchmark", "--jobs", "0", *self.GRID]) == 0
        table = capsys.readouterr().out
        seq, dist = tmp_path / "seq.jsonl", tmp_path / "dist.jsonl"

        self._run(capsys, ["sweep", "benchmark", "--jobs", "0"], seq, table)
        written = seq.read_text()
        err = self._run(capsys, ["sweep", "benchmark", "--jobs", "2"], seq,
                        table)
        assert "# sweep: 0 chunk(s) dispatched, 10 point(s) resumed" in err
        assert seq.read_text() == written

        err = self._run(capsys, ["sweep", "benchmark", "--jobs", "2"], dist,
                        table)
        assert "# sweep: 10 chunk(s) dispatched, 0 point(s) resumed" in err
        written = dist.read_text()
        self._run(capsys, ["sweep", "benchmark", "--jobs", "0"], dist, table)
        assert dist.read_text() == written

    @pytest.mark.parametrize("command", [
        ["sweep", "benchmark", "--jobs", "0"],
        ["sweep", "benchmark", "--jobs", "2"],
    ])
    @pytest.mark.parametrize("kind",
                             ["missing-dir", "file-as-dir", "dir", "foreign"])
    def test_rejects_an_unusable_journal(self, tmp_path, capsys, command,
                                         kind):
        """A bad ``--journal`` exits 2 naming the flag before any point
        runs, and never creates directories or touches a foreign file."""
        if kind == "missing-dir":
            path = tmp_path / "missing" / "j.jsonl"
            message = f"--journal: cannot use {path}: No such file"
        elif kind == "file-as-dir":
            (tmp_path / "file").write_text("")
            path = tmp_path / "file" / "j.jsonl"
            message = f"--journal: cannot use {path}: Not a directory"
        elif kind == "dir":
            path = tmp_path
            message = f"--journal: cannot use {path}: Is a directory"
        else:
            path = tmp_path / "notes.txt"
            path.write_text("not a journal\n")
            message = f"--journal: {path} is not a sweep journal"
        assert main([*command, *self.GRID, "--journal", str(path)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "missing").exists()
        if kind == "foreign":
            assert path.read_text() == "not a journal\n"

    def test_journal_is_benchmark_axis_only(self, tmp_path, capsys):
        journal = tmp_path / "j.jsonl"
        assert main(["sweep", "cache", "--journal", str(journal)]) == 2
        assert "--journal only applies to the benchmark axis" in (
            capsys.readouterr().err)
        assert not journal.exists()


class TestErrorPaths:
    """Malformed invocations must exit 2 with a pointed stderr message
    (never a traceback, never silent misbehaviour)."""

    @pytest.mark.parametrize("bad", ["0", "-0.5", "1.5", "lots"])
    def test_invalid_sample_fraction(self, bad, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "SW", "--estimate", "--sample-fraction", bad])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--sample-fraction" in err
        assert "in (0, 1]" in err or "invalid" in err

    @pytest.mark.parametrize("argv,flag", [
        pytest.param(["run", "NW", "--sample-fraction", "0.5"],
                     "--sample-fraction", id="run-fraction"),
        pytest.param(["run", "NW", "--sample-seed", "4"],
                     "--sample-seed", id="run-seed"),
        pytest.param(["sweep", "cache", "--sample-seed", "4"],
                     "--sample-seed", id="sweep-seed"),
        pytest.param(["sweep", "cache", "--sample-fraction", "0.2"],
                     "--sample-fraction", id="sweep-fraction"),
        pytest.param(["sweep", "benchmark", "--sample-fraction", "0.2"],
                     "--sample-fraction", id="benchmark-fraction"),
        pytest.param(["sweep", "benchmark", "--sample-seed", "0"],
                     "--sample-seed", id="benchmark-seed-default-value"),
    ])
    def test_sampling_flags_require_estimate(self, argv, flag, capsys):
        """Without ``--estimate`` a sampling flag would be ignored
        while the exact table prints; it must exit 2 naming the flag
        before anything runs."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"{flag} requires --estimate" in captured.err
        assert captured.out == ""

    def test_estimate_defaults_still_apply(self, capsys):
        """Under ``--estimate`` the flags keep their documented
        defaults (fraction 0.1, seed 0)."""
        assert main(["run", "SW", "--sms", "4", "--estimate"]) == 0
        implicit = capsys.readouterr().out
        assert main(["run", "SW", "--sms", "4", "--estimate",
                     "--sample-fraction", "0.1", "--sample-seed", "0"]) == 0
        assert capsys.readouterr().out == implicit
        assert "estimated" in implicit

    @pytest.mark.parametrize("flags", [
        ["--profile"],
    ])
    def test_estimate_rejects_exact_only_flags(self, flags, capsys):
        assert main(["run", "SW", "--sms", "4", "--estimate", *flags]) == 2
        err = capsys.readouterr().err
        assert "--estimate cannot be combined" in err
        assert flags[0] in err

    @pytest.mark.parametrize("argv,flag", [
        pytest.param(["run", "NW", "--sms", "0"], "--sms", id="sms-zero"),
        pytest.param(["run", "NW", "--sms", "many"], "--sms", id="sms-text"),
        pytest.param(["serve", "--workers", "0"], "--workers",
                     id="serve-workers"),
        pytest.param(["sweep", "benchmark", "--jobs", "-1"], "--jobs",
                     id="jobs"),
        pytest.param(["sweep", "benchmark", "--max-retries", "-1"],
                     "--max-retries", id="max-retries"),
        pytest.param(["profile", "NW", "--interval", "0"], "--interval",
                     id="interval"),
        pytest.param(["serve", "--port", "65536"], "--port",
                     id="port-high"),
        pytest.param(["serve", "--port", "-1"], "--port", id="port-low"),
        pytest.param(["serve", "--port", "x"], "--port", id="port-text"),
        pytest.param(["serve", "--port", "0", "--cache", "unused-cache",
                      "--cache-max-bytes", "0"], "--cache-max-bytes",
                     id="cache-max-bytes"),
        pytest.param(["serve", "--port", "0", "--cache", "unused-cache",
                      "--cache-max-entries", "-5"], "--cache-max-entries",
                     id="cache-max-entries"),
        pytest.param(["sweep", "benchmark", "--chunk-timeout", "0"],
                     "--chunk-timeout", id="chunk-timeout-zero"),
        pytest.param(["sweep", "benchmark", "--chunk-timeout", "-1"],
                     "--chunk-timeout", id="chunk-timeout-negative"),
        pytest.param(["sweep", "benchmark", "--chunk-timeout", "soon"],
                     "--chunk-timeout", id="chunk-timeout-text"),
    ])
    def test_invalid_integer_flags(self, argv, flag, capsys):
        """Out-of-range numbers are argparse errors naming the flag,
        never a traceback from deeper in the simulator or engine."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["run", "NW", "--sms", "many"],
         "argument --sms: invalid value 'many': expected an integer"),
        (["serve", "--port", "x"],
         "argument --port: invalid value 'x': expected an integer"),
        (["sweep", "benchmark", "--chunk-timeout", "soon"],
         "argument --chunk-timeout: invalid value 'soon': "
         "expected a number"),
        (["run", "NW", "--size", "huge"],
         "argument --size: invalid value 'huge': "
         "choose from small, medium, large"),
    ])
    def test_non_numeric_flag_message(self, argv, message, capsys):
        """The usage error says what was expected, not which internal
        parser function refused the text."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_size_usage_lists_the_values(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        assert "--size {small,medium,large}" in capsys.readouterr().out

    @pytest.mark.parametrize("endpoints", [
        "foo", "127.0.0.1:notaport", ",", "127.0.0.1:99999",
    ])
    def test_malformed_endpoints_are_usage_errors(self, endpoints, capsys):
        """``--endpoints`` must be HOST:PORT entries with ports in
        [1, 65535], checked before any launcher or retry runs."""
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "benchmark", "--no-cdp", "--endpoints",
                  endpoints])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --endpoints: invalid endpoint" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,children_die", [
        pytest.param(["sweep", "benchmark", "--jobs", "2"], True,
                     id="sweep-workers-die"),
        pytest.param(["sweep", "benchmark", "--endpoints", "127.0.0.1:1"],
                     False, id="endpoints-unreachable"),
    ])
    def test_lost_points_end_without_traceback(self, argv, children_die,
                                               capsys, monkeypatch):
        """A sweep that loses points exits 1 with the error's message —
        every lost ``label [point_key]`` and the last cause."""
        if children_die:
            # Every chunk child, forked with this patch, exits unanswered.
            monkeypatch.setattr(launchers, "_chunk_main",
                                lambda conn, *args: os._exit(13))
        assert main([*argv, "--no-cdp", "--sms", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sweep failed: lost 10 point(s)" in captured.err
        assert "NW [" in captured.err and "last failure:" in captured.err
        assert "Traceback" not in captured.err
        if "--endpoints" in argv:
            # The death that retired the last slot, not only the fact.
            assert "WorkerDied: service worker 0 unreachable" in captured.err

    @pytest.mark.parametrize("flag,value", [
        ("--endpoints", "127.0.0.1:8778"),
        ("--chunk-timeout", "5"),
        ("--max-retries", "1"),
    ])
    def test_distribution_flags_are_benchmark_axis_only(self, flag, value,
                                                        capsys):
        assert main(["sweep", "cache", flag, value, "--sms", "4"]) == 2
        captured = capsys.readouterr()
        assert f"{flag} only applies to the benchmark axis" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag,value", [
        ("--chunk-timeout", "5"),
        ("--max-retries", "1"),
    ])
    def test_retry_budget_needs_workers(self, flag, value, capsys):
        """Nothing reads a chunk budget in-process: ``--jobs 0`` refuses
        it rather than ignore it."""
        assert main(["sweep", "benchmark", "--jobs", "0", flag, value,
                     "--no-cdp", "--sms", "4"]) == 2
        captured = capsys.readouterr()
        assert f"{flag} needs worker processes" in captured.err
        assert captured.out == ""

    def test_store_and_endpoints_are_exclusive(self, capsys, tmp_path):
        """Remote ``repro serve`` workers read their own
        ``REPRO_TRACE_STORE``, so ``--store`` beside ``--endpoints``
        would be ignored; it is refused before anything runs."""
        store = tmp_path / "store"
        assert main(["sweep", "benchmark", "--endpoints", "127.0.0.1:8778",
                     "--store", str(store), "--no-cdp", "--sms", "4"]) == 2
        captured = capsys.readouterr()
        assert "--store cannot be combined with --endpoints" in captured.err
        assert captured.out == ""
        assert not store.exists()

    def test_jobs_and_endpoints_are_exclusive(self, capsys):
        """One worker per endpoint: an explicit ``--jobs`` beside
        ``--endpoints`` would be ignored, so it is refused."""
        assert main(["sweep", "benchmark", "--jobs", "3", "--endpoints",
                     "127.0.0.1:8778", "--no-cdp", "--sms", "4"]) == 2
        captured = capsys.readouterr()
        assert "--jobs cannot be combined with --endpoints" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv,message", [
        pytest.param(["dsweep", "--no-cdp"], "invalid choice: 'dsweep'",
                     id="dsweep"),
        pytest.param(["sweep", "benchmark", "--dist-workers", "2"],
                     "unrecognized arguments: --dist-workers",
                     id="dist-workers"),
        pytest.param(["sweep", "benchmark", "--chunk-size", "1"],
                     "unrecognized arguments: --chunk-size",
                     id="chunk-size"),
    ])
    def test_removed_sweep_surface_is_refused(self, argv, message, capsys):
        """``sweep benchmark`` took over the distributed command: its
        name and its worker-count and chunk-size flags are gone."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv,arg", [
        pytest.param(["warm", "NW", "NOPE"], "benchmarks", id="warm"),
        pytest.param(["dataset", "NOPE"], "benchmark", id="dataset"),
        pytest.param(["trace", "NOPE"], "benchmark", id="trace"),
    ])
    def test_unknown_benchmark_is_a_usage_error(self, argv, arg, capsys):
        """Every command taking benchmark names checks them at argument
        time, before any store, file or simulation is touched."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {arg}: unknown benchmark 'NOPE'" in err

    def test_removed_workers_flag_rejected(self, capsys):
        """Every simulation is one sequential process: ``run`` has no
        ``--workers`` and must refuse it rather than ignore it."""
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "NW", "--workers", "2"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("text,where", [
        ("num_sms = 0\n", "line 1: num_sms: need at least one SM"),
        ("# c\nnum_sms = abc\n", "line 2: num_sms: expected an integer"),
        ("sample_fraction = 0.5\n", "line 1: sample_fraction: "),
        ("num_smz = 4\n", "line 1: unknown key 'num_smz'"),
        ("host_launch_cycles = -5000\n",
         "line 1: host_launch_cycles: host_launch_cycles must be >= 0"),
    ])
    def test_bad_config_file_is_a_usage_error(self, tmp_path, capsys,
                                              text, where):
        path = tmp_path / "f.cfg"
        path.write_text(text)
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "NW", "--config", str(path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"--config: {path}: {where}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["run"], ["run", "--estimate"], ["profile"],
    ], ids=["run", "estimate", "profile"])
    def test_a_cta_that_fits_no_sm_fails_in_one_line(self, tmp_path, capsys,
                                                     command):
        """SMs too small for one CTA: the first launch fails with one
        line naming the kernel and the resource, exit 1, no traceback."""
        path = tmp_path / "f.cfg"
        path.write_text("max_threads_per_sm = 64\n")
        assert main([*command, "STAR", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "simulation failed: kernel 'star_chunk' does not fit on an SM: "
            "one CTA needs 256 threads and an SM has 64 "
            "(max_threads_per_sm)\n"
        )

    def test_a_scheduler_deadlock_keeps_its_traceback(self, monkeypatch):
        """Only a CTA misfit is a one-line error: any other deadlock is
        a simulator fault and propagates."""
        def stuck(args):
            raise SimulationDeadlock("no runnable SMs")

        monkeypatch.setattr(cli, "cmd_run", stuck)
        with pytest.raises(SimulationDeadlock, match="no runnable SMs"):
            main(["run", "NW"])

    def test_config_file_drives_the_run(self, tmp_path, capsys):
        path = tmp_path / "f.cfg"
        path.write_text("num_sms = 4\n")
        assert main(["run", "NW", "--config", str(path)]) == 0
        from_file = capsys.readouterr().out
        assert main(["run", "NW", "--sms", "4"]) == 0
        assert capsys.readouterr().out == from_file

    def test_estimate_without_conflicts_runs(self, capsys):
        assert main(["run", "SW", "--sms", "4", "--estimate",
                     "--sample-fraction", "0.5"]) == 0
        assert "estimated" in capsys.readouterr().out

    @pytest.mark.parametrize("via", ["flag", "env"])
    @pytest.mark.parametrize("kind", ["regular-file", "uncreatable"])
    def test_warm_rejects_an_unusable_store(self, tmp_path, monkeypatch,
                                            capsys, kind, via):
        """A store root that is a file, or cannot be created, exits 2
        naming the path before any application is materialized."""
        if kind == "regular-file":
            root = tmp_path / "store"
            root.write_text("")
        else:
            root = tmp_path / "file" / "store"
            (tmp_path / "file").write_text("")
        argv = ["warm", "NW", "--no-cdp"]
        if via == "flag":
            argv += ["--store", str(root)]
        else:
            monkeypatch.setenv("REPRO_TRACE_STORE", str(root))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"cannot use trace store {root}" in captured.err
        assert ("--store" if via == "flag" else "REPRO_TRACE_STORE") in (
            captured.err)
        assert "Traceback" not in captured.err
        assert "NW" not in captured.out

    def test_serve_port_in_use(self, capsys):
        import socket

        holder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            port = holder.getsockname()[1]
            assert main(["serve", "--port", str(port)]) == 2
        finally:
            holder.close()
        err = capsys.readouterr().err
        assert f"cannot bind 127.0.0.1:{port}" in err
        assert "--port" in err

    def test_serve_rejects_bad_port(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--port", "not-a-port"])
        assert exit_info.value.code == 2
        assert "--port" in capsys.readouterr().err


class TestUnreadFlags:
    """A command takes only the machine flags it reads: a flag it would
    accept and then ignore is a usage error instead."""

    @pytest.fixture
    def files(self, tmp_path):
        config = tmp_path / "four.cfg"
        config.write_text("num_sms = 4\n")
        trace = tmp_path / "nw.trace"
        assert main(["trace", "NW", "--out", str(trace)]) == 0
        return {"tmp": str(tmp_path), "config": str(config),
                "trace": str(trace)}

    @pytest.mark.parametrize("argv,flag", [
        pytest.param(["list", "--size", "medium"], "--size", id="list-size"),
        pytest.param(["dataset", "NW", "--out", "{tmp}", "--sms", "4"],
                     "--sms", id="dataset-sms"),
        pytest.param(["dataset", "NW", "--out", "{tmp}",
                      "--config", "{config}"], "--config",
                     id="dataset-config"),
        pytest.param(["trace", "NW", "--out", "{tmp}/t", "--sms", "4"],
                     "--sms", id="trace-sms"),
        pytest.param(["trace", "NW", "--out", "{tmp}/t",
                      "--config", "{config}"], "--config",
                     id="trace-config"),
        pytest.param(["replay", "{trace}", "--size", "medium"], "--size",
                     id="replay-size"),
        pytest.param(["warm", "NW", "--no-cdp", "--store", "{tmp}/s",
                      "--sms", "4"], "--sms", id="warm-sms"),
        pytest.param(["warm", "NW", "--no-cdp", "--store", "{tmp}/s",
                      "--config", "{config}"], "--config",
                     id="warm-config"),
    ])
    def test_unread_flag_is_refused(self, files, argv, flag, capsys):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main([arg.format(**files) for arg in argv])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_no_cdp_is_benchmark_axis_only(self, capsys):
        assert main(["sweep", "scheduler", "--no-cdp", "--sms", "4"]) == 2
        captured = capsys.readouterr()
        assert "--no-cdp only applies to the benchmark axis" in captured.err
        assert captured.out == ""
