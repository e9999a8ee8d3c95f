"""Tests for the command-line interface."""

import pytest

from repro.cli import main


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
        assert main(["run", "BLAST", "--sms", "4"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_run_with_workers_matches_sequential(self, capsys):
        """--workers routes through the parallel core and must print
        the exact characterization the sequential run prints."""
        assert main(["run", "NW", "--sms", "4"]) == 0
        sequential = capsys.readouterr().out
        assert main(["run", "NW", "--sms", "4", "--workers", "2"]) == 0
        assert capsys.readouterr().out == sequential


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


class TestAlign:
    def test_global(self, capsys):
        assert main(["align", "GATTACA", "GATCA"]) == 0
        out = capsys.readouterr().out
        assert "GATTACA" in out
        assert "score=3" in out

    def test_local(self, capsys):
        assert main(["align", "TTTGATTACATTT", "CCGATTACACC",
                     "--mode", "local"]) == 0
        assert "GATTACA" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["semiglobal", "banded"])
    def test_other_modes(self, mode, capsys):
        assert main(["align", "ACGTACGT", "ACGTTCGT", "--mode", mode]) == 0
        assert "score=" in capsys.readouterr().out


class TestSuiteCommand:
    def test_suite_subset_runs(self, capsys):
        # The full suite is exercised in benchmarks/; here just make
        # sure the command wiring works end to end on a tiny machine.
        assert main(["suite", "--sms", "4", "--no-cdp"]) == 0
        out = capsys.readouterr().out
        assert "device_time" in out
        assert "NvB" in out


class TestRoofline:
    def test_roofline_subset(self, capsys):
        assert main(["roofline", "SW", "CLUSTER", "--no-cdp",
                     "--sms", "8"]) == 0
        out = capsys.readouterr().out
        assert "intensity" in out
        assert "bound" in out


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
        assert main(["profile", "BLAST"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err


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

    @pytest.mark.parametrize("flags", [
        ["--profile"],
        ["--workers", "2"],
        ["--workers", "2", "--profile"],
        ["--workers", "1"],  # given explicitly, even at the default
        ["--profile", "--workers", "2"],
    ])
    def test_estimate_rejects_exact_only_flags(self, flags, capsys):
        assert main(["run", "SW", "--sms", "4", "--estimate", *flags]) == 2
        err = capsys.readouterr().err
        assert "--estimate cannot be combined" in err
        assert flags[0] in err

    def test_estimate_conflict_names_every_flag(self, capsys):
        assert main(["run", "SW", "--estimate", "--profile",
                     "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert "--profile" in err and "--workers" in err

    @pytest.mark.parametrize("bad", ["0", "-2", "many"])
    def test_invalid_workers(self, bad, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "NW", "--workers", bad])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("text,where", [
        ("num_sms = 0\n", "line 1: num_sms: need at least one SM"),
        ("# c\nnum_sms = abc\n", "line 2: num_sms: expected an integer"),
        ("sample_fraction = 0.5\n", "line 1: sample_fraction: "),
        ("num_smz = 4\n", "line 1: unknown key 'num_smz'"),
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
