"""Tests for the config-file loader."""

import pytest

from repro.sim.config import GPUConfig
from repro.sim.configfile import (
    apply_overrides,
    load_config,
    parse_config,
    save_config,
)


class TestParseConfig:
    def test_empty_is_baseline(self):
        assert parse_config("") == GPUConfig()

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nnum_sms = 16  # trailing\n")
        assert cfg.num_sms == 16

    def test_top_level_keys(self):
        cfg = parse_config("num_sms = 8\nscheduler = gto\n")
        assert cfg.num_sms == 8
        assert cfg.scheduler == "gto"

    def test_nested_keys(self):
        cfg = parse_config(
            "l1.size_bytes = 32768\n"
            "dram.controller = fifo\n"
            "noc.topology = mesh\n"
            "noc.router_delay = 8\n"
        )
        assert cfg.l1.size_bytes == 32768
        assert cfg.l1.assoc == GPUConfig().l1.assoc  # untouched
        assert cfg.dram.controller == "fifo"
        assert cfg.noc.topology == "mesh"
        assert cfg.noc.router_delay == 8

    def test_booleans(self):
        assert parse_config("perfect_memory = true\n").perfect_memory
        assert not parse_config("perfect_memory = off\n").perfect_memory

    def test_hex_integers(self):
        assert parse_config("num_sms = 0x10\n").num_sms == 16

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("num_smz = 8\n")

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError, match="unknown component"):
            parse_config("l3.size_bytes = 1024\n")

    def test_unknown_component_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("l1.ways = 4\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="expected 'key = value'"):
            parse_config("just some words\n")

    def test_validation_still_applies(self):
        with pytest.raises(ValueError):
            parse_config("scheduler = fifo\n")  # not a scheduler name

    def test_removed_parallel_knobs_rejected(self):
        """Every simulation is the sequential event core: the former
        shard count and window/backend settings must fail naming the
        key, never be silently ignored."""
        for key, raw, value in (
            ("parallel_shards", "2", 2),
            ("window_cycles", "64", 64),
            ("parallel_executor", "threads", "threads"),
            ("parallel_relaxed", "true", True),
        ):
            with pytest.raises(ValueError, match=f"unknown key '{key}'"):
                parse_config(f"{key} = {raw}\n")
            with pytest.raises(ValueError, match=f"unknown key '{key}'"):
                apply_overrides(GPUConfig(), {key: value})

    def test_removed_dram_queue_knob_rejected(self):
        """The DRAM model has no controller queue bound: the former
        ``dram.queue_entries`` setting must fail naming the key."""
        match = "unknown key 'queue_entries' for dram"
        with pytest.raises(ValueError, match=match):
            parse_config("dram.queue_entries = 64\n")
        with pytest.raises(ValueError, match=match):
            apply_overrides(GPUConfig(), {"dram.queue_entries": 64})

    def test_removed_sample_knobs_rejected(self):
        """The per-class sampling minimum and launch cap are estimator
        constants: setting them must fail naming the key."""
        for key in ("sample_min_per_class", "sample_max_launches_per_class"):
            with pytest.raises(ValueError, match=f"unknown key '{key}'"):
                parse_config(f"{key} = 4\n")
            with pytest.raises(ValueError, match=f"unknown key '{key}'"):
                apply_overrides(GPUConfig(), {key: 4})

    @pytest.mark.parametrize("text,where", [
        ("num_sms = 0\n", "line 1: num_sms: need at least one SM"),
        ("# c\nnum_sms = abc\n", "line 2: num_sms: expected an integer"),
        ("perfect_memory = maybe\n", "line 1: perfect_memory: expected a"),
        ("l1.line_bytes = 256\nl1.size_bytes = 128\n",
         "line 2: l1.size_bytes: cache smaller than one line"),
    ])
    def test_errors_name_line_and_key(self, text, where):
        with pytest.raises(ValueError, match=where):
            parse_config(text)

    def test_values_valid_only_together_are_accepted(self):
        cfg = parse_config("l1.size_bytes = 64\nl1.line_bytes = 64\n")
        assert (cfg.l1.size_bytes, cfg.l1.line_bytes) == (64, 64)


class TestSaveLoadRoundtrip:
    def test_roundtrip_baseline(self, tmp_path):
        path = tmp_path / "gpu.cfg"
        save_config(GPUConfig(), path)
        assert load_config(path) == GPUConfig()

    def test_roundtrip_modified(self, tmp_path):
        original = parse_config(
            "num_sms = 24\nl2.size_bytes = 1048576\n"
            "dram.controller = ooo128\nperfect_memory = true\n"
        )
        path = tmp_path / "gpu.cfg"
        save_config(original, path)
        assert load_config(path) == original

    def test_save_mentions_all_knobs(self):
        text = save_config(GPUConfig())
        for key in ("num_sms", "l1.size_bytes", "dram.controller",
                    "noc.channel_bytes", "pci.latency_cycles"):
            assert key in text
