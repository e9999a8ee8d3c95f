"""The HTTP point codec and stats payloads: bit-exact round trips."""

import pytest

from repro.core.config_presets import baseline_config, with_cache_sizes
from repro.core.runner import run_benchmark
from repro.core.sweep import decode_point, encode_point, point_key, sweep_point
from repro.data.datasets import DatasetSize
from repro.sim.stats import stats_from_dict

CONFIG = baseline_config(num_sms=4)


def _point(**kwargs):
    defaults = dict(cdp=True, size=DatasetSize.SMALL)
    defaults.update(kwargs)
    return sweep_point("NW-cdp|x", "NW", CONFIG, **defaults)


class TestPointCodec:
    def test_round_trip_is_identity(self):
        point = _point()
        decoded = decode_point(encode_point(point))
        assert decoded == point
        assert point_key(decoded) == point_key(point)

    def test_round_trip_preserves_full_config(self):
        config = with_cache_sizes(CONFIG, 32 * 1024, 512 * 1024).with_(
            scheduler="gto"
        )
        point = sweep_point("NW|32k", "NW", config)
        assert decode_point(encode_point(point)).config == config

    def test_options_survive(self):
        point = sweep_point("NW|opt", "NW", CONFIG, foo=3, bar="x")
        assert decode_point(encode_point(point)).options == point.options

    def test_key_mismatch_rejected(self):
        data = encode_point(_point())
        data["cdp"] = False  # content changed, key left stale
        with pytest.raises(ValueError, match="different identity"):
            decode_point(data)

    def test_malformed_payload_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            decode_point({"label": "x"})

    def test_stats_round_trip_bit_exact(self):
        stats = run_benchmark("NW", config=CONFIG)
        assert stats_from_dict(stats.to_dict()) == stats
