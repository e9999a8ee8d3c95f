"""Rewrite the asserts in the registry's claim checks, so a claim that
fails shows the measured values it compared."""

import pytest

pytest.register_assert_rewrite("repro.bench.registry")
