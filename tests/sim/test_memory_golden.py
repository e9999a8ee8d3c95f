"""Golden bit-identity for the memory side: L2, NoC and DRAM timing.

Every memory-side preset the paper sweeps (Figs 12-22: cache sizes,
DRAM controllers, topologies, router delay, channel width) is run on
GKSW and NvB at the small dataset, and each run's ``RunStats.to_dict()``
digest must equal the one pinned here.  The two applications are the
memory-bound ends of the suite: GKSW saturates DRAM, NvB streams the
FM index through the L2.

The pins lock the timing model, not its implementation: a change that
only makes the memory subsystem cheaper must leave every digest as it
is.  A deliberate model change regenerates them with
``python tests/sim/test_memory_golden.py`` and says why in its
description.
"""

import hashlib
import json

import pytest

from repro.core.config_presets import (
    CACHE_SWEEP,
    MEM_CONTROLLERS,
    NOC_BANDWIDTH_SWEEP,
    NOC_LATENCY_SWEEP,
    TOPOLOGIES,
    with_cache_sizes,
    with_controller,
    with_topology,
)
from repro.core.runner import load_benchmark
from repro.data.datasets import DatasetSize
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPUSimulator
from repro.sim.replay import replay_application

APPS = ("GKSW", "NvB")


def memory_configs() -> dict[str, GPUConfig]:
    """The 21 memory-side preset points, by label."""
    base = GPUConfig()
    configs = {
        f"cache-{l1 // 1024}k-{l2 // 1024}k": with_cache_sizes(base, l1, l2)
        for l1, l2 in CACHE_SWEEP
    }
    configs.update((f"dram-{c}", with_controller(base, c))
                   for c in MEM_CONTROLLERS)
    configs.update((f"noc-{t}", with_topology(base, t)) for t in TOPOLOGIES)
    configs.update((f"mesh-delay{d}",
                    with_topology(base, "mesh", router_delay=d))
                   for d in NOC_LATENCY_SWEEP)
    configs.update((f"mesh-bw{w}",
                    with_topology(base, "mesh", channel_bytes=w))
                   for w in NOC_BANDWIDTH_SWEEP)
    return configs


def digest(stats) -> str:
    payload = json.dumps(stats.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


GOLDEN = {
    "GKSW/cache-0k-128k": "4eff294ce0e4eb93",
    "GKSW/cache-32k-512k": "4ed09876f7ae9c01",
    "GKSW/cache-128k-4096k": "be413ac4a4e1aaf2",
    "GKSW/cache-256k-8192k": "b02f542148b76858",
    "GKSW/cache-512k-16384k": "a26f06bc8793f729",
    "GKSW/cache-4096k-131072k": "d27fd05cc1c102da",
    "GKSW/dram-frfcfs": "be413ac4a4e1aaf2",
    "GKSW/dram-fifo": "b3732e36d303988c",
    "GKSW/dram-ooo128": "be413ac4a4e1aaf2",
    "GKSW/noc-xbar": "be413ac4a4e1aaf2",
    "GKSW/noc-mesh": "82e4620e4c572282",
    "GKSW/noc-fattree": "44c46ca19aadbe0c",
    "GKSW/noc-butterfly": "b8f37cfd7095bda6",
    "GKSW/mesh-delay0": "82e4620e4c572282",
    "GKSW/mesh-delay4": "b203cf6b12f1735c",
    "GKSW/mesh-delay8": "b0916bf3e2c3b4a5",
    "GKSW/mesh-delay16": "b37743333b792a18",
    "GKSW/mesh-bw8": "44cf59561961bd7f",
    "GKSW/mesh-bw16": "db29392a48e4e987",
    "GKSW/mesh-bw32": "358330f9086aad5c",
    "GKSW/mesh-bw40": "82e4620e4c572282",
    "NvB/cache-0k-128k": "e929fe1d839331c7",
    "NvB/cache-32k-512k": "e779e536dfbb20ad",
    "NvB/cache-128k-4096k": "8478235b1b902350",
    "NvB/cache-256k-8192k": "8478235b1b902350",
    "NvB/cache-512k-16384k": "8478235b1b902350",
    "NvB/cache-4096k-131072k": "8478235b1b902350",
    "NvB/dram-frfcfs": "8478235b1b902350",
    "NvB/dram-fifo": "959ab48b3648c42e",
    "NvB/dram-ooo128": "8478235b1b902350",
    "NvB/noc-xbar": "8478235b1b902350",
    "NvB/noc-mesh": "505a86148daa092f",
    "NvB/noc-fattree": "d14fc1aa5b461f57",
    "NvB/noc-butterfly": "659ad7cd77c9d6b2",
    "NvB/mesh-delay0": "505a86148daa092f",
    "NvB/mesh-delay4": "5150735c58b77bac",
    "NvB/mesh-delay8": "9d5a7b46761232f4",
    "NvB/mesh-delay16": "678e01efc412a5df",
    "NvB/mesh-bw8": "26b998ae0cf358c3",
    "NvB/mesh-bw16": "125812b30de2e361",
    "NvB/mesh-bw32": "9de4452fcfbd165d",
    "NvB/mesh-bw40": "505a86148daa092f",
}


@pytest.fixture(scope="module", params=APPS)
def app_digests(request):
    """Every preset's digest for one application (traces built once)."""
    app = load_benchmark(request.param, size=DatasetSize.SMALL)
    return request.param, {
        label: digest(replay_application(app, GPUSimulator(config)))
        for label, config in memory_configs().items()
    }


def test_every_preset_is_pinned():
    assert len(memory_configs()) == 21
    assert set(GOLDEN) == {
        f"{abbr}/{label}" for abbr in APPS for label in memory_configs()
    }


def test_memory_presets_bit_identical(app_digests):
    abbr, digests = app_digests
    assert {f"{abbr}/{k}": v for k, v in digests.items()} == {
        k: v for k, v in GOLDEN.items() if k.startswith(f"{abbr}/")
    }


if __name__ == "__main__":
    for abbr in APPS:
        app = load_benchmark(abbr, size=DatasetSize.SMALL)
        for label, config in memory_configs().items():
            print(f'    "{abbr}/{label}": '
                  f'"{digest(replay_application(app, GPUSimulator(config)))}",')
