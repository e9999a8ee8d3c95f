"""Stall totals at launch boundaries, and pinned sampled estimates.

The event core charges issue-loop stalls to an accumulator that the
GPU folds into ``stats.stalls`` when each host launch completes —
before ``launch_observer`` runs — and at finalize.  The sampled
estimator snapshots ``stats.stalls`` from that observer, so a fold that
came later would silently move its per-launch stall deltas; the e2e
``est-suite`` oracle only compares estimates with themselves and would
not notice.  These tests lock both: the mid-run totals against the
reference core (which charges every stall directly), and the estimates
of three variants against digests recorded before the accumulators
existed.
"""

import hashlib
import json

import pytest

from repro.core.runner import load_benchmark
from repro.data.datasets import DatasetSize
from repro.kernels import build_application
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPUSimulator
from repro.sim.replay import CachedApplication, replay_application
from repro.sim.sampled import estimate_application


def _launch_boundary_stalls(abbr, cdp, event_core):
    sim = GPUSimulator(GPUConfig(event_core=event_core))
    seen = []
    sim.launch_observer = lambda _launch, _grid: seen.append(
        dict(sim.stats.stalls)
    )
    stats = replay_application(load_benchmark(abbr, cdp=cdp), sim)
    assert len(seen) == stats.kernel_launches
    return seen, stats.stalls


@pytest.mark.differential
@pytest.mark.parametrize(
    "abbr,cdp", [("NvB", False), ("SW", True)], ids=["NvB", "SW-CDP"]
)
def test_stalls_at_every_launch_match_reference_core(abbr, cdp):
    fast, fast_final = _launch_boundary_stalls(abbr, cdp, event_core=True)
    ref, ref_final = _launch_boundary_stalls(abbr, cdp, event_core=False)
    assert fast == ref
    assert fast_final == ref_final
    # The issue loop's own reasons are in the snapshots, not only the
    # launch-setup charge the GPU adds directly.
    assert set(fast[0]) - {"functional_done"}


#: ``estimate_application`` digests (sha256 of the sorted-key JSON of
#: ``to_dict()``, first 16 hex digits) recorded on the issue loop that
#: charged ``stats.stalls`` once per stall.
ESTIMATE_DIGESTS = {
    ("SW", False): "c314284c153d287f",
    ("PairHMM", False): "416a6a676b3cc563",
    ("STAR", True): "21a72bd86b09cb15",
}


@pytest.mark.parametrize(
    "abbr,cdp", list(ESTIMATE_DIGESTS), ids=["SW", "PairHMM", "STAR-CDP"]
)
def test_estimates_match_pinned_digests(abbr, cdp):
    app = CachedApplication(
        build_application(abbr, cdp=cdp, size=DatasetSize.SMALL)
    )
    est = estimate_application(
        app, GPUConfig(sample_fraction=0.1, sample_seed=7)
    )
    assert not est.sample.get("exact_fallback")
    text = json.dumps(est.to_dict(), sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest == ESTIMATE_DIGESTS[(abbr, cdp)]
