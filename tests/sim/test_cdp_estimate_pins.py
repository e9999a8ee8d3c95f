"""Pinned sampled estimates of the ten CDP variants.

``estimate_application`` replays shrunken CDP host grids on the event
core, so any change to how CDP applications are scheduled (gating,
run-ahead, the trace-lookahead horizon) would move these digests.  The
sizes are the e2e ``est-suite``'s: medium inputs, NvB small.  The
digests are sha256 of the sorted-key JSON of ``to_dict()``, first 16
hex digits, recorded on the issue loop that gated every CDP decision
on the global event heap.
"""

import hashlib
import json

import pytest

from repro.data.datasets import DatasetSize
from repro.kernels import build_application
from repro.sim.config import GPUConfig
from repro.sim.replay import CachedApplication
from repro.sim.sampled import estimate_application

CDP_ESTIMATE_DIGESTS = {
    "SW": "6a54b9893ae0b526",
    "NW": "1c034869070b6b89",
    "STAR": "bc8c37cfb35bcab9",
    "GG": "d998498721ef3a4c",
    "GL": "dd894641b6ddaec0",
    "GKSW": "c204d6c7ef95943d",
    "GSG": "3370fb4801f53515",
    "CLUSTER": "0f858babea9b2c9b",
    "PairHMM": "dc7568b76228157e",
    "NvB": "0e41077b4cf56c19",
}


@pytest.mark.parametrize("abbr", list(CDP_ESTIMATE_DIGESTS))
def test_cdp_estimate_matches_pinned_digest(abbr):
    size = DatasetSize.SMALL if abbr == "NvB" else DatasetSize.MEDIUM
    app = CachedApplication(build_application(abbr, cdp=True, size=size))
    est = estimate_application(
        app, GPUConfig(sample_fraction=0.1, sample_seed=7)
    )
    text = json.dumps(est.to_dict(), sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest == CDP_ESTIMATE_DIGESTS[abbr]
