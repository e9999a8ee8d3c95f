"""Golden bit-identity: template and store paths vs live generation.

The trace fast paths — per-class template instantiation
(:mod:`repro.isa.template`) and binary store round trips
(:mod:`repro.sim.trace_store`) — are only allowed to change how fast a
trace materializes, never a single instruction of it.  Every benchmark
(plain and CDP, small dataset) is replayed three ways and the
resulting :class:`RunStats` must match field for field:

1. live: templates disabled, every warp through its generator;
2. templated: the default path, with ``REPRO_TRACE_VERIFY`` making the
   replay layer cross-check each instantiation against the generator
   (a dishonest ``trace_template`` raises instead of skewing results);
3. stored: the templated application through an encode/decode round
   trip.

The sampled estimate of the stored application must also equal the
templated one's: the store carries the equivalence classes the
estimator stratifies by.

The heaviest template user (PairHMM) and the heaviest opt-out user
(NvB, whose FM-index stages are data-dependent) get an extra
medium-size lock, and PairHMM a ``slow``-marked large-size one.

The instruction, memory and occupancy mixes (Figs 8-10) are properties
of the traces alone, credited from :class:`TraceCounts` after the run.
So the counts get a lock of their own that needs no simulation: the
application totals and every launch profile are equal across the
three builds, on the small suite and four medium applications.
"""

import dataclasses

import pytest

from repro.data.datasets import DatasetSize
from repro.kernels import benchmark_names, build_application
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPUSimulator
from repro.sim.replay import CachedApplication, replay_application
from repro.sim.sampled import estimate_application
from repro.sim.trace_store import decode_bytes, encode_bytes

CONFIG = GPUConfig(num_sms=4)
ESTIMATE = CONFIG.with_(sample_fraction=0.1, sample_seed=0)


def _replay(entry):
    return dataclasses.asdict(
        replay_application(entry, GPUSimulator(CONFIG))
    )


def _counts(counts):
    return (counts.instructions, counts.op_mix, counts.mem_mix,
            counts.warp_occupancy)


def _trace_counts(entry):
    """The application totals and every launch profile, in visit
    order.  Profile keys hold ``id(kernel)`` and a decoded entry's own
    argument tokens, so only the grid size is compared from them."""
    profiles = [
        (key[1], _counts(agg), total, max_cta, descendants)
        for key, (agg, total, max_cta, descendants)
        in entry.launch_profiles.items()
    ]
    return _counts(entry.total_counts), profiles


def _assert_counts_identical(abbr, cdp, size):
    app = build_application(abbr, cdp=cdp, size=size)
    live = _trace_counts(CachedApplication(app, template=False))
    templated = CachedApplication(app)
    assert _trace_counts(templated) == live
    assert _trace_counts(decode_bytes(encode_bytes(templated))) == live


@pytest.mark.parametrize("cdp", [False, True], ids=["plain", "cdp"])
@pytest.mark.parametrize("abbr", benchmark_names())
def test_small_suite_counts_identical(abbr, cdp):
    _assert_counts_identical(abbr, cdp, DatasetSize.SMALL)


@pytest.mark.parametrize("cdp", [False, True], ids=["plain", "cdp"])
@pytest.mark.parametrize("abbr", ["PairHMM", "NvB", "GKSW", "NW"])
def test_medium_counts_identical(abbr, cdp):
    _assert_counts_identical(abbr, cdp, DatasetSize.MEDIUM)


def _assert_all_paths_identical(abbr, cdp, size, monkeypatch):
    app = build_application(abbr, cdp=cdp, size=size)
    live = _replay(CachedApplication(app, template=False))

    monkeypatch.setenv("REPRO_TRACE_VERIFY", "1")
    templated = CachedApplication(app)
    assert _replay(templated) == live

    stored = decode_bytes(encode_bytes(templated))
    assert stored.total_counts.instructions == \
        templated.total_counts.instructions
    assert _replay(stored) == live
    assert estimate_application(stored, ESTIMATE).to_dict() == \
        estimate_application(templated, ESTIMATE).to_dict()


@pytest.mark.parametrize("cdp", [False, True], ids=["plain", "cdp"])
@pytest.mark.parametrize("abbr", benchmark_names())
def test_small_suite_identical(abbr, cdp, monkeypatch):
    _assert_all_paths_identical(abbr, cdp, DatasetSize.SMALL, monkeypatch)


@pytest.mark.parametrize("cdp", [False, True], ids=["plain", "cdp"])
@pytest.mark.parametrize("abbr", ["PairHMM", "NvB"])
def test_medium_heavyweights_identical(abbr, cdp, monkeypatch):
    _assert_all_paths_identical(abbr, cdp, DatasetSize.MEDIUM, monkeypatch)


@pytest.mark.slow
def test_large_pairhmm_identical(monkeypatch):
    _assert_all_paths_identical("PairHMM", False, DatasetSize.LARGE,
                                monkeypatch)


@pytest.mark.parametrize(
    "abbr,options",
    [("PairHMM", {"use_shared": False}), ("NW", {"use_shared": False})],
)
def test_ablation_variants_identical(abbr, options, monkeypatch):
    """The Fig 7 no-shared ablations: PairHMM opts out of templating
    (mutable stream state), NW templates its strided global rows."""
    app = build_application(
        abbr, cdp=False, size=DatasetSize.SMALL, **options
    )
    live = _replay(CachedApplication(app, template=False))
    monkeypatch.setenv("REPRO_TRACE_VERIFY", "1")
    templated = CachedApplication(app)
    assert _replay(templated) == live
    assert _replay(decode_bytes(encode_bytes(templated))) == live


def test_template_layer_actually_used():
    """The golden identity above would pass vacuously if every kernel
    opted out; pin that the big template users really instantiate."""
    for abbr in ("PairHMM", "SW", "NW", "STAR"):
        app = build_application(abbr, cdp=False, size=DatasetSize.SMALL)
        entry = CachedApplication(app)
        assert entry.template_hits > 0, abbr
        assert entry.template_hits > entry.template_live, abbr
