"""One dispatch code on every route into the issue loop.

The SM branches on ``WarpInstruction.kind`` alone, so every route that
builds instructions must set it exactly as the constructor does: the
live trace builder (a plain application, materialized with templates
off), template relocation (``relocate_ldst``) on the replay path, and
the RTRX decode of a trace store.  A wrong code would
send an instruction down another op's path without any other check
noticing.
"""

import pytest

from repro.core.sweep import app_key, sweep_point
from repro.data.datasets import DatasetSize
from repro.isa import MemAccess, MemSpace, OpClass, WarpInstruction
from repro.isa.instructions import (
    K_EXIT,
    K_FP,
    K_INT,
    K_LDST,
    K_SFU,
    K_SHARED,
    instruction_kind,
)
from repro.isa.template import relocate_ldst
from repro.kernels import build_application
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPUSimulator
from repro.sim.replay import CachedApplication, replay_application
from repro.sim.trace_store import TraceStore
from repro.sim.warp import Grid

#: CLUSTER-CDP issues every op class but FP and SFU, PairHMM-CDP adds
#: FP; no benchmark issues SFU (the unit tests below cover it).
VARIANTS = [("CLUSTER", True), ("PairHMM", True)]
ALL_BUT_SFU = set(range(K_EXIT + 1)) - {K_SFU}
CONFIG = GPUConfig(num_sms=8)


def constructed_kind(instr) -> int:
    """The code a freshly constructed copy of ``instr`` gets."""
    return WarpInstruction(
        instr.op, instr.mask, instr.mem, instr.child, instr.repeat
    ).kind


@pytest.fixture
def issued(monkeypatch):
    """Every instruction a warp issues, recorded at CTA creation: a run
    ends only after every warp's EXIT, so each warp issues its whole
    materialized trace."""
    seen: list = []
    make_cta = Grid.make_cta

    def make_checked_cta(grid, sm_time):
        cta = make_cta(grid, sm_time)
        for warp in cta.warps:
            seen.extend(warp.ops)
        return cta

    monkeypatch.setattr(Grid, "make_cta", make_checked_cta)
    return seen


def assert_constructor_kinds(seen):
    assert {instr.kind for instr in seen} == ALL_BUT_SFU
    wrong = [i for i in seen if i.kind != constructed_kind(i)]
    assert not wrong


def _app(abbr, cdp):
    return build_application(abbr, cdp=cdp, size=DatasetSize.SMALL)


def test_live_generators(issued):
    for abbr, cdp in VARIANTS:
        GPUSimulator(CONFIG).run_application(_app(abbr, cdp))
    assert_constructor_kinds(issued)


def test_template_relocated_replay(issued):
    for abbr, cdp in VARIANTS:
        cached = CachedApplication(_app(abbr, cdp))
        assert cached.template_hits > 0
        replay_application(cached, GPUSimulator(CONFIG))
    assert_constructor_kinds(issued)


def test_decoded_from_warm_store(tmp_path, issued):
    for abbr, cdp in VARIANTS:
        key = app_key(sweep_point(f"{abbr}:{cdp}", abbr, CONFIG, cdp=cdp,
                                  size=DatasetSize.SMALL))
        TraceStore(tmp_path).save(key, CachedApplication(_app(abbr, cdp)))
        stored = TraceStore(tmp_path).load(key)
        assert stored is not None
        replay_application(stored, GPUSimulator(CONFIG))
    assert_constructor_kinds(issued)


class TestInstructionKind:
    @pytest.mark.parametrize("op,code", [
        (OpClass.INT, K_INT), (OpClass.FP, K_FP), (OpClass.SFU, K_SFU),
    ])
    def test_alu_codes_index_the_latency_tuple(self, op, code):
        assert WarpInstruction(op, repeat=3).kind == code
        assert code < K_SHARED

    @pytest.mark.parametrize("space", list(MemSpace))
    def test_ldst_codes_split_on_shared(self, space):
        mem = MemAccess(space, (5, 6))
        instr = WarpInstruction(OpClass.LDST, mem=mem)
        expected = K_SHARED if space is MemSpace.SHARED else K_LDST
        assert instr.kind == instruction_kind(OpClass.LDST, mem) == expected

    @pytest.mark.parametrize("space", [MemSpace.SHARED, MemSpace.GLOBAL])
    def test_relocation_keeps_the_code(self, space):
        proto = WarpInstruction(OpClass.LDST, mem=MemAccess(space, (1,)))
        moved = relocate_ldst(proto, (99,))
        assert moved.mem.lines == (99,)
        assert moved.kind == proto.kind == constructed_kind(moved)
