"""Property-based pipeline tests: any well-formed micro-op trace runs to
completion with conserved commits and drained resources, on every model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    ModelKind,
    ProcessorConfig,
    base_config,
    dynamic_config,
    runahead_config,
)
from repro.isa import MicroOp, OpClass
from repro.pipeline import Processor
from repro.verify.oracles import (
    FF_POLICIES,
    ff_fields,
    ff_policy,
    fields_mismatch_detail,
)
from repro.workloads import trace_for_program

from tests.conftest import CODE_BASE, DATA_BASE, make_trace, warm_icache


@st.composite
def micro_ops(draw, max_len=120):
    """A random but well-formed straight-line-with-branches trace."""
    n = draw(st.integers(min_value=1, max_value=max_len))
    ops = []
    for i in range(n):
        pc = CODE_BASE + 4 * i
        kind = draw(st.sampled_from(
            ["ialu", "ialu", "imul", "fpalu", "load", "store", "branch"]))
        dst = draw(st.integers(1, 20))
        src = draw(st.integers(1, 20))
        addr = DATA_BASE + draw(st.integers(0, 1 << 14)) * 8
        if kind == "ialu":
            ops.append(MicroOp(pc, OpClass.IALU, dst=dst, srcs=(src,)))
        elif kind == "imul":
            ops.append(MicroOp(pc, OpClass.IMUL, dst=dst, srcs=(src,)))
        elif kind == "fpalu":
            ops.append(MicroOp(pc, OpClass.FPALU, dst=32 + dst,
                               srcs=(32 + src,)))
        elif kind == "load":
            ops.append(MicroOp(pc, OpClass.LOAD, dst=dst, srcs=(src,),
                               addr=addr, size=8))
        elif kind == "store":
            ops.append(MicroOp(pc, OpClass.STORE, srcs=(src, dst),
                               addr=addr, size=8))
        else:
            taken = draw(st.booleans())
            target = pc + 4 * draw(st.integers(1, 8)) if taken else pc + 4
            ops.append(MicroOp(pc, OpClass.BRANCH, srcs=(src,),
                               taken=taken, target=target))
    return ops


def run_to_completion(ops, config) -> Processor:
    proc = Processor(config, make_trace(ops))
    warm_icache(proc)
    proc.run(until_committed=len(ops), max_cycles=2_000_000)
    return proc


def assert_clean_final_state(proc, n_ops):
    assert proc.committed_total == n_ops
    assert proc.window.rob.occupancy == 0
    assert proc.window.iq.occupancy == 0
    assert proc.window.lsq.occupancy == 0
    stats = proc.stats
    assert stats.committed_uops == n_ops
    assert sum(stats.level_cycles.values()) == stats.cycles


class TestAnyTraceCompletes:
    @given(micro_ops())
    @settings(max_examples=40, deadline=None)
    def test_base_model(self, ops):
        proc = run_to_completion(ops, base_config())
        assert_clean_final_state(proc, len(ops))

    @given(micro_ops())
    @settings(max_examples=25, deadline=None)
    def test_dynamic_model(self, ops):
        proc = run_to_completion(ops, dynamic_config(3))
        assert_clean_final_state(proc, len(ops))
        # residency bookkeeping is consistent with transitions
        levels_seen = set(proc.stats.level_cycles)
        assert 1 in levels_seen or proc.stats.enlarge_transitions > 0

    @given(micro_ops())
    @settings(max_examples=25, deadline=None)
    def test_runahead_model(self, ops):
        proc = run_to_completion(ops, runahead_config())
        assert_clean_final_state(proc, len(ops))
        assert not proc.runahead.active

    @given(micro_ops())
    @settings(max_examples=20, deadline=None)
    def test_ideal_model(self, ops):
        config = ProcessorConfig(model=ModelKind.IDEAL, level=3)
        proc = run_to_completion(ops, config)
        assert_clean_final_state(proc, len(ops))

    @given(micro_ops())
    @settings(max_examples=20, deadline=None)
    def test_models_commit_identical_instructions(self, ops):
        """Every model commits exactly the trace, in order, regardless of
        speculation or resizing — only *timing* may differ."""
        a = run_to_completion(ops, base_config())
        b = run_to_completion(ops, dynamic_config(3))
        assert a.stats.committed_loads == b.stats.committed_loads
        assert a.stats.committed_stores == b.stats.committed_stores
        assert a.stats.committed_branches == b.stats.committed_branches


class TestFastForwardEquivalence:
    """The idle-cycle fast-forward is a pure optimisation: with it off,
    every simulation must produce identical cycle counts and stats —
    every result and ``SimStats`` field, the stall counters and CPI-stack
    slots included, and the window's ``full_events``."""

    @staticmethod
    def mismatch(config, trace, policy_name=None, warmup=0, measure=None):
        fast, slow = [
            ff_fields(config, trace,
                      None if policy_name is None
                      else ff_policy(policy_name, config),
                      warmup=warmup, measure=measure or len(trace.ops),
                      fast_forward=fast_forward)
            for fast_forward in (True, False)]
        return fields_mismatch_detail(fast, slow)

    @given(micro_ops(max_len=60))
    @settings(max_examples=20, deadline=None)
    def test_base_model_equivalent(self, ops):
        assert self.mismatch(base_config(), make_trace(ops)) == ""

    @given(micro_ops(max_len=60))
    @settings(max_examples=12, deadline=None)
    def test_dynamic_model_equivalent(self, ops):
        assert self.mismatch(dynamic_config(3), make_trace(ops)) == ""

    @pytest.mark.parametrize("name", FF_POLICIES)
    def test_controllers_equivalent_on_listchase(self, name):
        """The learned and feedback controllers on the drain-heavy
        pointer-chasing kernel: their checks are timers, and the jump
        skips their drains."""
        trace = trace_for_program("riscv:listchase", n_ops=4_000, seed=1)
        assert self.mismatch(dynamic_config(3), trace, name,
                             warmup=1_000, measure=3_000) == ""
