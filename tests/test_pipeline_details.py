"""Focused pipeline timing details: front-end structure, resource
stalls, transition bookkeeping, and step/advance mechanics."""

import pytest

from repro.config import (
    ProcessorConfig,
    ResourceLevel,
    base_config,
    dynamic_config,
)
from repro.pipeline import Processor
from repro.pipeline.core import (
    DECODE_LATENCY, FETCH_BUFFER, pretrain_predictor)

from tests.conftest import (
    CODE_BASE,
    DATA_BASE,
    branch,
    ialu,
    load,
    make_trace,
    run_ops,
    store,
    warm_icache,
)


class TestFrontEnd:
    def test_minimum_latency_includes_decode(self):
        """A single op takes at least fetch + decode + issue + commit."""
        proc = run_ops([ialu(0, dst=1)])
        assert proc.stats.cycles >= DECODE_LATENCY + 2

    def test_fetch_buffer_bounds_runahead_of_dispatch(self):
        """With dispatch blocked by a full ROB, fetch stops at the
        buffer limit instead of running ahead forever."""
        ops = [load(0, dst=1, addr=DATA_BASE + 0x40000)]
        ops += [ialu(1 + i, dst=2 + (i % 4), srcs=(1,)) for i in range(400)]
        proc = Processor(base_config(), make_trace(ops))
        warm_icache(proc)
        proc.run(until_committed=1)   # just the load
        assert len(proc.thread.decode_q) <= FETCH_BUFFER

    def test_taken_branch_costs_a_fetch_bubble(self):
        """A dense sequence of taken branches fetches ~1/cycle, not 4."""
        ops = []
        for i in range(40):
            ops.append(branch(i, taken=True, target=CODE_BASE + 4 * (i + 1)))
        # train the BTB first via a warmup pass over the same PCs
        proc = Processor(base_config(), make_trace(ops + ops))
        warm_icache(proc)
        pretrain_predictor(proc.predictor, proc.trace.ops)
        proc.run(until_committed=len(ops) * 2)
        assert proc.stats.cycles >= 60   # >= ~1 cycle per taken branch

    def test_icache_miss_stalls_fetch(self):
        proc = Processor(base_config(), make_trace(
            [ialu(i, dst=1 + i % 8) for i in range(8)]))
        # no warm_icache: the first line must go to memory
        proc.run(until_committed=8)
        assert proc.stats.cycles > 300


class TestResourceStalls:
    def _tiny_levels(self):
        return (ResourceLevel(iq_entries=8, rob_entries=16, lsq_entries=4,
                              iq_depth=1, rob_depth=1, lsq_depth=1),)

    def test_small_rob_limits_mlp(self):
        """With a 16-entry ROB, far fewer misses overlap."""
        ops = [load(i, dst=1 + (i % 8), addr=DATA_BASE + 0x10000 * i)
               for i in range(24)]
        small = ProcessorConfig(levels=self._tiny_levels(), level=1)
        tiny = run_ops(ops, small)
        big = run_ops(ops)
        assert tiny.stats.cycles > 1.5 * big.stats.cycles

    def test_lsq_full_blocks_dispatch(self):
        ops = [load(i, dst=1 + (i % 8), addr=DATA_BASE + 0x10000 * i)
               for i in range(16)]
        small = ProcessorConfig(levels=self._tiny_levels(), level=1)
        proc = run_ops(ops, small)
        assert proc.window.lsq.full_events > 0

    def test_peak_occupancy_respects_capacity(self):
        ops = [load(i, dst=1 + (i % 8), addr=DATA_BASE + 0x10000 * i)
               for i in range(16)]
        small = ProcessorConfig(levels=self._tiny_levels(), level=1)
        proc = run_ops(ops, small)
        assert proc.window.rob.peak_occupancy <= 16
        assert proc.window.lsq.peak_occupancy <= 4


class TestTransitions:
    def _burst(self):
        ops = []
        for i in range(8):
            ops.append(load(i, dst=1 + i % 4, addr=DATA_BASE + 0x20000 * i))
        ops += [ialu(8 + i, dst=1 + (i % 8)) for i in range(3000)]
        return ops

    def test_transition_log_records_level_changes(self):
        proc = Processor(dynamic_config(3), make_trace(self._burst()))
        warm_icache(proc)
        proc.run(until_committed=3008)
        log = proc.stats.level_transitions
        assert log, "expected at least one transition"
        cycles = [c for c, __ in log]
        assert cycles == sorted(cycles)
        levels = [lvl for __, lvl in log]
        assert max(levels) >= 2
        assert levels[-1] == 1       # shrunk back during the compute tail

    def test_transition_counts_match_log(self):
        proc = Processor(dynamic_config(3), make_trace(self._burst()))
        warm_icache(proc)
        proc.run(until_committed=3008)
        stats = proc.stats
        ups = sum(1 for (__, lvl), (___, prev) in zip(
            stats.level_transitions[1:], stats.level_transitions)
            if lvl > prev)
        # first transition is always an enlarge from level 1
        ups += 1 if stats.level_transitions[0][1] > 1 else 0
        assert stats.enlarge_transitions == ups

    def test_zero_penalty_config(self):
        from dataclasses import replace
        config = replace(dynamic_config(3), transition_penalty=0)
        proc = Processor(config, make_trace(self._burst()))
        warm_icache(proc)
        proc.run(until_committed=3008)
        assert proc.stats.transition_stall_cycles == 0


class TestStepAdvance:
    def test_manual_stepping_matches_run(self):
        ops = [ialu(i, dst=1 + i % 8) for i in range(200)]
        auto = run_ops(ops)
        manual = Processor(base_config(), make_trace(ops))
        warm_icache(manual)
        while manual.committed_total < 200:
            delta = manual.step_cycle()
            if delta == 0:
                break
            manual.advance(delta)
        assert manual.cycle == auto.cycle
        assert manual.stats.committed_uops == auto.stats.committed_uops

    def test_partial_advance_is_legal(self):
        """Advancing by less than the suggested delta (as the multicore
        lockstep does) must not change results."""
        ops = [load(0, dst=1, addr=DATA_BASE + 0x40000),
               ialu(1, dst=2, srcs=(1,))]
        auto = run_ops(ops)
        manual = Processor(base_config(), make_trace(ops))
        warm_icache(manual)
        while manual.committed_total < 2:
            delta = manual.step_cycle()
            if delta == 0:
                break
            manual.advance(min(delta, 7))   # never jump more than 7
        assert manual.cycle == auto.cycle

    def test_step_returns_zero_when_drained(self):
        proc = Processor(base_config(), make_trace([ialu(0, dst=1)]))
        warm_icache(proc)
        proc.run(until_committed=1)
        assert proc.step_cycle() == 0
