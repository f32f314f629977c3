"""Pipeline core timing semantics, tested with hand-written micro-traces.

These tests pin down the cycle-level behaviours the paper's evaluation
rests on: back-to-back issue (and its loss under a pipelined IQ), issue
width and FU contention, memory access timing through the hierarchy,
store-to-load forwarding, branch misprediction recovery, and squash
bookkeeping.
"""

import pytest

from repro.config import (
    ModelKind,
    ProcessorConfig,
    ResourceLevel,
    base_config,
    dynamic_config,
)
from repro.debug.errors import DeadlockError
from repro.isa import MicroOp, OpClass
from repro.pipeline import Processor
from repro.verify.digest import result_digest
from repro.workloads import generate_trace, profile

from tests.conftest import (
    branch,
    warm_icache,
    ialu,
    load,
    make_trace,
    run_ops,
    single_depth_levels,
    store,
    DATA_BASE,
)


def config_with_depth(depth: int) -> ProcessorConfig:
    return ProcessorConfig(levels=single_depth_levels(depth), level=1)


class TestBasicExecution:
    def test_empty_pipeline_drains(self):
        proc = run_ops([ialu(0, dst=1)])
        assert proc.committed_total == 1

    def test_independent_ops_reach_full_width(self):
        """64 independent IALUs on a 4-wide machine: ~4 IPC."""
        ops = [ialu(i, dst=1 + (i % 16)) for i in range(64)]
        proc = run_ops(ops)
        assert proc.committed_total == 64
        assert proc.stats.ipc > 2.5

    def test_dependent_chain_is_serial(self):
        """A chain of N dependent 1-cycle IALUs takes ~N cycles."""
        ops = [ialu(0, dst=1)]
        ops += [ialu(i, dst=1, srcs=(1,)) for i in range(1, 50)]
        proc = run_ops(ops)
        assert 50 <= proc.stats.cycles <= 70

    def test_imul_latency_on_chain(self):
        """Chained 3-cycle multiplies take ~3N cycles."""
        ops = [MicroOp(0x400000 + 4 * i, OpClass.IMUL, dst=1, srcs=(1,))
               for i in range(30)]
        proc = run_ops(ops)
        assert 90 <= proc.stats.cycles <= 115

    def test_determinism(self, gcc_trace):
        def run():
            p = Processor(base_config(), gcc_trace)
            p.run(until_committed=3000)
            return (p.cycle, p.stats.committed_uops,
                    p.hierarchy.l2.misses, p.predictor.mispredictions)
        assert run() == run()


class TestPipelinedIQ:
    def test_depth2_breaks_back_to_back(self):
        """The paper's core ILP cost: at IQ depth 2, a chain of
        dependent 1-cycle ops runs at one issue per 2 cycles."""
        ops = [ialu(0, dst=1)]
        ops += [ialu(i, dst=1, srcs=(1,)) for i in range(1, 50)]
        shallow = run_ops(ops, config_with_depth(1))
        deep = run_ops(ops, config_with_depth(2))
        assert deep.stats.cycles >= shallow.stats.cycles + 40

    def test_depth2_does_not_slow_long_ops(self):
        """Producers with latency >= depth hide the extra wakeup stage."""
        ops = [MicroOp(0x400000 + 4 * i, OpClass.IMUL, dst=1, srcs=(1,))
               for i in range(30)]
        shallow = run_ops(ops, config_with_depth(1))
        deep = run_ops(ops, config_with_depth(2))
        assert deep.stats.cycles <= shallow.stats.cycles + 5

    def test_depth2_does_not_slow_independent_ops(self):
        ops = [ialu(i, dst=1 + (i % 16)) for i in range(64)]
        shallow = run_ops(ops, config_with_depth(1))
        deep = run_ops(ops, config_with_depth(2))
        assert deep.stats.cycles <= shallow.stats.cycles + 6

    def test_ideal_model_ignores_depth(self):
        """The IDEAL model uses the sizes but not the pipelining."""
        ops = [ialu(0, dst=1)]
        ops += [ialu(i, dst=1, srcs=(1,)) for i in range(1, 50)]
        config = ProcessorConfig(levels=single_depth_levels(2), level=1,
                                 model=ModelKind.IDEAL)
        ideal = run_ops(ops, config)
        fixed = run_ops(ops, config_with_depth(1))
        assert abs(ideal.stats.cycles - fixed.stats.cycles) <= 2


class TestFunctionUnits:
    def test_mem_port_limit(self):
        """2 load/store ports: 32 independent L1-hitting loads need at
        least 16 issue cycles."""
        ops = []
        proc0 = Processor(base_config(), make_trace([ialu(0, dst=1)]))
        for i in range(32):
            ops.append(load(i, dst=1 + (i % 8), addr=DATA_BASE + 8 * i))
        proc = Processor(base_config(), make_trace(ops))
        warm_icache(proc)
        for i in range(32):      # prewarm L1 so loads are 2-cycle hits
            proc.hierarchy.l1d.install(DATA_BASE + 8 * i, ready_at=0)
        proc.run(until_committed=32)
        assert proc.stats.cycles >= 16

    def test_fp_ops_use_fp_units(self):
        """4 independent FP adds per cycle are sustainable (4 fpALUs)."""
        ops = [MicroOp(0x400000 + 4 * i, OpClass.FPALU, dst=33 + (i % 8))
               for i in range(64)]
        proc = run_ops(ops)
        assert proc.stats.ipc > 2.0

    def test_imul_throughput_limited_to_two(self):
        """2 iMUL/DIV units: 40 independent multiplies take >= 20 cycles."""
        ops = [MicroOp(0x400000 + 4 * i, OpClass.IMUL, dst=1 + (i % 16))
               for i in range(40)]
        proc = run_ops(ops)
        assert proc.stats.cycles >= 20


class TestMemoryTiming:
    def test_load_hit_latency(self):
        proc = Processor(base_config(), make_trace(
            [load(0, dst=1, addr=DATA_BASE)]))
        warm_icache(proc)
        proc.hierarchy.l1d.install(DATA_BASE, ready_at=0)
        proc.run(until_committed=1)
        assert proc.hierarchy.average_load_latency() == 2.0

    def test_load_miss_costs_memory_latency(self):
        proc = run_ops([load(0, dst=1, addr=DATA_BASE)])
        assert proc.hierarchy.average_load_latency() >= 300

    def test_independent_misses_overlap(self):
        """MLP: 8 independent missing loads finish in ~1 memory latency,
        not 8."""
        ops = [load(i, dst=1 + i, addr=DATA_BASE + 0x10000 * i)
               for i in range(8)]
        proc = run_ops(ops)
        assert proc.stats.cycles < 2 * 330
        assert proc.result().mlp > 3.0

    def test_dependent_misses_serialise(self):
        """Pointer chase: each load's address needs the previous load."""
        ops = [load(0, dst=1, addr=DATA_BASE)]
        ops += [load(i, dst=1, addr=DATA_BASE + 0x10000 * i, srcs=(1,))
                for i in range(1, 5)]
        proc = run_ops(ops)
        assert proc.stats.cycles >= 5 * 300

    def test_store_to_load_forwarding(self):
        """A load reading a just-stored word forwards from the LSQ
        instead of paying a miss."""
        ops = [ialu(0, dst=2),
               store(1, addr=DATA_BASE + 0x40000, srcs=(2,)),
               load(2, dst=1, addr=DATA_BASE + 0x40000)]
        proc = run_ops(ops)
        assert proc.stats.cycles < 50
        assert proc.hierarchy.average_load_latency() < 10

    def test_load_does_not_wait_for_unrelated_store(self):
        """Perfect disambiguation: a load to a different address never
        waits for an older store (even a slow one)."""
        slow_load = load(0, dst=2, addr=DATA_BASE + 0x70000)
        dependent_store = store(1, addr=DATA_BASE + 0x40000, srcs=(2,))
        other_load = load(2, dst=3, addr=DATA_BASE + 8)
        proc = Processor(base_config(), make_trace(
            [slow_load, dependent_store, other_load]))
        warm_icache(proc)
        proc.hierarchy.l1d.install(DATA_BASE + 8, ready_at=0)
        proc.run(until_committed=3)
        # the independent load completed long before the store's data
        assert proc.hierarchy.load_latency_sum < 320 + 4


class TestBranches:
    def _loop_trace(self, iterations=40, body=6):
        """A loop whose back-edge is perfectly learnable."""
        ops = []
        head = 0
        for it in range(iterations):
            for i in range(body):
                ops.append(ialu(i, dst=1 + (i % 8)))
            last = it == iterations - 1
            ops.append(branch(body, taken=not last, target=0x40_0000))
        return ops

    def test_predictable_loop_few_mispredicts(self):
        # a 16-bit gshare needs ~16 iterations to fill its history with
        # the loop pattern; after that the back edge is fully predicted
        proc = run_ops(self._loop_trace(iterations=100))
        assert proc.predictor.mispredictions <= 20

    def test_mispredict_injects_wrong_path(self):
        """An untrained taken branch mispredicts; wrong-path micro-ops
        are fetched, then squashed."""
        ops = [ialu(0, dst=1),
               branch(1, taken=True, target=0x40_8000),
               ialu(2, dst=2)]
        proc = run_ops(ops)
        assert proc.predictor.mispredictions >= 1
        assert proc.stats.wrong_path_uops > 0
        assert proc.stats.squashed_uops > 0
        assert proc.committed_total == 3

    def test_mispredict_penalty_at_least_configured(self):
        base = run_ops([ialu(i, dst=1 + i % 8) for i in range(10)])
        with_miss = run_ops(
            [ialu(0, dst=1), branch(1, taken=True, target=0x40_8000)]
            + [ialu(2 + i, dst=1 + i % 8) for i in range(8)])
        assert with_miss.stats.cycles >= base.stats.cycles + 10

    def test_wrong_path_ops_never_commit(self):
        ops = [branch(0, taken=True, target=0x40_8000), ialu(1, dst=1)]
        proc = run_ops(ops)
        assert proc.stats.committed_uops == 2
        assert proc.stats.committed_branches == 1

    def test_mispredict_distance_stat(self):
        ops = [ialu(0, dst=1),
               branch(1, taken=True, target=0x40_8000),
               ialu(2, dst=2)]
        proc = run_ops(ops)
        assert len(proc.stats.mispredict_distances) >= 1


class TestSquashInvariants:
    def test_resources_free_after_squash(self):
        ops = [branch(0, taken=True, target=0x40_8000)]
        ops += [ialu(1 + i, dst=1 + i % 8) for i in range(30)]
        proc = run_ops(ops)
        window = proc.window
        assert window.rob.occupancy == 0
        assert window.iq.occupancy == 0
        assert window.lsq.occupancy == 0

    def test_map_table_consistent_after_squash(self):
        """After recovery, dataflow through the squash point works."""
        ops = [ialu(0, dst=5),
               branch(1, taken=True, target=0x40_8000),
               ialu(2, dst=6, srcs=(5,)),
               ialu(3, dst=7, srcs=(6,))]
        proc = run_ops(ops)
        assert proc.committed_total == 4


class TestRunLoop:
    def test_max_cycles_guard(self):
        ops = [load(0, dst=1, addr=DATA_BASE + 0x50000)]
        proc = Processor(base_config(), make_trace(ops))
        with pytest.raises(RuntimeError, match="exceeded"):
            proc.run(until_committed=1, max_cycles=10)

    def test_run_past_trace_end_stops(self):
        proc = Processor(base_config(), make_trace([ialu(0, dst=1)]))
        proc.run(until_committed=100)     # only 1 op exists
        assert proc.committed_total == 1

    def test_fast_forward_preserves_cycle_accounting(self):
        """Cycles spent idle (fast-forwarded) are still accounted."""
        ops = [load(0, dst=1, addr=DATA_BASE + 0x60000),
               ialu(1, dst=2, srcs=(1,))]
        proc = run_ops(ops)
        assert proc.stats.cycles >= 300
        assert sum(proc.stats.level_cycles.values()) == proc.stats.cycles

    def test_reset_measurement_keeps_state(self, gcc_trace):
        proc = Processor(base_config(), gcc_trace)
        proc.run(until_committed=2000)
        proc.reset_measurement()
        assert proc.stats.committed_uops == 0
        # run() may overshoot by up to the commit width - 1
        boundary = proc.committed_total
        assert 2000 <= boundary <= 2003
        proc.run(until_committed=4000)
        assert proc.stats.committed_uops == proc.committed_total - boundary

    def test_segmented_run_matches_single_run(self):
        """Chopping one run into arbitrary run() segments must land on
        the same state as one uninterrupted run (the warmup/measure
        split in simulate() relies on exactly this)."""
        trace = generate_trace(profile("milc"), n_ops=4_000, seed=1)
        config = dynamic_config(3)

        single = Processor(config, trace)
        single.prewarm()
        single.run(until_committed=3_000)

        segmented = Processor(config, trace)
        segmented.prewarm()
        for target in (700, 1_234, 2_999, 3_000):
            segmented.run(until_committed=target)
        assert segmented.cycle == single.cycle
        assert segmented.committed_total == single.committed_total
        assert (result_digest(segmented.result())
                == result_digest(single.result()))

    def test_livelock_bound_sized_from_remaining_commits(self):
        """The livelock allowance is elapsed-based: a run() resumed at
        a high commit count gets a budget for the commits *left*, not
        for the absolute target."""
        trace = generate_trace(profile("leslie3d"), n_ops=3_000, seed=1)
        proc = Processor(base_config(), trace)
        proc.prewarm()
        proc.run(until_committed=1_000)
        entry_cycle = proc.cycle

        # livelock: cycles advance, nothing commits
        proc.step_cycle = lambda: 1
        with pytest.raises(DeadlockError, match="livelock"):
            proc.run(until_committed=1_100)
        # remaining=100 -> allowance (100 + 1000) * 600, not
        # (1100 + 1000) * 600
        assert proc.cycle - entry_cycle <= (100 + 1_000) * 600 + 1

    def test_livelock_explicit_max_cycles_still_respected(self):
        trace = generate_trace(profile("leslie3d"), n_ops=3_000, seed=1)
        proc = Processor(base_config(), trace)
        proc.prewarm()
        proc.step_cycle = lambda: 1
        with pytest.raises(DeadlockError):
            proc.run(until_committed=10, max_cycles=50)
        assert proc.cycle <= 52
