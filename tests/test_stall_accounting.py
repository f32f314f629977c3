"""Stall-signal accounting regressions.

Two bugs motivated this file: ``full_events`` used to be bumped by the
*query* methods (so any extra observer — a policy, the sanitizer —
inflated the stall-rate signal resizing decisions are based on), and
timer-driven fast-forward jumps used to be charged to whatever stall
reason happened to precede them.  These tests pin the fixed contracts:
``full_events`` equals stalled-allocation cycles no matter who looks,
and policy-timer jumps land in their own CPI-stack bucket.
"""

import pytest

from repro.analysis.cpi import COMPONENTS
from repro.config import dynamic_config, fixed_config
from repro.core.policies import StaticPolicy
from repro.pipeline import Processor


# ----------------------------------------------------------------------
# full_events == stalled-allocation cycles


def test_full_events_equals_stalled_allocation_cycles(libquantum_trace):
    """Every stalled cycle charges each lacking resource exactly once."""
    proc = Processor(fixed_config(1), libquantum_trace)
    window = proc.window
    calls = {"n": 0}
    orig = window.note_alloc_stall

    def counting(need_rob, need_iq, need_lsq):
        calls["n"] += 1
        orig(need_rob, need_iq, need_lsq)

    window.note_alloc_stall = counting
    proc.run(until_committed=6_000)
    stalled = calls["n"]
    assert stalled > 0, "level-1 window never stalled dispatch?"
    per_resource = (window.rob.full_events, window.iq.full_events,
                    window.lsq.full_events)
    # each resource is charged at most once per stalled cycle...
    assert max(per_resource) <= stalled
    # ...and every stalled cycle charged at least one resource
    assert sum(per_resource) >= stalled
    # stalled-allocation cycles are a subset of dispatch-stall cycles
    assert stalled <= proc.stats.dispatch_stall_cycles


def test_observation_cannot_inflate_full_events(libquantum_trace):
    """Regression: fullness queries used to double as event counters, so
    an extra observer per cycle skewed the resize policies' stall signal.
    Hammering the queries must change nothing."""

    def run(observe: bool):
        proc = Processor(fixed_config(1), libquantum_trace)
        if observe:
            orig = proc.step_cycle

            def noisy_step():
                w = proc.window
                for __ in range(3):
                    w.has_room(4, 4, 4)
                    w.rob.is_full()
                    w.iq.is_full()
                    w.lsq.is_full()
                return orig()

            proc.step_cycle = noisy_step
        proc.run(until_committed=4_000)
        w = proc.window
        return (proc.cycle, w.rob.full_events, w.iq.full_events,
                w.lsq.full_events)

    assert run(observe=False) == run(observe=True)


# ----------------------------------------------------------------------
# policy-timer fast-forward attribution


class _TimerOnlyPolicy(StaticPolicy):
    """A static policy that additionally exposes a wake-up timer."""

    def __init__(self, fire_at):
        super().__init__(1)
        self.fire_at = fire_at

    def next_timer(self):
        return self.fire_at


def test_timer_only_wakeup_is_tagged(libquantum_trace):
    proc = Processor(fixed_config(1), libquantum_trace,
                     policy=_TimerOnlyPolicy(50))
    # fresh core: no events, no stalls — only the policy timer is ahead
    assert proc._next_interesting_cycle() == 50
    assert proc._ff_timer_jump is True
    proc.policy.fire_at = None
    assert proc._next_interesting_cycle() is None
    assert proc._ff_timer_jump is False


def test_timer_jump_charges_policy_timer_bucket(libquantum_trace):
    proc = Processor(fixed_config(1), libquantum_trace)
    width = proc.config.width
    proc._ff_timer_jump = True
    proc._last_stall_reason = "mem_dram"   # must NOT absorb the jump
    proc._advance_accounting(6)
    assert proc.stats.stall_slots.get("policy_timer") == 5 * width
    assert "mem_dram" not in proc.stats.stall_slots
    proc._ff_timer_jump = False
    proc._advance_accounting(3)
    assert proc.stats.stall_slots.get("mem_dram") == 2 * width


def test_dynamic_run_attributes_timer_waits(libquantum_trace):
    """The MLP-aware policy's scheduled wake-ups show up in their own
    bucket instead of polluting the memory-stall attribution."""
    proc = Processor(dynamic_config(3), libquantum_trace)
    proc.run(until_committed=8_000)
    assert proc.stats.stall_slots.get("policy_timer", 0) > 0


def test_policy_timer_is_a_cpi_component():
    assert "policy_timer" in COMPONENTS


# ----------------------------------------------------------------------
# the digest-excluded CPI-stack counters, pinned


#: (fetch_stall_cycles, dispatch_stall_cycles, stall_slots) per smoke
#: cell.  The result digest leaves these three out, so the golden files
#: cannot catch a stage rewrite that moves them; this table can.
PINNED_CPI_COUNTERS = {
    "libquantum|fixed1": (0, 1685, {"exec": 26, "mem_cache": 947,
                                    "mem_dram": 68572}),
    "libquantum|dynamic": (0, 2596, {"deps": 6, "exec": 22, "mem_cache": 8,
                                     "mem_dram": 22783,
                                     "policy_timer": 816}),
    "libquantum|ideal3": (0, 1918, {"exec": 17, "mem_cache": 4,
                                    "mem_dram": 22091}),
    "milc|fixed1": (0, 5667, {"deps": 2020, "exec": 4026,
                              "mem_cache": 18829, "mem_dram": 20329}),
    "milc|dynamic": (0, 6122, {"deps": 2629, "exec": 4311,
                               "mem_cache": 19747, "mem_dram": 8257,
                               "policy_timer": 184}),
    "milc|ideal3": (0, 5555, {"deps": 2107, "exec": 4149,
                              "mem_cache": 19861, "mem_dram": 4591}),
    "gcc|fixed1": (144, 2187, {"deps": 2092, "exec": 510, "frontend": 7272,
                               "mem_cache": 4255}),
    "gcc|dynamic": (159, 2215, {"deps": 2137, "exec": 510, "frontend": 7291,
                                "mem_cache": 4235, "policy_timer": 40}),
    "gcc|ideal3": (445, 1764, {"deps": 2071, "exec": 510, "frontend": 5968,
                               "mem_cache": 4244}),
    "sjeng|fixed1": (183, 847, {"deps": 1831, "exec": 212, "frontend": 3705,
                                "mem_cache": 2504}),
    "sjeng|dynamic": (189, 868, {"deps": 1827, "exec": 212,
                                 "frontend": 3709, "mem_cache": 2504,
                                 "policy_timer": 52}),
    "sjeng|ideal3": (346, 180, {"deps": 1831, "exec": 212, "frontend": 5633,
                                "mem_cache": 2504}),
    "riscv:mixed|bandit:ucb": (174, 7864, {"deps": 2876, "exec": 24,
                                           "frontend": 33, "mem_cache": 37,
                                           "mem_dram": 28698}),
    "libquantum|runahead": (172, 4191, {"deps": 996, "exec": 234,
                                        "frontend": 3254, "issue": 18,
                                        "mem_cache": 18452,
                                        "mem_dram": 54456}),
}


def _smoke_cell(cell):
    """Run one pinned cell at the golden corpus's smoke scale: the
    golden corpus models, ``riscv:mixed`` under the ``bandit:ucb``
    controller, and libquantum on the runahead model."""
    from repro.config import runahead_config
    from repro.core.policies import make_policy
    from repro.verify.golden import _config_for
    from repro.verify.oracles import _smoke_run, smoke_trace

    program, model = cell.split("|")
    trace = smoke_trace(program)
    if model == "bandit:ucb":
        config = dynamic_config(3)
        return _smoke_run(config, trace, policy=make_policy(
            model, config.level, config.memory.min_latency))
    if model == "runahead":
        return _smoke_run(runahead_config(), trace)
    return _smoke_run(_config_for(model), trace)


def test_pinned_cells_cover_the_golden_corpus():
    from repro.verify.golden import GOLDEN_MODELS
    from repro.verify.oracles import SMOKE_CORPUS

    golden = {f"{p}|{m}" for p in SMOKE_CORPUS for m in GOLDEN_MODELS}
    assert golden <= set(PINNED_CPI_COUNTERS)


@pytest.mark.parametrize("cell", sorted(PINNED_CPI_COUNTERS))
def test_cpi_stack_counters_pinned(cell):
    stats = _smoke_cell(cell).stats
    assert (stats.fetch_stall_cycles, stats.dispatch_stall_cycles,
            dict(stats.stall_slots)) == PINNED_CPI_COUNTERS[cell]
