"""The repro.debug invariant sanitizer and event-trace layer.

Covers the debug layer's contract from both sides: a clean run must
pass every invariant without perturbing timing (bit-identical cycle
counts), and each seeded bookkeeping fault from the mutation harness
must be detected by the invariant written for it.  The slot-tracker
unit tests pin the exact physical-slot semantics (FIFO wraparound,
squash tail-retraction, CAM holes) the shrink-vacancy measurement
rests on.
"""

import hashlib
import json

import pytest

from repro.config import dynamic_config, fixed_config
from repro.debug import (
    CamSlotTracker,
    DeadlockError,
    EventTrace,
    FifoSlotTracker,
    SanitizerError,
)
from repro.debug import mutations
from repro.debug.events import EVENT_KINDS
from repro.debug.sanitizer import INVARIANTS
from repro.pipeline import PipelineTracer, Processor, simulate


# ----------------------------------------------------------------------
# event trace


class TestEventTrace:
    def test_emit_and_counts(self):
        trace = EventTrace(capacity=16)
        trace.emit(5, "fetch", 1, "iadd")
        trace.emit(6, "commit", 1)
        assert trace.emitted == 2
        assert trace.counts() == {"fetch": 1, "commit": 1}
        assert trace.records[0].as_dict() == {
            "cycle": 5, "kind": "fetch", "seq": 1, "detail": "iadd"}

    def test_unknown_kind_rejected(self):
        trace = EventTrace()
        with pytest.raises(ValueError, match="unknown event kind"):
            trace.emit(0, "teleport")

    def test_ring_overflow_keeps_whole_run_totals(self):
        trace = EventTrace(capacity=4)
        for i in range(10):
            trace.emit(i, "issue", i)
        assert len(trace.records) == 4
        assert trace.emitted == 10
        assert trace.counts()["issue"] == 10
        assert [r.cycle for r in trace.records] == [6, 7, 8, 9]

    def test_render(self):
        trace = EventTrace()
        assert trace.render() == "(no events recorded)"
        trace.emit(3, "level", -1, "enlarge to level 2")
        out = trace.render()
        assert "level" in out and "enlarge to level 2" in out
        # machine events render a dash, not a bogus sequence number
        assert " -1 " not in out

    def test_to_jsonl(self, tmp_path):
        trace = EventTrace()
        trace.emit(1, "dispatch", 7, "load")
        trace.emit(2, "stall", -1, "dispatch blocked")
        path = tmp_path / "events.jsonl"
        assert trace.to_jsonl(str(path)) == 2
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["kind"] for r in rows] == ["dispatch", "stall"]
        assert all(r["kind"] in EVENT_KINDS for r in rows)


# ----------------------------------------------------------------------
# slot trackers


class TestFifoSlotTracker:
    def test_commit_pops_head(self):
        t = FifoSlotTracker("ROB", 8)
        assert t.sync([1, 2, 3]) == []
        assert t.sync([2, 3]) == [1]
        assert [slot for __, slot in t.ring] == [1, 2]

    def test_squash_retracts_tail(self):
        t = FifoSlotTracker("ROB", 8)
        t.sync([1, 2, 3])
        assert t.sync([1]) == []          # 2,3 squashed, nothing committed
        t.sync([1, 9])                    # next allocation reuses slot 1
        assert list(t.ring) == [(1, 0), (9, 1)]

    def test_wraparound_assigns_physical_slots_modulo_capacity(self):
        t = FifoSlotTracker("ROB", 4)
        t.sync([1, 2, 3, 4])
        assert t.sync([3, 4]) == [1, 2]
        t.sync([3, 4, 5, 6])
        assert [slot for __, slot in t.ring] == [2, 3, 0, 1]

    def test_full_flush_split_by_commit_hint(self):
        t = FifoSlotTracker("ROB", 8)
        t.sync([1, 2, 3])
        # everything left at once: 2 commits + 1 squash, per the hint
        assert t.sync([10, 11], commits_hint=2) == [1, 2]
        # the squash retracted the tail to slot 2 before re-allocating
        assert list(t.ring) == [(10, 2), (11, 3)]

    def test_shrink_straddle_counts_divergence_and_compacts(self):
        t = FifoSlotTracker("ROB", 8)
        t.sync([1, 2, 3, 4, 5, 6])
        t.sync([5, 6])                    # survivors sit in slots 4 and 5
        assert t.resize(4) == 2           # both straddle the new boundary
        assert t.divergences == 1
        assert t.max_straddle == 2
        assert [slot for __, slot in t.ring] == [0, 1]   # re-packed
        assert t.capacity == 4

    def test_shrink_vacant_region_is_not_a_divergence(self):
        t = FifoSlotTracker("ROB", 8)
        t.sync([1, 2])                    # slots 0 and 1
        assert t.resize(4) == 0
        assert t.divergences == 0

    def test_non_contiguous_survivors_detected(self):
        t = FifoSlotTracker("ROB", 8)
        t.sync([1, 2, 3])
        with pytest.raises(SanitizerError, match="not a contiguous run"):
            t.sync([1, 3])                # 2 vanished from the middle


class TestCamSlotTracker:
    def test_lowest_free_slot_with_holes(self):
        t = CamSlotTracker("IQ", 4)
        t.sync([1, 2, 3])
        t.sync([1, 3])                    # 2 released out of order: hole
        t.sync([1, 3, 7])                 # newcomer fills the hole
        assert t.slot_of == {1: 0, 3: 2, 7: 1}

    def test_overflow_detected(self):
        t = CamSlotTracker("IQ", 2)
        with pytest.raises(SanitizerError, match="overflow"):
            t.sync([1, 2, 3])

    def test_shrink_compacts_and_enlarge_extends(self):
        t = CamSlotTracker("IQ", 8)
        t.sync([1, 2, 3, 4, 5])
        t.sync([4, 5])                    # survivors hold slots 3 and 4
        assert t.resize(2) == 2
        assert t.divergences == 1
        assert t.slot_of == {4: 0, 5: 1}
        assert t.resize(4) == 0           # enlarge is never a divergence
        t.sync([4, 5, 6, 7])
        assert t.slot_of[6] == 2 and t.slot_of[7] == 3


# ----------------------------------------------------------------------
# clean sanitized runs (the DYNAMIC model under real load)


@pytest.fixture(scope="module")
def sanitized_run(libquantum_trace):
    """One sanitized DYNAMIC run, with a pipeline tracer attached too,
    shared by the assertions below."""
    proc = Processor(dynamic_config(3), libquantum_trace, sanitize=True)
    tracer = PipelineTracer(proc, capacity=10_000)
    proc.run(until_committed=8_000)
    proc.debug.final_check()
    return proc, tracer


@pytest.fixture(scope="module")
def sanitized_dynamic(sanitized_run):
    return sanitized_run[0]


def _jsonl_sha256(records) -> str:
    text = "".join(json.dumps(r.as_dict(), sort_keys=True) + "\n"
                   for r in records)
    return hashlib.sha256(text.encode()).hexdigest()


class TestCleanRun:
    def test_invariants_exercised(self, sanitized_dynamic):
        summary = sanitized_dynamic.debug.summary()
        checks = summary["invariant_checks"]
        # the tuple names every invariant the sanitizer counts...
        assert set(checks) <= set(INVARIANTS)
        # ...and a clean DYNAMIC run evaluates each of them
        for name in INVARIANTS:
            assert checks.get(name, 0) > 0, f"{name} never exercised"
        assert summary["cycles_checked"] > 1_000

    def test_event_trace_mirrors_the_run(self, sanitized_dynamic):
        proc = sanitized_dynamic
        counts = proc.debug.events.counts()
        # every commit the processor saw was observed by the tracker
        assert counts["commit"] == proc.committed_total
        assert counts["dispatch"] >= proc.committed_total
        assert counts["fetch"] == counts["dispatch"]
        assert counts["level"] == (proc.stats.enlarge_transitions
                                   + proc.stats.shrink_transitions)

    def test_every_shrink_was_vacancy_checked(self, sanitized_dynamic):
        proc = sanitized_dynamic
        assert proc.stats.shrink_transitions > 0
        summary = proc.debug.summary()
        assert (summary["invariant_checks"]["shrink_slot_vacancy"]
                == proc.stats.shrink_transitions)
        # on this workload every shrink found its vacated region
        # physically empty — the occupancy approximation held exactly
        assert summary["shrink_divergences"] == {"ROB": 0, "IQ": 0,
                                                 "LSQ": 0}
        assert summary["max_straddle"] == {"ROB": 0, "IQ": 0, "LSQ": 0}

    def test_shrink_while_occupied_campaign(self):
        """Satellite: drive the DYNAMIC model through enlarge->shrink
        under heavy pointer-chasing load (mcf), where shrinks race live
        occupancy.  The drain protocol must be exercised and accounted,
        and the exact slot tracker quantifies how often the
        ``occupancy <= new_capacity`` vacancy approximation was
        optimistic about a wrapped occupied region."""
        from repro.workloads import generate_trace, profile
        trace = generate_trace(profile("mcf"), n_ops=9_000, seed=3)
        proc = Processor(dynamic_config(3), trace, sanitize=True)
        proc.run(until_committed=8_000)
        proc.debug.final_check()          # clean despite the churn
        stats = proc.stats
        assert stats.enlarge_transitions > 10
        assert stats.shrink_transitions > 10
        # shrink-while-occupied really happened: the policy had to stall
        # allocation to drain the condemned region, and that cost is
        # visible in the stats rather than hidden
        assert stats.stop_alloc_cycles > 0
        summary = proc.debug.summary()
        assert (summary["invariant_checks"]["shrink_slot_vacancy"]
                == stats.shrink_transitions)
        # under this load the approximation IS measurably optimistic:
        # some shrinks completed while the occupied window straddled the
        # new boundary (contents fit, but in the wrong physical slots) —
        # the divergence counters exist to quantify exactly this
        divergences = summary["shrink_divergences"]
        assert sum(divergences.values()) > 0
        assert all(divergences[r] <= stats.shrink_transitions
                   for r in ("ROB", "IQ", "LSQ"))
        assert max(summary["max_straddle"].values()) > 0

    def test_summary_pinned(self, sanitized_dynamic):
        summary = sanitized_dynamic.debug.summary()
        # event_schedule counts what the check visits, not machine
        # behaviour: not part of the pin
        del summary["invariant_checks"]["event_schedule"]
        assert summary == {
            "cycles_checked": 4138,
            "invariant_checks": {
                "counter_conservation": 12414,
                "ground_truth_occupancy": 4138,
                "in_order_commit": 4143,
                "level_capacity": 4138,
                "mshr_bound": 8276,
                "occupancy_bounds": 12414,
                "rob_program_order": 4143,
                "shrink_slot_vacancy": 5,
                "timer_liveness": 4138,
            },
            "shrink_divergences": {"ROB": 0, "IQ": 0, "LSQ": 0},
            "max_straddle": {"ROB": 0, "IQ": 0, "LSQ": 0},
            "events": {"commit": 8003, "dispatch": 8696, "fetch": 8696,
                       "issue": 8366, "level": 12, "stall": 2111},
        }

    def test_observer_records_pinned(self, sanitized_run):
        proc, tracer = sanitized_run
        assert len(tracer.records) == tracer.total_committed == 8003
        assert _jsonl_sha256(tracer.records) == (
            "27513c54ebffa33409671340ff4fc226fa26bce4b45874bb814b77aa739aa75c")
        assert _jsonl_sha256(proc.debug.events.records) == (
            "75f7dda058c203a58607a7a2c649f5a082120a09432e7686ada026997e4fb443")

    def test_events_export_jsonl(self, sanitized_dynamic, tmp_path):
        trace = sanitized_dynamic.debug.events
        path = tmp_path / "pipeline_events.jsonl"
        written = trace.to_jsonl(str(path))
        assert written == min(trace.emitted, trace.capacity)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == written
        assert all(r["kind"] in EVENT_KINDS for r in rows)


class TestNonPerturbation:
    def test_sanitized_run_is_bit_identical(self, libquantum_trace):
        plain = simulate(dynamic_config(3), libquantum_trace,
                         warmup=1_000, measure=4_000)
        checked = simulate(dynamic_config(3), libquantum_trace,
                           warmup=1_000, measure=4_000, sanitize=True)
        assert checked.cycles == plain.cycles
        assert checked.instructions == plain.instructions

    def test_release_path_carries_no_debug_state(self, libquantum_trace):
        proc = Processor(fixed_config(1), libquantum_trace)
        assert proc.debug is None
        # no shadowing instance attributes on the hot path
        assert "step_cycle" not in proc.__dict__
        assert "_schedule" not in proc.__dict__


# ----------------------------------------------------------------------
# failure paths


class TestFailurePaths:
    def test_deadlock_report_names_the_wedged_state(self, libquantum_trace):
        proc = Processor(fixed_config(1), libquantum_trace, sanitize=True)
        proc.run(until_committed=100)
        # wedge the machine: forget every in-flight completion and mark
        # the resident ops incomplete, so the ROB head can never retire
        proc._events.clear()
        proc._ready.clear()
        for op in proc.rob:
            op.complete = False
        with pytest.raises(DeadlockError) as exc_info:
            proc.run(until_committed=4_000)
        message = str(exc_info.value)
        assert "deadlock at cycle" in message
        assert "rob=" in message and "decode_q=" in message
        assert "mshr:" in message
        # the attached debug harness contributes the event tail
        assert "last traced events" in message

    def test_sanitizer_failure_carries_event_context(self, libquantum_trace):
        proc = Processor(dynamic_config(3), libquantum_trace, sanitize=True)
        proc.run(until_committed=500)
        proc.window.rob.alloc_count += 7
        with pytest.raises(SanitizerError) as exc_info:
            proc.debug.final_check()
        message = str(exc_info.value)
        assert "conservation" in message
        assert "last events" in message

    def test_event_scheduled_in_the_past_detected(self, libquantum_trace):
        proc = Processor(fixed_config(1), libquantum_trace, sanitize=True)
        proc.run(until_committed=200)
        proc._schedule(proc.cycle - 1, 0, None)
        with pytest.raises(SanitizerError, match="scheduled in the past"):
            proc.debug.final_check()


# ----------------------------------------------------------------------
# mutation harness: every seeded fault must be caught


@pytest.mark.parametrize("name", sorted(mutations.MUTATIONS))
def test_seeded_fault_detected(name):
    detected, note = mutations.run_mutation(name)
    assert detected, f"{name} escaped the sanitizer: {note}"
