"""Telemetry layer: probe sampling, ring recorder, exports, neutrality.

The two invariants of :mod:`repro.telemetry` are locked in here:

* cheap when off — an unprobed processor has empty observer hook
  lists, and attaching or detaching a probe changes nothing else;
* digest neutrality — a probed run's canonical stat digest is
  bit-identical to a bare run (the PR 2 mutation-on-observation bug
  class, re-audited for every counter the probe reads).
"""

import hashlib
import os

import pytest

from repro.config import base_config, dynamic_config
from repro.pipeline import PipelineTracer, Processor, simulate
from repro.telemetry import (
    IntervalSample,
    PolicyEvent,
    Telemetry,
    TelemetryProbe,
    grow_miss_coincidence,
    load_events_csv,
    load_samples_csv,
    render_report,
)
from repro.verify.digest import result_digest
from repro.workloads import generate_trace, profile

from tests.conftest import DATA_BASE, ialu, load, make_trace, warm_icache


def sample(cycle, cycles=64, committed=0, stalls=None, **kw):
    defaults = dict(level=1, rob_occ=0, rob_cap=128, iq_occ=0, iq_cap=64,
                    lsq_occ=0, lsq_cap=64, mshr_l1d=0, mshr_l2=0,
                    issued=0, dispatched=0, l2_misses=0, stop_alloc=0)
    defaults.update(kw)
    return IntervalSample(cycle=cycle, cycles=cycles, committed=committed,
                          stalls=stalls or {}, **defaults)


def missing_burst_trace(n_bursts=6, loads_per_burst=10, gap_ops=400):
    """Clusters of missing loads separated by compute stretches."""
    ops = []
    idx = 0
    addr = DATA_BASE + 0x100000
    for burst in range(n_bursts):
        for i in range(loads_per_burst):
            ops.append(load(idx, dst=1 + (i % 8), addr=addr))
            addr += 0x10000
            idx += 1
        for i in range(gap_ops):
            ops.append(ialu(idx, dst=1 + (i % 8)))
            idx += 1
    return ops


def probed_burst_run(period=64, **probe_kw):
    ops = missing_burst_trace()
    proc = Processor(dynamic_config(3), make_trace(ops))
    warm_icache(proc)
    probe = TelemetryProbe(period=period, **probe_kw)
    probe.attach(proc)
    proc.run(until_committed=len(ops))
    probe.finish()
    return proc, probe


# ----------------------------------------------------------------------
# recorder ring


class TestRecorderRing:
    def test_wraparound_keeps_totals(self):
        tel = Telemetry(period=10, capacity=4, event_capacity=3)
        for i in range(10):
            tel.add_sample(sample(cycle=(i + 1) * 10, cycles=10,
                                  committed=5, stalls={"deps": 2}))
        assert len(tel.samples) == 4
        assert tel.samples_emitted == 10
        assert tel.cycles_covered == 100
        assert tel.committed_total == 50
        assert tel.stall_totals == {"deps": 20}
        # ring holds the most recent samples
        assert [s.cycle for s in tel.samples] == [70, 80, 90, 100]

    def test_event_ring_wraps_counts_survive(self):
        tel = Telemetry(period=10, capacity=4, event_capacity=3)
        for i in range(7):
            tel.add_event(PolicyEvent(i, "l2_miss", 1))
        tel.add_event(PolicyEvent(99, "grow", 2))
        assert len(tel.events) == 3
        assert tel.events_emitted == 8
        assert tel.event_counts == {"l2_miss": 7, "grow": 1}

    def test_peaks_survive_wrap(self):
        tel = Telemetry(period=1, capacity=2)
        tel.add_sample(sample(cycle=1, cycles=1, rob_occ=100))
        tel.add_sample(sample(cycle=2, cycles=1, rob_occ=3))
        tel.add_sample(sample(cycle=3, cycles=1, rob_occ=4))
        assert tel.peak_rob == 100

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            Telemetry(period=0)
        with pytest.raises(ValueError):
            TelemetryProbe(period=0)


# ----------------------------------------------------------------------
# sampling-period edge cases


class TestSamplingPeriods:
    def test_period_one_samples_every_cycle(self):
        proc, probe = probed_burst_run(period=1, capacity=200_000)
        tel = probe.telemetry
        # every cycle has its own sample; a zero-cycle tail sample may
        # follow when the run ends by trace drain (the last step's
        # commits happen without a final advance)
        body = [s for s in tel.samples if s.cycles]
        assert all(s.cycles == 1 for s in body)
        assert tel.cycles_covered == proc.cycle
        assert tel.committed_total == proc.stats.committed_uops
        assert [s.cycle for s in body] == list(range(1, proc.cycle + 1))

    def test_period_longer_than_run(self):
        proc, probe = probed_burst_run(period=10**9)
        tel = probe.telemetry
        # only the partial interval flushed by finish()
        assert tel.samples_emitted == 1
        only = tel.samples[0]
        assert only.cycle == proc.cycle
        assert only.cycles == proc.cycle
        assert only.committed == proc.stats.committed_uops

    def test_deltas_sum_to_run_totals(self):
        proc, probe = probed_burst_run(period=64, capacity=100_000)
        tel = probe.telemetry
        stats = proc.stats
        assert sum(s.committed for s in tel.samples) == stats.committed_uops
        assert sum(s.issued for s in tel.samples) == stats.issued_uops
        assert (sum(s.l2_misses for s in tel.samples)
                == proc.hierarchy.demand_l2_misses)
        stall_sum = {}
        for s in tel.samples:
            for reason, slots in s.stalls.items():
                stall_sum[reason] = stall_sum.get(reason, 0) + slots
        assert stall_sum == stats.stall_slots
        assert tel.stall_totals == stats.stall_slots

    def test_finish_idempotent(self):
        proc, probe = probed_burst_run(period=64)
        emitted = probe.telemetry.samples_emitted
        probe.finish()
        assert probe.telemetry.samples_emitted == emitted


# ----------------------------------------------------------------------
# exports


class TestExports:
    def _recorded(self):
        __, probe = probed_burst_run(period=64)
        return probe.telemetry

    def test_jsonl_round_trip(self, tmp_path):
        tel = self._recorded()
        path = tel.to_jsonl(str(tmp_path / "run.jsonl"))
        loaded = Telemetry.from_jsonl(path)
        assert list(loaded.samples) == list(tel.samples)
        assert list(loaded.events) == list(tel.events)
        assert loaded.meta == tel.meta
        assert loaded.samples_emitted == tel.samples_emitted
        assert loaded.events_emitted == tel.events_emitted
        assert loaded.event_counts == tel.event_counts
        assert loaded.stall_totals == tel.stall_totals
        assert loaded.cycles_covered == tel.cycles_covered
        assert loaded.peak_rob == tel.peak_rob

    def test_csv_round_trip(self, tmp_path):
        tel = self._recorded()
        spath = tel.samples_csv(str(tmp_path / "s.csv"))
        epath = tel.events_csv(str(tmp_path / "e.csv"))
        assert load_samples_csv(spath) == list(tel.samples)
        assert load_events_csv(epath) == list(tel.events)

    def test_report_renders(self):
        tel = self._recorded()
        text = render_report(tel)
        assert "level timeline" in text
        assert "occupancy heat summary" in text
        assert "interval CPI stack" in text

    def test_from_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "sample"}\n')
        with pytest.raises(ValueError):
            Telemetry.from_jsonl(str(path))


# ----------------------------------------------------------------------
# events vs. the resizing policy


class TestPolicyEvents:
    def test_transitions_match_stats_log(self):
        proc, probe = probed_burst_run(period=64)
        tel = probe.telemetry
        recorded = [(e.cycle, e.level) for e in tel.events
                    if e.kind in ("grow", "shrink")]
        assert recorded == proc.stats.level_transitions
        assert tel.event_counts.get("grow", 0) == \
            proc.stats.enlarge_transitions
        assert tel.event_counts.get("shrink", 0) == \
            proc.stats.shrink_transitions

    def test_miss_events_match_hierarchy_count(self):
        proc, probe = probed_burst_run(period=64)
        assert (probe.telemetry.event_counts.get("l2_miss", 0)
                == proc.hierarchy.demand_l2_misses)

    def test_grow_events_trail_misses(self):
        __, probe = probed_burst_run(period=64)
        co = grow_miss_coincidence(probe.telemetry)
        assert co["grows"] >= 1
        assert co["matched"] == co["grows"]

    def test_level_series_consistent_with_transitions(self):
        __, probe = probed_burst_run(period=16, capacity=100_000)
        tel = probe.telemetry
        transitions = {e.cycle: e.level for e in tel.events
                       if e.kind in ("grow", "shrink")}
        level = 1
        expected = []
        cursor = sorted(transitions.items())
        for s in tel.samples:
            while cursor and cursor[0][0] <= s.cycle:
                level = cursor.pop(0)[1]
            expected.append(level)
        assert tel.levels() == expected


# ----------------------------------------------------------------------
# the two invariants


def observer_hooks(proc):
    """Every callable registered on the processor and its hierarchy."""
    return [list(proc.on_step), list(proc.on_advance), list(proc.on_level),
            list(proc.on_commit), list(proc.hierarchy.l2_miss_listeners)]


class TestInvariants:
    def test_zero_cost_when_off(self):
        proc = Processor(dynamic_config(3), make_trace(
            [ialu(i, dst=1 + (i % 8)) for i in range(100)]))
        # nothing observes a bare processor: every hook list is empty
        assert (proc.on_step, proc.on_advance, proc.on_level,
                proc.on_commit) == ([], [], [], [])
        assert not hasattr(proc, "telemetry")
        assert not hasattr(proc, "tracer")

    def test_attach_detach_restores(self):
        ops = missing_burst_trace(n_bursts=2)
        proc = Processor(dynamic_config(3), make_trace(ops), sanitize=True)
        warm_icache(proc)
        before = observer_hooks(proc)
        probe = TelemetryProbe(period=64)
        probe.attach(proc)
        assert observer_hooks(proc) != before
        with pytest.raises(RuntimeError):
            probe.attach(proc)
        probe.detach()
        # the sanitizer's registrations stay, the probe's are gone
        assert observer_hooks(proc) == before

    def test_observers_shadow_no_method(self):
        ops = missing_burst_trace(n_bursts=2)
        proc = Processor(dynamic_config(3), make_trace(ops), sanitize=True)
        warm_icache(proc)
        TelemetryProbe(period=64).attach(proc)
        tracer = PipelineTracer(proc)
        proc.run(until_committed=len(ops))
        assert tracer.total_committed == len(ops)
        for obj in (proc, proc.window, proc.hierarchy, proc.policy):
            shadowed = [name for name in vars(obj)
                        if callable(getattr(type(obj), name, None))]
            assert shadowed == [], type(obj).__name__

    @pytest.mark.parametrize("program,config", [
        ("omnetpp", dynamic_config(3)),
        ("libquantum", dynamic_config(3)),
        ("gcc", base_config()),
    ])
    def test_digest_neutrality(self, program, config):
        def run(telemetry):
            trace = generate_trace(profile(program), n_ops=7_000, seed=1)
            return simulate(config, trace, warmup=2_000, measure=4_000,
                            telemetry=telemetry)
        bare = run(None)
        probe = TelemetryProbe(period=32)
        probed = run(probe)
        assert probe.telemetry.samples_emitted > 0
        assert result_digest(bare) == result_digest(probed)

    @staticmethod
    def _jsonl_sha256(probe, tmp_path):
        path = probe.telemetry.to_jsonl(str(tmp_path / "run.jsonl"))
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def test_learned_policy_recording_pinned(self, tmp_path):
        # the bandit's pull/reward events reach the probe through the
        # policy listener; grow/shrink/drain/l2_miss through the core
        from repro.core.policies import make_policy
        from repro.workloads import trace_for_program
        config = dynamic_config(3)
        probe = TelemetryProbe(period=256)
        simulate(config, trace_for_program("riscv:hashprobe", 4_000, seed=1),
                 warmup=1_000, measure=3_000, telemetry=probe,
                 policy=make_policy("bandit:ucb", config.level,
                                    config.memory.min_latency))
        assert probe.telemetry.event_counts["pull"] > 0
        assert probe.telemetry.event_counts["reward"] > 0
        assert self._jsonl_sha256(probe, tmp_path) == (
            "966e0b29c9233b39adcec3758703cce23f26936057827483f07561953b1d5d5b")

    def test_sanitized_recording_pinned(self, tmp_path):
        # probe and sanitizer observe the same transitions
        trace = generate_trace(profile("libquantum"), n_ops=4_000, seed=1)
        probe = TelemetryProbe(period=32)
        simulate(dynamic_config(3), trace, warmup=0, measure=4_000,
                 telemetry=probe, sanitize=True)
        assert probe.telemetry.event_counts == {
            "l2_miss": 199, "grow": 8, "shrink": 6, "drain": 3}
        assert self._jsonl_sha256(probe, tmp_path) == (
            "4bfa77cd560bbdd9efe8714cc265fa72ddea94c76069a170451622097139b0e4")

    def test_digest_neutral_under_sanitizer(self):
        # probe and sanitizer share the on_level hook
        trace_a = generate_trace(profile("omnetpp"), n_ops=6_000, seed=1)
        trace_b = generate_trace(profile("omnetpp"), n_ops=6_000, seed=1)
        bare = simulate(dynamic_config(3), trace_a,
                        warmup=2_000, measure=3_000)
        probe = TelemetryProbe(period=64)
        both = simulate(dynamic_config(3), trace_b, warmup=2_000,
                        measure=3_000, sanitize=True, telemetry=probe)
        assert result_digest(bare) == result_digest(both)
        assert probe.telemetry.samples_emitted > 0


# ----------------------------------------------------------------------
# campaign wiring


class TestCampaignTelemetry:
    def _settings(self, period):
        from repro.experiments.runner import Settings
        return Settings(warmup=1_500, measure=2_500, telemetry_period=period,
                        only_programs=("omnetpp",))

    def test_sweep_writes_artifact(self, tmp_path):
        from repro.experiments.cache import ResultStore
        from repro.experiments.runner import Sweep
        store = ResultStore(str(tmp_path))
        sweep = Sweep(self._settings(64), store=store)
        result = sweep.run("omnetpp", dynamic_config(3))
        assert sweep.telemetry_artifacts == 1
        artifacts = os.listdir(tmp_path / "telemetry")
        assert len(artifacts) == 1
        tel = Telemetry.from_jsonl(str(tmp_path / "telemetry" / artifacts[0]))
        assert tel.meta["program"] == "omnetpp"
        assert tel.samples_emitted > 0
        # the stored result is digest-identical to a bare run of the
        # same settings (telemetry_period is not part of the result key)
        bare_store = ResultStore(str(tmp_path / "bare"))
        bare = Sweep(self._settings(0), store=bare_store).run(
            "omnetpp", dynamic_config(3))
        assert result_digest(result) == result_digest(bare)

    def test_warm_cache_skips_when_artifact_present(self, tmp_path):
        from repro.experiments.cache import ResultStore
        from repro.experiments.runner import Sweep
        store = ResultStore(str(tmp_path))
        Sweep(self._settings(64), store=store).run(
            "omnetpp", dynamic_config(3))
        again = Sweep(self._settings(64), store=store)
        again.run("omnetpp", dynamic_config(3))
        assert again.sim_runs == 0
        assert again.cache_hits == 1

    def test_missing_artifact_forces_rerun(self, tmp_path):
        from repro.experiments.cache import ResultStore
        from repro.experiments.runner import Sweep
        store = ResultStore(str(tmp_path))
        first = Sweep(self._settings(64), store=store)
        first.run("omnetpp", dynamic_config(3))
        tdir = tmp_path / "telemetry"
        for name in os.listdir(tdir):
            os.unlink(tdir / name)
        again = Sweep(self._settings(64), store=store)
        again.run("omnetpp", dynamic_config(3))
        assert again.sim_runs == 1
        assert len(os.listdir(tdir)) == 1

    def test_execute_campaign_reruns_for_missing_artifact(self, tmp_path):
        from repro.experiments.cache import (
            JobRecorder, ResultStore, recording, telemetry_dir)
        from repro.experiments.parallel import execute_campaign
        from repro.experiments.runner import Sweep
        store = ResultStore(str(tmp_path))
        settings = self._settings(64)
        recorder = JobRecorder()
        with recording(recorder):
            Sweep(settings, store=store).run("omnetpp", dynamic_config(3))
        report = execute_campaign(recorder, store, jobs=1)
        assert report.executed == 1
        assert report.telemetry_artifacts == 1
        assert report.per_program_seconds.get("omnetpp", 0.0) > 0.0
        # warm: result cached AND artifact present -> nothing to do
        report2 = execute_campaign(recorder, store, jobs=1)
        assert report2.executed == 0
        # delete the artifact: the cached job must execute again
        tdir = telemetry_dir(store)
        for name in os.listdir(tdir):
            os.unlink(os.path.join(tdir, name))
        report3 = execute_campaign(recorder, store, jobs=1)
        assert report3.executed == 1
        assert len(os.listdir(tdir)) == 1
