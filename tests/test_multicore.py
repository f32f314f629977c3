"""Multi-core system with shared L2 + memory channel."""

import pytest

from repro.config import base_config, dynamic_config, fixed_config
from repro.multicore import MultiCoreSystem, simulate_multicore
from repro.verify.digest import result_digest
from repro.workloads import generate_trace, profile

from tests.conftest import CODE_BASE, ialu, make_trace, warm_icache


def compute_traces(n_cores=2, n_ops=1500):
    return [make_trace([ialu(i, dst=1 + (i % 8)) for i in range(n_ops)],
                       name=f"core{c}")
            for c in range(n_cores)]


@pytest.fixture(scope="module")
def mixed_system():
    programs = ("leslie3d", "gcc")
    traces = [generate_trace(profile(p), n_ops=7000, seed=3)
              for p in programs]
    return simulate_multicore([dynamic_config(3)] * 2, traces,
                              warmup=1500, measure=4000)


class TestConstruction:
    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            MultiCoreSystem([base_config()], compute_traces(2))

    def test_requires_agreeing_shared_config(self):
        from dataclasses import replace
        from repro.config import CacheConfig
        odd = replace(base_config(), l2=CacheConfig(
            size_bytes=1024 * 1024, assoc=4, line_bytes=64, hit_latency=12))
        with pytest.raises(ValueError, match="agree"):
            MultiCoreSystem([base_config(), odd], compute_traces(2))

    def test_l2_is_shared_object(self):
        system = MultiCoreSystem([base_config()] * 2, compute_traces(2))
        assert system.cores[0].hierarchy.l2 is system.cores[1].hierarchy.l2
        assert system.cores[0].hierarchy.l1d is not \
            system.cores[1].hierarchy.l1d

    def test_memory_is_shared_object(self):
        system = MultiCoreSystem([base_config()] * 2, compute_traces(2))
        assert system.cores[0].hierarchy.memory is \
            system.cores[1].hierarchy.memory


class TestExecution:
    def test_all_cores_commit(self):
        system = MultiCoreSystem([base_config()] * 2, compute_traces(2))
        system.run(until_committed_each=1500)
        for core in system.cores:
            assert core.committed_total == 1500

    def test_lockstep_clocks_close(self):
        system = MultiCoreSystem([base_config()] * 2, compute_traces(2))
        system.run(until_committed_each=1000)
        cycles = [core.cycle for core in system.cores]
        # identical workloads in lockstep finish at identical times
        assert max(cycles) - min(cycles) <= 4

    def test_aggregate_ipc(self, mixed_system):
        assert mixed_system.aggregate_ipc() > 0
        per_core = [r.ipc for r in mixed_system.results()]
        assert mixed_system.aggregate_ipc() <= sum(per_core) + 0.01

    def test_channel_utilisation_sane(self, mixed_system):
        # no upper clamp any more: >1.0 is legitimate end-of-window
        # backlog; the schedule-headroom invariant inside the call is
        # what guards against corrupt accounting
        assert mixed_system.channel_utilisation() >= 0.0

    def test_per_core_results(self, mixed_system):
        results = mixed_system.results()
        assert results[0].program == "leslie3d"
        assert results[1].program == "gcc"
        assert all(r.ipc > 0 for r in results)

    def test_shared_l2_digests_pinned(self, mixed_system):
        """Both cores' results are pinned bit for bit.  The golden
        digests cover single-core runs only; this run also covers a
        shared L2 prewarmed with two cores' spans."""
        assert [result_digest(r) for r in mixed_system.results()] == [
            "7b8450d810e69c6841ebcbf3877aa434"
            "fab1898fb168e3ec81cfedb30e862765",
            "7419c84b022a798fc5d5b02df8459bde"
            "82d176af844b8b10eb960d43b39c824e",
        ]


class TestLockstep:
    def test_transiently_idle_core_not_retired(self):
        """Regression: ``step_cycle() == 0`` alone must not retire a
        core — only a drained trace does.  A core that reports no
        progress for a few cycles (e.g. waiting on a shared resource)
        has to keep running; the old loop dropped it on the first 0
        with nothing committed."""
        system = MultiCoreSystem([base_config()] * 2, compute_traces(2))
        core = system.cores[1]
        real_step = core.step_cycle
        calls = {"n": 0}

        def flaky_step():
            calls["n"] += 1
            if calls["n"] <= 3:
                return 0
            return real_step()

        core.step_cycle = flaky_step
        system.run(until_committed_each=1000)
        assert core.committed_total >= 1000

    def test_max_cycles_bound_covers_all_cores(self):
        """The livelock bound is taken over every core's clock, not
        core 0's: a core resuming from a much later cycle (e.g. a
        restored measurement segment) must not trip it spuriously."""
        system = MultiCoreSystem([base_config()] * 2, compute_traces(2))
        system.cores[1].cycle += 2_000_000
        system.run(until_committed_each=800)
        for core in system.cores:
            assert core.committed_total >= 800

    def test_prewarm_budget_split_evenly(self):
        system = MultiCoreSystem([base_config()] * 4, compute_traces(4))
        seen = []
        for core in system.cores:
            core.prewarm = (
                lambda budget_fraction, _seen=seen:
                _seen.append(budget_fraction))
        system.prewarm()
        assert seen == [pytest.approx(0.625 / 4)] * 4

    def test_core_order_permutation_invariant(self):
        """With zero shared state (pure-ALU traces, disjoint PC ranges,
        pre-warmed I-caches) each trace's result must not depend on
        which core slot it runs in."""
        chains = {
            "straight": [ialu(i, dst=1 + (i % 8)) for i in range(1200)],
            "chained": [ialu(8192 + i, dst=1 + (i % 3),
                             srcs=(1 + ((i + 1) % 3),))
                        for i in range(1200)],
        }

        def per_program(order):
            traces = [make_trace(chains[name], name=name)
                      for name in order]
            system = MultiCoreSystem([base_config()] * 2, traces)
            for core in system.cores:
                warm_icache(core, CODE_BASE, CODE_BASE + 4 * 9400)
            system.run(until_committed_each=1200)
            return {r.program: (r.cycles, r.instructions)
                    for r in system.results()}

        assert per_program(("straight", "chained")) == \
            per_program(("chained", "straight"))

    def test_run_twice_is_deterministic(self):
        def fingerprint():
            traces = [generate_trace(profile(p), n_ops=7000, seed=3)
                      for p in ("leslie3d", "gcc")]
            system = simulate_multicore([dynamic_config(3)] * 2, traces,
                                        warmup=1500, measure=4000)
            return [(r.cycles, r.instructions, r.ipc)
                    for r in system.results()]
        assert fingerprint() == fingerprint()


class TestChannelAccounting:
    def test_banked_memory_utilisation(self):
        from dataclasses import replace
        cfg = base_config()
        cfg = replace(cfg, memory=replace(cfg.memory,
                                          organisation="banked"))
        traces = [generate_trace(profile(p), n_ops=7000, seed=3)
                  for p in ("libquantum", "leslie3d")]
        system = simulate_multicore([cfg] * 2, traces,
                                    warmup=1500, measure=4000)
        # a memory-heavy pair keeps the banked channel busy; the call
        # itself re-checks the schedule-headroom invariant
        assert system.channel_utilisation() > 0.0

    def test_corrupt_busy_accounting_raises(self):
        system = MultiCoreSystem([base_config()] * 2, compute_traces(2))
        system.run(until_committed_each=500)
        system.shared_memory.busy_cycles += 10_000_000
        with pytest.raises(AssertionError, match="corrupt"):
            system.channel_utilisation()


class TestContention:
    def test_shared_memory_slows_memory_core(self):
        """A memory-bound core runs slower next to another memory-bound
        core than next to a compute core (channel contention)."""
        def leslie_ipc(neighbour):
            traces = [generate_trace(profile("leslie3d"), 7000, seed=3),
                      generate_trace(profile(neighbour), 7000, seed=4)]
            system = simulate_multicore([base_config()] * 2, traces,
                                        warmup=1500, measure=4000)
            return system.results()[0].ipc
        assert leslie_ipc("sjeng") > leslie_ipc("libquantum")

    def test_resizing_pays_at_chip_level(self):
        programs = ("leslie3d", "sphinx3")
        def chip_ipc(config):
            traces = [generate_trace(profile(p), 7000, seed=3)
                      for p in programs]
            system = simulate_multicore([config] * 2, traces,
                                        warmup=1500, measure=4000)
            return system.aggregate_ipc()
        assert chip_ipc(dynamic_config(3)) > 1.15 * chip_ipc(base_config())


class TestObservers:
    def test_hooks_fire_under_the_system_scheduler(self):
        """The system steps each core through ``step_cycle`` and
        ``advance`` directly, never through ``Processor.run``: observers
        attached to a core must see every one of those steps."""
        from repro.debug import Sanitizer
        from repro.telemetry import TelemetryProbe
        traces = [generate_trace(profile(p), n_ops=4_000, seed=1)
                  for p in ("libquantum", "gcc")]
        system = MultiCoreSystem([dynamic_config(3)] * 2, traces)
        core = system.cores[0]
        sanitizer = Sanitizer(core)
        probe = TelemetryProbe(period=64).attach(core)
        system.run(until_committed_each=3_000)
        tel = probe.finish()
        sanitizer.final_check()
        assert (sum(s.committed for s in tel.samples)
                == core.stats.committed_uops == 3_000)
        transitions = (core.stats.enlarge_transitions
                       + core.stats.shrink_transitions)
        assert sanitizer.events.counts()["level"] == transitions == 10
