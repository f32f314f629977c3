"""A finished simulation leaves nothing for the garbage collector.

No component of a machine holds a strong reference back to what owns
it, and the observers whose back reference is how they work are
detached by the call that owns the machine (docs/architecture.md, "Runs,
segments and observers").  So reference counting frees the whole
machine when that call returns.  Each case runs with the collector
off; a ``gc.DEBUG_SAVEALL`` collection afterwards keeps everything that
only the collector could have freed, and no instance of a ``repro``
class may be among it.  Filtering by class keeps the check immune to
whatever else the test process leaves behind.
"""

import gc
from collections import Counter

import pytest

from repro.config import (
    dynamic_config,
    fixed_config,
    ideal_config,
    runahead_config,
    smt_config,
)
from repro.core.policies import make_policy
from repro.experiments.cache import ResultStore
from repro.experiments.parallel import execute_campaign, plan_campaign
from repro.experiments.runner import Settings
from repro.multicore import simulate_multicore
from repro.pipeline import simulate
from repro.pipeline.smt import simulate_smt
from repro.telemetry import TelemetryProbe
from repro.workloads import trace_for_program

WARMUP, MEASURE = 500, 1_500


@pytest.fixture(scope="module")
def traces():
    return {program: trace_for_program(program, n_ops=2_500, seed=1)
            for program in ("libquantum", "gcc", "mcf")}


def collector_garbage(run) -> Counter:
    """Call ``run()`` with the collector off and count, by class name,
    the ``repro`` instances that only a collection could free."""
    gc.collect()
    gc.disable()
    try:
        run()
        start = len(gc.garbage)
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
        finally:
            gc.set_debug(0)
        found = Counter(type(obj).__qualname__
                        for obj in gc.garbage[start:]
                        if type(obj).__module__.startswith("repro"))
        del gc.garbage[start:]
    finally:
        gc.enable()
    gc.collect()
    return found


def simulate_dynamic(trace, **kwargs):
    return simulate(dynamic_config(3), trace, warmup=WARMUP,
                    measure=MEASURE, **kwargs)


class TestSingleThread:
    @pytest.mark.parametrize("config,program", [
        (fixed_config(1), "libquantum"),
        (dynamic_config(3), "libquantum"),
        (ideal_config(3), "gcc"),
        (runahead_config(), "mcf"),
    ], ids=["fixed-1", "dynamic-3", "ideal-3", "runahead"])
    def test_models(self, traces, config, program):
        assert collector_garbage(lambda: simulate(
            config, traces[program], warmup=WARMUP,
            measure=MEASURE)) == Counter()

    def test_learned_policy(self, traces):
        config = dynamic_config(3)

        def run():
            policy = make_policy("bandit:ucb", config.level,
                                 config.memory.min_latency)
            simulate_dynamic(traces["libquantum"], policy=policy)

        assert collector_garbage(run) == Counter()

    def test_sanitized(self, traces):
        assert collector_garbage(lambda: simulate_dynamic(
            traces["gcc"], sanitize=True)) == Counter()

    def test_telemetry_probe(self, traces):
        def run():
            probe = TelemetryProbe(period=128)
            simulate_dynamic(traces["libquantum"], telemetry=probe)
            assert probe.telemetry.samples_emitted

        assert collector_garbage(run) == Counter()


class TestSharedMachines:
    def test_smt(self, traces):
        assert collector_garbage(lambda: simulate_smt(
            smt_config(2, "mlp", "mlp"),
            [traces["gcc"], traces["libquantum"]],
            warmup=WARMUP, measure=MEASURE)) == Counter()

    def test_multicore(self, traces):
        assert collector_garbage(lambda: simulate_multicore(
            [dynamic_config(3)] * 2, [traces["gcc"], traces["libquantum"]],
            warmup=WARMUP, measure=MEASURE)) == Counter()


def test_serial_campaign(tmp_path):
    """``_run_job``, ``_relabel`` (each ideal-1 job copies its fixed-1
    partner) and the energy annotation."""
    recorder = plan_campaign(("fig07",), Settings(
        warmup=WARMUP, measure=MEASURE,
        only_programs=("libquantum", "gcc")))
    store = ResultStore(str(tmp_path))

    def run():
        report = execute_campaign(recorder, store, jobs=1)
        assert report.shared == 2

    assert collector_garbage(run) == Counter()
