"""Simulator-throughput benchmarks (not paper artefacts).

These track the *host* cost of simulation — committed micro-ops per
host-second — so performance regressions in the cycle loop show up in
benchmark history.  Compute-bound and memory-bound workloads, since
they stress different parts of the loop (issue bandwidth vs the event
heap and fast-forward).  The repository's end-to-end and per-layer
benchmark is ``python3 perfbench/run.py``.
"""

import pytest

from repro.config import base_config, dynamic_config
from repro.pipeline import Processor
from repro.workloads import generate_trace, profile

MEASURE = 6_000


def set_up(config, trace):
    proc = Processor(config, trace)
    proc.prewarm()
    return proc


def run_once(config, trace):
    proc = set_up(config, trace)
    proc.run(until_committed=MEASURE)
    return proc


@pytest.fixture(scope="module")
def gcc_trace():
    return generate_trace(profile("gcc"), n_ops=MEASURE + 1000, seed=1)


@pytest.fixture(scope="module")
def leslie_trace():
    return generate_trace(profile("leslie3d"), n_ops=MEASURE + 1000, seed=1)


def test_speed_compute_bound(benchmark, gcc_trace):
    proc = benchmark.pedantic(run_once, args=(base_config(), gcc_trace),
                              rounds=3, iterations=1)
    assert proc.committed_total >= MEASURE
    benchmark.extra_info["simulated_cycles"] = proc.stats.cycles


def test_speed_memory_bound(benchmark, leslie_trace):
    proc = benchmark.pedantic(run_once, args=(base_config(), leslie_trace),
                              rounds=3, iterations=1)
    assert proc.committed_total >= MEASURE
    benchmark.extra_info["simulated_cycles"] = proc.stats.cycles


def test_speed_setup(benchmark, leslie_trace):
    """Construction plus prewarm alone; leslie3d's warm regions fill
    the whole prewarm budget (20,480 L2 lines)."""
    proc = benchmark.pedantic(set_up, args=(base_config(), leslie_trace),
                              rounds=5, iterations=1)
    assert proc.committed_total == 0


def test_speed_memory_bound_mlp(benchmark):
    trace = generate_trace(profile("milc"), n_ops=MEASURE + 1000, seed=1)
    proc = benchmark.pedantic(run_once, args=(base_config(), trace),
                              rounds=3, iterations=1)
    assert proc.committed_total >= MEASURE
    benchmark.extra_info["simulated_cycles"] = proc.stats.cycles


def test_speed_dynamic_model(benchmark, leslie_trace):
    proc = benchmark.pedantic(run_once, args=(dynamic_config(3), leslie_trace),
                              rounds=3, iterations=1)
    assert proc.committed_total >= MEASURE
    benchmark.extra_info["simulated_cycles"] = proc.stats.cycles


def test_speed_trace_generation(benchmark):
    trace = benchmark.pedantic(
        generate_trace, args=(profile("omnetpp"),),
        kwargs={"n_ops": 20_000, "seed": 3}, rounds=3, iterations=1)
    assert len(trace.ops) == 20_000
