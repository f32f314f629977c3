"""SMT pipeline: partitioned window shared by 2-4 hardware threads."""

import pytest

from repro.config import (
    LEVEL_TABLE,
    SMTConfig,
    config_fingerprint,
    fixed_config,
    smt_config,
)
from repro.core.partition import make_partition_policy
from repro.pipeline.core import simulate
from repro.pipeline.resources import WindowSet
from repro.pipeline.smt import SMTProcessor, simulate_smt
from repro.verify.digest import diff_payloads, digest_payload, result_digest
from repro.workloads import generate_trace, profile


def traces_for(programs, n_ops=9000, seed=1):
    return [generate_trace(profile(p), n_ops=n_ops, seed=seed)
            for p in programs]


class TestConfig:
    @pytest.mark.parametrize("threads", [0, 5])
    def test_thread_bounds(self, threads):
        with pytest.raises(ValueError, match="1..4"):
            SMTConfig(threads=threads)

    def test_unknown_policies(self):
        with pytest.raises(ValueError, match="partition"):
            SMTConfig(partition="nope")
        with pytest.raises(ValueError, match="fetch"):
            SMTConfig(fetch="nope")

    def test_model_restriction(self):
        from repro.config import ModelKind, ProcessorConfig
        with pytest.raises(ValueError, match="SMT"):
            ProcessorConfig(model=ModelKind.RUNAHEAD, smt=SMTConfig())

    def test_fingerprints_distinguish_smt_jobs(self):
        # smt=None is excluded from the fingerprint (pre-SMT cache
        # entries stay addressable), so an SMT config must hash
        # differently from the plain config and from other SMT shapes.
        plain = config_fingerprint(fixed_config(3))
        one = config_fingerprint(smt_config(1, "equal", "icount"))
        two = config_fingerprint(smt_config(2, "equal", "icount"))
        three = config_fingerprint(smt_config(3, "equal", "icount"))
        assert len({plain, one, two, three}) == 4


class TestPartitionPolicies:
    @pytest.mark.parametrize("name", ["mlp", "equal"])
    @pytest.mark.parametrize("levels", [(1, 3), (2, 2, 3), (1, 1, 1, 3)])
    def test_quotas_partition_the_window(self, name, levels):
        """Partitioned quotas are disjoint by construction; they must
        sum exactly to each resource's capacity with no thread at 0."""
        window = WindowSet(LEVEL_TABLE, 3, max_level=3)
        policy = make_partition_policy(name, LEVEL_TABLE, 3)
        quotas = policy.quotas(list(levels), window)
        assert policy.partitioned
        for axis, cap in ((0, window.iq.capacity),
                          (1, window.rob.capacity),
                          (2, window.lsq.capacity)):
            shares = [q[axis] for q in quotas]
            assert sum(shares) == cap
            assert min(shares) >= 1

    def test_mlp_biases_toward_deeper_level(self):
        window = WindowSet(LEVEL_TABLE, 3, max_level=3)
        policy = make_partition_policy("mlp", LEVEL_TABLE, 3)
        shallow, deep = policy.quotas([1, 3], window)
        assert deep[1] > shallow[1]  # ROB share tracks the level
        assert policy.depth_level(0, [1, 3], shallow[1]) == 1
        assert policy.depth_level(1, [1, 3], deep[1]) == 3

    def test_equal_single_thread_degrades_to_full_window(self):
        window = WindowSet(LEVEL_TABLE, 3, max_level=3)
        policy = make_partition_policy("equal", LEVEL_TABLE, 3)
        (quota,) = policy.quotas([3], window)
        assert quota == (window.iq.capacity, window.rob.capacity,
                         window.lsq.capacity)
        assert policy.depth_level(0, [3], quota[1]) == 3

    def test_shared_gives_every_thread_full_capacity(self):
        window = WindowSet(LEVEL_TABLE, 3, max_level=3)
        policy = make_partition_policy("shared", LEVEL_TABLE, 3)
        quotas = policy.quotas([3, 3, 3], window)
        assert not policy.partitioned
        full = (window.iq.capacity, window.rob.capacity,
                window.lsq.capacity)
        assert quotas == [full, full, full]

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown partition"):
            make_partition_policy("nope", LEVEL_TABLE, 3)


class TestConstruction:
    def test_requires_smt_config(self):
        with pytest.raises(ValueError, match="config.smt"):
            SMTProcessor(fixed_config(3), traces_for(("gcc",)))

    def test_trace_count_must_match_threads(self):
        with pytest.raises(ValueError, match="threads"):
            SMTProcessor(smt_config(2), traces_for(("gcc",)))


class TestExecution:
    def test_single_thread_matches_baseline(self):
        """1-thread SMT under the equal partition is bit-identical to
        the single-core fixed model (the verify-smt pin oracle)."""
        trace = generate_trace(profile("gcc"), n_ops=6000, seed=2)
        run = simulate_smt(smt_config(1, "equal", "icount", 3), [trace],
                           warmup=1000, measure=3000)
        base = simulate(fixed_config(3), trace, warmup=1000, measure=3000)
        diffs = diff_payloads(digest_payload(run.threads[0]),
                              digest_payload(base))
        assert not diffs, diffs[:4]

    @pytest.mark.parametrize("partition,fetch", [
        ("mlp", "mlp"), ("equal", "icount"), ("shared", "icount")])
    def test_validated_two_thread_run(self, partition, fetch):
        """validate=True re-checks after every cycle that quotas sum to
        the active capacity, per-thread occupancies sum to the shared
        occupancy, and each thread commits its trace in order."""
        traces = traces_for(("libquantum", "sjeng"), n_ops=20_000)
        run = simulate_smt(smt_config(2, partition, fetch, 3), traces,
                           warmup=800, measure=2000, validate=True)
        assert all(r.instructions > 0 for r in run.threads)
        assert run.throughput() > 0

    def test_aggregate_sums_threads(self):
        traces = traces_for(("libquantum", "sjeng"), n_ops=20_000)
        run = simulate_smt(smt_config(2, "mlp", "mlp", 3), traces,
                           warmup=800, measure=2000)
        agg = run.aggregate
        assert agg.program == "libquantum+sjeng"
        assert agg.model == "smt2-mlp"
        assert agg.instructions == sum(r.instructions for r in run.threads)

    def test_run_twice_is_deterministic(self):
        def digests():
            traces = traces_for(("libquantum", "sjeng"), n_ops=20_000)
            run = simulate_smt(smt_config(2, "equal", "icount", 3),
                               traces, warmup=800, measure=2000)
            return [digest_payload(r) for r in run.threads]
        first, second = digests(), digests()
        assert first == second

    def test_two_thread_digest_pinned(self):
        """The aggregate of a two-thread run is pinned bit for bit.  The
        golden digests cover single-core runs only; this run also covers
        per-thread prewarm spans at each thread's address offset."""
        traces = traces_for(("milc", "sjeng"), n_ops=7000, seed=3)
        run = simulate_smt(smt_config(2), traces, warmup=1500, measure=4000)
        assert result_digest(run.aggregate) == (
            "0d8eeb59a9b29071e80ecfb9019ad6c0"
            "565fad7b41796822d14219b3dbb474c4")

    def test_roundrobin_fetch_runs(self):
        traces = traces_for(("gcc", "sjeng"), n_ops=20_000)
        run = simulate_smt(smt_config(2, "equal", "roundrobin", 3),
                           traces, warmup=600, measure=1500)
        assert all(r.instructions > 0 for r in run.threads)
