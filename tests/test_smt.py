"""SMT pipeline: partitioned window shared by 2-4 hardware threads."""

from functools import lru_cache

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
from repro.verify.oracles import SMOKE_MEASURE, SMOKE_WARMUP, smoke_trace
from repro.verify.smt_oracles import BASELINE_PROGRAMS
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

    def test_single_thread_fetch_stalls_match_baseline(self):
        """A fetch-stalled SMT thread counts its stall cycles as the
        single-thread core does, on evaluated cycles and across idle
        jumps (the digest leaves the counter out)."""
        stalls = {}
        for program in BASELINE_PROGRAMS:
            trace = smoke_trace(program)
            run = simulate_smt(smt_config(1, "equal", "icount", 3), [trace],
                               warmup=SMOKE_WARMUP, measure=SMOKE_MEASURE)
            base = simulate(fixed_config(3), trace, warmup=SMOKE_WARMUP,
                            measure=SMOKE_MEASURE)
            stalls[program] = (run.threads[0].stats.fetch_stall_cycles,
                               base.stats.fetch_stall_cycles)
        assert all(smt == base for smt, base in stalls.values()), stalls
        assert any(base for __, base in stalls.values()), stalls

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


@lru_cache(maxsize=None)
def _pin_trace(program):
    return generate_trace(profile(program), n_ops=20_000, seed=1)


#: (programs, partition, fetch) -> (aggregate digest, per-thread digests,
#: per-thread ``dispatch_stall_cycles``, per-thread
#: ``fetch_stall_cycles``) of a 20,000-op seed-1 run with 800 warmup +
#: 2,000 measured commits per thread.  The stall counters are pinned
#: separately because the digest leaves them out.
SMT_PINS = {
    (("libquantum", "sjeng"), "mlp", "mlp"): (
        "1ab06a56b3f13cf8b0d084afb8af042c99a7dbf60b2807f56345daa86050b5c9",
        ("fa907cb8ce7a00ba7c868c1c83c642be59dab8542fa255438a358b2f53258c6a",
         "82c74002d12102b4c8bced7d3a318471a3fb928bf7214c8fc5b0f9813a6d462b"),
        (2893, 2205),
        (0, 2680)),
    (("libquantum", "sjeng"), "mlp", "icount"): (
        "8c2395f70b62fb5512d8dc2803072016722f8aeeb2340482f79c43296fe6ec1a",
        ("3522c08037087965b46225ff86fbaad5322dfb026a5c7a568731951a0269af77",
         "dc1a1a172c64c240a34e46af0c90c94fedf39ad935eb3a06f81123ecd9e3d775"),
        (2541, 1803),
        (0, 2319)),
    (("libquantum", "sjeng"), "mlp", "roundrobin"): (
        "2775fd0fde7b1dba8e2a16d6f4cf1ad6e15fae24bb7348511d9b8d5edfd85cb5",
        ("881351212fff0944f813ccd063cb46e6fb137097f57b9c6914e73043aab88dca",
         "46906c20ca06768fde5b1936374f1931a28dac5574d492afe05c7aeeaa5657c5"),
        (2388, 1680),
        (0, 2309)),
    (("libquantum", "sjeng"), "equal", "mlp"): (
        "b61e6ac7d8c435ebd5980057c8a11149b8586e88163659d0c10e3dc038419449",
        ("c6d58122623c4eb1584414fd955ee9042039d6b57a4b431439513eb212e43394",
         "e7d6b4fa72a80c453354b8547547136bb1d4f1a3cf761bce571673a020983785"),
        (2040, 1410),
        (0, 2088)),
    (("libquantum", "sjeng"), "equal", "icount"): (
        "42c9b58372ce52b333f09b93824fb58d353a146f534f0b6d60b0417ddf08eb8b",
        ("90084312fe237152c672002e9050500e07e922c035591aefb17c33430d66a12b",
         "a414b507a31a7fd596c15c5f57eda852532f85ee1193fde829474458a048e0f9"),
        (1909, 1280),
        (0, 1812)),
    (("libquantum", "sjeng"), "equal", "roundrobin"): (
        "67c2f7643648b681b19c3119a37cae88f8007f45b706b3523e7de285934f202f",
        ("42372b45b08d293de3b440d38c4daeb4cce2a0881edc988126d93e689a901718",
         "2166582ab5d817d984cb6df2a0c5a4c65fc0b8e4a8d9fa1ddb735693509d41d1"),
        (2202, 1506),
        (0, 2494)),
    (("libquantum", "sjeng"), "shared", "mlp"): (
        "962f9858df43d3a26b9b3ea1dc7d996a09586f17ef5dc9ab9698bb7fae1ecdd6",
        ("cc5f7390644b78cfbec8d1be63592f2e19ec57775db1afa6e16aa71e70565c18",
         "7cddb03bda46c135609661623d3a622e2899d903b6a17fc1b70f03b44d665b2c"),
        (3056, 2324),
        (0, 3272)),
    (("libquantum", "sjeng"), "shared", "icount"): (
        "88087ac6561d983a809cbcbd4f39e4f785e9634cb7b1368a68599d8d9fc52fe5",
        ("b971f500f705fd39f3d68625d717d8ba721fc71eac8d7cdc7582c6853206886d",
         "3b1258b13c56ccdd50c7dee34ff0cb22f66c8e0fdb79e446e53e2760bc771b52"),
        (3736, 2773),
        (0, 3723)),
    (("libquantum", "sjeng"), "shared", "roundrobin"): (
        "fcf2fce087999f2f4780634a68ec28e017b0bfe204c3cca46c117c203fbb7419",
        ("fb67a3e1881d5350adebdd1fc4a4d77c2c1152dcfa4521e58f27612a6a06bedd",
         "17423adeedac26089e1a775cadf0db9bfed6478283cb099fabd5844ea4b0f427"),
        (2939, 2434),
        (0, 2741)),
    (("milc", "gcc", "libquantum"), "mlp", "mlp"): (
        "ef45941f4475c570ce70cb2ab9fa8079319a91973a88072139d23b165cb3e8e7",
        ("b49e8a8befe7c2b59f445475b36927a3cff4ceb3795e6efaa5fb6b1e95214f16",
         "7e1d6e89e59d2837c0570a023afc62c564f15b79dd3b681df58b3efaac513b67",
         "67099aeb1aad488b1cf694915d6ce68f79f60b5adb7250be5d29aa95cc5edf26"),
        (8449, 7200, 7233),
        (2939, 5183, 2401)),
    (("mcf", "lbm", "gcc", "sjeng"), "equal", "icount"): (
        "8edb1a653f07a43202444ccaf616906ab426fa3214a12b30b6fc8f6b373dffd0",
        ("527d7e774937f09145091cd2cffaf016e0867d2ffd95f42912bcb1bd7d178e26",
         "9d294f92ae06247df9fde6de086747e0aaddbfce0ce0d027cfd115e27013c165",
         "c191a7b16d8c80e1a8371a41db02abb0adf78b881a69e76e099c3f17e15a7558",
         "04820d28647e5942c43b488ad9e39141a56f72e40ba032bfe90af1dd97993f83"),
        (19665, 16821, 16494, 0),
        (4383, 2662, 5310, 0)),
}

_FF_DEFECT = (
    "SMT fast-forward is not exact: _next_interesting_cycle has no "
    "candidate for an unstalled thread that could fetch next cycle but "
    "was not selected, and the commit/dispatch rotation pointers advance "
    "once per evaluated step, so a jump leaves them elsewhere than "
    "stepping does")


@pytest.mark.parametrize("programs,partition,fetch", list(SMT_PINS),
                         ids=["+".join(p) + f"-{q}-{f}"
                              for p, q, f in SMT_PINS])
def test_smt_digests_pinned(programs, partition, fetch):
    """Every partition x fetch pair on a memory/compute pair, plus a
    3- and a 4-thread mix, pinned bit for bit per thread and in
    aggregate: the thread-indexed stages must keep every SMT run's
    timing."""
    aggregate, per_thread, dispatch_stalls, fetch_stalls = SMT_PINS[
        (programs, partition, fetch)]
    run = simulate_smt(smt_config(len(programs), partition, fetch, 3),
                       [_pin_trace(p) for p in programs],
                       warmup=800, measure=2000)
    assert result_digest(run.aggregate) == aggregate
    assert tuple(result_digest(r) for r in run.threads) == per_thread
    assert tuple(r.stats.dispatch_stall_cycles
                 for r in run.threads) == dispatch_stalls
    assert tuple(r.stats.fetch_stall_cycles
                 for r in run.threads) == fetch_stalls


@pytest.mark.xfail(strict=True, reason=_FF_DEFECT)
@pytest.mark.parametrize("partition,fetch", [
    ("mlp", "mlp"), ("equal", "icount"), ("shared", "roundrobin")])
def test_fast_forward_matches_stepping(partition, fetch):
    """Stepping every cycle must reproduce the idle jump's results, as
    it does on the single-thread core (the ff-equivalence oracle)."""
    config = smt_config(2, partition, fetch, 3)
    traces = [_pin_trace(p) for p in ("libquantum", "sjeng")]
    jumped = simulate_smt(config, traces, warmup=800, measure=2000)
    proc = SMTProcessor(config, traces)
    proc.fast_forward = False
    proc.prewarm()
    proc.run(until_committed=800)
    proc.reset_measurement()
    proc.run(until_committed=2800)
    stepped = [digest_payload(r) for r in proc.results()]
    assert stepped == [digest_payload(r) for r in jumped.threads]
    assert (digest_payload(proc.aggregate_result())
            == digest_payload(jumped.aggregate))
