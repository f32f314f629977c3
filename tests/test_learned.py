"""Learned controllers: seeded bandits, distilled tables, determinism.

The determinism contract is the headline: exploration is a pure
function of ``(seed, draw_index)``, so the same seed replays
bit-identically across runs and worker processes, a different
seed keys a different content address, and the sanitizer/telemetry
instrumentation never perturbs a digest.
"""

from __future__ import annotations

import json

import pytest

from repro.config import LEVEL_TABLE, dynamic_config
from repro.core import (
    BANDIT_KINDS,
    BanditWindowPolicy,
    TablePolicy,
    make_policy,
    policy_specs,
    seeded_unit,
)
from repro.experiments.cache import (
    JobRecorder,
    JobSpec,
    ResultStore,
    policy_fingerprint,
    result_key,
)
from repro.experiments.parallel import execute_campaign
from repro.pipeline import WindowSet, simulate
from repro.verify.digest import result_digest
from repro.workloads import (
    ADVERSARIAL_PROFILES,
    ADVERSARIAL_PROGRAMS,
    adversarial_profile,
    generate_trace,
    profile,
    program_names,
)

CFG = dynamic_config(3)
WARMUP, MEASURE = 2_000, 6_000
TRACE_OPS = WARMUP + MEASURE + 1_000


def bandit(kind="ucb", seed=1, **kw):
    return BanditWindowPolicy(CFG.max_level, kind=kind, seed=seed, **kw)


def run_smoke(program, policy, *, sanitize=False, telemetry=None, seed=1):
    trace = generate_trace(profile(program), n_ops=TRACE_OPS, seed=seed)
    return simulate(CFG, trace, warmup=WARMUP, measure=MEASURE,
                    policy=policy, sanitize=sanitize, telemetry=telemetry)


class TestSeededUnit:
    def test_pure_function(self):
        assert seeded_unit(7, 42) == seeded_unit(7, 42)
        assert seeded_unit(7, 42, salt=1) == seeded_unit(7, 42, salt=1)

    def test_range(self):
        for i in range(500):
            assert 0.0 <= seeded_unit(3, i) < 1.0

    def test_sensitivity(self):
        base = seeded_unit(1, 1)
        assert seeded_unit(2, 1) != base
        assert seeded_unit(1, 2) != base
        assert seeded_unit(1, 1, salt=1) != base


@pytest.fixture
def window():
    return WindowSet(LEVEL_TABLE, level=1)


def drive(policy, window, cycles, rate_by_level, miss_every=200):
    """Tick the policy with a deterministic synthetic commit rate per
    level, applying its resize decisions like the processor would."""
    committed = 0
    for cycle in range(1, cycles + 1):
        committed += rate_by_level[policy.level]
        window.committed = committed
        if miss_every and cycle % miss_every == 0:
            policy.on_l2_miss(cycle)
        decision = policy.tick(cycle, window)
        if decision.new_level is not None:
            window.resize_to(decision.new_level)


class TestBanditPolicy:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown bandit kind"):
            BanditWindowPolicy(3, kind="thompson")

    @pytest.mark.parametrize("kind", BANDIT_KINDS)
    def test_no_misses_stays_level_one(self, window, kind):
        p = bandit(kind)
        drive(p, window, 30_000, {1: 2, 2: 3, 3: 4}, miss_every=0)
        assert p.level == 1

    @pytest.mark.parametrize("kind", BANDIT_KINDS)
    def test_stale_misses_fall_back_to_level_one(self, window, kind):
        """Eligibility needs *recent* misses: two at the start must not
        license exploration thousands of cycles later."""
        p = bandit(kind)
        p.on_l2_miss(10)
        p.on_l2_miss(20)
        drive(p, window, 30_000, {1: 2, 2: 3, 3: 4}, miss_every=0)
        assert p.level == 1

    def test_learns_small_window_under_misses(self, window):
        """Misses alone must not force enlargement (the anti-DYN case):
        when level 1 commits fastest the bandit must end there."""
        p = bandit("ucb")
        drive(p, window, 80_000, {1: 4, 2: 2, 3: 1})
        assert p._arm == 1 and p.level == 1

    def test_learns_large_window_under_misses(self, window):
        p = bandit("ucb")
        drive(p, window, 80_000, {1: 1, 2: 2, 3: 4})
        assert p._arm == 3

    def test_pin_degrades_to_static_fast_path(self):
        p = make_policy("bandit:ucb", 3, 300).pin(2)
        assert p.pinned_level == 2
        assert p.level == 2

    def test_seed_and_kind_in_fingerprint(self):
        prints = {policy_fingerprint(p) for p in (
            bandit("ucb", 1), bandit("ucb", 2),
            bandit("egreedy", 1), bandit("egreedy", 2))}
        assert len(prints) == 4

    def test_factory_parses_kind_and_seed(self):
        p = make_policy("bandit:egreedy:9", 3, 300)
        assert isinstance(p, BanditWindowPolicy)
        assert p.kind == "egreedy" and p.seed == 9

    @pytest.mark.parametrize("spec", ["bandit", "bandit:thompson",
                                      "bandit:ucb:x", "bandit:ucb:1:2"])
    def test_factory_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            make_policy(spec, 3, 300)


class TestTablePolicy:
    def test_bucket_mapping(self, window):
        p = TablePolicy(3, thresholds=(2, 8), levels=(1, 2, 3), period=64)
        window.committed = 0
        for miss_count, expect in ((0, 1), (3, 2), (50, 3)):
            p._misses = miss_count
            p._next_check = 0
            decision = p.tick(1, window)
            if decision.new_level is not None:
                window.resize_to(decision.new_level)
            assert p.level == expect or p._want_shrink

    def test_validation(self):
        with pytest.raises(ValueError, match="levels"):
            TablePolicy(3, thresholds=(1,), levels=(1,))
        with pytest.raises(ValueError, match="ascend"):
            TablePolicy(3, thresholds=(4, 1), levels=(1, 2, 3))
        with pytest.raises(ValueError, match="outside"):
            TablePolicy(3, thresholds=(1,), levels=(1, 9))

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(
            {"thresholds": [2, 8], "levels": [1, 2, 3], "period": 512}))
        p = TablePolicy.from_file(str(path), 3)
        assert p.thresholds == (2, 8)
        assert p.levels == (1, 2, 3)
        assert p.period == 512

    def test_from_file_missing_key(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"thresholds": [1]}))
        with pytest.raises(ValueError, match="missing key"):
            TablePolicy.from_file(str(path), 3)

    def test_contents_not_path_fingerprinted(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        payload = json.dumps({"thresholds": [2], "levels": [1, 3]})
        a.write_text(payload)
        b.write_text(payload)
        assert (policy_fingerprint(TablePolicy.from_file(str(a), 3))
                == policy_fingerprint(TablePolicy.from_file(str(b), 3)))


class TestSeededDeterminism:
    """Same seed => bit-identical; different seed => different key."""

    @pytest.mark.parametrize("kind", BANDIT_KINDS)
    def test_replay_bit_identical(self, kind):
        first = run_smoke("libquantum", bandit(kind))
        again = run_smoke("libquantum", bandit(kind))
        assert result_digest(first) == result_digest(again)

    def test_different_seed_different_result_key(self):
        keys = {result_key("mcf", CFG, seed=1, warmup=WARMUP,
                           measure=MEASURE, trace_ops=TRACE_OPS,
                           policy=bandit("egreedy", seed=s))
                for s in (1, 2, 3)}
        assert len(keys) == 3

    def test_different_seed_different_exploration(self):
        digests = {result_digest(run_smoke("mcf", bandit("egreedy", seed=s)))
                   for s in (1, 2, 3)}
        assert len(digests) == 3

    def test_sanitize_digest_identical(self):
        bare = run_smoke("libquantum", bandit("ucb"))
        checked = run_smoke("libquantum", bandit("ucb"), sanitize=True)
        assert result_digest(bare) == result_digest(checked)

    def test_telemetry_digest_identical_and_events_recorded(self):
        from repro.telemetry import TelemetryProbe
        bare = run_smoke("libquantum", bandit("ucb"))
        probe = TelemetryProbe(period=256)
        sampled = run_smoke("libquantum", bandit("ucb"), telemetry=probe)
        assert result_digest(bare) == result_digest(sampled)
        assert probe.telemetry.event_counts.get("pull", 0) > 0
        assert probe.telemetry.event_counts.get("reward", 0) > 0
        assert BanditWindowPolicy.listener is None

    def test_cross_process_bit_identical(self, tmp_path):
        """A bandit job through the campaign worker pool must match the
        in-process run — no process-local state in exploration."""
        recorder = JobRecorder()
        spec = JobSpec(
            key=result_key("libquantum", CFG, seed=1, warmup=WARMUP,
                           measure=MEASURE, trace_ops=TRACE_OPS,
                           policy=bandit("ucb")),
            program="libquantum", config=CFG, policy=bandit("ucb"),
            seed=1, warmup=WARMUP, measure=MEASURE, trace_ops=TRACE_OPS)
        recorder.record(spec)
        store = ResultStore(str(tmp_path))
        execute_campaign(recorder, store, jobs=2)
        shipped = store.get(spec.key)
        assert shipped is not None
        local = run_smoke("libquantum", bandit("ucb"))
        assert result_digest(shipped) == result_digest(local)


class TestAdversarialWorkloads:
    def test_registry_contents(self):
        assert set(ADVERSARIAL_PROGRAMS) == {
            "adv_phaseflip", "adv_missburst", "adv_deceptive"}
        for name in ADVERSARIAL_PROGRAMS:
            assert adversarial_profile(name).name == name

    def test_not_in_paper_table(self):
        assert not set(ADVERSARIAL_PROGRAMS) & set(program_names())

    def test_profile_lookup_falls_back(self):
        for name in ADVERSARIAL_PROGRAMS:
            assert profile(name) is ADVERSARIAL_PROFILES[name]

    def test_unknown_adversarial_name(self):
        with pytest.raises(KeyError, match="unknown adversarial"):
            adversarial_profile("adv_nope")

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_PROGRAMS))
    def test_traces_generate(self, name):
        trace = generate_trace(adversarial_profile(name), n_ops=2_000,
                               seed=1)
        assert len(trace.ops) == 2_000


class TestRegistryDocsSync:
    def test_error_lists_every_spec(self):
        with pytest.raises(ValueError) as err:
            make_policy("bogus", 3, 300)
        for spec in policy_specs():
            assert spec in str(err.value)

    def test_handbook_covers_every_family(self):
        import os
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(here, "docs", "policies.md"),
                  encoding="utf-8") as fh:
            handbook = fh.read()
        for spec in policy_specs():
            assert f"`{spec}`" in handbook, (
                f"docs/policies.md is missing the registry spec {spec!r}")
