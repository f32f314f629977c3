"""Correctness of the content-addressed result store and its keys.

A cache is only as trustworthy as its key: these tests pin down that
every input that can change a simulation's outcome — any config field,
the trace seed, the sample sizes, the simulator version tag — produces
a distinct key, and that a disk round-trip returns results equal to the
originals.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle


import pytest

from repro.config import base_config, dynamic_config, config_fingerprint
from repro.core.policies import OccupancyPolicy, StaticPolicy
from repro.experiments import cache as result_cache
from repro.experiments.cache import ResultStore, policy_fingerprint, result_key
from repro.experiments.runner import Settings, Sweep
from repro.pipeline import simulate
from repro.workloads import generate_trace, profile


def _small_result(program="gcc", seed=1, measure=1_500):
    trace = generate_trace(profile(program), n_ops=measure + 1_500, seed=seed)
    return simulate(base_config(), trace, warmup=1_000, measure=measure)


def _key(**overrides):
    base = dict(seed=1, warmup=1_000, measure=2_000, trace_ops=4_000,
                policy=None, key_extra=None)
    base.update(overrides)
    config = base.pop("config", base_config())
    program = base.pop("program", "gcc")
    return result_key(program, config, **base)


class TestResultKey:
    def test_stable_across_calls(self):
        assert _key() == _key()

    def test_program_and_seed_and_samples_matter(self):
        reference = _key()
        assert _key(program="leslie3d") != reference
        assert _key(seed=2) != reference
        assert _key(warmup=1_001) != reference
        assert _key(measure=2_001) != reference
        assert _key(trace_ops=4_001) != reference

    def test_any_config_field_invalidates(self):
        """Every top-level config field change must produce a new key —
        the historical foot-gun was a hand-enumerated key that silently
        aliased configs differing in a non-enumerated field."""
        config = base_config()
        reference = _key(config=config)
        changed = [
            dataclasses.replace(config, transition_penalty=9),
            dataclasses.replace(
                config, l2=dataclasses.replace(config.l2, size_bytes=config.l2.size_bytes * 2)),
            dataclasses.replace(
                config, l1d=dataclasses.replace(config.l1d, hit_latency=config.l1d.hit_latency + 1)),
            dataclasses.replace(
                config, memory=dataclasses.replace(config.memory, model_writebacks=not config.memory.model_writebacks)),
            dataclasses.replace(
                config, prefetcher=dataclasses.replace(config.prefetcher, degree=config.prefetcher.degree + 1)),
            dynamic_config(3),
        ]
        keys = {_key(config=c) for c in changed}
        assert reference not in keys
        assert len(keys) == len(changed)

    def test_version_tag_invalidates(self, monkeypatch):
        import repro.pipeline.core as core
        reference = _key()
        monkeypatch.setattr(core, "SIM_VERSION", core.SIM_VERSION + "-next")
        assert _key() != reference

    def test_policy_fingerprint_distinguishes(self):
        assert (policy_fingerprint(StaticPolicy(1))
                != policy_fingerprint(StaticPolicy(2)))
        assert (policy_fingerprint(OccupancyPolicy(3))
                != policy_fingerprint(OccupancyPolicy(3, period=4096)))
        assert (policy_fingerprint(OccupancyPolicy(3))
                == policy_fingerprint(OccupancyPolicy(3)))
        assert policy_fingerprint(None) == policy_fingerprint(None)

    def test_key_extra_still_separates(self):
        assert _key(key_extra=("variant", 1)) != _key(key_extra=("variant", 2))


class TestResultStore:
    def test_memory_roundtrip(self):
        store = ResultStore(None)
        result = _small_result()
        store.put("k" * 64, result)
        assert store.get("k" * 64) is result
        assert store.hits == 1 and store.misses == 0

    def test_disk_roundtrip_equal_results(self, tmp_path):
        result = _small_result()
        writer = ResultStore(str(tmp_path))
        key = _key()
        writer.put(key, result)

        reader = ResultStore(str(tmp_path))   # fresh process stand-in
        loaded = reader.get(key)
        assert loaded is not None
        assert reader.disk_hits == 1
        for fld in dataclasses.fields(type(result)):
            if fld.name == "stats":
                continue
            assert getattr(loaded, fld.name) == getattr(result, fld.name), fld.name
        assert loaded.stats.committed_uops == result.stats.committed_uops
        assert loaded.stats.miss_intervals() == result.stats.miss_intervals()
        assert loaded.stats.activity.as_dict() == result.stats.activity.as_dict()

    def test_miss_on_unknown_key(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert store.get("0" * 64) is None
        assert store.misses == 1

    @pytest.mark.parametrize("garbage", [
        b"truncated garbage",   # invalid leading opcode -> UnpicklingError
        b"garbage\n",           # valid opcode, bad operand -> ValueError
        b"",                    # empty file -> EOFError
    ])
    def test_corrupt_file_is_a_miss(self, tmp_path, garbage):
        store = ResultStore(str(tmp_path))
        key = _key()
        store.put(key, _small_result())
        path = store._path(key)
        with open(path, "wb") as fh:
            fh.write(garbage)
        fresh = ResultStore(str(tmp_path))
        assert fresh.get(key) is None

    def test_clear_disk(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(_key(), _small_result())
        store.put(_key(seed=2), _small_result())
        assert store.disk_entries() == 2
        assert store.clear_disk() == 2
        assert store.disk_entries() == 0


def _racing_writer(directory, key, seed, barrier):
    """Child-process body: everyone writes the same key at once."""
    store = ResultStore(directory)
    result = _small_result(seed=seed, measure=1_500)
    barrier.wait(timeout=30)
    for __ in range(5):
        store.put(key, result)
    os._exit(0)


class TestConcurrentAccess:
    def test_racing_writers_leave_a_whole_entry(self, tmp_path):
        """N processes hammering one key: last atomic replace wins, the
        file is never a torn mix of two writers."""
        key = _key()
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(4)
        procs = [ctx.Process(target=_racing_writer,
                             args=(str(tmp_path), key, seed, barrier))
                 for seed in (1, 2, 3, 4)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        loaded = ResultStore(str(tmp_path)).get(key)
        assert loaded is not None
        # the survivor is bit-identical to one of the contenders
        candidates = {seed: _small_result(seed=seed, measure=1_500)
                      for seed in (1, 2, 3, 4)}
        assert any(loaded.cycles == c.cycles and loaded.ipc == c.ipc
                   for c in candidates.values())
        # and no stray temp files survived the stampede
        leftovers = [name for __, d, names in os.walk(tmp_path)
                     for name in names if name.endswith(".tmp")]
        assert leftovers == []

    def test_reader_sees_half_written_entry_as_miss(self, tmp_path):
        """A reader racing a (non-atomic, simulated) partial write gets
        a miss, not garbage — and the next put repairs the entry."""
        store = ResultStore(str(tmp_path))
        key = _key()
        result = _small_result()
        store.put(key, result)
        path = store._path(key)
        whole = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(whole[: len(whole) // 2])

        fresh = ResultStore(str(tmp_path))
        assert fresh.get(key) is None
        assert fresh.misses == 1
        fresh.put(key, result)
        repaired = ResultStore(str(tmp_path)).get(key)
        assert repaired is not None
        assert repaired.cycles == result.cycles

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        """A writer dying mid-``put`` must not litter the shard with
        temp files (they would accumulate forever in a long-lived
        serving process)."""
        store = ResultStore(str(tmp_path))
        key = _key()

        def explode(*args, **kwargs):
            raise OSError("disk full (injected)")

        monkeypatch.setattr(pickle, "dump", explode)
        with pytest.raises(OSError, match="injected"):
            store.put(key, _small_result())
        monkeypatch.undo()
        shard = os.path.dirname(store._path(key))
        assert [n for n in os.listdir(shard)
                if n.endswith(".tmp")] == []
        assert not os.path.exists(store._path(key))


class TestPrune:
    def _stocked(self, tmp_path, ages):
        """A store with one entry per requested age (seconds ago)."""
        store = ResultStore(str(tmp_path))
        result = _small_result()
        now = 1_700_000_000.0
        keys = []
        for index, age in enumerate(ages):
            key = _key(seed=100 + index)
            store.put(key, result)
            os.utime(store._path(key), (now - age, now - age))
            keys.append(key)
        return store, keys, now

    def test_prune_by_age(self, tmp_path):
        store, keys, now = self._stocked(tmp_path, [10, 1_000, 100_000])
        report = store.prune(max_age=3_600, now=now)
        assert report.scanned == 3
        assert report.removed == 1
        assert report.kept == 2
        survivors = {key for key, *__ in store.iter_disk()}
        assert survivors == set(keys[:2])
        assert report.kept_bytes == store.disk_bytes()

    def test_prune_by_bytes_evicts_lru(self, tmp_path):
        store, keys, now = self._stocked(tmp_path, [10, 20, 30, 40])
        entry_bytes = store.disk_bytes() // 4
        report = store.prune(max_bytes=2 * entry_bytes, now=now)
        assert report.removed == 2
        # the two *oldest* (largest age) went first
        survivors = {key for key, *__ in store.iter_disk()}
        assert survivors == set(keys[:2])
        assert store.disk_bytes() <= 2 * entry_bytes

    def test_pruned_entry_is_a_miss_even_in_memory(self, tmp_path):
        store, keys, now = self._stocked(tmp_path, [10])
        assert store.get(keys[0]) is not None  # now cached in _mem
        # the read refreshed the LRU clock (by design); re-age the entry
        # so the prune below still considers it stale
        os.utime(store._path(keys[0]), (now - 10, now - 10))
        store.prune(max_age=1, now=now)
        assert store.get(keys[0]) is None

    def test_prune_takes_telemetry_artifacts_along(self, tmp_path):
        from repro.experiments.cache import (
            telemetry_artifact_path,
            telemetry_dir,
        )
        store, keys, now = self._stocked(tmp_path, [10, 100_000])
        tdir = telemetry_dir(store)
        os.makedirs(tdir, exist_ok=True)
        artifacts = [telemetry_artifact_path(tdir, key) for key in keys]
        for path in artifacts:
            with open(path, "w") as fh:
                fh.write('{"cycle": 0}\n')
        report = store.prune(max_age=3_600, now=now)
        assert report.removed == 1
        assert report.artifacts_removed == 1
        assert not os.path.exists(artifacts[1])  # evicted entry's artifact
        assert os.path.exists(artifacts[0])      # survivor's stays

    def test_prune_everything_removes_empty_shards(self, tmp_path):
        store, keys, now = self._stocked(tmp_path, [10, 20, 30])
        report = store.prune(max_age=1, now=now)
        assert report.removed == 3 and report.kept == 0
        assert store.disk_entries() == 0
        leftovers = [name for name in os.listdir(tmp_path)
                     if name != "telemetry"]
        assert leftovers == []

    def test_read_hit_refreshes_the_lru_clock(self, tmp_path):
        """Regression: reads never bumped mtime, so byte-budget
        eviction silently degraded to FIFO — a hot, repeatedly hit
        entry was evicted as if it had never been read again."""
        now = 1_700_000_000.0
        store, keys, __ = self._stocked(tmp_path, [1_000, 500])
        hot, cold = keys  # `hot` is *older* on disk than `cold`
        fresh = ResultStore(str(tmp_path))
        assert fresh.get(hot) is not None  # disk hit: bumps mtime to now
        entry_bytes = fresh.disk_bytes() // 2
        report = fresh.prune(max_bytes=entry_bytes, now=now)
        assert report.removed == 1
        survivors = {key for key, *__ in fresh.iter_disk()}
        assert survivors == {hot}  # LRU kept the hot entry, evicted cold

    def test_memory_hit_also_refreshes_the_disk_entry(self, tmp_path):
        store, keys, __ = self._stocked(tmp_path, [1_000])
        before = next(store.iter_disk())[2]
        assert store.get(keys[0]) is not None  # served from memory
        after = next(store.iter_disk())[2]
        assert after > before

    def test_prune_report_summary(self, tmp_path):
        store, __, now = self._stocked(tmp_path, [10, 100_000])
        text = store.prune(max_age=3_600, now=now).summary()
        assert "pruned 1 of 2 entries" in text
        assert "1 entries" in text and "kept" in text

    def test_memory_only_store_prunes_nothing(self):
        report = ResultStore(None).prune(max_age=0)
        assert report.scanned == report.removed == 0


class TestCacheCli:
    def _stock(self, tmp_path, n=3):
        store = ResultStore(str(tmp_path))
        for index in range(n):
            store.put(_key(seed=200 + index), _small_result())
        return store

    def test_stats_reports_entries_and_bytes(self, tmp_path, capsys):
        from repro.experiments.__main__ import cache_main
        self._stock(tmp_path)
        assert cache_main(["--stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "3 entries" in out
        assert "KiB" in out and "telemetry artifacts" in out

    def test_prune_requires_a_criterion(self, tmp_path, capsys):
        from repro.experiments.__main__ import cache_main
        assert cache_main(["--prune", "--cache-dir", str(tmp_path)]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_prune_by_max_bytes(self, tmp_path, capsys):
        from repro.experiments.__main__ import cache_main
        self._stock(tmp_path)
        code = cache_main(["--prune", "--max-bytes", "0",
                           "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "pruned 3 of 3 entries" in capsys.readouterr().out
        assert ResultStore(str(tmp_path)).disk_entries() == 0

    def test_cache_subcommand_dispatch(self, tmp_path, capsys):
        from repro.experiments.__main__ import main
        self._stock(tmp_path, n=1)
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        assert "1 entries" in capsys.readouterr().out

    def test_parse_size_suffixes(self):
        import argparse

        from repro.experiments.__main__ import _parse_size
        assert _parse_size("500") == 500
        assert _parse_size("500K") == 500 * 1024
        assert _parse_size("64m") == 64 * 1024 ** 2
        assert _parse_size("2G") == 2 * 1024 ** 3
        for bad in ("", "12Q", "-1", "K"):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_size(bad)


class TestCampaignSummary:
    def test_summary_reports_disk_entries(self, tmp_path, capsys):
        """The end-of-run summary tells the operator how big the store
        has grown (hit/miss counters alone say nothing about disk)."""
        from repro.experiments.__main__ import main
        code = main(["--selected", "--only", "fig02", "--measure", "800",
                     "--warmup", "200", "--jobs", "1",
                     "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        entries = ResultStore(str(tmp_path)).disk_entries()
        assert entries > 0
        assert f"{entries} entries on disk" in out


class TestSweepStoreIntegration:
    SETTINGS = Settings(all_programs=False, warmup=1_000, measure=1_500)

    def test_disk_hit_skips_simulation(self, tmp_path):
        store = ResultStore(str(tmp_path))
        first = Sweep(self.SETTINGS, store=store)
        result = first.run("gcc", base_config())
        assert first.sim_runs == 1

        second = Sweep(self.SETTINGS, store=ResultStore(str(tmp_path)))
        cached = second.run("gcc", base_config())
        assert second.sim_runs == 0
        assert second.cache_hits == 1
        assert cached.cycles == result.cycles
        assert cached.ipc == result.ipc
        assert cached.energy_nj == result.energy_nj

    def test_changed_settings_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        Sweep(self.SETTINGS, store=store).run("gcc", base_config())
        other = Sweep(dataclasses.replace(self.SETTINGS, seed=7),
                      store=ResultStore(str(tmp_path)))
        other.run("gcc", base_config())
        assert other.sim_runs == 1 and other.cache_hits == 0

    def test_sanitize_bypasses_stale_entries(self, tmp_path):
        """A warm cache must not let a sanitized campaign skip its checks:
        entries produced *without* the sanitizer are read-bypassed."""
        store = ResultStore(str(tmp_path))
        Sweep(self.SETTINGS, store=store).run("gcc", base_config())

        sanitizing = Sweep(dataclasses.replace(self.SETTINGS, sanitize=True),
                           store=ResultStore(str(tmp_path)))
        sanitizing.run("gcc", base_config())
        assert sanitizing.sim_runs == 1 and sanitizing.cache_hits == 0

    def test_sanitize_reuses_own_sanitized_entries(self, tmp_path):
        """Entries this process produced under the sanitizer are trusted:
        the checks already ran, so a second sweep sharing the store reuses
        them instead of simulating (and checking) twice."""
        store = ResultStore(str(tmp_path))
        sanitized = dataclasses.replace(self.SETTINGS, sanitize=True)
        first = Sweep(sanitized, store=store)
        result = first.run("gcc", base_config())
        assert first.sim_runs == 1

        second = Sweep(sanitized, store=store)
        reused = second.run("gcc", base_config())
        assert second.sim_runs == 0 and second.cache_hits == 1
        assert reused.cycles == result.cycles

    def test_active_store_reaches_new_sweeps(self, tmp_path):
        store = ResultStore(str(tmp_path))
        result_cache.set_active_store(store)
        try:
            sweep = Sweep(self.SETTINGS)
            assert sweep.store is store
        finally:
            result_cache.set_active_store(None)
        assert Sweep(self.SETTINGS).store is None


class TestConfigFingerprint:
    def test_equal_configs_equal_fingerprints(self):
        assert config_fingerprint(base_config()) == config_fingerprint(base_config())

    def test_distinct_configs_distinct_fingerprints(self):
        assert (config_fingerprint(base_config())
                != config_fingerprint(dynamic_config(3)))


class TestPinnedKeys:
    def test_keys_match_committed_values(self):
        """Fingerprints and result keys are pinned to literal values, so
        any change to the key payload (a config field added, dropped or
        renamed, a reordered component) fails here instead of silently
        orphaning every existing ``.simcache/`` entry.  A deliberate key
        change updates these values in the same commit."""
        assert config_fingerprint(base_config()) == (
            "bd84cb6f49dc01c752da18a9bb0a2dfb7196ffa863a278443ad6de2d4a2b0472")
        assert config_fingerprint(dynamic_config(3)) == (
            "f791ea91673b3dcffe7ae5e3aa28d2d5aba9dee48c52d64c07b5586121f5a254")
        assert _key() == (
            "502fe9acfc29663208d21d58f118f81c8b1f6f42dd7fcdb6fbf62ded7ef640d7")
        assert _key(program="riscv:mixed", config=dynamic_config(3)) == (
            "60c9e2b4a329dc29c9e39aa98d5a20d1245ed958e9f71e15744a7414580d60fd")
