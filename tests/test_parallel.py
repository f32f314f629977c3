"""Determinism of the parallel campaign path.

The acceptance bar for the execution layer: a campaign fanned out over
worker processes must produce **bit-identical** results to the serial
path — same cycle counts, same float series, same everything except
wall-clock.  These tests run a small 2-program, 3-experiment campaign
both ways and compare the machine-readable series exactly.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import signal
import threading
import time
from collections import OrderedDict

import pytest

from repro.config import ModelKind
from repro.experiments import EXPERIMENTS
from repro.experiments import parallel
from repro.experiments.cache import JobRecorder, ResultStore, recording
from repro.experiments.parallel import (
    deliver_sigterm_as_interrupt,
    execute_campaign,
    plan_campaign,
)
from repro.experiments.runner import Settings, Sweep
from repro.verify.digest import digest_payload, result_digest

#: one memory-intensive + one compute-intensive program keeps every
#: experiment's per-category geometric means well-defined
SETTINGS = Settings(warmup=800, measure=1_500,
                    only_programs=("leslie3d", "gcc"))
EXP_IDS = ("fig07", "table3", "fig08")


def _campaign_series(store: ResultStore) -> tuple[dict, Sweep]:
    sweep = Sweep(SETTINGS, store=store)
    series = {}
    for exp_id in EXP_IDS:
        module = importlib.import_module(EXPERIMENTS[exp_id])
        series[exp_id] = module.run(sweep=sweep).series
    return series, sweep


@pytest.fixture(scope="module")
def serial_series():
    series, __ = _campaign_series(ResultStore(None))
    return series


class TestPlanning:
    def test_planner_collects_deduplicated_jobs(self):
        recorder = plan_campaign(EXP_IDS, SETTINGS)
        assert len(recorder) > 0
        # fig07 alone needs base+fix2+fix3+dyn+ideal2+ideal3 per program
        assert len(recorder) >= 6 * len(SETTINGS.programs())
        # every key appears once: keys are the dedup
        assert len(set(recorder.jobs)) == len(recorder)

    def test_jobs_are_grouped_by_trace(self):
        """fig07 and fig12 each walk the programs; the plan brings each
        program's jobs together so a small trace memo builds every
        trace once."""
        recorder = plan_campaign(("fig07", "fig12"), SETTINGS)
        programs = [spec.program for spec in recorder.jobs.values()]
        runs = [p for i, p in enumerate(programs)
                if i == 0 or programs[i - 1] != p]
        assert runs == list(SETTINGS.programs())

    def test_planning_leaves_no_recorder_behind(self):
        from repro.experiments.cache import active_recorder
        plan_campaign(EXP_IDS[:1], SETTINGS)
        assert active_recorder() is None

    def test_recording_context_restores_previous(self):
        from repro.experiments.cache import active_recorder
        outer = JobRecorder()
        with recording(outer):
            with recording(JobRecorder()):
                pass
            assert active_recorder() is outer
        assert active_recorder() is None


class TestParallelDeterminism:
    def test_parallel_matches_serial_bitwise(self, serial_series, tmp_path):
        """--jobs 4 campaign == serial campaign, bit for bit."""
        store = ResultStore(str(tmp_path))
        recorder = plan_campaign(EXP_IDS, SETTINGS)
        report = execute_campaign(recorder, store, jobs=4)
        # one ideal-1 per program rides on its fixed-1 partner
        assert report.shared == len(SETTINGS.programs())
        assert report.executed + report.shared == report.planned > 0

        series, sweep = _campaign_series(store)
        # every simulation the experiments asked for was pre-planned
        assert sweep.sim_runs == 0
        assert sweep.cache_hits > 0
        # dict == compares floats exactly: bit-identical or bust
        assert series == serial_series

    def test_warm_cache_second_run_simulates_nothing(self, tmp_path):
        store = ResultStore(str(tmp_path))
        recorder = plan_campaign(EXP_IDS, SETTINGS)
        first = execute_campaign(recorder, store, jobs=2)
        assert first.executed > 0

        again = execute_campaign(plan_campaign(EXP_IDS, SETTINGS),
                                 ResultStore(str(tmp_path)), jobs=2)
        assert again.executed == 0
        assert again.already_cached == again.planned == first.planned

    def test_inline_jobs1_matches_serial(self, serial_series, tmp_path):
        store = ResultStore(str(tmp_path))
        recorder = plan_campaign(EXP_IDS, SETTINGS)
        report = execute_campaign(recorder, store, jobs=1)
        assert report.workers == 1
        series, __ = _campaign_series(store)
        assert series == serial_series


class _PutLog(ResultStore):
    """A memory-only store that logs the key of every write."""

    def __init__(self) -> None:
        super().__init__(None)
        self.puts: list[str] = []

    def put(self, key, result) -> None:
        self.puts.append(key)
        super().put(key, result)


def _mutable_ids(value, found=None) -> set[int]:
    """ids of the mutable containers and objects reachable from
    ``value`` (immutable values may be shared harmlessly)."""
    found = set() if found is None else found
    if isinstance(value, (str, bytes, int, float, type(None))):
        return found
    if isinstance(value, tuple):
        children = list(value)
    elif id(value) in found:
        return found
    else:
        found.add(id(value))
        if isinstance(value, dict):
            children = [*value.keys(), *value.values()]
        elif isinstance(value, (list, set)):
            children = list(value)
        else:
            slots = getattr(type(value), "__slots__", ())
            children = [*getattr(value, "__dict__", {}).values(),
                        *(getattr(value, name) for name in slots)]
    for child in children:
        _mutable_ids(child, found)
    return found


class TestTimingClassSharing:
    """Jobs of one timing class share one simulation, and every job is
    still stored once under its own key (perfbench derives each job's
    latency from the order of a serial campaign's store writes)."""

    @staticmethod
    def _key_of(recorder, program, model, level):
        return next(spec.key for spec in recorder.jobs.values()
                    if spec.program == program
                    and spec.config.model is model
                    and spec.config.level == level)

    def test_serial_puts_every_job_once_in_recorder_order(self, monkeypatch):
        ran = []

        def counting_run_job(spec):
            ran.append(spec)
            return _REAL_RUN_JOB(spec)

        monkeypatch.setattr(parallel, "_run_job", counting_run_job)
        recorder = plan_campaign(("fig07",), SETTINGS)
        store = _PutLog()
        report = execute_campaign(recorder, store, jobs=1)
        assert store.puts == list(recorder.jobs)
        assert report.shared == len(SETTINGS.programs())
        assert report.executed == len(ran) == report.planned - report.shared
        assert not any(spec.config.model is ModelKind.IDEAL
                       and spec.config.level == 1 for spec in ran)

    def test_pool_books_the_same_keys_and_results(self):
        recorder = plan_campaign(("fig07",), SETTINGS)
        serial, pool = _PutLog(), _PutLog()
        execute_campaign(recorder, serial, jobs=1)
        report = execute_campaign(recorder, pool, jobs=2)
        assert report.shared == len(SETTINGS.programs())
        assert sorted(pool.puts) == sorted(recorder.jobs)
        for key in recorder.jobs:
            assert (result_digest(pool.get(key))
                    == result_digest(serial.get(key)))

    def test_shared_member_is_an_independent_relabelled_copy(self):
        recorder = plan_campaign(("fig07",), SETTINGS)
        store = ResultStore(None)
        execute_campaign(recorder, store, jobs=1)
        fixed = store.get(self._key_of(recorder, "gcc", ModelKind.FIXED, 1))
        ideal = store.get(self._key_of(recorder, "gcc", ModelKind.IDEAL, 1))
        assert (fixed.model, ideal.model) == ("fixed", "ideal")
        assert ideal.energy_nj == fixed.energy_nj > 0
        fixed_payload, ideal_payload = (digest_payload(fixed),
                                        digest_payload(ideal))
        del fixed_payload["model"], ideal_payload["model"]
        assert ideal_payload == fixed_payload
        assert ideal.stats is not fixed.stats
        assert not _mutable_ids(ideal) & _mutable_ids(fixed)

    def test_stored_fixed_job_spares_the_ideal_simulation(self):
        recorder = plan_campaign(("fig07",), SETTINGS)
        store = ResultStore(None)
        fixed_only = JobRecorder()
        for spec in recorder.jobs.values():
            if spec.config.model is ModelKind.FIXED \
                    and spec.config.level == 1:
                fixed_only.record(spec)
        execute_campaign(fixed_only, store, jobs=1)
        report = execute_campaign(recorder, store, jobs=1)
        assert report.already_cached == len(SETTINGS.programs())
        assert report.shared == len(SETTINGS.programs())
        assert report.executed == (report.planned - report.already_cached
                                   - report.shared)


class TestTraceMemo:
    def test_least_recently_used_trace_is_evicted(self, monkeypatch):
        built = []

        def fake_trace(program, n_ops, seed):
            built.append(program)
            return object()

        monkeypatch.setattr(parallel, "trace_for_program", fake_trace)
        monkeypatch.setattr(parallel, "_TRACE_MEMO", OrderedDict())
        names = [f"p{i}" for i in range(parallel._TRACE_MEMO_SIZE)]
        traces = {name: parallel._memo_trace(name, 100, 1) for name in names}
        assert parallel._TRACE_MEMO_SIZE >= 4   # one 4-thread SMT job
        # a hit refreshes p0, so the extra key evicts p1 instead
        assert parallel._memo_trace("p0", 100, 1) is traces["p0"]
        parallel._memo_trace("extra", 100, 1)
        assert len(parallel._TRACE_MEMO) == parallel._TRACE_MEMO_SIZE
        assert parallel._memo_trace("p0", 100, 1) is traces["p0"]
        assert built == names + ["extra"]
        assert parallel._memo_trace("p1", 100, 1) is not traces["p1"]
        assert built[-1] == "p1"


#: module-level (hence picklable) fault injections: with the fork start
#: method the monkeypatched ``parallel._run_job`` travels into the pool
#: workers, so a campaign can be failed or interrupted deterministically
_REAL_RUN_JOB = parallel._run_job


def _fail_on_leslie3d(spec):
    if spec.program == "leslie3d":
        raise RuntimeError("injected worker failure")
    return _REAL_RUN_JOB(spec)


def _interrupt_on_leslie3d(spec):
    if spec.program == "leslie3d":
        raise KeyboardInterrupt
    return _REAL_RUN_JOB(spec)


class TestInterruptedCampaign:
    """A killed or failing campaign must reap its workers and keep the
    results that did complete (the store writes are atomic, so every
    booked entry is whole and a re-run resumes from it)."""

    def _interrupted_run(self, tmp_path, monkeypatch, injected, raises):
        monkeypatch.setattr(parallel, "_run_job", injected)
        store = ResultStore(str(tmp_path))
        recorder = plan_campaign(EXP_IDS, SETTINGS)
        with pytest.raises(raises):
            execute_campaign(recorder, store, jobs=2)
        # pool.shutdown(wait=True) ran on the unwind: no orphans
        assert multiprocessing.active_children() == []
        return recorder, store

    def test_failure_books_completed_and_resumes(self, tmp_path,
                                                 monkeypatch):
        recorder, store = self._interrupted_run(
            tmp_path, monkeypatch, _fail_on_leslie3d, RuntimeError)
        survivors = [key for key, *__ in store.iter_disk()]
        assert len(survivors) < len(recorder.jobs)

        # every survivor is a complete, loadable entry ...
        check = ResultStore(str(tmp_path))
        for key in survivors:
            assert check.get(key) is not None
        # ... and a healthy re-run picks up exactly where it stopped
        monkeypatch.setattr(parallel, "_run_job", _REAL_RUN_JOB)
        resumed = execute_campaign(plan_campaign(EXP_IDS, SETTINGS),
                                   ResultStore(str(tmp_path)), jobs=2)
        assert resumed.already_cached == len(survivors)
        assert (resumed.executed + resumed.shared
                == resumed.planned - len(survivors))

    def test_interrupt_unwinds_the_same_way(self, tmp_path, monkeypatch):
        recorder, store = self._interrupted_run(
            tmp_path, monkeypatch, _interrupt_on_leslie3d,
            KeyboardInterrupt)
        for key, *__ in store.iter_disk():
            assert ResultStore(str(tmp_path)).get(key) is not None


class TestSigtermTranslation:
    def test_sigterm_raises_keyboardinterrupt(self):
        before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(KeyboardInterrupt):
            with deliver_sigterm_as_interrupt():
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(5)  # interrupted by the handler immediately
                pytest.fail("SIGTERM was not delivered")
        assert signal.getsignal(signal.SIGTERM) is before

    def test_handler_restored_on_clean_exit(self):
        before = signal.getsignal(signal.SIGTERM)
        with deliver_sigterm_as_interrupt():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_noop_outside_main_thread(self):
        """Embedders (the serving layer) own signal handling on their
        own threads — the context must not try to install handlers
        there (``signal.signal`` would raise)."""
        before = signal.getsignal(signal.SIGTERM)
        outcome = {}

        def body():
            try:
                with deliver_sigterm_as_interrupt():
                    outcome["entered"] = True
            except Exception as exc:  # pragma: no cover
                outcome["error"] = exc

        thread = threading.Thread(target=body)
        thread.start()
        thread.join()
        assert outcome.get("entered") is True
        assert "error" not in outcome
        assert signal.getsignal(signal.SIGTERM) is before


class TestExecutionReport:
    def test_utilisation_bounds(self, tmp_path):
        store = ResultStore(str(tmp_path))
        recorder = plan_campaign(EXP_IDS[:1], SETTINGS)
        report = execute_campaign(recorder, store, jobs=2)
        assert 0.0 < report.utilisation() <= 1.0
        assert report.wall_seconds > 0
        assert report.busy_seconds > 0
        assert sum(report.per_program.values()) == report.executed
