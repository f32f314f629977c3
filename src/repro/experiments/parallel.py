"""Parallel execution of simulation campaigns.

The campaign planner walks the requested experiment modules in planning
mode (see :mod:`repro.experiments.cache`), collecting every simulation
any of them will request.  The de-duplicated jobs are then fanned out
over a :class:`~concurrent.futures.ProcessPoolExecutor` and the results
hydrate the shared :class:`~repro.experiments.cache.ResultStore`, so the
experiment modules afterwards run unchanged — and nearly instantly.

Determinism: workers re-generate traces from ``(program, trace_ops,
seed)`` with the same seeded generator the serial path uses, and results
travel back via pickle, which round-trips float bits exactly.  A
parallel campaign therefore produces bit-identical results to a serial
one (``tests/test_parallel.py`` locks this in).

Jobs of one timing class (:func:`repro.experiments.cache.timing_class`)
are simulated once: every other member books a relabelled copy of that
one result under its own key.
"""

from __future__ import annotations

import importlib
import os
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from copy import deepcopy
from dataclasses import dataclass, field

from repro.energy import EnergyModel
from repro.experiments.cache import (
    JobRecorder,
    JobSpec,
    ResultStore,
    recording,
    telemetry_artifact_path,
    timing_class,
)
from repro.pipeline import simulate
from repro.stats import SimulationResult
from repro.workloads import trace_for_program


def plan_campaign(exp_ids, settings, experiments=None) -> JobRecorder:
    """Dry-run the experiment modules, recording every simulation needed.

    Planning is best-effort: an experiment that fails on placeholder
    results simply contributes no jobs and will simulate serially
    during the real pass.

    The jobs come back grouped by trace, groups in order of first
    request, so the bounded trace memo builds each trace once.
    """
    from repro.experiments import EXPERIMENTS
    from repro.experiments.runner import Sweep
    experiments = experiments if experiments is not None else EXPERIMENTS
    recorder = JobRecorder()
    with recording(recorder):
        for exp_id in exp_ids:
            module = importlib.import_module(experiments[exp_id])
            try:
                module.run(sweep=Sweep(settings))
            except Exception:
                pass
    traces: dict[tuple, int] = {}
    for spec in recorder.jobs.values():
        traces.setdefault((spec.program, spec.trace_ops, spec.seed),
                          len(traces))
    recorder.jobs = dict(sorted(
        recorder.jobs.items(),
        key=lambda item: traces[(item[1].program, item[1].trace_ops,
                                 item[1].seed)]))
    return recorder


#: Per-process memo of generated traces, least recently used first:
#: several jobs of one campaign share a (program, length, seed) trace,
#: and regenerating it costs more than a simulation's margin.  Campaign
#: jobs come program by program, so a few traces cover them; the bound
#: keeps a long-lived service or cluster worker from pinning a trace
#: (about 200 bytes per op, so up to ~200 MB at the service's largest
#: length) for every distinct key it ever served.
_TRACE_MEMO: OrderedDict[tuple, object] = OrderedDict()

#: Traces the memo keeps: the most one SMT job runs at once.
_TRACE_MEMO_SIZE = 4


def _memo_trace(program: str, trace_ops: int, seed: int):
    memo_key = (program, trace_ops, seed)
    trace = _TRACE_MEMO.get(memo_key)
    if trace is None:
        trace = trace_for_program(program, n_ops=trace_ops, seed=seed)
        _TRACE_MEMO[memo_key] = trace
        if len(_TRACE_MEMO) > _TRACE_MEMO_SIZE:
            _TRACE_MEMO.popitem(last=False)
    else:
        _TRACE_MEMO.move_to_end(memo_key)
    return trace


def _run_smt_job(spec: JobSpec) -> tuple[str, SimulationResult, float]:
    """Execute one SMT simulation: one trace per hardware thread, the
    store entry is the aggregate (whole-core) result.  Telemetry and
    the sanitizer are single-thread observers and are not attached to
    SMT runs (build_spec rejects the combination at admission)."""
    started = time.perf_counter()
    from repro.pipeline.smt import simulate_smt
    programs = spec.smt_programs or tuple(spec.program.split("+"))
    traces = [_memo_trace(prog, spec.trace_ops, spec.seed)
              for prog in programs]
    run = simulate_smt(spec.config, traces, warmup=spec.warmup,
                       measure=spec.measure)
    result = run.aggregate
    EnergyModel().annotate(result, spec.config)
    return spec.key, result, time.perf_counter() - started


def _run_job(spec: JobSpec) -> tuple[str, SimulationResult, float]:
    """Execute one simulation (in a worker process or inline).

    When the spec asks for telemetry, the probe's recording is written
    straight to its JSONL artifact from the worker — the (potentially
    large) time-series never rides the result pickle back to the
    parent.  The result itself is bit-identical either way (sampling is
    digest-neutral), so the store entry carries no trace of whether
    telemetry was on.
    """
    if getattr(spec.config, "smt", None) is not None:
        return _run_smt_job(spec)
    started = time.perf_counter()
    trace = _memo_trace(spec.program, spec.trace_ops, spec.seed)
    probe = None
    if spec.telemetry_period and spec.telemetry_dir:
        from repro.telemetry import TelemetryProbe
        probe = TelemetryProbe(period=spec.telemetry_period)
    result = simulate(spec.config, trace, warmup=spec.warmup,
                      measure=spec.measure, policy=spec.policy,
                      sanitize=spec.sanitize,
                      fast_forward=spec.fast_forward,
                      telemetry=probe)
    EnergyModel().annotate(result, spec.config)
    if probe is not None:
        probe.telemetry.to_jsonl(
            telemetry_artifact_path(spec.telemetry_dir, spec.key))
    return spec.key, result, time.perf_counter() - started


def _relabel(result: SimulationResult, spec: JobSpec) -> SimulationResult:
    """``result``, simulated for another job of ``spec``'s timing class,
    as ``spec``'s own: a deep copy carrying ``spec``'s model, its energy
    annotated for ``spec``'s config."""
    result = deepcopy(result)
    result.model = spec.config.model.value
    EnergyModel().annotate(result, spec.config)
    return result


@dataclass
class ExecutionReport:
    """What the fan-out did, for the campaign summary line."""

    planned: int = 0
    already_cached: int = 0
    #: simulations run
    executed: int = 0
    #: jobs booked from another job of their timing class instead of
    #: simulated
    shared: int = 0
    workers: int = 1
    busy_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: simulations run per program
    per_program: dict[str, int] = field(default_factory=dict)
    #: simulator self-time per program (worker wall-clock seconds)
    per_program_seconds: dict[str, float] = field(default_factory=dict)
    #: telemetry artifacts written by the fan-out this run
    telemetry_artifacts: int = 0

    def utilisation(self) -> float:
        """Fraction of worker capacity kept busy during the fan-out."""
        if self.wall_seconds <= 0 or self.workers <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.wall_seconds * self.workers))

    def slowest_programs(self, n: int = 3) -> list[tuple[str, float, int]]:
        """Top ``n`` programs by simulator self-time: (program,
        seconds, jobs), most expensive first."""
        ranked = sorted(self.per_program_seconds.items(),
                        key=lambda kv: kv[1], reverse=True)
        return [(prog, secs, self.per_program.get(prog, 0))
                for prog, secs in ranked[:n]]

    def summary(self) -> str:
        if not self.planned:
            return "no simulations planned"
        parts = [f"{self.planned} planned",
                 f"{self.already_cached} cached",
                 f"{self.executed} simulated"]
        if self.shared:
            parts.append(f"{self.shared} shared")
        if self.executed:
            parts.append(f"{self.workers} worker"
                         + ("s" if self.workers != 1 else "")
                         + f" at {self.utilisation():.0%} utilisation")
        return ", ".join(parts)


def execute_campaign(recorder: JobRecorder, store: ResultStore,
                     jobs: int | None = None) -> ExecutionReport:
    """Fan the recorded jobs out over worker processes into the store.

    Jobs whose key already resolves in the store are skipped (this is
    what makes a warm-cache re-run free).  Of the rest, one job per
    timing class (:func:`~repro.experiments.cache.timing_class`) is
    simulated — none when the class's FIXED job is already stored — and
    every other member books a relabelled deep copy of that result under
    its own key.  Each job is stored exactly once; with ``jobs=1``
    everything runs inline, in recorder order — no pool, no pickling —
    which is also the fallback path platforms without ``fork`` can rely
    on.
    """
    if jobs is None:
        jobs = os.cpu_count() or 1

    def _artifact_missing(spec: JobSpec) -> bool:
        # a cached result whose telemetry artifact is absent still needs
        # a (re-)run to produce the recording; the result it writes back
        # is bit-identical to the cached one
        return (bool(spec.telemetry_period) and spec.telemetry_dir is not None
                and not os.path.exists(
                    telemetry_artifact_path(spec.telemetry_dir, spec.key)))

    # sanitizing jobs always execute — a cache hit would silently skip
    # the very invariant checks the campaign was asked to run
    todo = [spec for spec in recorder.jobs.values()
            if spec.sanitize or not store.contains(spec.key)
            or _artifact_missing(spec)]
    classes = {spec.key: timing_class(spec) for spec in todo}
    # class -> the result its members copy, seeded with stored FIXED jobs
    sources: dict[str, SimulationResult] = {}
    for cls in dict.fromkeys(classes.values()):
        if cls is not None and cls not in classes and store.contains(cls):
            result = store.get(cls)
            if result is not None:
                sources[cls] = result
    leaders = []
    seen = set(sources)
    for spec in todo:
        cls = classes[spec.key]
        if cls is None or cls not in seen:
            leaders.append(spec)
            seen.add(cls)
    report = ExecutionReport(planned=len(recorder.jobs),
                             already_cached=len(recorder.jobs) - len(todo),
                             executed=len(leaders),
                             shared=len(todo) - len(leaders),
                             workers=max(1, min(jobs, len(leaders) or 1)))
    if not todo:
        return report
    for spec in leaders:
        report.per_program[spec.program] = (
            report.per_program.get(spec.program, 0) + 1)
    wall_start = time.perf_counter()
    #: class -> members waiting for its leader's result (pool path)
    waiting: dict[str, list[JobSpec]] = {}

    def _book(spec: JobSpec, key: str, result: SimulationResult,
              busy: float) -> None:
        store.put(key, result)
        if spec.sanitize:
            store.sanitized_keys.add(key)
        report.busy_seconds += busy
        report.per_program_seconds[spec.program] = (
            report.per_program_seconds.get(spec.program, 0.0) + busy)
        if spec.telemetry_period and spec.telemetry_dir is not None:
            report.telemetry_artifacts += 1
        for member in waiting.pop(classes[spec.key], ()):
            store.put(member.key, _relabel(result, member))

    if report.workers == 1:
        for spec in todo:
            cls = classes[spec.key]
            if cls in sources:
                store.put(spec.key, _relabel(sources[cls], spec))
                continue
            key, result, busy = _run_job(spec)
            _book(spec, key, result, busy)
            if cls is not None:
                sources[cls] = result
    else:
        with deliver_sigterm_as_interrupt():
            pool = ProcessPoolExecutor(max_workers=report.workers)
            futures: dict = {}
            booked: set = set()
            try:
                for spec in todo:
                    cls = classes[spec.key]
                    if cls in sources:
                        store.put(spec.key, _relabel(sources[cls], spec))
                    elif cls in waiting:
                        waiting[cls].append(spec)
                    else:
                        futures[pool.submit(_run_job, spec)] = spec
                        if cls is not None:
                            waiting[cls] = []
                for future in as_completed(futures):
                    key, result, busy = future.result()
                    _book(futures[future], key, result, busy)
                    booked.add(future)
            except BaseException:
                # Ctrl-C, SIGTERM or a worker failure mid-campaign:
                # drop the queued jobs, let the running ones finish,
                # reap the worker processes, book every result that
                # did complete (store writes are atomic, so each entry
                # is whole), then propagate.  A re-run resumes from
                # whatever the interrupted campaign cached.
                pool.shutdown(wait=True, cancel_futures=True)
                for future, spec in futures.items():
                    if future in booked or not future.done() \
                            or future.cancelled():
                        continue
                    try:
                        key, result, busy = future.result()
                    except BaseException:
                        continue
                    _book(spec, key, result, busy)
                raise
            else:
                pool.shutdown(wait=True)
    report.wall_seconds = time.perf_counter() - wall_start
    return report


@contextmanager
def deliver_sigterm_as_interrupt():
    """Translate SIGTERM into KeyboardInterrupt for the enclosed block.

    ``kill <campaign pid>`` then unwinds through the same
    cancel-pending / wait-for-running / reap path as Ctrl-C instead of
    dying mid-write with orphaned pool workers.  Outside the main
    thread (where signal handlers cannot be installed) this is a no-op
    — the embedding application owns signal handling there, as the
    serving layer does with its asyncio handlers.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)
