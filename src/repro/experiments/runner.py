"""Shared machinery for the experiment harnesses.

A :class:`Sweep` owns the trace and simulation cache for one evaluation
campaign: experiments request ``(program, model)`` results and identical
requests are simulated only once, so running the whole suite does not
re-simulate the base processor a dozen times.

Simulation scale is set by :class:`Settings`; the defaults are sized for
a laptop-class Python run (the paper simulates 100M instructions per
program after skipping 16G — a pure-Python cycle simulator substitutes
smaller samples plus the checkpoint-style warming described in
DESIGN.md §5).
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass, field, replace

from repro.config import (
    ProcessorConfig,
    base_config,
    config_fingerprint,
    dynamic_config,
    fixed_config,
    ideal_config,
    runahead_config,
)
from repro.core.policies import ResizingPolicy
import repro.experiments.cache as result_cache
from repro.energy import EnergyModel
from repro.pipeline import simulate
from repro.stats import SimulationResult, geometric_mean
from repro.workloads import (
    program_names,
    trace_for_program,
    MEMORY_INTENSIVE,
    COMPUTE_INTENSIVE,
    SELECTED_MEMORY,
    SELECTED_COMPUTE,
)


@dataclass(frozen=True)
class Settings:
    """Scale and scope of an evaluation campaign."""

    #: simulate all 28 programs (True) or the paper's selected subset
    all_programs: bool = True
    warmup: int = 4_000
    measure: int = 15_000
    seed: int = 1
    #: explicit program list overriding the above scope (tests and
    #: quick spot-checks; empty = use ``all_programs``)
    only_programs: tuple[str, ...] = ()
    #: run every simulation with the repro.debug invariant sanitizer
    #: attached (slower; results bypass the on-disk cache so the checks
    #: actually execute)
    sanitize: bool = False
    #: attach a :class:`repro.telemetry.TelemetryProbe` with this
    #: sampling period (cycles) to every simulation and write a per-job
    #: JSONL artifact next to the on-disk store (0 = off).  Sampling is
    #: digest-neutral, so — unlike ``sanitize`` — cached results stay
    #: valid; a cached job re-executes only if its artifact is missing.
    telemetry_period: int = 0

    @property
    def trace_ops(self) -> int:
        return self.warmup + self.measure + 1_000

    def programs(self) -> tuple[str, ...]:
        if self.only_programs:
            return self.only_programs
        if self.all_programs:
            return program_names()
        return SELECTED_MEMORY + SELECTED_COMPUTE

    def memory_programs(self) -> tuple[str, ...]:
        return tuple(p for p in self.programs() if p in MEMORY_INTENSIVE)

    def compute_programs(self) -> tuple[str, ...]:
        return tuple(p for p in self.programs() if p in COMPUTE_INTENSIVE)


def quick_settings() -> Settings:
    """Small-scale settings used by the pytest benchmarks."""
    return Settings(all_programs=False, warmup=3_000, measure=8_000)


@dataclass
class ExperimentResult:
    """Rendered output of one experiment."""

    exp_id: str
    title: str
    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: machine-readable series for tests/benchmarks to assert on
    series: dict = field(default_factory=dict)

    def as_text(self) -> str:
        out = [f"== {self.exp_id}: {self.title} ==",
               render_table(self.headers, self.rows)]
        out.extend(f"note: {n}" for n in self.notes)
        return "\n".join(out)


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    """Monospace table rendering."""
    table = [headers] + rows
    widths = [max(len(str(row[i])) for row in table)
              for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(str(cell).ljust(w)
                               for cell, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


class Sweep:
    """Trace + simulation cache for one campaign.

    ``store`` (default: the module-wide active store, if one has been
    installed — see :mod:`repro.experiments.cache`) adds an on-disk
    content-addressed layer below the in-memory one, shared between
    campaigns and worker processes.
    """

    def __init__(self, settings: Settings | None = None,
                 store: "result_cache.ResultStore | None" = None) -> None:
        self.settings = settings or Settings()
        self._traces: dict[str, object] = {}
        self._results: dict[tuple, SimulationResult] = {}
        self.energy = EnergyModel()
        self.store = store if store is not None else result_cache.active_store()
        #: simulations answered from the store vs. actually executed
        self.cache_hits = 0
        self.sim_runs = 0
        #: telemetry artifacts written by this sweep's serial path
        self.telemetry_artifacts = 0

    def trace(self, program: str):
        trace = self._traces.get(program)
        if trace is None:
            trace = trace_for_program(program,
                                      n_ops=self.settings.trace_ops,
                                      seed=self.settings.seed)
            self._traces[program] = trace
        return trace

    # ------------------------------------------------------------------

    def run(self, program: str, config: ProcessorConfig,
            key_extra: object = None,
            policy: ResizingPolicy | None = None) -> SimulationResult:
        """Simulate (or fetch from cache) one program on one config.

        The cache key is derived from the *full* configuration
        fingerprint (plus the policy's), so any config field change —
        not just the handful an earlier key happened to enumerate —
        yields a distinct entry.  ``key_extra`` remains for callers
        that vary a policy object in ways they want keyed explicitly.
        """
        key = (program, config_fingerprint(config),
               result_cache.policy_fingerprint(policy), key_extra)
        result = self._results.get(key)
        if result is not None:
            return result
        settings = self.settings
        skey = result_cache.result_key(
            program, config, seed=settings.seed, warmup=settings.warmup,
            measure=settings.measure, trace_ops=settings.trace_ops,
            policy=policy, key_extra=key_extra)
        store = self.store
        telemetry_dir = (result_cache.telemetry_dir(store)
                         if settings.telemetry_period else None)
        recorder = result_cache.active_recorder()
        if recorder is not None:
            # Planning pass: record the job, hand back a placeholder.
            recorder.record(result_cache.JobSpec(
                key=skey, program=program, config=config, policy=policy,
                seed=settings.seed, warmup=settings.warmup,
                measure=settings.measure, trace_ops=settings.trace_ops,
                sanitize=settings.sanitize,
                telemetry_period=settings.telemetry_period,
                telemetry_dir=telemetry_dir))
            result = result_cache.placeholder_result(program, config)
            self._results[key] = result
            return result
        # A sanitizing campaign must actually *run* the checks, so
        # stored entries are read-bypassed — except those this process
        # itself produced under the sanitizer (the campaign fan-out),
        # whose checks already ran.  Results are always written back:
        # sanitized runs are bit-identical to unsanitized ones.
        # A telemetry campaign may reuse any cached result (sampling is
        # digest-neutral) — but only if the job's artifact already
        # exists; otherwise it re-simulates to produce the recording.
        artifact = (result_cache.telemetry_artifact_path(telemetry_dir, skey)
                    if telemetry_dir is not None else None)
        if (store is not None
                and (not settings.sanitize or skey in store.sanitized_keys)
                and (artifact is None or os.path.exists(artifact))):
            result = store.get(skey)
            if result is not None:
                self.cache_hits += 1
                self._results[key] = result
                return result
        probe = None
        if settings.telemetry_period:
            from repro.telemetry import TelemetryProbe
            probe = TelemetryProbe(period=settings.telemetry_period)
        result = simulate(config, self.trace(program),
                          warmup=settings.warmup,
                          measure=settings.measure,
                          policy=policy,
                          sanitize=settings.sanitize,
                          telemetry=probe)
        self.energy.annotate(result, config)
        self.sim_runs += 1
        if probe is not None and artifact is not None:
            probe.telemetry.to_jsonl(artifact)
            self.telemetry_artifacts += 1
        if store is not None:
            store.put(skey, result)
            if settings.sanitize:
                store.sanitized_keys.add(skey)
        self._results[key] = result
        return result

    # convenience wrappers -------------------------------------------

    def base(self, program: str) -> SimulationResult:
        return self.run(program, base_config())

    def fixed(self, program: str, level: int) -> SimulationResult:
        return self.run(program, fixed_config(level))

    def ideal(self, program: str, level: int) -> SimulationResult:
        return self.run(program, ideal_config(level))

    def dynamic(self, program: str, max_level: int = 3) -> SimulationResult:
        return self.run(program, dynamic_config(max_level))

    def runahead(self, program: str) -> SimulationResult:
        return self.run(program, runahead_config())

    def speedup(self, program: str, result: SimulationResult) -> float:
        return result.speedup_over(self.base(program))

    def gm_speedups(self, programs, getter) -> float:
        """Geometric-mean speedup over ``programs`` for ``getter(p)``."""
        return geometric_mean(
            self.speedup(p, getter(p)) for p in programs)


def cli_settings(argv=None, description: str = "") -> Settings:
    """Parse the standard experiment CLI flags into Settings."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--selected", action="store_true",
                        help="only the paper's selected programs "
                             "(default: all 28)")
    parser.add_argument("--measure", type=int, default=15_000,
                        help="measured micro-ops per run")
    parser.add_argument("--warmup", type=int, default=4_000,
                        help="warmup micro-ops per run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sanitize", action="store_true",
                        help="attach the repro.debug invariant sanitizer "
                             "to every simulation (slower, bypasses the "
                             "result cache)")
    parser.add_argument("--telemetry", type=int, nargs="?", const=256,
                        default=0, metavar="PERIOD",
                        help="record a telemetry time-series for every "
                             "simulation, sampled every PERIOD cycles "
                             "(default 256 when the flag is given bare); "
                             "artifacts land under the cache directory")
    args = parser.parse_args(argv)
    return Settings(all_programs=not args.selected, warmup=args.warmup,
                    measure=args.measure, seed=args.seed,
                    sanitize=args.sanitize,
                    telemetry_period=args.telemetry)
