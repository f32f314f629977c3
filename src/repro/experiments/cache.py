"""Content-addressed simulation result store and campaign planning hooks.

Two pieces live here:

* :class:`ResultStore` — a two-layer (in-memory + on-disk) cache of
  :class:`~repro.stats.SimulationResult` records, keyed by a sha256
  fingerprint of *everything that determines the outcome of a run*:
  the simulator version tag, the program, the trace seed and sample
  sizes, the full processor configuration and the policy construction
  parameters.  Re-running the suite therefore only simulates what
  changed; everything else is a disk hit.

* :class:`JobRecorder` + the planning-mode hooks — a campaign is
  executed twice.  The *planning pass* runs every experiment module
  with a recorder active: :meth:`Sweep.run <repro.experiments.runner.
  Sweep.run>` records each requested simulation as a :class:`JobSpec`
  and returns a placeholder result, so the pass is nearly free.  The
  recorded (and de-duplicated) jobs are then fanned out over worker
  processes (:mod:`repro.experiments.parallel`), the store is
  hydrated, and the *real pass* runs the experiment modules unchanged
  — every ``Sweep.run`` is now a cache hit.

Planning is best-effort: an experiment whose post-processing chokes on
placeholder numbers simply contributes no pre-planned jobs and falls
back to simulating serially during the real pass.  Correctness never
depends on the planning pass.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum

from repro.config import ModelKind, ProcessorConfig, config_fingerprint
from repro.core.policies import ResizingPolicy
from repro.stats import SimulationResult
from repro.stats.counters import SimStats

#: Files written by the on-disk layer carry this suffix.
_SUFFIX = ".pkl"


def default_cache_dir() -> str:
    """Default on-disk store location (override with ``REPRO_CACHE_DIR``)."""
    return os.environ.get("REPRO_CACHE_DIR", ".simcache")


def telemetry_dir(store: "ResultStore | None") -> str | None:
    """Where a campaign's per-job telemetry artifacts live.

    Telemetry artifacts need the on-disk store (they are files, keyed by
    the same content address as the result they accompany); a
    memory-only store yields None and campaign telemetry is disabled.
    """
    if store is None or store.directory is None:
        return None
    return os.path.join(store.directory, "telemetry")


def telemetry_artifact_path(directory: str, key: str) -> str:
    """Path of the JSONL telemetry artifact for result ``key``."""
    return os.path.join(directory, key + ".jsonl")


# ----------------------------------------------------------------------
# fingerprints


def _stable_repr(value: object, depth: int = 0) -> str:
    """A ``repr`` that is stable across processes and interpreter runs.

    The default ``repr`` of a plain object embeds its memory address,
    which would make disk-cache keys differ between runs.  Containers
    and objects are therefore walked structurally (depth-limited — a
    policy's constructor state is shallow).
    """
    if depth > 4:
        return "<deep>"
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    if isinstance(value, Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (tuple, list)):
        inner = ",".join(_stable_repr(v, depth + 1) for v in value)
        return f"[{inner}]"
    if isinstance(value, dict):
        inner = ",".join(
            f"{_stable_repr(k, depth + 1)}:{_stable_repr(v, depth + 1)}"
            for k, v in sorted(value.items(), key=repr))
        return f"{{{inner}}}"
    attrs = getattr(value, "__dict__", None)
    if attrs is None and hasattr(type(value), "__slots__"):
        attrs = {name: getattr(value, name)
                 for name in type(value).__slots__ if hasattr(value, name)}
    if attrs is not None:
        inner = ",".join(f"{k}={_stable_repr(v, depth + 1)}"
                         for k, v in sorted(attrs.items()))
        return f"{type(value).__qualname__}({inner})"
    return f"<{type(value).__qualname__}>"


def policy_fingerprint(policy: ResizingPolicy | None) -> str:
    """Fingerprint of a policy's class and construction-time state.

    Policies are always handed to ``Sweep.run`` freshly constructed, so
    their attributes at this point *are* their constructor parameters.
    """
    if policy is None:
        return "default"
    cls = type(policy)
    payload = f"{cls.__module__}.{cls.__qualname__}|{_stable_repr(policy)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def result_key(program: str, config: ProcessorConfig, *,
               seed: int, warmup: int, measure: int, trace_ops: int,
               policy: ResizingPolicy | None = None,
               key_extra: object = None) -> str:
    """Content-address of one simulation run.

    Everything that can change the produced :class:`SimulationResult`
    participates: the simulator version tag (bumped whenever a change
    alters timing behaviour), the workload identity (program + seed +
    trace length), the sample sizes, the full configuration fingerprint
    and the policy fingerprint.  ``key_extra`` remains for callers that
    vary something not visible in config or policy (none today — kept
    for forward compatibility with the in-memory key).

    The program participates via
    :func:`repro.workloads.program_cache_identity`: synthetic names
    stand for themselves, while ``riscv:`` trace workloads fold in
    their trace content hash, so editing a corpus file invalidates
    exactly the keys derived from it.
    """
    from repro.pipeline.core import SIM_VERSION
    from repro.workloads import program_cache_identity
    payload = "|".join((
        SIM_VERSION, program_cache_identity(program), str(seed),
        str(warmup), str(measure),
        str(trace_ops), config_fingerprint(config),
        policy_fingerprint(policy), _stable_repr(key_extra)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def timing_class(spec: "JobSpec") -> str | None:
    """Key of the machine ``spec`` actually simulates, or None for a job
    that is always its own class.

    Jobs of one class produce the same result in every field but
    ``model``, so a campaign simulates one of them and books a relabelled
    copy for the rest (:func:`repro.experiments.parallel.execute_campaign`).
    Timing reads ``config.model`` only to pick the policy and the
    runahead engine in ``Processor.__init__`` and the depth in
    ``Processor._set_level``, where IDEAL zeroes the active level's
    extra wakeup delay and branch penalty.  An IDEAL config whose active
    level has neither is therefore the FIXED machine, and its class is
    the FIXED config's key.  An explicit policy, SMT, the sanitizer,
    telemetry or ``fast_forward=False`` keeps a job to itself.  The
    ``timing-equivalence`` oracle of :mod:`repro.verify` checks every
    merge this makes.
    """
    config = spec.config
    if (spec.policy is not None or config.smt is not None or spec.sanitize
            or spec.telemetry_period or not spec.fast_forward):
        return None
    level = config.active_level
    if (config.model is not ModelKind.IDEAL or level.extra_wakeup_delay
            or level.extra_branch_penalty):
        return spec.key
    return result_key(spec.program, replace(config, model=ModelKind.FIXED),
                      seed=spec.seed, warmup=spec.warmup,
                      measure=spec.measure, trace_ops=spec.trace_ops)


# ----------------------------------------------------------------------
# the store


class ResultStore:
    """Two-layer content-addressed store of simulation results.

    Layer 1 is a plain dict; layer 2 (optional) a directory of pickle
    files, sharded by the first two key characters.  Disk writes are
    atomic (temp file + ``os.replace``) so a campaign killed mid-write
    never leaves a truncated entry — unreadable files are treated as
    misses and overwritten.
    """

    def __init__(self, directory: str | None = None) -> None:
        self.directory = directory
        self._mem: dict[str, SimulationResult] = {}
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        #: keys whose stored result was produced *by this process* with
        #: the invariant sanitizer attached.  A sanitizing campaign may
        #: reuse exactly these (the checks already ran); any other entry
        #: is read-bypassed so sanitization cannot be skipped by a warm
        #: cache.  Deliberately not persisted: provenance is only
        #: trustworthy within the process that verified it.
        self.sanitized_keys: set[str] = set()

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], key + _SUFFIX)

    def _touch(self, key: str) -> None:
        """Refresh the on-disk entry's LRU clock.

        :meth:`prune` evicts least-recently-*used* entries by file
        mtime, but a plain read never updates mtime — without this,
        eviction would silently degrade to FIFO and a hot, repeatedly
        hit entry would be evicted as if it had never been read again.
        """
        if self.directory is None:
            return
        try:
            os.utime(self._path(key))
        except OSError:
            pass  # entry pruned concurrently, or memory-only key

    def _lookup(self, key: str) -> SimulationResult | None:
        """Memory-then-disk lookup.  Counts hits (and refreshes the
        entry's LRU clock) but never counts a miss — tiered stores
        chain lookups across layers before declaring one."""
        result = self._mem.get(key)
        if result is not None:
            self.memory_hits += 1
            self._touch(key)
            return result
        if self.directory is not None:
            try:
                with open(self._path(key), "rb") as fh:
                    result = pickle.load(fh)
            except Exception:
                # unpickling garbage raises whatever opcode it trips
                # over (ValueError, EOFError, UnpicklingError, ...) —
                # any unreadable entry is simply a miss
                result = None
            if isinstance(result, SimulationResult):
                self._mem[key] = result
                self.disk_hits += 1
                self._touch(key)
                return result
        return None

    def get(self, key: str) -> SimulationResult | None:
        result = self._lookup(key)
        if result is None:
            self.misses += 1
        return result

    def contains(self, key: str) -> bool:
        """Like :meth:`get` but without counting a hit or a miss."""
        if key in self._mem:
            return True
        if self.directory is None:
            return False
        return os.path.exists(self._path(key))

    def put(self, key: str, result: SimulationResult) -> None:
        self._mem[key] = result
        if self.directory is None:
            return
        path = self._path(key)
        shard = os.path.dirname(path)
        os.makedirs(shard, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=shard, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear_disk(self) -> int:
        """Delete every on-disk entry; returns how many were removed."""
        removed = 0
        if self.directory is None or not os.path.isdir(self.directory):
            return removed
        for shard in os.listdir(self.directory):
            shard_dir = os.path.join(self.directory, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in os.listdir(shard_dir):
                if name.endswith(_SUFFIX):
                    os.unlink(os.path.join(shard_dir, name))
                    removed += 1
            if not os.listdir(shard_dir):
                os.rmdir(shard_dir)
        return removed

    def disk_entries(self) -> int:
        """Number of entries currently on disk."""
        return sum(1 for __ in self.iter_disk())

    def iter_disk(self):
        """Yield ``(key, path, mtime, size_bytes)`` for every on-disk
        entry.  Entries that vanish mid-scan (a concurrent prune or
        clear) are skipped, not errors."""
        if self.directory is None or not os.path.isdir(self.directory):
            return
        for shard in sorted(os.listdir(self.directory)):
            shard_dir = os.path.join(self.directory, shard)
            if not os.path.isdir(shard_dir) or shard == "telemetry":
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith(_SUFFIX):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                yield (name[:-len(_SUFFIX)], path, stat.st_mtime,
                       stat.st_size)

    def disk_bytes(self) -> int:
        """Total size of the on-disk result entries (telemetry artifacts
        not included — see :func:`telemetry_dir`)."""
        return sum(size for *__, size in self.iter_disk())

    def _artifact_path(self, key: str) -> str | None:
        directory = telemetry_dir(self)
        if directory is None:
            return None
        return telemetry_artifact_path(directory, key)

    def _drop_entry(self, key: str, path: str) -> int:
        """Remove one entry (and its telemetry artifact); returns the
        number of artifact files removed alongside."""
        try:
            os.unlink(path)
        except OSError:
            pass
        self._mem.pop(key, None)
        self.sanitized_keys.discard(key)
        artifact = self._artifact_path(key)
        if artifact is not None and os.path.exists(artifact):
            try:
                os.unlink(artifact)
                return 1
            except OSError:
                pass
        return 0

    def prune(self, max_bytes: int | None = None,
              max_age: float | None = None,
              now: float | None = None) -> "PruneReport":
        """Evict on-disk entries, LRU by file mtime.

        Two independent criteria, either or both may be given:

        * ``max_age`` — entries untouched for more than this many
          seconds are removed regardless of space;
        * ``max_bytes`` — after the age pass, the oldest remaining
          entries are evicted until the store fits in this budget.

        A pruned entry's telemetry artifact (``telemetry/<key>.jsonl``)
        goes with it — an artifact without its result is unreachable
        through the campaign and serving paths.  Eviction is safe
        against concurrent readers: a reader either sees the complete
        entry (and may re-cache it in memory) or a miss, never a
        partial file, because removal is a single ``unlink``.
        """
        report = PruneReport()
        entries = sorted(self.iter_disk(), key=lambda e: e[2])  # by mtime
        report.scanned = len(entries)
        now = time.time() if now is None else now
        keep: list[tuple[str, str, float, int]] = []
        for key, path, mtime, size in entries:
            if max_age is not None and now - mtime > max_age:
                report.artifacts_removed += self._drop_entry(key, path)
                report.removed += 1
                report.removed_bytes += size
            else:
                keep.append((key, path, mtime, size))
        if max_bytes is not None:
            total = sum(size for *__, size in keep)
            while keep and total > max_bytes:
                key, path, __, size = keep.pop(0)  # oldest first
                report.artifacts_removed += self._drop_entry(key, path)
                report.removed += 1
                report.removed_bytes += size
                total -= size
        report.kept = len(keep)
        report.kept_bytes = sum(size for *__, size in keep)
        self._remove_empty_shards()
        return report

    def _remove_empty_shards(self) -> None:
        if self.directory is None or not os.path.isdir(self.directory):
            return
        for shard in os.listdir(self.directory):
            shard_dir = os.path.join(self.directory, shard)
            if (os.path.isdir(shard_dir) and shard != "telemetry"
                    and not os.listdir(shard_dir)):
                os.rmdir(shard_dir)


@dataclass
class PruneReport:
    """What :meth:`ResultStore.prune` did."""

    scanned: int = 0
    removed: int = 0
    removed_bytes: int = 0
    kept: int = 0
    kept_bytes: int = 0
    artifacts_removed: int = 0

    def summary(self) -> str:
        return (f"pruned {self.removed} of {self.scanned} entries "
                f"({self.removed_bytes / 1024:.1f} KiB, "
                f"{self.artifacts_removed} telemetry artifacts); "
                f"{self.kept} entries / {self.kept_bytes / 1024:.1f} KiB kept")


class TieredResultStore(ResultStore):
    """A local result tier in front of a shared store.

    The cluster worker's store (`docs/serving.md`, "The distributed
    fabric"): reads check the fast local tier first and fall back to
    the shared store with **read-through** (a shared hit is promoted
    into the local tier, so the worker's shard prefixes — which drive
    content-address-affine job placement — track what it actually
    serves); writes go to the local tier and are **written back** to
    the shared store, which is how results reach the coordinator and
    every other worker.

    Both tiers are plain :class:`ResultStore` layouts, so the shared
    tier can be any directory all nodes reach (one box, NFS, a fuse
    mount) and the usual tooling (``cache --stats|--prune``) works on
    either.  :meth:`prune` and the other maintenance methods operate on
    the *local* tier only — the shared store is community property and
    is pruned by its own owner.
    """

    def __init__(self, directory: str | None,
                 shared: "ResultStore | str | None" = None) -> None:
        super().__init__(directory)
        if isinstance(shared, str):
            shared = ResultStore(shared)
        self.shared = shared
        #: local misses served by the shared tier (read-through hits)
        self.shared_hits = 0

    def get(self, key: str) -> SimulationResult | None:
        result = self._lookup(key)
        if result is not None:
            return result
        if self.shared is not None:
            result = self.shared._lookup(key)
            if result is not None:
                self.shared_hits += 1
                super().put(key, result)  # promote into the local tier
                return result
        self.misses += 1
        return None

    def contains(self, key: str) -> bool:
        if super().contains(key):
            return True
        return self.shared is not None and self.shared.contains(key)

    def put(self, key: str, result: SimulationResult) -> None:
        super().put(key, result)
        if self.shared is not None:
            self.shared.put(key, result)

    def shard_prefixes(self) -> list[str]:
        """The local tier's populated shard prefixes (``key[:2]``).

        This is what a worker advertises to the coordinator: jobs whose
        content address falls in an advertised shard are preferentially
        routed here, because their neighbours (same config sweep, same
        program family) are statistically already local.
        """
        if self.directory is None or not os.path.isdir(self.directory):
            return []
        return sorted(
            shard for shard in os.listdir(self.directory)
            if len(shard) == 2 and shard != "telemetry"
            and os.path.isdir(os.path.join(self.directory, shard)))


# ----------------------------------------------------------------------
# campaign planning


@dataclass(frozen=True)
class JobSpec:
    """One simulation to run, self-contained enough to ship to a worker."""

    key: str
    program: str
    config: ProcessorConfig
    policy: ResizingPolicy | None
    seed: int
    warmup: int
    measure: int
    trace_ops: int
    #: run this job with the invariant sanitizer attached.  Not part of
    #: the result key: a sanitized run is bit-identical, it just checks.
    sanitize: bool = False
    #: fast-forward over provably idle cycles (the default).  Also not
    #: part of the result key — ff is timing-invariant by design, and
    #: :mod:`repro.verify` exists to prove it; a caller pairing ff with
    #: no-ff runs must disambiguate the keys itself via ``key_extra``
    #: (see ``repro.verify.fuzz``).
    fast_forward: bool = True
    #: sample the run with a :class:`repro.telemetry.TelemetryProbe`
    #: every this-many cycles (0 = off) and drop the recording as a
    #: JSONL artifact into ``telemetry_dir``.  Like ``sanitize``, not
    #: part of the result key: sampling is digest-neutral (pure reads
    #: only), so a telemetry run produces a bit-identical result.
    telemetry_period: int = 0
    #: directory for the per-job telemetry artifact
    #: (``<telemetry_dir>/<key>.jsonl``); None disables writing.
    telemetry_dir: str | None = None
    #: per-thread programs of an SMT job (``config.smt`` set); the
    #: worker generates one trace per entry and runs
    #: :func:`repro.pipeline.smt.simulate_smt` instead of ``simulate``.
    #: ``program`` holds the "+"-joined form the key is derived from;
    #: keeping the split here saves every consumer re-parsing it.
    smt_programs: tuple[str, ...] | None = None


class JobRecorder:
    """Collects the unique simulations a campaign will need."""

    def __init__(self) -> None:
        self.jobs: dict[str, JobSpec] = {}

    def record(self, spec: JobSpec) -> None:
        self.jobs.setdefault(spec.key, spec)

    def __len__(self) -> int:
        return len(self.jobs)


def placeholder_result(program: str, config: ProcessorConfig) -> SimulationResult:
    """A plausible stand-in returned by ``Sweep.run`` while planning.

    Experiment modules post-process their results (speedup ratios,
    geometric means, EDP ratios, Figure 11 line-usage shares, Figure 4
    miss-interval histograms); the placeholder carries non-degenerate
    values for all of those so the planning pass survives long enough
    to record every job.  The numbers are never shown to anyone.
    """
    stats = SimStats()
    stats.cycles = 1_000
    stats.committed_uops = 1_000
    stats.level_cycles = {config.level: 1_000}
    stats.l2_miss_cycles = [100, 300, 600]
    stats.demand_miss_intervals = [(100, 300)]
    line_usage = {f"{src}_{use}": 1
                  for src in ("corrpath", "wrongpath", "prefetch")
                  for use in ("useful", "useless")}
    return SimulationResult(
        program=program,
        model=config.model.value,
        level=config.level,
        cycles=1_000,
        instructions=1_000,
        ipc=1.0,
        avg_load_latency=10.0,
        mispredict_rate=0.01,
        mlp=1.5,
        level_residency={config.level: 1.0},
        line_usage=line_usage,
        memory_stats={
            "l1i_accesses": 1_000, "l1i_misses": 10,
            "l1d_accesses": 1_000, "l1d_misses": 10,
            "l2_accesses": 100, "l2_misses": 10,
            "dram_requests": 10, "prefetch_fills": 1,
            "row_hit_rate": 0.5,
        },
        energy_nj=1.0,
        edp=1_000.0,
        stats=stats,
    )


# ----------------------------------------------------------------------
# module-level active store / recorder
#
# Module-level rather than per-Sweep because some experiments construct
# their own Sweep instances internally (ablation_seeds builds one per
# trace seed): a store or recorder installed here reaches those too.

_active_store: ResultStore | None = None
_active_recorder: JobRecorder | None = None


def set_active_store(store: ResultStore | None) -> None:
    """Install the store newly constructed ``Sweep`` instances pick up."""
    global _active_store
    _active_store = store


def active_store() -> ResultStore | None:
    return _active_store


def active_recorder() -> JobRecorder | None:
    return _active_recorder


@contextmanager
def recording(recorder: JobRecorder):
    """Planning mode: ``Sweep.run`` records jobs instead of simulating."""
    global _active_recorder
    previous = _active_recorder
    _active_recorder = recorder
    try:
        yield recorder
    finally:
        _active_recorder = previous
