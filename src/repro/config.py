"""Processor and experiment configuration.

This module encodes the evaluated processor of the paper:

* Table 1 — configuration of the base processor (pipeline width, window
  resource sizes, branch predictor, caches, main memory, prefetcher).
* Table 2 — the instruction window resource *levels*: number of entries and
  pipeline depth of the IQ/ROB/LSQ at each level, and the cycle penalty paid
  at a level transition.

Everything is a plain frozen dataclass so configurations can be shared
between models, hashed, compared in tests, and tweaked with
``dataclasses.replace``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from functools import lru_cache


class ModelKind(Enum):
    """The three processor models evaluated in Section 5.3 of the paper,
    plus the runahead comparator of Section 5.7."""

    #: Window sizes fixed at a given level for the whole run; the resources
    #: are pipelined per Table 2 (issue delay + extra mispredict penalty).
    FIXED = "fixed"
    #: Window resources resized dynamically by the MLP-aware controller.
    DYNAMIC = "dynamic"
    #: Window sizes fixed at a given level but *not* pipelined: no issue
    #: delay and no extra mispredict penalty (upper bound, Fig 7 line).
    IDEAL = "ideal"
    #: Base-sized window plus runahead execution (Mutlu et al.).
    RUNAHEAD = "runahead"


@dataclass(frozen=True)
class ResourceLevel:
    """Sizes and pipeline depths of the window resources at one level.

    Mirrors one column of Table 2 of the paper.
    """

    iq_entries: int
    rob_entries: int
    lsq_entries: int
    iq_depth: int
    rob_depth: int
    lsq_depth: int

    def __post_init__(self) -> None:
        if self.iq_entries <= 0 or self.rob_entries <= 0 or self.lsq_entries <= 0:
            raise ValueError("resource sizes must be positive")
        if self.iq_depth < 1 or self.rob_depth < 1 or self.lsq_depth < 1:
            raise ValueError("pipeline depths must be >= 1")

    @property
    def extra_wakeup_delay(self) -> int:
        """Extra cycles before a consumer can issue after its producer.

        A pipelined IQ (depth ``d``) cannot issue dependent instructions
        back-to-back: the wakeup/select loop takes ``d`` cycles, so the
        consumer observes the broadcast ``d - 1`` cycles late.
        """
        return self.iq_depth - 1

    @property
    def extra_branch_penalty(self) -> int:
        """Extra branch misprediction penalty at this level.

        The enlarged IQ adds issue delay and the pipelined ROB register
        field read lengthens recovery (Section 5.1 of the paper).  One
        extra cycle per extra IQ stage plus one per extra ROB stage.
        """
        return (self.iq_depth - 1) + (self.rob_depth - 1)


#: Table 2 of the paper: the three instruction window resource levels.
LEVEL_TABLE: tuple[ResourceLevel, ...] = (
    ResourceLevel(iq_entries=64, rob_entries=128, lsq_entries=64,
                  iq_depth=1, rob_depth=1, lsq_depth=1),
    ResourceLevel(iq_entries=160, rob_entries=320, lsq_entries=160,
                  iq_depth=2, rob_depth=2, lsq_depth=2),
    ResourceLevel(iq_entries=256, rob_entries=512, lsq_entries=256,
                  iq_depth=2, rob_depth=2, lsq_depth=2),
)

#: Extension beyond the paper: a fourth level (6x IQ/LSQ, 6x ROB).  The
#: IQ delay scaling of [25] implies a third pipeline stage at this size,
#: so level 4 pays a 2-cycle wakeup gap and a larger recovery penalty —
#: the ablation_level4 experiment probes whether it still pays.
EXTENDED_LEVEL_TABLE: tuple[ResourceLevel, ...] = LEVEL_TABLE + (
    ResourceLevel(iq_entries=384, rob_entries=768, lsq_entries=384,
                  iq_depth=3, rob_depth=2, lsq_depth=3),
)

#: Cycles during which front-end allocation stalls at a level transition.
LEVEL_TRANSITION_PENALTY = 10


def level_at(level: int, table: tuple[ResourceLevel, ...] = LEVEL_TABLE) -> ResourceLevel:
    """Return the :class:`ResourceLevel` for a 1-based level number."""
    if not 1 <= level <= len(table):
        raise ValueError(f"level must be in 1..{len(table)}, got {level}")
    return table[level - 1]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache."""

    size_bytes: int
    assoc: int
    line_bytes: int
    hit_latency: int
    mshr_entries: int = 16

    def __post_init__(self) -> None:
        if self.size_bytes % (self.assoc * self.line_bytes) != 0:
            raise ValueError("cache size must be a multiple of assoc * line size")
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass(frozen=True)
class MemoryConfig:
    """Main memory channel: minimum latency plus bandwidth (Table 1)."""

    min_latency: int = 300
    bytes_per_cycle: int = 8
    #: charge channel bandwidth for dirty-line writebacks on L2 eviction.
    #: Off by default (the paper's Table 1 specifies only the fetch path);
    #: the ablation_writeback experiment quantifies the difference.
    model_writebacks: bool = False
    #: "flat" = the paper's Table 1 channel (min latency + bandwidth);
    #: "banked" = bank/row-buffer model (see memory/dram_banked.py and
    #: the ablation_dram experiment).
    organisation: str = "flat"


@dataclass(frozen=True)
class PrefetcherConfig:
    """Data prefetcher.  Table 1 of the paper: stride-based, 4K-entry
    4-way table, 16-data prefetch into the L2 on a miss.  ``kind``
    selects alternatives for the prefetcher ablation ("stride" |
    "stream" | "nextline" | "none")."""

    enabled: bool = True
    kind: str = "stride"
    table_entries: int = 4096
    table_assoc: int = 4
    degree: int = 16


@dataclass(frozen=True)
class BranchPredictorConfig:
    """gshare with a 16-bit history and 64K-entry PHT, 2K-set 4-way BTB,
    10-cycle misprediction penalty (Table 1)."""

    history_bits: int = 16
    pht_entries: int = 65536
    btb_sets: int = 2048
    btb_assoc: int = 4
    mispredict_penalty: int = 10


@dataclass(frozen=True)
class FunctionUnitConfig:
    """Function unit counts (Table 1)."""

    int_alu: int = 4
    int_mul_div: int = 2
    mem_ports: int = 2
    fp_alu: int = 4
    fp_mul_div: int = 2


@dataclass(frozen=True)
class RunaheadConfig:
    """Runahead comparator configuration (Section 5.7).

    Two checkpointed register files, and a 512-byte 4-way 2-port runahead
    cache for memory dependences in runahead mode.  The runahead cause
    status table (RCST) predicts useless runahead episodes.
    """

    runahead_cache_bytes: int = 512
    runahead_cache_assoc: int = 4
    rcst_entries: int = 64
    use_rcst: bool = True
    #: minimum number of L2 misses observed during an episode for the RCST
    #: to deem that episode useful.
    rcst_useful_threshold: int = 1


@dataclass(frozen=True)
class SMTConfig:
    """SMT scenario: 2-4 hardware threads sharing one window.

    ``partition`` selects the :mod:`repro.core.partition` policy that
    maps per-thread resizing levels onto a partition of the shared
    ROB/IQ/LSQ; ``fetch`` selects the per-cycle thread fetch selector
    ("mlp" = ICOUNT biased away from threads with outstanding demand L2
    misses, "icount" = plain ICOUNT, "roundrobin" = rotation).
    """

    threads: int = 2
    partition: str = "mlp"
    fetch: str = "mlp"

    def __post_init__(self) -> None:
        if not 1 <= self.threads <= 4:
            raise ValueError(f"SMT threads must be in 1..4, "
                             f"got {self.threads}")
        if self.partition not in ("mlp", "equal", "shared"):
            raise ValueError(f"unknown partition policy {self.partition!r} "
                             f"(want 'mlp', 'equal' or 'shared')")
        if self.fetch not in ("mlp", "icount", "roundrobin"):
            raise ValueError(f"unknown fetch policy {self.fetch!r} "
                             f"(want 'mlp', 'icount' or 'roundrobin')")


@dataclass(frozen=True)
class ProcessorConfig:
    """Full processor configuration; defaults reproduce Table 1."""

    model: ModelKind = ModelKind.FIXED
    #: fixed level for FIXED/IDEAL models; maximum level for DYNAMIC.
    level: int = 1
    width: int = 4
    levels: tuple[ResourceLevel, ...] = LEVEL_TABLE
    transition_penalty: int = LEVEL_TRANSITION_PENALTY
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    fu: FunctionUnitConfig = field(default_factory=FunctionUnitConfig)
    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=64 * 1024, assoc=2, line_bytes=32, hit_latency=1))
    # MSHR files are provisioned generously (the paper's SimpleScalar-
    # derived simulator does not bound outstanding misses): the
    # *instruction window* must be the MLP limiter, not the miss buffers.
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=64 * 1024, assoc=2, line_bytes=32, hit_latency=2,
        mshr_entries=64))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=2 * 1024 * 1024, assoc=4, line_bytes=64, hit_latency=12,
        mshr_entries=64))
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    prefetcher: PrefetcherConfig = field(default_factory=PrefetcherConfig)
    runahead: RunaheadConfig = field(default_factory=RunaheadConfig)
    #: SMT scenario (None = the ordinary single-thread pipeline).  When
    #: set, ``level`` is the *provisioned* window level all threads
    #: share and ``model`` must be FIXED (static partition) or DYNAMIC
    #: (per-thread MLP detectors driving the partition).
    smt: SMTConfig | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.level <= len(self.levels):
            raise ValueError(
                f"level {self.level} outside 1..{len(self.levels)}")
        if self.width < 1:
            raise ValueError("pipeline width must be >= 1")
        if self.smt is not None and self.model not in (
                ModelKind.FIXED, ModelKind.DYNAMIC):
            raise ValueError(
                f"SMT supports the fixed and dynamic models, "
                f"not {self.model.value!r}")

    @property
    def max_level(self) -> int:
        return len(self.levels)

    def level_config(self, level: int) -> ResourceLevel:
        """Resource level configuration for a 1-based level number."""
        return level_at(level, self.levels)

    @property
    def active_level(self) -> ResourceLevel:
        """The level the model starts at (and stays at, unless DYNAMIC)."""
        return self.level_config(self.level)

    def with_model(self, model: ModelKind, level: int | None = None) -> "ProcessorConfig":
        """A copy of this configuration running a different model."""
        return replace(self, model=model,
                       level=self.level if level is None else level)


def _encode_enum(obj: object) -> object:
    if isinstance(obj, Enum):
        return obj.value
    raise TypeError(f"cannot canonicalise {obj!r} in a config fingerprint")


@lru_cache(maxsize=None)
def config_fingerprint(config: ProcessorConfig) -> str:
    """Stable content hash over every *model* field of a processor config.

    Canonical form: the nested-dataclass dict, JSON-encoded with sorted
    keys (enums by value, tuples as lists).  Two configs share a
    fingerprint iff they are field-for-field identical, so the
    fingerprint is a collision-free simulation cache key component —
    unlike hand-picked field subsets, it cannot silently alias configs
    that differ in DRAM latency, prefetcher kind, or any future field.

    Configs are frozen (hashable), so fingerprints are memoised.
    """
    fields = asdict(config)
    if fields.get("smt") is None:
        # Every pre-SMT config fingerprints exactly as it always did, so
        # existing on-disk result-store entries stay addressable.
        del fields["smt"]
    payload = json.dumps(fields, sort_keys=True,
                         default=_encode_enum, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def base_config() -> ProcessorConfig:
    """The conventional (base) processor: fixed level-1 window (Table 1)."""
    return ProcessorConfig(model=ModelKind.FIXED, level=1)


def fixed_config(level: int) -> ProcessorConfig:
    """Fixed-size model at ``level`` with pipelined resources."""
    return ProcessorConfig(model=ModelKind.FIXED, level=level)


def ideal_config(level: int) -> ProcessorConfig:
    """Ideal model: level's sizes but non-pipelined and penalty-free."""
    return ProcessorConfig(model=ModelKind.IDEAL, level=level)


def dynamic_config(max_level: int = 3) -> ProcessorConfig:
    """Dynamic resizing model: starts at level 1, may grow to ``max_level``."""
    return ProcessorConfig(model=ModelKind.DYNAMIC, level=max_level)


def runahead_config() -> ProcessorConfig:
    """Runahead comparator: base window plus runahead execution."""
    return ProcessorConfig(model=ModelKind.RUNAHEAD, level=1)


def smt_config(threads: int = 2, partition: str = "mlp",
               fetch: str = "mlp", level: int = 3) -> ProcessorConfig:
    """SMT processor: ``threads`` contexts sharing one ``level`` window.

    The ``mlp`` partition needs live per-thread phase detectors, so it
    runs as the DYNAMIC model; the static partitions (``equal``,
    ``shared``) run as FIXED — with one thread and the ``equal``
    partition this is bit-identical to ``fixed_config(level)``, the
    property the ``verify smt`` oracle suite pins.
    """
    model = ModelKind.DYNAMIC if partition == "mlp" else ModelKind.FIXED
    return ProcessorConfig(
        model=model, level=level,
        smt=SMTConfig(threads=threads, partition=partition, fetch=fetch))
