"""Differential and metamorphic oracles over paired simulation runs.

Each ``check_*`` function runs a family of simulations and asserts a
cross-run relation that must hold *by construction* (see the package
docstring for the catalogue).  They return :class:`OracleOutcome`
records rather than raising, so the CLI and CI can report every
violation in one pass.

All oracles run at smoke scale — a few thousand measured micro-ops on
the four-program :data:`SMOKE_CORPUS` — because they compare runs
against each other, not against the paper: any violation is a simulator
bug regardless of sample size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import (
    EXTENDED_LEVEL_TABLE,
    LEVEL_TABLE,
    ProcessorConfig,
    dynamic_config,
    fixed_config,
    ideal_config,
)
from repro.core import StaticPolicy, TablePolicy, make_policy
from repro.energy import EnergyModel
from repro.isa import MicroOp, OpClass
from repro.pipeline import Processor, simulate
from repro.verify.digest import diff_payloads, digest_payload, result_digest
from repro.workloads import Trace, trace_for_program

#: Two memory-intensive and two compute-intensive programs: enough to
#: exercise both sides of every policy's decision logic.
SMOKE_CORPUS: tuple[str, ...] = ("libquantum", "milc", "gcc", "sjeng")

#: Smoke-scale sample sizes (committed micro-ops).
SMOKE_WARMUP = 2_000
SMOKE_MEASURE = 6_000
SMOKE_TRACE_OPS = SMOKE_WARMUP + SMOKE_MEASURE + 1_000
SMOKE_SEED = 1

#: The adaptive policies the pin-equivalence oracle constrains.  The
#: bandit family is enrolled like any other comparator: ``.pin(N)``
#: must reduce it to the inert static fast path, exploration and all.
ADAPTIVE_POLICIES: tuple[str, ...] = ("mlp", "occupancy", "contribution",
                                      "bandit:ucb", "bandit:egreedy")


@dataclass
class OracleOutcome:
    """One oracle check on one subject."""

    oracle: str
    subject: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "ok  " if self.passed else "FAIL"
        text = f"{mark} [{self.oracle}] {self.subject}"
        if self.detail and not self.passed:
            text += f": {self.detail}"
        return text


def report(outcomes: list[OracleOutcome]) -> str:
    """Multi-line report plus a pass/fail summary line."""
    lines = [o.line() for o in outcomes]
    failed = sum(1 for o in outcomes if not o.passed)
    lines.append(f"{len(outcomes) - failed}/{len(outcomes)} oracle checks "
                 + ("passed" if not failed else f"passed, {failed} FAILED"))
    return "\n".join(lines)


_TRACE_MEMO: dict[tuple[str, int, int], Trace] = {}


def smoke_trace(program: str, seed: int = SMOKE_SEED,
                n_ops: int = SMOKE_TRACE_OPS) -> Trace:
    """Memoised smoke-scale trace for ``program``."""
    key = (program, n_ops, seed)
    trace = _TRACE_MEMO.get(key)
    if trace is None:
        trace = trace_for_program(program, n_ops=n_ops, seed=seed)
        _TRACE_MEMO[key] = trace
    return trace


def _smoke_run(config: ProcessorConfig, trace: Trace, *, policy=None):
    return simulate(config, trace, warmup=SMOKE_WARMUP,
                    measure=SMOKE_MEASURE, policy=policy)


def _digest_mismatch_detail(res_a, res_b, limit: int = 4) -> str:
    diffs = diff_payloads(digest_payload(res_a), digest_payload(res_b))
    shown = "; ".join(diffs[:limit])
    if len(diffs) > limit:
        shown += f"; ... {len(diffs) - limit} more"
    return shown or "digests differ but payloads compare equal (?)"


# ----------------------------------------------------------------------
# 1. pin-equivalence


def check_pin_equivalence(programs=SMOKE_CORPUS,
                          policies=ADAPTIVE_POLICIES,
                          levels=(1, 2, 3)) -> list[OracleOutcome]:
    """A pinned adaptive policy must be bit-identical to StaticPolicy.

    ``ResizingPolicy.pin(level)`` freezes a policy; the processor then
    treats it exactly like a static one.  If any pinned run diverges
    from the static run at the same level, the adaptive policy is
    influencing timing through some side channel other than its resize
    decisions — a differential bug no single run could reveal.
    """
    outcomes = []
    config = dynamic_config(3)
    for program in programs:
        trace = smoke_trace(program)
        for level in levels:
            ref = _smoke_run(config, trace, policy=StaticPolicy(level))
            ref_digest = result_digest(ref)
            for name in policies:
                pinned = make_policy(
                    name, config.max_level,
                    config.memory.min_latency).pin(level)
                res = _smoke_run(config, trace, policy=pinned)
                same = result_digest(res) == ref_digest
                outcomes.append(OracleOutcome(
                    "pin-equivalence", f"{program} {name}@L{level}", same,
                    "" if same else _digest_mismatch_detail(ref, res)))
    return outcomes


# ----------------------------------------------------------------------
# 2. monotonicity


def _flat_levels() -> tuple:
    """The level table with every pipelining penalty removed: same
    sizes, depth 1 everywhere (no wakeup gap, no extra branch
    penalty)."""
    return tuple(replace(lv, iq_depth=1, rob_depth=1, lsq_depth=1)
                 for lv in LEVEL_TABLE)


#: Monotonicity holds where window size has no *modeled* downside.  One
#: downside survives even a penalty-free level table: wrong-path depth.
#: A larger window dispatches and executes more micro-ops past a
#: mispredicted branch before it resolves, and those compete for issue
#: slots and function units — so on mispredict-heavy programs (sjeng
#: loses ~12% IPC from IDEAL-1 to IDEAL-3 through this effect alone)
#: "bigger never hurts" is genuinely false, not a simulator bug.  The
#: oracle therefore runs on the branch-light memory programs, plus a
#: branch-free synthetic trace where the relation holds by construction.
MONOTONE_PROGRAMS: tuple[str, ...] = ("libquantum", "milc")


def _mlp_trace(n_ops: int = 6_000) -> Trace:
    """Branch-free cold-load/ALU mix: the only window-size effect left
    is MLP, so IPC must be monotone in window size.

    Load addresses walk a shuffled line permutation (no constant
    stride), so the prefetcher cannot hide the misses either.
    """
    import random as _random
    n_lines = 4_096
    order = list(range(n_lines))
    _random.Random(3).shuffle(order)
    ops: list[MicroOp] = []
    for i in range(n_ops):
        pc = _CODE_BASE + 4 * (i % 1_024)
        if i % 8 == 0:
            addr = _DATA_BASE + order[(i // 8) % n_lines] * 64
            ops.append(MicroOp(pc, OpClass.LOAD, dst=1 + (i % 4),
                               srcs=(), addr=addr, size=8))
        else:
            ops.append(MicroOp(pc, OpClass.IALU, dst=5 + (i % 4), srcs=()))
    return Trace("mlpmono", ops, seed=13, data_base=_DATA_BASE,
                 data_size=n_lines * 64)


def _run_trace_ipc(config: ProcessorConfig, trace: Trace) -> float:
    """Run a hand-built trace to completion (warm I-cache, no sampling
    split) and return its IPC."""
    proc = Processor(config, trace)
    line = config.l1i.line_bytes
    for addr in range(_CODE_BASE, _CODE_BASE + 4 * 1_024 + line, line):
        proc.hierarchy.l1i.install(addr, ready_at=0)
    proc.run(until_committed=len(trace.ops))
    return proc.stats.ipc


def check_monotonicity(programs=MONOTONE_PROGRAMS,
                       tolerance: float = 0.005) -> list[OracleOutcome]:
    """With window-size costs disabled, a bigger window never hurts.

    The paper's whole premise is a *trade-off*: larger windows buy MLP
    but cost ILP through pipelined resources and transition stalls.
    Remove the costs and the trade-off must disappear:

    * IDEAL (non-pipelined, penalty-free) IPC is non-decreasing in
      level;
    * the dynamic model on a penalty-free flat level table is bounded
      by its envelope — no worse than always-smallest (FIXED level 1),
      no better than always-largest (IDEAL level 3).

    Scope: see :data:`MONOTONE_PROGRAMS` — wrong-path execution depth
    scales with window size even on a penalty-free table, so the
    relation is only asserted where branch effects are negligible
    (plus the branch-free synthetic trace, where it is exact).
    ``tolerance`` is relative slack for the residual second-order
    noise (prefetch timing, wrong-path pollution) on the generated
    programs.
    """
    outcomes = []
    flat = _flat_levels()

    def check_family(label: str, run) -> None:
        ipcs = [run(ideal_config(level)) for level in (1, 2, 3)]
        nondec = all(b >= a * (1 - tolerance)
                     for a, b in zip(ipcs, ipcs[1:]))
        outcomes.append(OracleOutcome(
            "monotonicity", f"{label} ideal L1<=L2<=L3", nondec,
            "" if nondec else "IPC by level: "
            + ", ".join(f"{v:.4f}" for v in ipcs)))
        lo = run(replace(fixed_config(1), levels=flat,
                         transition_penalty=0))
        hi = run(replace(ideal_config(3), levels=flat,
                         transition_penalty=0))
        dyn = run(replace(dynamic_config(3), levels=flat,
                          transition_penalty=0))
        bounded = (dyn >= lo * (1 - tolerance)
                   and dyn <= hi * (1 + tolerance))
        outcomes.append(OracleOutcome(
            "monotonicity", f"{label} fixed1<=dyn<=ideal3", bounded,
            "" if bounded
            else f"fixed1={lo:.4f} dyn={dyn:.4f} ideal3={hi:.4f}"))

    for program in programs:
        trace = smoke_trace(program)
        check_family(program, lambda cfg: _smoke_run(cfg, trace).ipc)
    synth = _mlp_trace()
    check_family("synthetic-mlp", lambda cfg: _run_trace_ipc(cfg, synth))
    return outcomes


# ----------------------------------------------------------------------
# 3. degenerate memory


_CODE_BASE = 0x40_0000
_DATA_BASE = 0x5000_0000


def _no_miss_trace(n_ops: int = 4_000) -> Trace:
    """A branch-free load/ALU loop whose entire footprint is declared
    warm: after prewarm, no access can miss the L2.

    Branch-free matters: without mispredictions there is no wrong-path
    fetch, so no synthesized stray load can sneak a demand miss in.
    """
    data_size = 4_096                      # well under the L1D
    ops: list[MicroOp] = []
    for i in range(n_ops):
        pc = _CODE_BASE + 4 * (i % 512)    # small resident code loop
        if i % 4 == 0:
            addr = _DATA_BASE + (i * 64) % data_size
            ops.append(MicroOp(pc, OpClass.LOAD, dst=1 + (i % 8),
                               srcs=(), addr=addr, size=8))
        else:
            ops.append(MicroOp(pc, OpClass.IALU, dst=1 + (i % 8),
                               srcs=(1 + ((i + 1) % 8),)))
    return Trace("nomiss", ops, seed=11, data_base=_DATA_BASE,
                 data_size=data_size,
                 warm_regions=[(_DATA_BASE, data_size, True)])


def check_degenerate_memory(policies=("mlp", "static", "occupancy",
                                      "contribution", "bandit:ucb",
                                      "bandit:egreedy"),
                            n_ops: int = 4_000) -> list[OracleOutcome]:
    """With no demand L2 misses, the MLP trigger never fires.

    Every policy runs the same warm-everything trace.  All runs must
    observe zero demand misses; on top of that the MLP-aware policy
    (whose *only* enlarge trigger is a demand miss), the static policy
    and the bandit family (whose arms above level 1 are only eligible
    while demand misses are recent) must never leave level 1.  The
    feedback comparators are allowed to trial levels — that is their
    design — so for them the oracle only checks the no-miss premise
    held.
    """
    outcomes = []
    config = dynamic_config(3)
    for name in policies:
        trace = _no_miss_trace(n_ops)
        policy = make_policy(name, config.max_level,
                             config.memory.min_latency)
        proc = Processor(config, trace, policy=policy)
        proc.prewarm()
        # warm the code loop too: cold instruction fetch would miss the
        # L2 and (being a demand miss) trigger the MLP policy
        line = proc.config.l1i.line_bytes
        for addr in range(_CODE_BASE, _CODE_BASE + 4 * 512 + line, line):
            proc.hierarchy.l1i.install(addr, ready_at=0)
            proc.hierarchy.l2.install_span(addr - addr % 64, 64, touched=True)
        proc.run(until_committed=n_ops)
        misses = len(proc.stats.l2_miss_cycles)
        premise = misses == 0
        outcomes.append(OracleOutcome(
            "degenerate-memory", f"{name} zero demand misses", premise,
            "" if premise else f"{misses} demand L2 misses detected"))
        if name in ("mlp", "static") or name.startswith("bandit:"):
            stayed = (proc.stats.level_transitions == []
                      and set(proc.stats.level_cycles) <= {1})
            outcomes.append(OracleOutcome(
                "degenerate-memory", f"{name} stays at level 1", stayed,
                "" if stayed else
                f"transitions={proc.stats.level_transitions[:6]} "
                f"level_cycles={proc.stats.level_cycles}"))
    return outcomes


# ----------------------------------------------------------------------
# 3b. seeded replay


#: Memory-intensive smoke programs: L2 misses keep the bandit's arms
#: eligible, so exploration actually happens and the replay assertion
#: has teeth.
SEEDED_REPLAY_PROGRAMS: tuple[str, ...] = ("libquantum", "milc")


def check_seeded_replay(programs=SEEDED_REPLAY_PROGRAMS,
                        seeds=(1, 7)) -> list[OracleOutcome]:
    """Seeded exploration must replay bit-identically, and the seed
    must key the result.

    Two relations per (program, bandit kind):

    * *replay* — two runs with the same seed, fresh policy objects,
      produce bit-identical stat digests.  Any divergence means the
      exploration sequence leaked state from somewhere other than
      ``(seed, draw_index)`` — host hash order, process state, a
      stale class attribute;
    * *seed keying* — different seeds yield different ``result_key``
      content addresses (the seed rides the policy fingerprint), so a
      cached campaign can never serve seed A's run for seed B.
    """
    from repro.experiments.cache import result_key

    outcomes = []
    config = dynamic_config(3)

    def bandit(kind: str, seed: int):
        return make_policy(f"bandit:{kind}:{seed}", config.max_level,
                           config.memory.min_latency)

    for program in programs:
        trace = smoke_trace(program)
        for kind in ("ucb", "egreedy"):
            subject = f"{program} bandit:{kind}"
            ref = _smoke_run(config, trace, policy=bandit(kind, seeds[0]))
            replay = _smoke_run(config, trace,
                                policy=bandit(kind, seeds[0]))
            same = result_digest(replay) == result_digest(ref)
            outcomes.append(OracleOutcome(
                "seeded-replay", f"{subject} same-seed digest", same,
                "" if same else _digest_mismatch_detail(ref, replay)))
            keys = [result_key(program, config, seed=SMOKE_SEED,
                               warmup=SMOKE_WARMUP, measure=SMOKE_MEASURE,
                               trace_ops=SMOKE_TRACE_OPS,
                               policy=bandit(kind, seed))
                    for seed in seeds]
            distinct = len(set(keys)) == len(keys)
            outcomes.append(OracleOutcome(
                "seeded-replay", f"{subject} seed keys result", distinct,
                "" if distinct else
                f"seeds {seeds} collide on result_key {keys[0][:16]}..."))
    return outcomes


# ----------------------------------------------------------------------
# 4. fast-forward equivalence


def _fields_but_model(result) -> dict:
    """Every result and :class:`~repro.stats.SimStats` field of a
    result, except ``model``."""
    fields = {name: value for name, value in vars(result).items()
              if name not in ("model", "stats")}
    fields.update((f"stats.{name}", value)
                  for name, value in vars(result.stats).items()
                  if name != "activity")
    fields["stats.activity"] = result.stats.activity.as_dict()
    return fields


#: Controllers the fast-forward oracle runs besides the dynamic model's
#: own: each publishes its periodic check as a timer, and the jump skips
#: its drains.  ``riscv:listchase`` (pointer chasing) drains the most.
FF_POLICIES: tuple[str, ...] = ("bandit:ucb", "bandit:egreedy",
                                "contribution", "table")
FF_RISCV_PROGRAM = "riscv:listchase"


def ff_policy(name: str, config: ProcessorConfig):
    """A fresh :data:`FF_POLICIES` policy (``table``: level 1 on no
    miss in a window, 2 on up to three, else 3)."""
    if name == "table":
        return TablePolicy(config.max_level, thresholds=(1, 4),
                           levels=(1, 2, 3))
    return make_policy(name, config.max_level, config.memory.min_latency)


def ff_fields(config: ProcessorConfig, trace: Trace, policy, *,
              warmup: int, measure: int, fast_forward: bool) -> dict:
    """Run ``trace`` as ``simulate`` does; return every result and
    ``SimStats`` field but ``model`` and the window's ``full_events``:
    every stall counter an idle jump must charge as stepping does."""
    proc = Processor(config, trace, policy=policy)
    proc.fast_forward = fast_forward
    proc.prewarm()
    proc.run(until_committed=warmup)
    proc.reset_measurement()
    proc.run(until_committed=warmup + measure)
    window = proc.window
    return dict(_fields_but_model(proc.result()), full_events=(
        window.rob.full_events, window.iq.full_events, window.lsq.full_events))


def fields_mismatch_detail(a: dict, b: dict) -> str:
    """The fields two field views disagree on ("" when none)."""
    diffs = [name for name in a if a[name] != b[name]]
    return "differs in " + ", ".join(diffs[:6]) if diffs else ""


def check_fast_forward_equivalence(
        programs=SMOKE_CORPUS + (FF_RISCV_PROGRAM,)
) -> list[OracleOutcome]:
    """Fast-forwarding over idle cycles must not change behaviour.

    Each program runs jumping and stepping on the base fixed
    configuration, the dynamic model (whose policy timers are exactly
    what a fast-forward bug would skew) and the dynamic model under each
    of :data:`FF_POLICIES`; the pair must agree on every
    :func:`ff_fields` field, stall counters included.
    """
    dynamic = dynamic_config(3)
    runs = [("fixed1", fixed_config(1), None), ("dynamic", dynamic, None)]
    runs += [(name, dynamic, name) for name in FF_POLICIES]
    outcomes = []
    for program in programs:
        trace = smoke_trace(program)
        for label, config, name in runs:
            jumped, stepped = [
                ff_fields(config, trace,
                          None if name is None else ff_policy(name, config),
                          warmup=SMOKE_WARMUP, measure=SMOKE_MEASURE,
                          fast_forward=fast_forward)
                for fast_forward in (True, False)]
            detail = fields_mismatch_detail(jumped, stepped)
            outcomes.append(OracleOutcome(
                "ff-equivalence", f"{program} {label}", not detail, detail))
    return outcomes


# ----------------------------------------------------------------------
# 5. timing equivalence


#: The riscv program the timing-equivalence family adds to its corpus.
TIMING_RISCV_PROGRAM = "riscv:mixed"


#: (label, IDEAL, FIXED) config pairs the campaign timing class is meant
#: to merge: level 1 of the paper's table and of the extended table
#: (depth 1 in both), and level 3 of the monotonicity oracle's flat
#: depth-1 table.
TIMING_PAIRS: tuple[tuple[str, ProcessorConfig, ProcessorConfig], ...] = (
    ("ideal1/fixed1", ideal_config(1), fixed_config(1)),
    ("ideal1/fixed1 extended",
     replace(ideal_config(1), levels=EXTENDED_LEVEL_TABLE),
     replace(fixed_config(1), levels=EXTENDED_LEVEL_TABLE)),
    ("ideal3/fixed3 flat", replace(ideal_config(3), levels=_flat_levels()),
     replace(fixed_config(3), levels=_flat_levels())),
)


def check_timing_equivalence(
        programs=SMOKE_CORPUS + (TIMING_RISCV_PROGRAM,)
) -> list[OracleOutcome]:
    """Jobs the campaign timing class merges must be the same machine.

    A campaign simulates one job per
    :func:`~repro.experiments.cache.timing_class` and books the others
    as relabelled copies, which is exact only if the merged configs
    agree on every result and ``SimStats`` field but ``model`` — stall
    counters, CPI stack and energy included, so this compares more than
    the digest does.  A pair of :data:`TIMING_PAIRS` the class does not
    merge is not run.
    """
    from repro.experiments.cache import JobSpec, result_key, timing_class

    sizes = dict(seed=SMOKE_SEED, warmup=SMOKE_WARMUP,
                 measure=SMOKE_MEASURE, trace_ops=SMOKE_TRACE_OPS)

    def job_class(program: str, config: ProcessorConfig) -> str | None:
        return timing_class(JobSpec(
            key=result_key(program, config, **sizes), program=program,
            config=config, policy=None, **sizes))

    outcomes = []
    energy = EnergyModel()
    for program in programs:
        trace = smoke_trace(program)
        for label, ideal, fixed in TIMING_PAIRS:
            subject = f"{program} {label}"
            if job_class(program, ideal) != job_class(program, fixed):
                outcomes.append(OracleOutcome(
                    "timing-equivalence", f"{subject} (not merged)", True))
                continue
            detail = fields_mismatch_detail(*[
                _fields_but_model(energy.annotate(_smoke_run(config, trace),
                                                  config))
                for config in (ideal, fixed)])
            outcomes.append(OracleOutcome(
                "timing-equivalence", subject, not detail, detail))
    return outcomes


# ----------------------------------------------------------------------


def run_all_oracles(programs=SMOKE_CORPUS) -> list[OracleOutcome]:
    """The full oracle suite (golden digests are separate: they need a
    committed reference file, see :mod:`repro.verify.golden`).

    ``programs`` scopes the pin-equivalence, fast-forward and
    timing-equivalence families (the last two add
    :data:`FF_RISCV_PROGRAM` and :data:`TIMING_RISCV_PROGRAM`);
    monotonicity keeps its own corpus
    (see :data:`MONOTONE_PROGRAMS` — the relation is deliberately not
    asserted on branchy programs).
    """
    outcomes = []
    outcomes += check_pin_equivalence(programs)
    outcomes += check_monotonicity(
        tuple(p for p in programs if p in MONOTONE_PROGRAMS)
        or MONOTONE_PROGRAMS)
    outcomes += check_degenerate_memory()
    outcomes += check_seeded_replay(
        tuple(p for p in programs if p in SEEDED_REPLAY_PROGRAMS)
        or SEEDED_REPLAY_PROGRAMS)
    outcomes += check_fast_forward_equivalence(
        tuple(dict.fromkeys(tuple(programs) + (FF_RISCV_PROGRAM,))))
    outcomes += check_timing_equivalence(
        tuple(dict.fromkeys(tuple(programs) + (TIMING_RISCV_PROGRAM,))))
    return outcomes
