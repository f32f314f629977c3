"""Oracles for the SMT pipeline (:mod:`repro.pipeline.smt`).

Three families, all smoke-scale (see :mod:`repro.verify.oracles` for the
philosophy — every relation here holds *by construction*, so any
violation is a simulator bug regardless of sample size):

* **smt-determinism** — a 2-thread SMT run executed twice from fresh
  state produces bit-identical per-thread stat digests.  Per-thread
  digest identity is a stronger claim than aggregate identity: it pins
  each thread's committed counters, miss intervals and level residency
  individually.

* **smt-baseline** — a 1-thread SMT run under the ``equal`` partition
  (whose single-thread quota degrades to the whole window at the
  provisioned level) is bit-identical to the single-core baseline
  ``fixed`` model on the same trace.  Both cores run the same stage
  bodies, so this is the SMT analogue of the pin-equivalence oracle
  for what the SMT core adds around them: the quota partition, the
  address-offsetting memory port and the thread selectors must leave
  no trace on timing when there is nothing to share.

* **smt-invariants** — 2- and 3-thread runs under every partition
  policy with per-cycle invariant validation on: partitions never
  overlap nor exceed the active capacity (quota sums, occupancy sums,
  per-thread minimums), and every thread commits its trace in order.
"""

from __future__ import annotations

from repro.config import fixed_config, smt_config
from repro.pipeline.smt import simulate_smt
from repro.verify.digest import digest_payload, diff_payloads
from repro.verify.oracles import (
    SMOKE_MEASURE,
    SMOKE_WARMUP,
    OracleOutcome,
    _smoke_run,
    smoke_trace,
)

#: ≥ 5 programs for the single-thread ≡ baseline identity (the
#: acceptance bar of the SMT scenario): both memory- and compute-bound.
BASELINE_PROGRAMS: tuple[str, ...] = (
    "libquantum", "milc", "gcc", "sjeng", "lbm")

#: thread pairings for the multi-thread oracles: a mixed MLP/ILP pair
#: and a 3-way mix including both behaviours.
SMT_MIXES: tuple[tuple[str, ...], ...] = (
    ("libquantum", "sjeng"),
    ("milc", "gcc", "libquantum"),
)


def _smt_run(programs, partition: str, fetch: str, *,
             level: int = 3, validate: bool = False,
             n_ops: int | None = None):
    config = smt_config(threads=len(programs), partition=partition,
                        fetch=fetch, level=level)
    traces = [smoke_trace(p, n_ops=n_ops) if n_ops else smoke_trace(p)
              for p in programs]
    return simulate_smt(config, traces, warmup=SMOKE_WARMUP,
                        measure=SMOKE_MEASURE, validate=validate)


def _thread_digest_diff(run_a, run_b, limit: int = 4) -> str:
    """First per-thread digest difference between two SMT runs."""
    for tid, (ra, rb) in enumerate(zip(run_a.threads, run_b.threads)):
        diffs = diff_payloads(digest_payload(ra), digest_payload(rb))
        if diffs:
            shown = "; ".join(diffs[:limit])
            if len(diffs) > limit:
                shown += f"; ... {len(diffs) - limit} more"
            return f"thread {tid} ({ra.program}): {shown}"
    return ""


def check_smt_determinism(mixes=SMT_MIXES) -> list[OracleOutcome]:
    """Same config + traces, run twice → identical per-thread digests."""
    outcomes = []
    for programs in mixes:
        subject = "+".join(programs)
        run_a = _smt_run(programs, "mlp", "mlp")
        run_b = _smt_run(programs, "mlp", "mlp")
        detail = _thread_digest_diff(run_a, run_b)
        outcomes.append(OracleOutcome(
            "smt-determinism", f"{subject} mlp/mlp",
            passed=not detail, detail=detail))
    return outcomes


def check_smt_baseline_identity(
        programs=BASELINE_PROGRAMS, levels=(3,)) -> list[OracleOutcome]:
    """1-thread SMT (equal partition, icount fetch) ≡ fixed baseline."""
    outcomes = []
    for program in programs:
        for level in levels:
            run = _smt_run((program,), "equal", "icount", level=level)
            base = _smoke_run(fixed_config(level), smoke_trace(program))
            pay_smt = digest_payload(run.threads[0])
            pay_base = digest_payload(base)
            diffs = diff_payloads(pay_smt, pay_base)
            detail = "; ".join(diffs[:4]) if diffs else ""
            outcomes.append(OracleOutcome(
                "smt-baseline", f"{program} L{level}",
                passed=not diffs, detail=detail))
    return outcomes


def check_smt_invariants(mixes=SMT_MIXES) -> list[OracleOutcome]:
    """Per-cycle partition/occupancy invariants + in-order commit.

    ``validate=True`` makes the processor check after every stepped
    cycle that partitioned quotas sum exactly to the active capacity
    with no thread starved, that per-thread occupancies sum to the
    shared occupancy (disjointness), and that each thread's commit
    stream follows its trace order.  Any violation raises.
    """
    outcomes = []
    # Long traces: in a mixed-speed pairing the fast thread cannot
    # pause while the slow one reaches its commit target, so it runs
    # far past its own — headroom keeps it from draining mid-run.
    n_ops = (SMOKE_WARMUP + SMOKE_MEASURE) * 8
    for programs in mixes:
        subject = "+".join(programs)
        for partition in ("mlp", "equal", "shared"):
            fetch = "mlp" if partition == "mlp" else "icount"
            try:
                run = _smt_run(programs, partition, fetch, validate=True,
                               n_ops=n_ops)
            except AssertionError as exc:
                outcomes.append(OracleOutcome(
                    "smt-invariants", f"{subject} {partition}",
                    passed=False, detail=str(exc)))
                continue
            # Every thread must have made measured progress.  A thread
            # that ran ahead during warmup (it cannot pause while the
            # others catch up) measures fewer than SMOKE_MEASURE
            # commits, so the exact count is not checkable here — the
            # per-cycle validation above is the substantive assertion.
            starved = [r.program for r in run.threads
                       if r.instructions <= 0]
            outcomes.append(OracleOutcome(
                "smt-invariants", f"{subject} {partition}",
                passed=not starved,
                detail=(f"threads with zero measured commits: "
                        f"{', '.join(starved)}" if starved else "")))
    return outcomes


def run_smt_oracles(programs=None) -> list[OracleOutcome]:
    """The full SMT oracle suite (``python -m repro.verify smt``).

    ``programs`` overrides the baseline-identity corpus only; the
    multi-thread mixes are fixed pairings chosen to cover both MLP- and
    ILP-dominated threads.
    """
    outcomes: list[OracleOutcome] = []
    outcomes += check_smt_baseline_identity(
        tuple(programs) if programs else BASELINE_PROGRAMS)
    outcomes += check_smt_determinism()
    outcomes += check_smt_invariants()
    return outcomes
