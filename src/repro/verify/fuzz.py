"""Paired-run fuzzing: random traces, differential assertions.

Each fuzz iteration draws a random (program, trace seed) workload and
runs one *pair* of simulations whose results must be bit-identical:

* an ``ff`` pair — the dynamic model with and without idle-cycle
  fast-forwarding;
* a ``pin`` pair — :class:`~repro.core.StaticPolicy` at a random level
  against a random adaptive policy pinned to that level.

The pairs are fanned out through the PR-1 parallel campaign executor
(:func:`repro.experiments.parallel.execute_campaign`) over an
in-memory store, so a fuzz session with many seeds uses every core.
Everything derives from ``base_seed``, so a failing session replays
exactly with the same arguments.
"""

from __future__ import annotations

import random

from repro.config import dynamic_config
from repro.core import StaticPolicy, make_policy
from repro.experiments.cache import JobRecorder, JobSpec, ResultStore, result_key
from repro.experiments.parallel import execute_campaign
from repro.verify.digest import result_digest
from repro.verify.oracles import ADAPTIVE_POLICIES, OracleOutcome
from repro.workloads import program_names

#: Fuzz runs are smaller than smoke runs: more seeds beats more ops.
FUZZ_WARMUP = 1_000
FUZZ_MEASURE = 4_000
FUZZ_TRACE_OPS = FUZZ_WARMUP + FUZZ_MEASURE + 1_000


def _pair_for(index: int, base_seed: int) -> tuple[str, str, JobSpec, JobSpec]:
    """The ``index``-th deterministic fuzz pair: (kind, subject, a, b)."""
    rng = random.Random((base_seed << 20) ^ index)
    program = rng.choice(program_names())
    seed = rng.randrange(1, 1 << 16)
    config = dynamic_config(3)
    common = dict(program=program, config=config, seed=seed,
                  warmup=FUZZ_WARMUP, measure=FUZZ_MEASURE,
                  trace_ops=FUZZ_TRACE_OPS)
    key_args = dict(seed=seed, warmup=FUZZ_WARMUP, measure=FUZZ_MEASURE,
                    trace_ops=FUZZ_TRACE_OPS)
    if index % 2 == 0:
        # ff pair: same policy, fast-forward on vs off.  fast_forward is
        # (deliberately) not part of the result key, so the off-run keys
        # itself apart via key_extra.
        policy_a = make_policy("mlp", config.max_level,
                               config.memory.min_latency)
        policy_b = make_policy("mlp", config.max_level,
                               config.memory.min_latency)
        spec_a = JobSpec(key=result_key(program, config, policy=policy_a,
                                        **key_args),
                         policy=policy_a, **common)
        spec_b = JobSpec(key=result_key(program, config, policy=policy_b,
                                        key_extra=("ff", False), **key_args),
                         policy=policy_b, fast_forward=False, **common)
        return "fuzz-ff", f"{program} seed={seed}", spec_a, spec_b
    level = rng.randrange(1, config.max_level + 1)
    name = rng.choice(ADAPTIVE_POLICIES)
    static = StaticPolicy(level)
    pinned = make_policy(name, config.max_level,
                         config.memory.min_latency).pin(level)
    spec_a = JobSpec(key=result_key(program, config, policy=static,
                                    **key_args),
                     policy=static, **common)
    spec_b = JobSpec(key=result_key(program, config, policy=pinned,
                                    **key_args),
                     policy=pinned, **common)
    return "fuzz-pin", f"{program} seed={seed} {name}@L{level}", spec_a, spec_b


def run_fuzz(n_pairs: int = 8, jobs: int | None = None,
             base_seed: int = 1) -> list[OracleOutcome]:
    """Run ``n_pairs`` random differential pairs; returns outcomes."""
    pairs = [_pair_for(i, base_seed) for i in range(n_pairs)]
    recorder = JobRecorder()
    for __, ___, spec_a, spec_b in pairs:
        recorder.record(spec_a)
        recorder.record(spec_b)
    store = ResultStore(directory=None)   # fuzz results are throwaway
    execute_campaign(recorder, store, jobs=jobs)
    outcomes = []
    for kind, subject, spec_a, spec_b in pairs:
        res_a = store.get(spec_a.key)
        res_b = store.get(spec_b.key)
        if res_a is None or res_b is None:
            outcomes.append(OracleOutcome(
                kind, subject, False, "pair did not execute"))
            continue
        same = result_digest(res_a) == result_digest(res_b)
        detail = ""
        if not same:
            from repro.verify.oracles import _digest_mismatch_detail
            detail = _digest_mismatch_detail(res_a, res_b)
        outcomes.append(OracleOutcome(kind, subject, same, detail))
    return outcomes
