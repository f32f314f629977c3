"""Canonical stat fingerprints of simulation results.

A *digest* is a sha256 over the canonical JSON encoding of every
timing-observable statistic of a run.  Two runs share a digest iff they
are behaviourally identical — same cycle count, same commit stream
accounting, same level trajectory, same memory-system activity — which
is what the differential oracles in :mod:`repro.verify.oracles` and the
golden-digest regression (:mod:`repro.verify.golden`) compare.

Deliberately **excluded** from the payload are:

* ``fetch_stall_cycles`` / ``dispatch_stall_cycles`` and ``stall_slots``
  (the CPI-stack raw material).  The idle jump charges them exactly on
  one thread, where the fast-forward oracle compares them field by
  field, but the SMT jump does not yet; they join the digest in the
  change that makes it exact and bumps ``SIM_VERSION`` to 4, since
  adding them moves every digest;
* ``energy_nj`` / ``edp`` — annotated after the fact by the energy
  model, not produced by the pipeline, and absent until annotation.

Everything else — cycles, commit/dispatch/issue/squash counts, level
residency and the full transition log, L2 demand-miss detection times,
MLP intervals, mispredict distances, memory-system counters, structure
activity — is included, so the digest is sensitive to any genuine
timing change while being invariant to the fast-forward optimisation.
That invariance is not assumed: ``tests/test_verify.py`` and the
fast-forward oracle prove it on every run of the suite.
"""

from __future__ import annotations

import hashlib
import json

from repro.stats import SimulationResult


def digest_payload(result: SimulationResult) -> dict:
    """The canonical, JSON-encodable view of one result."""
    stats = result.stats
    payload: dict[str, object] = {
        "program": result.program,
        "model": result.model,
        "level": result.level,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "ipc": repr(result.ipc),
        "avg_load_latency": repr(result.avg_load_latency),
        "mispredict_rate": repr(result.mispredict_rate),
        "mlp": repr(result.mlp),
        "level_residency": {str(k): repr(v)
                            for k, v in sorted(result.level_residency.items())},
        "line_usage": {k: v for k, v in sorted(result.line_usage.items())},
        "memory_stats": {k: (repr(v) if isinstance(v, float) else v)
                         for k, v in sorted(result.memory_stats.items())},
    }
    if stats is not None:
        payload["stats"] = {
            "committed_uops": stats.committed_uops,
            "committed_loads": stats.committed_loads,
            "committed_stores": stats.committed_stores,
            "committed_branches": stats.committed_branches,
            "committed_mispredicts": stats.committed_mispredicts,
            "dispatched_uops": stats.dispatched_uops,
            "issued_uops": stats.issued_uops,
            "squashed_uops": stats.squashed_uops,
            "wrong_path_uops": stats.wrong_path_uops,
            "level_cycles": {str(k): v
                             for k, v in sorted(stats.level_cycles.items())},
            "level_transitions": [list(t) for t in stats.level_transitions],
            "enlarge_transitions": stats.enlarge_transitions,
            "shrink_transitions": stats.shrink_transitions,
            "stop_alloc_cycles": stats.stop_alloc_cycles,
            "transition_stall_cycles": stats.transition_stall_cycles,
            "l2_miss_cycles": list(stats.l2_miss_cycles),
            "demand_miss_intervals": [list(t)
                                      for t in stats.demand_miss_intervals],
            "mispredict_distances": list(stats.mispredict_distances),
            "activity": stats.activity.as_dict(),
        }
    return payload


def result_digest(result: SimulationResult) -> str:
    """sha256 hex digest of the canonical payload."""
    encoded = json.dumps(digest_payload(result), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def diff_payloads(a: dict, b: dict, prefix: str = "") -> list[str]:
    """Human-readable field-level differences between two payloads.

    Used by the oracles to say *what* diverged when digests mismatch,
    instead of just reporting two opaque hashes.
    """
    diffs: list[str] = []
    keys = sorted(set(a) | set(b))
    for key in keys:
        path = f"{prefix}{key}"
        if key not in a:
            diffs.append(f"{path}: only in second")
        elif key not in b:
            diffs.append(f"{path}: only in first")
        elif isinstance(a[key], dict) and isinstance(b[key], dict):
            diffs.extend(diff_payloads(a[key], b[key], prefix=f"{path}."))
        elif a[key] != b[key]:
            av, bv = repr(a[key]), repr(b[key])
            if len(av) > 60:
                av = av[:57] + "..."
            if len(bv) > 60:
                bv = bv[:57] + "..."
            diffs.append(f"{path}: {av} != {bv}")
    return diffs
