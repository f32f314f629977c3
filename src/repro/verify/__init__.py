"""Differential and metamorphic testing of the simulator.

Single runs can only be eyeballed; *pairs* of runs can be asserted on.
This package checks cross-run relations that must hold by construction:

* **pin-equivalence** — any adaptive policy pinned to a constant level
  is bit-identical to :class:`~repro.core.StaticPolicy` at that level;
* **monotonicity** — with pipelining and transition penalties disabled,
  a larger window never hurts: IDEAL IPC is non-decreasing in level and
  the dynamic model lands between FIXED level 1 and IDEAL level 3;
* **degenerate memory** — with every line pre-installed (no demand L2
  misses) the MLP-aware policy has no trigger and never leaves level 1;
* **fast-forward equivalence** — the idle-cycle fast-forward is a pure
  host-speed optimisation: disabling it must not change any statistic,
  stall counters and the window's ``full_events`` included;
* **timing equivalence** — jobs the campaign timing class merges (an
  IDEAL config on a depth-1 level and its FIXED twin) agree on every
  result and ``SimStats`` field but ``model``;
* **golden digests** — committed per-benchmark stat fingerprints
  (``results/golden_digests.json``, keyed by ``SIM_VERSION``) catch
  *unintentional* behaviour changes; intentional ones bump the version
  and regenerate.

``python -m repro.verify`` runs the oracles, checks or regenerates the
golden file, and drives the paired-run fuzzer (random traces through
the parallel campaign executor).
"""

from repro.verify.digest import diff_payloads, digest_payload, result_digest
from repro.verify.golden import (
    GOLDEN_PATH,
    check_golden,
    compute_digests,
    load_golden,
    write_golden,
)
from repro.verify.oracles import (
    SMOKE_CORPUS,
    OracleOutcome,
    check_degenerate_memory,
    check_fast_forward_equivalence,
    check_monotonicity,
    check_pin_equivalence,
    check_timing_equivalence,
    run_all_oracles,
)

__all__ = [
    "GOLDEN_PATH",
    "OracleOutcome",
    "SMOKE_CORPUS",
    "check_degenerate_memory",
    "check_fast_forward_equivalence",
    "check_golden",
    "check_monotonicity",
    "check_pin_equivalence",
    "check_timing_equivalence",
    "compute_digests",
    "diff_payloads",
    "digest_payload",
    "load_golden",
    "result_digest",
    "run_all_oracles",
    "write_golden",
]
