"""``python -m repro.verify`` — the verification CLI.

Subcommands:

* ``oracles`` — run the differential/metamorphic oracle suite on the
  smoke corpus (default when no subcommand is given);
* ``check`` — recompute the smoke-corpus stat digests and compare them
  against the committed ``results/golden_digests.json``;
* ``regen`` — recompute and rewrite the golden file (do this in the
  same commit as an intentional ``SIM_VERSION`` bump);
* ``fuzz`` — random-trace paired-run fuzzing through the parallel
  campaign executor;
* ``riscv`` — the trace-frontend oracle suite
  (:mod:`repro.verify.riscv_oracles`): decode round-trip, digest
  determinism and committed golden digests over the
  ``benchmarks/riscv`` corpus (``--regen`` rewrites
  ``results/riscv_golden_digests.json``);
* ``smt`` — the SMT oracle suite (:mod:`repro.verify.smt_oracles`):
  per-thread digest determinism, single-thread-SMT ≡ baseline
  pin-equivalence and per-cycle partition invariants.

Exit status is 0 iff every requested check passed.
"""

from __future__ import annotations

import argparse
import sys

from repro.verify.golden import GOLDEN_PATH, check_golden, write_golden
from repro.verify.oracles import (
    SMOKE_CORPUS,
    report,
    run_all_oracles,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="differential / metamorphic simulator verification")
    sub = parser.add_subparsers(dest="command")

    p_oracles = sub.add_parser("oracles", help="run the oracle suite")
    p_oracles.add_argument("--programs", nargs="+", default=list(SMOKE_CORPUS),
                           help="smoke programs (default: %(default)s)")

    p_check = sub.add_parser("check", help="check golden digests")
    p_check.add_argument("--path", default=GOLDEN_PATH)

    p_regen = sub.add_parser("regen", help="regenerate golden digests")
    p_regen.add_argument("--path", default=GOLDEN_PATH)

    p_riscv = sub.add_parser(
        "riscv", help="riscv trace-frontend oracles (round-trip, "
                      "determinism, goldens)")
    p_riscv.add_argument("--programs", nargs="+", default=None,
                         help="riscv:<kernel> names (default: the "
                              "whole committed corpus)")
    p_riscv.add_argument("--path", default=None,
                         help="riscv golden digest file (default: "
                              "results/riscv_golden_digests.json)")
    p_riscv.add_argument("--regen", action="store_true",
                         help="rewrite the riscv golden file instead "
                              "of checking it")

    p_smt = sub.add_parser("smt", help="run the SMT oracle suite")
    p_smt.add_argument("--programs", nargs="+", default=None,
                       help="baseline-identity programs (default: the "
                            "5-program SMT corpus)")

    p_fuzz = sub.add_parser("fuzz", help="paired-run fuzzing")
    p_fuzz.add_argument("--pairs", type=int, default=8,
                        help="number of differential pairs (default 8)")
    p_fuzz.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: all cores)")
    p_fuzz.add_argument("--seed", type=int, default=1,
                        help="base seed; same seed replays the session")

    args = parser.parse_args(argv)
    command = args.command or "oracles"

    if command == "oracles":
        outcomes = run_all_oracles(tuple(args.programs)
                                   if args.command else SMOKE_CORPUS)
    elif command == "check":
        outcomes = check_golden(args.path)
    elif command == "riscv":
        from repro.verify.riscv_oracles import (RISCV_GOLDEN_PATH,
                                                run_riscv_oracles,
                                                write_riscv_golden)
        path = args.path or RISCV_GOLDEN_PATH
        if args.regen:
            payload = write_riscv_golden(path, programs=args.programs)
            cells = sum(len(v) for v in payload["digests"].values())
            print(f"wrote {cells} riscv digests for SIM_VERSION "
                  f"{payload['sim_version']} to {path}")
            return 0
        outcomes = run_riscv_oracles(args.programs, golden_path=path)
    elif command == "smt":
        from repro.verify.smt_oracles import run_smt_oracles
        outcomes = run_smt_oracles(args.programs)
    elif command == "regen":
        payload = write_golden(args.path)
        cells = sum(len(v) for v in payload["digests"].values())
        print(f"wrote {cells} digests for SIM_VERSION "
              f"{payload['sim_version']} to {args.path}")
        return 0
    else:
        from repro.verify.fuzz import run_fuzz
        outcomes = run_fuzz(n_pairs=args.pairs, jobs=args.jobs,
                            base_seed=args.seed)

    print(report(outcomes))
    return 0 if all(o.passed for o in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
