"""Oracle family for the RISC-V trace ingestion frontend.

Three checks per corpus program, all at the standard smoke scale
(``SMOKE_WARMUP``/``SMOKE_MEASURE``):

* **decode round-trip** — text → binary → text preserves every record
  and the content hash, and both containers decode to identical
  ``MicroOp`` streams;
* **digest determinism** — two independently built traces of the same
  (program, seed) produce bit-identical stat digests;
* **golden digests** — a committed
  ``results/riscv_golden_digests.json`` pins fixed1 + dynamic per
  program, exactly like the synthetic golden file.

Plus two cache-identity checks: distinct corpus programs derive
distinct result keys, and perturbing trace *content* (not name)
changes the key — the content-addressing contract of ``result_key``.
"""

from __future__ import annotations

import json
import os

from repro.config import dynamic_config, fixed_config
from repro.experiments.cache import result_key
from repro.verify.digest import result_digest
from repro.verify.oracles import (OracleOutcome, SMOKE_MEASURE, SMOKE_SEED,
                                  SMOKE_TRACE_OPS, SMOKE_WARMUP, _smoke_run)
from repro.workloads.riscv import (RiscvTraceProgram, content_hash,
                                   load_corpus_program, pack, parse_text,
                                   render_text, riscv_program_names,
                                   to_micro_op, unpack)

#: Repo-relative location of the committed riscv golden file.
RISCV_GOLDEN_PATH = os.path.join("results", "riscv_golden_digests.json")

#: Models pinned per corpus program: the smallest static window and the
#: paper's adaptive model — the two ends the resizing policy moves
#: between.
RISCV_GOLDEN_MODELS: tuple[str, ...] = ("fixed1", "dynamic")


def _config_for(model: str):
    return fixed_config(1) if model == "fixed1" else dynamic_config(3)


def _ops_equal(a, b) -> bool:
    fields = ("pc", "op", "dst", "srcs", "addr", "size", "taken", "target")
    return len(a) == len(b) and all(
        all(getattr(x, f) == getattr(y, f) for f in fields)
        for x, y in zip(a, b))


# ------------------------------------------------------------- oracles


def check_roundtrip(programs) -> list[OracleOutcome]:
    """Text ↔ binary ↔ MicroOp equality for every corpus program."""
    outcomes = []
    for name in programs:
        program = load_corpus_program(name)
        stem = name.split(":", 1)[1]
        text = render_text(stem, program.insns)
        text_name, from_text = parse_text(text)
        bin_name, from_bin = unpack(pack(text_name, from_text))
        same_records = (from_text == program.insns
                        and from_bin == program.insns
                        and text_name == bin_name == stem)
        same_hash = (content_hash(from_bin) == program.content_hash)
        same_ops = _ops_equal([to_micro_op(i) for i in from_bin],
                              program.micro_ops())
        passed = same_records and same_hash and same_ops
        detail = "" if passed else (
            f"records={same_records} hash={same_hash} micro_ops={same_ops}")
        outcomes.append(OracleOutcome("rv-roundtrip", name, passed, detail))
    return outcomes


def check_determinism(programs) -> list[OracleOutcome]:
    """Two independent trace builds + runs ⇒ identical digests."""
    outcomes = []
    for name in programs:
        program = load_corpus_program(name)
        # independent adapter instances: nothing may leak between builds
        rebuilt = RiscvTraceProgram(name, list(program.insns))
        digests = []
        for source in (program, rebuilt):
            trace = source.trace(SMOKE_TRACE_OPS, seed=SMOKE_SEED)
            digests.append(result_digest(
                _smoke_run(dynamic_config(3), trace)))
        passed = digests[0] == digests[1]
        outcomes.append(OracleOutcome(
            "rv-determinism", name, passed,
            "" if passed else "rebuilt trace digest drifted"))
    return outcomes


def check_cache_identity(programs) -> list[OracleOutcome]:
    """Result keys are content-addressed by the trace hash."""
    outcomes = []
    config = dynamic_config(3)

    def key_for(program: str) -> str:
        return result_key(program, config, seed=SMOKE_SEED,
                          warmup=SMOKE_WARMUP, measure=SMOKE_MEASURE,
                          trace_ops=SMOKE_TRACE_OPS)

    keys = [key_for(name) for name in programs]
    distinct = len(set(keys)) == len(keys)
    outcomes.append(OracleOutcome(
        "rv-cache-key", "distinct-programs", distinct,
        "" if distinct else "two corpus programs share a result key"))

    # perturbing content must change the key even under the same name
    name = programs[0]
    program = load_corpus_program(name)
    from repro.workloads.riscv import corpus as corpus_mod
    mutated = RiscvTraceProgram(name, list(program.insns[:-1])
                                + [program.insns[0]])
    original_key = key_for(name)
    corpus_mod._memo[name] = mutated
    try:
        mutated_key = key_for(name)
    finally:
        corpus_mod._memo[name] = program
    moved = mutated_key != original_key
    outcomes.append(OracleOutcome(
        "rv-cache-key", "content-sensitivity", moved,
        "" if moved else "editing trace content left the result key "
                         "unchanged"))
    return outcomes


# -------------------------------------------------------------- golden


def compute_riscv_digests(programs, models=RISCV_GOLDEN_MODELS) -> dict:
    digests: dict[str, dict[str, str]] = {}
    for name in programs:
        trace = load_corpus_program(name).trace(SMOKE_TRACE_OPS,
                                                seed=SMOKE_SEED)
        digests[name] = {
            model: result_digest(_smoke_run(_config_for(model), trace))
            for model in models}
    return digests


def write_riscv_golden(path: str = RISCV_GOLDEN_PATH,
                       programs=None) -> dict:
    """Recompute and write the riscv golden file; returns the payload."""
    from repro.pipeline.core import SIM_VERSION
    programs = list(programs or riscv_program_names())
    payload = {
        "sim_version": SIM_VERSION,
        "corpus": {"programs": programs,
                   "models": list(RISCV_GOLDEN_MODELS),
                   "content": {p: load_corpus_program(p).content_hash
                               for p in programs},
                   "warmup": SMOKE_WARMUP, "measure": SMOKE_MEASURE,
                   "seed": SMOKE_SEED},
        "digests": compute_riscv_digests(programs),
    }
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def check_riscv_golden(path: str = RISCV_GOLDEN_PATH) -> list[OracleOutcome]:
    """Compare fresh corpus digests against the committed file."""
    from repro.pipeline.core import SIM_VERSION
    try:
        with open(path, encoding="utf-8") as fh:
            golden = json.load(fh)
    except FileNotFoundError:
        return [OracleOutcome(
            "rv-golden", path, False,
            "riscv golden file missing — run "
            "`python -m repro.verify riscv --regen`")]
    outcomes = []
    version_ok = golden.get("sim_version") == SIM_VERSION
    outcomes.append(OracleOutcome(
        "rv-golden", "sim_version", version_ok,
        "" if version_ok else
        f"golden file is for SIM_VERSION {golden.get('sim_version')!r}, "
        f"simulator is {SIM_VERSION!r} — regenerate"))
    if not version_ok:
        return outcomes
    recorded = golden.get("digests", {})
    programs = golden.get("corpus", {}).get("programs", list(recorded))
    models = golden.get("corpus", {}).get("models",
                                          list(RISCV_GOLDEN_MODELS))
    fresh = compute_riscv_digests(programs, models)
    for program in programs:
        for model in models:
            want = recorded.get(program, {}).get(model)
            got = fresh.get(program, {}).get(model)
            same = want == got and want is not None
            outcomes.append(OracleOutcome(
                "rv-golden", f"{program}/{model}", same,
                "" if same else f"digest drifted: recorded {want}, "
                                f"recomputed {got}"))
    return outcomes


# ----------------------------------------------------------------- all


def run_riscv_oracles(programs=None,
                      golden_path: str = RISCV_GOLDEN_PATH) -> list[OracleOutcome]:
    """The full riscv oracle suite over the corpus."""
    programs = list(programs or riscv_program_names())
    if not programs:
        return [OracleOutcome(
            "rv-corpus", "benchmarks/riscv", False,
            "no corpus traces found — run "
            "`python tools/rv_trace.py generate`")]
    outcomes = check_roundtrip(programs)
    outcomes += check_determinism(programs)
    outcomes += check_cache_identity(programs)
    outcomes += check_riscv_golden(golden_path)
    return outcomes
