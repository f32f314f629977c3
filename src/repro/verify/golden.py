"""Committed golden stat digests.

``results/golden_digests.json`` pins the exact behaviour of the
simulator on the smoke corpus: one digest per (program, model) cell,
keyed by ``SIM_VERSION``.  CI recomputes the digests and compares —
any mismatch means the simulator's timing changed without the version
being bumped, i.e. an *unintentional* behaviour change slipped in.
Intentional changes bump ``SIM_VERSION`` (which also invalidates the
result cache) and regenerate the file in the same commit:

    python -m repro.verify regen
"""

from __future__ import annotations

import json
import os

from repro.config import dynamic_config, fixed_config, ideal_config
from repro.verify.digest import result_digest
from repro.verify.oracles import SMOKE_CORPUS, _smoke_run, smoke_trace

#: Repo-relative location of the committed golden file.
GOLDEN_PATH = os.path.join("results", "golden_digests.json")

#: The model points pinned per program: the base machine, the paper's
#: dynamic model, and the IDEAL-3 upper bound — together they cover the
#: static path, the adaptive path and the non-pipelined path.
GOLDEN_MODELS: tuple[str, ...] = ("fixed1", "dynamic", "ideal3")


def _config_for(model: str):
    if model == "fixed1":
        return fixed_config(1)
    if model == "dynamic":
        return dynamic_config(3)
    if model == "ideal3":
        return ideal_config(3)
    raise ValueError(f"unknown golden model {model!r}")


def compute_digests(programs=SMOKE_CORPUS,
                    models=GOLDEN_MODELS) -> dict[str, dict[str, str]]:
    """Digest every (program, model) golden cell at smoke scale."""
    digests: dict[str, dict[str, str]] = {}
    for program in programs:
        trace = smoke_trace(program)
        digests[program] = {
            model: result_digest(_smoke_run(_config_for(model), trace))
            for model in models}
    return digests


def load_golden(path: str = GOLDEN_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_golden(path: str = GOLDEN_PATH, programs=SMOKE_CORPUS,
                 models=GOLDEN_MODELS) -> dict:
    """Recompute and write the golden file; returns what was written."""
    from repro.pipeline.core import SIM_VERSION
    payload = {
        "sim_version": SIM_VERSION,
        "corpus": {"programs": list(programs), "models": list(models),
                   "warmup": 2_000, "measure": 6_000, "seed": 1},
        "digests": compute_digests(programs, models),
    }
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def check_golden(path: str = GOLDEN_PATH) -> list:
    """Compare freshly computed digests against the committed file.

    Returns :class:`~repro.verify.oracles.OracleOutcome` records, one
    per golden cell plus one for the version key, so a drift report
    names exactly which program/model cells moved.
    """
    from repro.pipeline.core import SIM_VERSION
    from repro.verify.oracles import OracleOutcome
    outcomes = []
    try:
        golden = load_golden(path)
    except FileNotFoundError:
        return [OracleOutcome(
            "golden", path, False,
            "golden file missing — run `python -m repro.verify regen`")]
    version_ok = golden.get("sim_version") == SIM_VERSION
    outcomes.append(OracleOutcome(
        "golden", "sim_version", version_ok,
        "" if version_ok else
        f"golden file is for SIM_VERSION {golden.get('sim_version')!r}, "
        f"simulator is {SIM_VERSION!r} — regenerate"))
    if not version_ok:
        # comparing digests across versions would report every cell as
        # drifted; the version line already says what to do
        return outcomes
    recorded = golden.get("digests", {})
    programs = golden.get("corpus", {}).get("programs", list(recorded))
    models = golden.get("corpus", {}).get("models", list(GOLDEN_MODELS))
    fresh = compute_digests(programs, models)
    for program in programs:
        for model in models:
            want = recorded.get(program, {}).get(model)
            got = fresh.get(program, {}).get(model)
            same = want == got and want is not None
            outcomes.append(OracleOutcome(
                "golden", f"{program}/{model}", same,
                "" if same else f"recorded {str(want)[:12]}..., "
                f"computed {str(got)[:12]}..."))
    return outcomes
