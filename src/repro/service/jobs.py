"""Job model of the simulation service.

A *job request* is a JSON object describing one simulation: which
program, which processor model, optional configuration overrides and
policy spec, sample sizes and seed.  Validation turns it into the same
:class:`~repro.experiments.cache.JobSpec` the campaign executor ships
to worker processes — the service and the batch path run byte-for-byte
the same job, so their results share one content address and one
:class:`~repro.experiments.cache.ResultStore`.

A *job record* (:class:`Job`) is the server-side lifecycle object:
state machine (``queued → running → done|failed``, plus ``rejected``
for drain casualties), an append-only event log that feeds the
``/v1/jobs/<id>/events`` stream, and the follower list used to
coalesce concurrent submissions of the same content address onto a
single execution.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time

from repro.config import (
    ProcessorConfig,
    base_config,
    dynamic_config,
    fixed_config,
    ideal_config,
    runahead_config,
    smt_config,
)
from repro.core.policies import make_policy
from repro.experiments.cache import JobSpec, result_key
from repro.stats import SimulationResult
from repro.workloads import UnknownProgramError, ensure_program


class ValidationError(ValueError):
    """A job request that cannot be turned into a simulation."""


_MODEL_FACTORIES = {
    "base": lambda level: base_config(),
    "fixed": fixed_config,
    "ideal": ideal_config,
    "dynamic": dynamic_config,
    "runahead": lambda level: runahead_config(),
}

_DEFAULT_LEVEL = {"base": 1, "fixed": 3, "ideal": 3, "dynamic": 3,
                  "runahead": 1, "smt": 3}

#: how many hardware threads one SMT job may carry (mirrors SMTConfig)
_SMT_MAX_THREADS = 4

#: Admission guards: a single service job may not exceed these sample
#: sizes (a campaign wanting more has the batch path; a service exists
#: to make many *small* jobs cheap, not one giant job possible).
MAX_MEASURE = 500_000
MAX_WARMUP = 500_000

_ALLOWED_KEYS = frozenset((
    "program", "model", "level", "policy", "seed", "warmup", "measure",
    "config", "telemetry_period", "smt",
))

#: job states; ``done``/``failed``/``rejected`` are terminal.
TERMINAL_STATES = frozenset(("done", "failed", "rejected"))


def _require_int(payload: dict, name: str, default: int, *,
                 minimum: int, maximum: int | None = None) -> int:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name!r} must be an integer, "
                              f"got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name!r} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{name!r} must be <= {maximum}, got {value}")
    return value


def _ensure_known_program(program: str) -> None:
    """Reject unknown program names across every workload namespace
    (synthetic table, ``adv_*``, ``riscv:`` corpus) with one message."""
    if not isinstance(program, str) or not program:
        raise ValidationError(f"unknown program {program!r}; "
                              "see GET /v1/programs")
    try:
        ensure_program(program)
    except UnknownProgramError as exc:
        raise ValidationError(f"{exc}; see GET /v1/programs") from None


def _apply_overrides(config: ProcessorConfig, overrides: dict) -> ProcessorConfig:
    """Apply a ``config`` override dict onto a ProcessorConfig.

    Top-level scalar fields are replaced directly; nested dataclass
    fields (``memory``, ``l2``, ``branch``, ...) take a dict of their
    own field overrides.  Anything unknown, and any value the frozen
    dataclasses' ``__post_init__`` validation rejects, is a
    :class:`ValidationError` — the service never simulates a config the
    library would not construct.
    """
    if not isinstance(overrides, dict):
        raise ValidationError(f"'config' must be an object, "
                              f"got {overrides!r}")
    fields = {f.name: f for f in dataclasses.fields(config)}
    changes: dict[str, object] = {}
    for name, value in overrides.items():
        if name == "model":
            raise ValidationError("select the model with the top-level "
                                  "'model' key, not a config override")
        if name == "smt":
            raise ValidationError("configure SMT with the top-level "
                                  "'smt' key, not a config override")
        if name not in fields:
            known = ", ".join(sorted(fields))
            raise ValidationError(f"unknown config field {name!r} "
                                  f"(known: {known})")
        current = getattr(config, name)
        if dataclasses.is_dataclass(current) and isinstance(value, dict):
            nested = {f.name for f in dataclasses.fields(current)}
            unknown = set(value) - nested
            if unknown:
                raise ValidationError(
                    f"unknown {name!r} fields: {', '.join(sorted(unknown))}")
            try:
                changes[name] = dataclasses.replace(current, **value)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"bad {name!r} override: {exc}") from None
        else:
            changes[name] = value
    if not changes:
        return config
    try:
        return dataclasses.replace(config, **changes)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad config override: {exc}") from None


def build_spec(payload: dict, *, sanitize: bool = False,
               telemetry_dir: str | None = None) -> JobSpec:
    """Validate one job request and return its executable spec.

    Raises :class:`ValidationError` with a message that names the
    offending field; the server turns that into a 400 with the message
    in the body, so a client can fix its request without reading
    server logs.
    """
    if not isinstance(payload, dict):
        raise ValidationError(f"job must be an object, got {payload!r}")
    unknown = set(payload) - _ALLOWED_KEYS
    if unknown:
        raise ValidationError(
            f"unknown job keys: {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(_ALLOWED_KEYS))})")

    model = payload.get("model", "dynamic")
    if model != "smt" and model not in _MODEL_FACTORIES:
        known = sorted(_MODEL_FACTORIES) + ["smt"]
        raise ValidationError(
            f"unknown model {model!r} (known: {', '.join(known)})")

    program = payload.get("program")
    smt_programs: tuple[str, ...] | None = None
    if model == "smt":
        # one program per hardware thread, "+"-joined: "libquantum+sjeng"
        if not isinstance(program, str) or not program:
            raise ValidationError(
                "smt jobs take 'program' as 'prog1+prog2[+...]'")
        smt_programs = tuple(program.split("+"))
        if len(smt_programs) > _SMT_MAX_THREADS:
            raise ValidationError(
                f"smt supports at most {_SMT_MAX_THREADS} threads, "
                f"got {len(smt_programs)} programs")
        for part in smt_programs:
            _ensure_known_program(part)
    else:
        _ensure_known_program(program)

    level = _require_int(payload, "level", _DEFAULT_LEVEL[model], minimum=1)
    if model == "smt":
        if sanitize:
            raise ValidationError(
                "the invariant sanitizer does not support smt jobs; "
                "their invariants run under python -m repro.verify smt")
        smt_options = payload.get("smt", {})
        if not isinstance(smt_options, dict):
            raise ValidationError(f"'smt' must be an object, "
                                  f"got {smt_options!r}")
        unknown = set(smt_options) - {"partition", "fetch"}
        if unknown:
            raise ValidationError(
                f"unknown smt options: {', '.join(sorted(unknown))} "
                f"(known: partition, fetch)")
        try:
            config = smt_config(threads=len(smt_programs),
                                partition=smt_options.get("partition", "mlp"),
                                fetch=smt_options.get("fetch", "mlp"),
                                level=level)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
    else:
        if "smt" in payload:
            raise ValidationError(
                "'smt' options only apply to the smt model")
        try:
            config = _MODEL_FACTORIES[model](level)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
    if "config" in payload:
        config = _apply_overrides(config, payload["config"])

    policy = None
    policy_name = payload.get("policy")
    if policy_name is not None:
        if model != "dynamic":
            raise ValidationError(
                f"'policy' only applies to the dynamic model, not {model!r}")
        if not isinstance(policy_name, str):
            raise ValidationError(f"'policy' must be a string, "
                                  f"got {policy_name!r}")
        if policy_name.startswith("table:"):
            # a table: spec names a file on the *executing* host —
            # letting requests open server-side paths is both a
            # traversal hazard and unreproducible across workers
            # (the fingerprint covers table contents, not the path,
            # but two workers could resolve the path differently).
            raise ValidationError(
                "'table:' policies load a local artifact file and are "
                "not accepted as service jobs; run them through the "
                "batch path (repro.experiments) on the host that owns "
                "the artifact")
        try:
            policy = make_policy(policy_name, config.level,
                                 config.memory.min_latency)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None

    seed = _require_int(payload, "seed", 1, minimum=0)
    warmup = _require_int(payload, "warmup", 1_000, minimum=0,
                          maximum=MAX_WARMUP)
    measure = _require_int(payload, "measure", 3_000, minimum=1,
                           maximum=MAX_MEASURE)
    telemetry_period = _require_int(payload, "telemetry_period", 0,
                                    minimum=0)
    if telemetry_period and model == "smt":
        raise ValidationError("telemetry sampling is per-core and does "
                              "not support smt jobs")
    if telemetry_period and telemetry_dir is None:
        raise ValidationError("telemetry_period needs an on-disk result "
                              "store")

    trace_ops = warmup + measure + 1_000  # same margin as Settings.trace_ops
    key = result_key(program, config, seed=seed, warmup=warmup,
                     measure=measure, trace_ops=trace_ops, policy=policy)
    return JobSpec(key=key, program=program, config=config, policy=policy,
                   seed=seed, warmup=warmup, measure=measure,
                   trace_ops=trace_ops, sanitize=sanitize,
                   telemetry_period=telemetry_period,
                   telemetry_dir=telemetry_dir if telemetry_period else None,
                   smt_programs=smt_programs)


def result_to_json(result: SimulationResult) -> dict:
    """The JSON view of a result: every scalar the experiment harnesses
    consume, plus the canonical stat digest so a client can check
    bit-identity against a local run without shipping raw counters."""
    from repro.verify.digest import result_digest
    return {
        "program": result.program,
        "model": result.model,
        "level": result.level,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "ipc": result.ipc,
        "avg_load_latency": result.avg_load_latency,
        "mispredict_rate": result.mispredict_rate,
        "mlp": result.mlp,
        "level_residency": {str(k): v
                            for k, v in sorted(result.level_residency.items())},
        "memory_stats": dict(sorted(result.memory_stats.items())),
        "energy_nj": result.energy_nj,
        "edp": result.edp,
        "digest": result_digest(result),
    }


class Job:
    """Server-side lifecycle record of one submitted job."""

    __slots__ = ("id", "spec", "payload", "state", "created", "enqueued_at",
                 "started_at", "finished_at", "result", "error", "cached",
                 "coalesced", "attempts", "events", "followers", "_updated")

    def __init__(self, job_id: str, spec: JobSpec,
                 payload: dict | None = None) -> None:
        self.id = job_id
        self.spec = spec
        #: the raw (validated) request this job was built from.  The
        #: server ships this to workers, which re-derive the spec
        #: locally — re-validation on the executing node is what
        #: catches server/worker version skew.
        self.payload = payload
        self.state = "queued"
        self.created = time.time()
        self.enqueued_at: float | None = None
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.result: SimulationResult | None = None
        self.error: str | None = None
        #: served straight from the result store, no execution
        self.cached = False
        #: attached to an identical in-flight job's execution
        self.coalesced = False
        self.attempts = 0
        self.events: list[dict] = []
        self.followers: list[Job] = []
        # replaced on every transition; streamers wait on the current one
        self._updated = asyncio.Event()

    # ------------------------------------------------------------------

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def add_event(self, kind: str, **extra) -> None:
        event = {"seq": len(self.events), "job": self.id, "event": kind,
                 "elapsed": round(time.time() - self.created, 6)}
        event.update(extra)
        self.events.append(event)
        self._bump()

    def set_state(self, state: str, **extra) -> None:
        self.state = state
        self.add_event(state, **extra)

    def _bump(self) -> None:
        previous = self._updated
        self._updated = asyncio.Event()
        previous.set()

    async def wait_update(self) -> None:
        """Block until the next event is appended (or return at once if
        the job is already terminal)."""
        if self.terminal:
            return
        await self._updated.wait()

    # ------------------------------------------------------------------

    def finish_done(self, result: SimulationResult, *, cached: bool = False,
                    coalesced: bool = False) -> None:
        self.result = result
        self.cached = cached
        self.coalesced = coalesced
        self.finished_at = time.time()
        self.set_state("done", cached=cached, coalesced=coalesced)

    def finish_failed(self, error: str) -> None:
        self.error = error
        self.finished_at = time.time()
        self.set_state("failed", error=error)

    def finish_rejected(self, reason: str) -> None:
        self.error = reason
        self.finished_at = time.time()
        self.set_state("rejected", reason=reason)

    def as_json(self, *, include_result: bool = True) -> dict:
        view = {
            "id": self.id,
            "key": self.spec.key,
            "program": self.spec.program,
            "state": self.state,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "attempts": self.attempts,
        }
        if self.error is not None:
            view["error"] = self.error
        if include_result and self.result is not None:
            view["result"] = result_to_json(self.result)
        return view
