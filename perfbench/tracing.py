"""Timing wrappers for traced benchmark runs.

A traced run installs wrappers on the public calls of each layer — at
class level for methods, and in every loaded module namespace for
module functions — and aggregates, per call site, the call count, the
inclusive time and the self time (inclusive time minus the time spent
in wrapped calls nested inside it).  Self times never overlap, so the
layers' self times plus the unattributed rest add up to the wall-clock
time of the traced pass.

Coarse calls (construction, prewarm, the simulation loop, trace
builds, store writes, telemetry export) also record spans: name,
start, end, the enclosing span and the simulation they belong to.
Spans stay in memory and are written out when the pass ends.

A target that no longer exists is reported as absent; the run goes on
without it.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from time import perf_counter

#: (slot, module, attribute, coarse).  ``Class.method`` targets are
#: wrapped on the class and on every subclass in ``repro`` that
#: overrides the method; plain names are module functions.
TARGETS = (
    ("pipeline.construct", "repro.pipeline.core", "Processor.__init__", True),
    ("pipeline.prewarm", "repro.pipeline.core", "Processor.prewarm", True),
    ("pipeline.loop", "repro.pipeline.core", "Processor.run", True),
    ("pipeline.result", "repro.pipeline.core", "Processor.result", True),
    ("memory.load", "repro.memory.hierarchy", "MemoryHierarchy.load", False),
    ("memory.store", "repro.memory.hierarchy", "MemoryHierarchy.store",
     False),
    ("memory.ifetch", "repro.memory.hierarchy", "MemoryHierarchy.ifetch",
     False),
    ("frontend.predict", "repro.frontend.branch", "BranchPredictor.predict",
     False),
    ("frontend.resolve", "repro.frontend.branch", "BranchPredictor.resolve",
     False),
    ("core.tick", "repro.core.policies", "ResizingPolicy.tick", False),
    ("core.miss", "repro.core.policies", "ResizingPolicy.on_l2_miss", False),
    ("workloads.trace", "repro.workloads.sources", "trace_for_program", True),
    ("workloads.riscv.decode", "repro.workloads.riscv.corpus",
     "load_corpus_program", True),
    ("workloads.riscv.trace", "repro.workloads.riscv.program",
     "RiscvTraceProgram.trace", True),
    ("telemetry.sample", "repro.telemetry.recorder", "Telemetry.add_sample",
     False),
    ("telemetry.event", "repro.telemetry.recorder", "Telemetry.add_event",
     False),
    ("telemetry.export", "repro.telemetry.recorder", "Telemetry.to_jsonl",
     True),
    ("experiments.plan", "repro.experiments.parallel", "plan_campaign", True),
    ("experiments.key", "repro.experiments.cache", "result_key", False),
    ("experiments.store_get", "repro.experiments.cache", "ResultStore.get",
     False),
    ("experiments.store_contains", "repro.experiments.cache",
     "ResultStore.contains", False),
    ("experiments.store_put", "repro.experiments.cache", "ResultStore.put",
     True),
)

#: Modules whose subclasses of wrapped classes must be loaded before
#: the wrappers go in (policies live outside ``repro.core.policies``,
#: the SMT core subclasses ``Processor``).
_PRELOAD = ("repro.core.learned", "repro.core.resizing",
            "repro.pipeline.smt", "repro.telemetry")

#: A new simulation starts at the first of these coarse spans opened at
#: top level after the previous simulation's result was taken.
_JOB_OPENERS = ("workloads.trace", "pipeline.construct")

#: Store lookups whose return value says whether they hit.
_LOOKUPS = ("experiments.store_get", "experiments.store_contains")

#: What each simulation's result adds up: committed micro-ops including
#: warmup, then measured cycles, committed and dispatched micro-ops,
#: demand L2 misses, branches, mispredicts and window transitions.
COUNTS = ("uops", "cycles", "committed", "dispatched", "l2_misses",
          "branches", "mispredicts", "transitions")


class Tracer:
    """Aggregates and spans of one process."""

    def __init__(self) -> None:
        #: slot -> [count, inclusive seconds, self seconds]
        self.slots: dict[str, list] = {}
        #: store lookup slot -> hits
        self.hits: dict[str, int] = {}
        #: totals over the simulations' results (see COUNTS)
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        #: slot -> why its target could not be wrapped
        self.absent: dict[str, str] = {}
        self.spans: list[dict] = []
        # child-time accumulators of the wrapped calls in progress
        self._stack: list[float] = []
        # open coarse span ids (parent links)
        self._open: list[int] = []
        self._job = 0
        self._job_root = 0
        self._job_done = True

    def reset(self) -> None:
        """Forget everything recorded (a forked worker starts clean)."""
        for slot in self.slots.values():
            slot[:] = [0, 0.0, 0.0]
        for name in self.hits:
            self.hits[name] = 0
        for name in self.counts:
            self.counts[name] = 0
        self.spans.clear()
        self._stack.clear()
        self._open.clear()
        self._job = 0
        self._job_root = 0
        self._job_done = True

    # ------------------------------------------------------------ wrappers

    def _wrapper(self, fn, name: str, coarse: bool):
        slot = self.slots.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = perf_counter

        if not coarse and name not in _LOOKUPS:
            def timed(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    slot[0] += 1
                    slot[1] += elapsed
                    slot[2] += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed
            return timed

        if not coarse:
            hits = self.hits
            hits.setdefault(name, 0)

            def lookup(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    found = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    slot[0] += 1
                    slot[1] += elapsed
                    slot[2] += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed
                if found is not None and found is not False:
                    hits[name] += 1
                return found
            return lookup

        def spanned(*args, **kwargs):
            parent = self._enter_span(name)
            span_id = len(self.spans)
            self.spans.append({"id": span_id, "parent": parent,
                               "job": self._job, "name": name})
            self._open.append(span_id)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                self._open.pop()
                self.spans[span_id].update(start=start, end=end)
                if not self._open:
                    if name == "pipeline.result":
                        self._job_done = True
                    self.on_top_level_end()
        if name == "pipeline.result":
            return self._count_results(spanned)
        return spanned

    def _count_results(self, wrapped):
        """Also sum, from each simulation's result, what it did."""
        counts = self.counts

        def result(proc, *args, **kwargs):
            res = wrapped(proc, *args, **kwargs)
            try:
                stats = res.stats
                done = (proc.committed_total, res.cycles,
                        stats.committed_uops, stats.dispatched_uops,
                        res.memory_stats.get("l2_misses", 0),
                        stats.committed_branches,
                        stats.committed_mispredicts,
                        stats.enlarge_transitions + stats.shrink_transitions)
            except AttributeError as exc:
                self.absent["pipeline.counts"] = str(exc)
                return res
            for key, value in zip(COUNTS, done):
                counts[key] += value
            return res
        return result

    def _enter_span(self, name: str) -> int | None:
        """Parent span id of a coarse span about to open; opens a new
        simulation's root span when this one starts a simulation."""
        if self._open:
            return self._open[-1]
        if name in _JOB_OPENERS and self._job_done:
            self._job += 1
            self._job_done = False
            self._job_root = len(self.spans)
            self.spans.append({"id": self._job_root, "parent": None,
                               "job": self._job, "name": "simulation"})
        return self._job_root if self._job else None

    def on_top_level_end(self) -> None:
        """Hook run whenever a top-level coarse span closes."""

    # ----------------------------------------------------------- install

    def install(self) -> "Tracer":
        """Wrap every target that exists; record the ones that do not."""
        for module_name in _PRELOAD:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        for name, module_name, attr, coarse in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                self.absent[name] = f"{module_name}: {exc}"
                continue
            owner_name, __, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or not callable(getattr(owner, method, None)):
                    self.absent[name] = f"{module_name}.{attr} not found"
                    continue
                self._wrap_method(owner, method, name, coarse)
            else:
                fn = getattr(module, method, None)
                if not callable(fn):
                    self.absent[name] = f"{module_name}.{attr} not found"
                    continue
                self._wrap_function(fn, name, coarse)
        return self

    def _wrap_method(self, cls, method: str, name: str, coarse: bool) -> None:
        todo = [cls]
        wrapped = 0
        while todo:
            klass = todo.pop()
            todo.extend(klass.__subclasses__())
            fn = klass.__dict__.get(method)
            if (fn is None or getattr(fn, "__isabstractmethod__", False)
                    or not klass.__module__.startswith("repro.")):
                continue
            setattr(klass, method, self._wrapper(fn, name, coarse))
            wrapped += 1
        self.slots.setdefault(name, [0, 0.0, 0.0])
        if not wrapped:
            self.absent[name] = (f"{cls.__qualname__}.{method} is defined "
                                 f"outside the wrapped classes")

    def _wrap_function(self, fn, name: str, coarse: bool) -> None:
        wrapped = self._wrapper(fn, name, coarse)
        # callers that imported the function by name hold their own
        # reference: replace it in every loaded module
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is fn:
                    setattr(module, key, wrapped)

    # ------------------------------------------------------------ output

    def snapshot(self) -> dict:
        """Aggregates recorded so far, JSON-ready."""
        return {"slots": {k: list(v) for k, v in self.slots.items()},
                "hits": dict(self.hits), "counts": dict(self.counts),
                "absent": dict(self.absent)}

    def write_spans(self, path: str, origin: float) -> None:
        """Write the spans as JSONL, times in seconds since ``origin``;
        each simulation's root span covers its children."""
        roots: dict[int, list] = {}
        for span in self.spans:
            if span["name"] != "simulation" and "start" in span:
                bounds = roots.setdefault(span["job"],
                                          [span["start"], span["end"]])
                bounds[0] = min(bounds[0], span["start"])
                bounds[1] = max(bounds[1], span["end"])
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span["name"] == "simulation":
                    bounds = roots.get(span["job"])
                    if bounds is None:
                        continue
                    span = dict(span, start=bounds[0], end=bounds[1])
                elif "start" not in span:
                    continue  # still open (cannot happen after a pass)
                record = dict(span, start=round(span["start"] - origin, 6),
                              end=round(span["end"] - origin, 6))
                fh.write(json.dumps(record, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# per-layer metrics


def merge(snapshots) -> dict:
    """Sum several processes' snapshots (a server and its workers)."""
    merged = {"slots": {}, "hits": {}, "counts": dict.fromkeys(COUNTS, 0),
              "absent": {}}
    for snap in snapshots:
        for name, (count, incl, self_s) in snap["slots"].items():
            slot = merged["slots"].setdefault(name, [0, 0.0, 0.0])
            slot[0] += count
            slot[1] += incl
            slot[2] += self_s
        for name, hits in snap["hits"].items():
            merged["hits"][name] = merged["hits"].get(name, 0) + hits
        for name, value in snap["counts"].items():
            merged["counts"][name] += value
        merged["absent"].update(snap["absent"])
    return merged


def self_seconds(snapshot: dict) -> float:
    """Total self time over every slot: the traced share of the pass."""
    return sum(self_s for __, __, self_s in snapshot["slots"].values())


def layer_metrics(snapshot: dict) -> dict[str, float]:
    """The per-layer metrics one traced pass's snapshot yields.

    ``*_s`` values are self times; plain counts are calls, except the
    result totals of :data:`COUNTS`.  Absent targets read as zero (the
    caller lists them).
    """
    slots = snapshot["slots"]
    hits = snapshot["hits"]
    counts = snapshot["counts"]

    def count(name):
        return slots.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return slots.get(name, (0, 0.0, 0.0))[1]

    def own(*names):
        return sum(slots.get(n, (0, 0.0, 0.0))[2] for n in names)

    lookups = count("experiments.store_get") + count(
        "experiments.store_contains")
    lookup_hits = sum(hits.get(n, 0) for n in _LOOKUPS)
    return {
        "workloads.trace_s": own("workloads.trace"),
        "workloads.traces": count("workloads.trace"),
        "workloads.riscv.decode_s": own("workloads.riscv.decode"),
        "workloads.riscv.trace_s": own("workloads.riscv.trace"),
        "pipeline.construct_s": own("pipeline.construct"),
        "pipeline.prewarm_s": own("pipeline.prewarm"),
        "pipeline.loop_s": own("pipeline.loop"),
        "pipeline.result_s": own("pipeline.result"),
        "pipeline.sims": count("pipeline.result"),
        "memory.load_s": own("memory.load"),
        "memory.loads": count("memory.load"),
        "memory.store_s": own("memory.store"),
        "memory.stores": count("memory.store"),
        "memory.ifetch_s": own("memory.ifetch"),
        "memory.ifetches": count("memory.ifetch"),
        "frontend.predict_s": own("frontend.predict"),
        "frontend.resolve_s": own("frontend.resolve"),
        "frontend.predicts": count("frontend.predict"),
        "core.tick_s": own("core.tick"),
        "core.ticks": count("core.tick"),
        "core.miss_s": own("core.miss"),
        "telemetry.record_s": own("telemetry.sample", "telemetry.event"),
        "telemetry.samples": count("telemetry.sample"),
        "telemetry.events": count("telemetry.event"),
        "telemetry.export_s": own("telemetry.export"),
        "experiments.plan_s": own("experiments.plan"),
        "experiments.key_s": own("experiments.key"),
        "experiments.store_put_s": own("experiments.store_put"),
        "experiments.store_get_s": own("experiments.store_get",
                                       "experiments.store_contains"),
        "experiments.store_gets": lookups,
        "experiments.store_hit_ratio": (lookup_hits / lookups
                                        if lookups else 0.0),
        "pipeline.uops": counts["uops"],
        "pipeline.cycles": counts["cycles"],
        "pipeline.loop_ns_per_uop": (1e9 * incl("pipeline.loop")
                                     / counts["uops"]
                                     if counts["uops"] else 0.0),
        "pipeline.useful_uop_ratio": (counts["committed"]
                                      / counts["dispatched"]
                                      if counts["dispatched"] else 0.0),
        "memory.l2_misses": counts["l2_misses"],
        "frontend.mispredict_ratio": (counts["mispredicts"]
                                      / counts["branches"]
                                      if counts["branches"] else 0.0),
        "core.transitions": counts["transitions"],
    }
