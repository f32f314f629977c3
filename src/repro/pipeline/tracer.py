"""Pipeline lifecycle tracing (pipeview-style).

Attach a :class:`PipelineTracer` to a processor to record, for every
*committed* micro-op, the cycles at which it was fetched, dispatched,
issued and completed — the raw material for pipeline visualisation and
for debugging timing questions ("why did this load issue 40 cycles after
dispatch?").

Example::

    proc = Processor(base_config(), trace)
    tracer = PipelineTracer(proc, capacity=200)
    proc.run(until_committed=500)
    print(tracer.render())
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class OpRecord:
    """Lifecycle of one committed micro-op."""

    seq: int
    pc: int
    op_name: str
    fetch: int
    dispatch: int
    issue: int
    complete: int
    commit: int
    l2_miss: bool
    forwarded: bool
    mispredicted: bool

    @property
    def latency(self) -> int:
        """Fetch-to-commit lifetime in cycles."""
        return self.commit - self.fetch

    @property
    def queue_time(self) -> int:
        """Cycles spent waiting in the issue queue."""
        return max(0, self.issue - self.dispatch)

    def as_dict(self) -> dict:
        return {"seq": self.seq, "pc": self.pc, "op": self.op_name,
                "fetch": self.fetch, "dispatch": self.dispatch,
                "issue": self.issue, "complete": self.complete,
                "commit": self.commit, "l2_miss": self.l2_miss,
                "forwarded": self.forwarded,
                "mispredicted": self.mispredicted}


class PipelineTracer:
    """Records the last ``capacity`` committed ops of a processor."""

    def __init__(self, processor, capacity: int = 1000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.records: deque[OpRecord] = deque(maxlen=capacity)
        self.total_committed = 0
        processor.tracer = self

    # called by Processor._commit_stage for each retired op
    def on_commit(self, op, cycle: int) -> None:
        self.total_committed += 1
        uop = op.uop
        self.records.append(OpRecord(
            seq=op.seq, pc=uop.pc, op_name=uop.op.name,
            fetch=op.fetch_cycle, dispatch=op.dispatch_cycle,
            issue=op.issue_cycle, complete=op.complete_cycle,
            commit=cycle, l2_miss=op.l2_miss, forwarded=op.forwarded,
            mispredicted=op.mispredicted))

    # ------------------------------------------------------------------

    def render(self, last: int | None = None) -> str:
        """A text table of the most recent ``last`` records."""
        records = list(self.records)[-(last or len(self.records)):]
        lines = [f"{'seq':>7} {'pc':>10} {'op':<7} {'F':>7} {'D':>7} "
                 f"{'I':>7} {'C':>7} {'R':>7}  flags"]
        for r in records:
            flags = "".join((
                "M" if r.l2_miss else "",
                "f" if r.forwarded else "",
                "!" if r.mispredicted else ""))
            lines.append(
                f"{r.seq:>7} {r.pc:>#10x} {r.op_name:<7} {r.fetch:>7} "
                f"{r.dispatch:>7} {r.issue:>7} {r.complete:>7} "
                f"{r.commit:>7}  {flags}")
        return "\n".join(lines)

    def average_latency(self) -> float:
        """Mean fetch-to-commit latency over the recorded window."""
        if not self.records:
            return 0.0
        return sum(r.latency for r in self.records) / len(self.records)

    def average_queue_time(self) -> float:
        """Mean dispatch-to-issue wait over the recorded window."""
        if not self.records:
            return 0.0
        return sum(r.queue_time for r in self.records) / len(self.records)

    def slowest(self, n: int = 10) -> list[OpRecord]:
        """The ``n`` longest-lived recorded ops (critical suspects)."""
        return sorted(self.records, key=lambda r: r.latency,
                      reverse=True)[:n]

    def to_jsonl(self, path: str) -> int:
        """Export the recorded lifecycles as JSON lines; returns the
        record count (same convention as
        :meth:`repro.debug.events.EventTrace.to_jsonl`)."""
        import json
        records = list(self.records)
        with open(path, "w", encoding="utf-8") as fh:
            for r in records:
                fh.write(json.dumps(r.as_dict()) + "\n")
        return len(records)
