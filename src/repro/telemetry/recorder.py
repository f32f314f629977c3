"""Ring-buffered time-series storage for telemetry samples and events.

The recorder is deliberately passive: :class:`TelemetryProbe
<repro.telemetry.probe.TelemetryProbe>` pushes :class:`IntervalSample`
and :class:`PolicyEvent` records into a :class:`Telemetry` instance,
which keeps the most recent ``capacity`` of each in a ring (a bounded
``deque``) while whole-run totals — samples/events emitted, per-kind
event counts, per-bucket stall slots, committed micro-ops, demand L2
misses, peak occupancies — survive wraparound.  The same split the
:mod:`repro.debug` event trace uses: a bounded window of detail, exact
aggregate accounting.

Export formats:

* **JSONL** (:meth:`Telemetry.to_jsonl` / :meth:`Telemetry.from_jsonl`)
  — one ``meta`` line carrying run identity and the wrap-surviving
  totals, then one line per sample and per event.  This is the per-job
  artifact the campaign executor drops into ``.simcache/telemetry/``
  and the input of ``python -m repro.telemetry report``.  Round-trips
  exactly (integer counters, string reasons — no floats).
* **CSV** (:meth:`Telemetry.samples_csv`, :meth:`Telemetry.events_csv`,
  :func:`load_samples_csv`) — fixed-column tables for plotting; the
  stall dict is widened into one ``stall_<reason>`` column per CPI
  bucket of :data:`STALL_REASONS`.

Nothing here touches a processor: recording cannot perturb a run (the
digest-neutrality invariant of :mod:`repro.telemetry` is enforced on
the probe side, which only performs pure reads).
"""

from __future__ import annotations

import csv
import json
import os
from collections import deque

#: CPI-stack stall buckets, in the column order of the CSV export.
#: Matches the commit-stall reasons produced by the pipeline (see
#: ``repro.analysis.cpi``; ``base`` is derived there, never recorded).
STALL_REASONS = ("mem_dram", "mem_cache", "mem_forward", "deps",
                 "issue", "exec", "frontend")

#: Policy-event kinds a probe can record: window level transitions
#: (``grow``/``shrink``), the controller stopping allocation to drain
#: the region being removed (``drain``), demand L2-miss detections
#: (``l2_miss``) — the cause the grows should line up with — and, for
#: the learned bandit controllers, every arm selection (``pull``) and
#: per-window score (``reward``); the detail string carries the arm,
#: context and reward value for ``tools/train_policy_table.py``.
EVENT_KINDS = ("grow", "shrink", "drain", "l2_miss", "pull", "reward")

_SAMPLE_FIELDS = (
    "cycle", "cycles", "level",
    "rob_occ", "rob_cap", "iq_occ", "iq_cap", "lsq_occ", "lsq_cap",
    "mshr_l1d", "mshr_l2",
    "committed", "issued", "dispatched", "l2_misses", "stop_alloc",
)


class IntervalSample:
    """One sampling interval, recorded at its trailing cycle edge.

    Occupancy/level/MSHR fields are the machine state *at* ``cycle``;
    ``committed``/``issued``/``dispatched``/``l2_misses``/``stop_alloc``
    and the ``stalls`` dict are deltas over the ``cycles`` cycles the
    interval covers (normally the sampling period; the final interval
    of a run may be shorter).
    """

    __slots__ = _SAMPLE_FIELDS + ("stalls",)

    def __init__(self, *, cycle: int, cycles: int, level: int,
                 rob_occ: int, rob_cap: int, iq_occ: int, iq_cap: int,
                 lsq_occ: int, lsq_cap: int, mshr_l1d: int, mshr_l2: int,
                 committed: int, issued: int, dispatched: int,
                 l2_misses: int, stop_alloc: int,
                 stalls: dict[str, int] | None = None) -> None:
        self.cycle = cycle
        self.cycles = cycles
        self.level = level
        self.rob_occ = rob_occ
        self.rob_cap = rob_cap
        self.iq_occ = iq_occ
        self.iq_cap = iq_cap
        self.lsq_occ = lsq_occ
        self.lsq_cap = lsq_cap
        self.mshr_l1d = mshr_l1d
        self.mshr_l2 = mshr_l2
        self.committed = committed
        self.issued = issued
        self.dispatched = dispatched
        self.l2_misses = l2_misses
        self.stop_alloc = stop_alloc
        self.stalls = stalls or {}

    def as_dict(self) -> dict:
        d = {name: getattr(self, name) for name in _SAMPLE_FIELDS}
        d["stalls"] = dict(self.stalls)
        return d

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSample):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        return (f"<sample @{self.cycle} L{self.level} "
                f"rob={self.rob_occ}/{self.rob_cap} "
                f"committed={self.committed}/{self.cycles}cy>")


class PolicyEvent:
    """One point event: a level transition, drain onset, or L2 miss."""

    __slots__ = ("cycle", "kind", "level", "detail")

    def __init__(self, cycle: int, kind: str, level: int,
                 detail: str = "") -> None:
        self.cycle = cycle
        self.kind = kind
        self.level = level
        self.detail = detail

    def as_dict(self) -> dict:
        return {"cycle": self.cycle, "kind": self.kind,
                "level": self.level, "detail": self.detail}

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolicyEvent):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        return f"<{self.kind} @{self.cycle} L{self.level} {self.detail}>"


class Telemetry:
    """The recording: bounded sample/event rings + exact run totals."""

    def __init__(self, period: int, capacity: int = 4096,
                 event_capacity: int = 8192) -> None:
        if period < 1:
            raise ValueError("sampling period must be >= 1 cycle")
        if capacity < 1 or event_capacity < 1:
            raise ValueError("ring capacities must be >= 1")
        self.period = period
        self.capacity = capacity
        self.event_capacity = event_capacity
        self.samples: deque[IntervalSample] = deque(maxlen=capacity)
        self.events: deque[PolicyEvent] = deque(maxlen=event_capacity)
        #: run identity (program, model, width, sim_version, ...) set by
        #: the probe at attach time; free-form, JSON-encodable values
        self.meta: dict[str, object] = {}
        # ---- totals that survive ring wraparound ----
        self.samples_emitted = 0
        self.events_emitted = 0
        self.event_counts: dict[str, int] = {}
        self.stall_totals: dict[str, int] = {}
        self.cycles_covered = 0
        self.committed_total = 0
        self.issued_total = 0
        self.l2_miss_total = 0
        self.peak_rob = 0
        self.peak_iq = 0
        self.peak_lsq = 0

    # ------------------------------------------------------------------
    # recording

    def add_sample(self, sample: IntervalSample) -> None:
        self.samples.append(sample)
        self.samples_emitted += 1
        self.cycles_covered += sample.cycles
        self.committed_total += sample.committed
        self.issued_total += sample.issued
        self.l2_miss_total += sample.l2_misses
        if sample.rob_occ > self.peak_rob:
            self.peak_rob = sample.rob_occ
        if sample.iq_occ > self.peak_iq:
            self.peak_iq = sample.iq_occ
        if sample.lsq_occ > self.peak_lsq:
            self.peak_lsq = sample.lsq_occ
        for reason, slots in sample.stalls.items():
            self.stall_totals[reason] = (
                self.stall_totals.get(reason, 0) + slots)

    def add_event(self, event: PolicyEvent) -> None:
        self.events.append(event)
        self.events_emitted += 1
        self.event_counts[event.kind] = (
            self.event_counts.get(event.kind, 0) + 1)

    # ------------------------------------------------------------------
    # series accessors (over the retained ring window)

    def levels(self) -> list[int]:
        return [s.level for s in self.samples]

    def ipcs(self) -> list[float]:
        return [s.committed / s.cycles if s.cycles else 0.0
                for s in self.samples]

    def occupancies(self, resource: str) -> list[int]:
        attr = f"{resource}_occ"
        return [getattr(s, attr) for s in self.samples]

    def events_of(self, kind: str) -> list[PolicyEvent]:
        return [e for e in self.events if e.kind == kind]

    def __len__(self) -> int:
        return len(self.samples)

    # ------------------------------------------------------------------
    # JSONL export / import

    def _meta_record(self) -> dict:
        return {
            "type": "meta",
            "period": self.period,
            "capacity": self.capacity,
            "event_capacity": self.event_capacity,
            "meta": self.meta,
            "samples_emitted": self.samples_emitted,
            "events_emitted": self.events_emitted,
            "event_counts": self.event_counts,
            "stall_totals": self.stall_totals,
            "cycles_covered": self.cycles_covered,
            "committed_total": self.committed_total,
            "issued_total": self.issued_total,
            "l2_miss_total": self.l2_miss_total,
            "peak_rob": self.peak_rob,
            "peak_iq": self.peak_iq,
            "peak_lsq": self.peak_lsq,
        }

    def to_jsonl(self, path: str) -> str:
        """Write the recording as one JSON object per line.

        The write is atomic (temp file + ``os.replace``) like the result
        store's: a campaign killed mid-write never leaves a truncated
        artifact behind.
        """
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self._meta_record(), sort_keys=True) + "\n")
            for sample in self.samples:
                record = {"type": "sample", **sample.as_dict()}
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            for event in self.events:
                record = {"type": "event", **event.as_dict()}
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        os.replace(tmp, path)
        return path

    @classmethod
    def from_jsonl(cls, path: str) -> "Telemetry":
        """Reconstruct a recording written by :meth:`to_jsonl`.

        Ring contents and totals are restored verbatim from the file —
        records that wrapped out before export are gone, but the meta
        totals still account for them exactly.
        """
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
            if not first:
                raise ValueError(f"{path}: empty telemetry artifact")
            head = json.loads(first)
            if head.get("type") != "meta":
                raise ValueError(f"{path}: missing meta header line")
            tel = cls(period=head["period"], capacity=head["capacity"],
                      event_capacity=head["event_capacity"])
            tel.meta = dict(head.get("meta", {}))
            for record in fh:
                rec = json.loads(record)
                kind = rec.pop("type", None)
                if kind == "sample":
                    tel.samples.append(IntervalSample(**rec))
                elif kind == "event":
                    tel.events.append(PolicyEvent(**rec))
        # totals come from the header, not from replaying the (possibly
        # wrapped) ring contents
        tel.samples_emitted = head["samples_emitted"]
        tel.events_emitted = head["events_emitted"]
        tel.event_counts = dict(head["event_counts"])
        tel.stall_totals = dict(head["stall_totals"])
        tel.cycles_covered = head["cycles_covered"]
        tel.committed_total = head["committed_total"]
        tel.issued_total = head["issued_total"]
        tel.l2_miss_total = head["l2_miss_total"]
        tel.peak_rob = head["peak_rob"]
        tel.peak_iq = head["peak_iq"]
        tel.peak_lsq = head["peak_lsq"]
        return tel

    # ------------------------------------------------------------------
    # CSV export

    def samples_csv(self, path: str) -> str:
        """Write the retained samples as a fixed-column CSV table."""
        header = list(_SAMPLE_FIELDS) + [f"stall_{r}" for r in STALL_REASONS]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for s in self.samples:
                row = [getattr(s, name) for name in _SAMPLE_FIELDS]
                row += [s.stalls.get(r, 0) for r in STALL_REASONS]
                writer.writerow(row)
        return path

    def events_csv(self, path: str) -> str:
        """Write the retained events as a CSV table."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cycle", "kind", "level", "detail"])
            for e in self.events:
                writer.writerow([e.cycle, e.kind, e.level, e.detail])
        return path


def load_samples_csv(path: str) -> list[IntervalSample]:
    """Read a :meth:`Telemetry.samples_csv` table back into samples."""
    samples = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            stalls = {}
            for reason in STALL_REASONS:
                slots = int(row[f"stall_{reason}"])
                if slots:
                    stalls[reason] = slots
            samples.append(IntervalSample(
                stalls=stalls,
                **{name: int(row[name]) for name in _SAMPLE_FIELDS}))
    return samples


def load_events_csv(path: str) -> list[PolicyEvent]:
    """Read a :meth:`Telemetry.events_csv` table back into events."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        return [PolicyEvent(int(row["cycle"]), row["kind"],
                            int(row["level"]), row["detail"])
                for row in csv.DictReader(fh)]
