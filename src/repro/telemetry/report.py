"""Plain-text report rendering for telemetry recordings.

Turns a :class:`~repro.telemetry.recorder.Telemetry` into the three
views ``python -m repro.telemetry`` prints:

* the **level timeline** — the window level over time as a sparkline
  with the grow/shrink/drain event ledger underneath; this is the
  reproduction's view of the paper's Figure 5/6 behaviour, and
  :func:`grow_miss_coincidence` quantifies the causal story (every
  grow should trail a demand L2-miss detection);
* the **occupancy heat summary** — mean/peak occupancy and utilisation
  of ROB/IQ/LSQ plus MSHR pressure, per resource;
* the **interval CPI stack** — a one-character-per-interval strip of
  the dominant stall bucket, plus aggregate per-bucket shares.

All views read only the retained ring window (plus the wrap-surviving
totals); CSV export for plotting lives on the recorder.
"""

from __future__ import annotations

from repro.stats import sparkline
from repro.telemetry.recorder import STALL_REASONS, Telemetry

#: One display character per CPI bucket for the dominant-stall strip.
_STALL_CHARS = {
    "mem_dram": "D", "mem_cache": "c", "mem_forward": "f",
    "deps": "d", "issue": "i", "exec": "x", "frontend": "F",
}

#: How close (in cycles) a demand L2 miss must precede a grow event to
#: count as its trigger.  The MLP-aware policy grows on the first tick
#: at or after a miss detection, so the true gap is a handful of cycles;
#: 64 gives slack for transition-penalty pile-ups without letting an
#: unrelated miss claim credit.
COINCIDENCE_WINDOW = 64


def grow_miss_coincidence(tel: Telemetry,
                          window: int = COINCIDENCE_WINDOW) -> dict:
    """How many ``grow`` events trail an ``l2_miss`` within ``window``.

    Returns ``{"grows": N, "matched": M, "window": window,
    "gaps": [...]}`` where ``gaps`` holds, per matched grow, the cycle
    distance to the most recent miss detection at or before it.
    """
    miss_cycles = sorted(e.cycle for e in tel.events if e.kind == "l2_miss")
    grows = [e for e in tel.events if e.kind == "grow"]
    matched = 0
    gaps = []
    import bisect
    for grow in grows:
        idx = bisect.bisect_right(miss_cycles, grow.cycle) - 1
        if idx >= 0 and grow.cycle - miss_cycles[idx] <= window:
            matched += 1
            gaps.append(grow.cycle - miss_cycles[idx])
    return {"grows": len(grows), "matched": matched,
            "window": window, "gaps": gaps}


def render_level_timeline(tel: Telemetry, width: int = 64) -> str:
    """Level-over-time sparkline plus the policy-event ledger."""
    levels = tel.levels()
    meta = tel.meta
    max_level = max([meta.get("level", 1), *(levels or [1])])
    lines = []
    span = ""
    if tel.samples:
        span = (f"cycles {tel.samples[0].cycle - tel.samples[0].cycles}"
                f"..{tel.samples[-1].cycle}")
    lines.append(f"level timeline ({len(levels)} intervals x "
                 f"{tel.period} cycles, {span})")
    lines.append(f"  level 1-{max_level} : "
                 f"{sparkline(levels, width=width, max_value=max_level)}")
    misses = [s.l2_misses for s in tel.samples]
    lines.append(f"  L2 misses : {sparkline(misses, width=width)}")
    lines.append(f"  IPC       : {sparkline(tel.ipcs(), width=width)}")
    counts = tel.event_counts
    lines.append("  events    : "
                 + ", ".join(f"{counts.get(k, 0)} {k}"
                             for k in ("grow", "shrink", "drain", "l2_miss")))
    co = grow_miss_coincidence(tel)
    if co["grows"]:
        gaps = co["gaps"]
        detail = ""
        if gaps:
            detail = (f" (median gap {sorted(gaps)[len(gaps) // 2]} cy, "
                      f"max {max(gaps)} cy)")
        lines.append(f"  grow<-miss: {co['matched']}/{co['grows']} grow "
                     f"events within {co['window']} cycles of a demand "
                     f"L2 miss{detail}")
    transitions = [e for e in tel.events if e.kind in ("grow", "shrink")]
    for event in transitions[:8]:
        lines.append(f"    @{event.cycle:>8} {event.kind:<6} "
                     f"{event.detail}")
    if len(transitions) > 8:
        lines.append(f"    ... {len(transitions) - 8} more transitions")
    return "\n".join(lines)


def render_occupancy_summary(tel: Telemetry, width: int = 64) -> str:
    """Mean/peak occupancy and utilisation per window resource."""
    lines = ["occupancy heat summary"]
    if not tel.samples:
        lines.append("  (no samples)")
        return "\n".join(lines)
    for resource in ("rob", "iq", "lsq"):
        occs = tel.occupancies(resource)
        caps = [getattr(s, f"{resource}_cap") for s in tel.samples]
        mean_occ = sum(occs) / len(occs)
        utilisations = [o / c for o, c in zip(occs, caps) if c]
        mean_util = (sum(utilisations) / len(utilisations)
                     if utilisations else 0.0)
        peak = getattr(tel, f"peak_{resource}")
        lines.append(f"  {resource.upper():<4} "
                     f"{sparkline(occs, width=width, max_value=max(caps))} "
                     f" mean {mean_occ:6.1f}  peak {peak:>3}  "
                     f"util {mean_util:5.1%}")
    mshrs = [s.mshr_l1d + s.mshr_l2 for s in tel.samples]
    lines.append(f"  MSHR {sparkline(mshrs, width=width)} "
                 f" mean {sum(mshrs) / len(mshrs):6.1f}  "
                 f"peak {max(mshrs):>3}  (L1D+L2 in flight)")
    width_cfg = tel.meta.get("width")
    if width_cfg and tel.cycles_covered:
        slots = width_cfg * tel.cycles_covered
        lines.append(f"  width util: commit "
                     f"{tel.committed_total / slots:5.1%}  issue "
                     f"{tel.issued_total / slots:5.1%} of "
                     f"{width_cfg}-wide slots over "
                     f"{tel.cycles_covered} cycles")
    return "\n".join(lines)


def render_cpi_intervals(tel: Telemetry, width: int = 64) -> str:
    """Dominant-stall strip per interval + aggregate bucket shares."""
    lines = ["interval CPI stack (dominant stall bucket per interval)"]
    strip = []
    for s in tel.samples:
        if s.stalls:
            reason = max(s.stalls.items(), key=lambda kv: kv[1])[0]
            strip.append(_STALL_CHARS.get(reason, "?"))
        else:
            strip.append(".")
    if len(strip) > width:
        # keep one char per pooled bucket: take the bucket's modal char
        bucket = len(strip) / width
        pooled = []
        for i in range(width):
            lo, hi = int(i * bucket), max(int(i * bucket) + 1,
                                          int((i + 1) * bucket))
            chunk = strip[lo:hi]
            pooled.append(max(set(chunk), key=chunk.count))
        strip = pooled
    lines.append("  " + "".join(strip))
    legend = "  ".join(f"{ch}={reason}"
                       for reason, ch in _STALL_CHARS.items())
    lines.append(f"  legend: .=none  {legend}")
    total = sum(tel.stall_totals.values())
    if total:
        lines.append("  stall-slot shares (whole run, wrap-proof):")
        for reason in STALL_REASONS:
            slots = tel.stall_totals.get(reason, 0)
            if slots:
                lines.append(f"    {reason:<13} {slots:>9}  "
                             f"{slots / total:5.1%}")
    return "\n".join(lines)


def render_report(tel: Telemetry, width: int = 64) -> str:
    """The full three-view report ``python -m repro.telemetry`` prints."""
    meta = tel.meta
    head = (f"== telemetry: {meta.get('program', '?')} / "
            f"{meta.get('model', '?')} L{meta.get('level', '?')} "
            f"(period {tel.period}, {tel.samples_emitted} samples, "
            f"{tel.events_emitted} events)")
    if tel.samples_emitted > len(tel.samples):
        head += (f"\n   ring retains last {len(tel.samples)} samples; "
                 f"totals cover all {tel.samples_emitted}")
    return "\n\n".join([
        head,
        render_level_timeline(tel, width=width),
        render_occupancy_summary(tel, width=width),
        render_cpi_intervals(tel, width=width),
    ])
