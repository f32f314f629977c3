"""CPI stacks from commit-stall attribution.

Every cycle the commit stage retires fewer micro-ops than the machine
width, the unused commit slots are charged to the reason the ROB head
could not retire (DRAM miss, cache access, unready dependences, issue
contention, empty ROB = front end).  Dividing each bucket by
``width x instructions`` yields an additive decomposition of CPI:

    CPI_total = CPI_base + sum(CPI_reason)

where ``CPI_base = 1/width`` is the ideal machine.  This is the
commit-slot variant of the classic CPI-stack methodology; it makes the
paper's argument quantitative — memory-intensive programs drown in
``mem_dram`` (which the big window shrinks), compute-intensive programs
in ``deps``/``frontend`` (which the pipelined IQ inflates).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.stats.report import SimulationResult

#: canonical component order for rendering
COMPONENTS = ("base", "mem_dram", "mem_cache", "mem_forward", "deps",
              "issue", "exec", "frontend")

_LABELS = {
    "base": "base (ideal width)",
    "mem_dram": "DRAM misses",
    "mem_cache": "cache access",
    "mem_forward": "store forwarding",
    "deps": "data dependences",
    "issue": "issue/FU contention",
    "exec": "execution latency",
    "frontend": "front end / recovery",
}


@dataclass
class CPIStack:
    """Additive CPI decomposition of one run."""

    program: str
    model: str
    total: float
    components: dict[str, float] = field(default_factory=dict)

    def fraction(self, name: str) -> float:
        """Share of total CPI attributed to ``name``."""
        if self.total <= 0:
            return 0.0
        return self.components.get(name, 0.0) / self.total

    def memory_share(self) -> float:
        """Fraction of CPI spent waiting on the memory hierarchy."""
        return (self.fraction("mem_dram") + self.fraction("mem_cache")
                + self.fraction("mem_forward"))


def cpi_stack(result: SimulationResult) -> CPIStack:
    """Build the CPI stack of a finished run."""
    stats = result.stats
    if stats is None:
        raise ValueError("result carries no raw stats")
    instructions = max(1, result.instructions)
    total_stall_slots = sum(stats.stall_slots.values())
    # committed slots == instructions; slots/cycle == machine width
    width_slots = instructions + total_stall_slots
    width = max(1, round(width_slots / max(1, result.cycles)))
    denom = width * instructions
    components = {"base": 1.0 / width}
    for reason, slots in sorted(stats.stall_slots.items()):
        components[reason] = slots / denom
    return CPIStack(program=result.program, model=result.model,
                    total=result.cycles / instructions,
                    components=components)


def render_cpi_stack(stack: CPIStack, bar_width: int = 36) -> str:
    """One run's stack as a text chart."""
    lines = [f"CPI stack — {stack.program} ({stack.model}): "
             f"{stack.total:.3f} cycles/uop"]
    for name in COMPONENTS:
        value = stack.components.get(name)
        if not value:
            continue
        share = stack.fraction(name)
        bar = "#" * max(1, round(bar_width * share)) if share > 0.004 else ""
        lines.append(f"  {_LABELS[name]:<22} {value:>7.3f} "
                     f"{share:>6.1%}  {bar}")
    return "\n".join(lines)


def compare_cpi_stacks(stacks: list[CPIStack]) -> str:
    """Several stacks side by side (per-component CPI columns)."""
    header = f"{'component':<22}" + "".join(
        f"{s.model:>12}" for s in stacks)
    lines = [header, "-" * len(header)]
    for name in COMPONENTS:
        if not any(s.components.get(name) for s in stacks):
            continue
        row = f"{_LABELS[name]:<22}"
        for s in stacks:
            row += f"{s.components.get(name, 0.0):>12.3f}"
        lines.append(row)
    row = f"{'total CPI':<22}"
    for s in stacks:
        row += f"{s.total:>12.3f}"
    lines.append(row)
    return "\n".join(lines)
