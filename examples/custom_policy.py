"""Extending the library: plug in your own resizing policy.

Implements a *hysteresis* variant of the paper's controller — it waits
for two L2 misses within a window before enlarging (fewer spurious
enlargements on isolated misses) — and races it against the paper's
policy and the prior-art comparators on a mixed set of programs.

Run:  python examples/custom_policy.py
"""

from repro import dynamic_config, generate_trace, profile, simulate
from repro.core import MLPAwarePolicy, make_policy
from repro.core.policies import ResizeDecision, ResizingPolicy
from repro.pipeline.resources import WindowSet


class HysteresisPolicy(ResizingPolicy):
    """Enlarge only after two misses within ``confirm_window`` cycles."""

    def __init__(self, max_level: int, memory_latency: int,
                 confirm_window: int = 64) -> None:
        self.inner = MLPAwarePolicy(max_level, memory_latency)
        self.confirm_window = confirm_window
        self._last_miss = -1 << 30

    @property
    def level(self) -> int:
        return self.inner.level

    def on_l2_miss(self, cycle: int) -> None:
        if cycle - self._last_miss <= self.confirm_window:
            self.inner.on_l2_miss(cycle)
        self._last_miss = cycle

    def tick(self, cycle: int, window: WindowSet) -> ResizeDecision:
        return self.inner.tick(cycle, window)

    def next_timer(self) -> int | None:
        return self.inner.next_timer()


PROGRAMS = ("libquantum", "omnetpp", "milc", "gcc", "sjeng")


def main() -> None:
    config = dynamic_config(3)
    mem_latency = config.memory.min_latency
    policies = {
        "paper (mlp)": lambda: make_policy("mlp", 3, mem_latency),
        "hysteresis": lambda: HysteresisPolicy(3, mem_latency),
        "occupancy": lambda: make_policy("occupancy", 3, mem_latency),
    }
    print(f"{'program':<12}" + "".join(f"{n:>14}" for n in policies))
    for program in PROGRAMS:
        trace = generate_trace(profile(program), n_ops=16_000, seed=1)
        base = simulate(dynamic_config(1), trace, warmup=3_000,
                        measure=12_000)
        cells = []
        for factory in policies.values():
            res = simulate(config, trace, warmup=3_000, measure=12_000,
                           policy=factory())
            cells.append(f"{res.ipc / base.ipc:>13.2f}x")
        print(f"{program:<12}" + "".join(cells))
    print("\nhysteresis trades a little MLP ramp-up speed for fewer "
          "spurious enlargements on isolated misses (e.g. milc)")


if __name__ == "__main__":
    main()
