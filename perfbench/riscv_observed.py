"""Experiment module of the ``riscv_observed`` workload.

The riscv corpus kernels under the base machine, the paper's dynamic
model and the dynamic model steered by a ``bandit:ucb`` controller.
It follows the experiment-module convention (``run(settings, sweep)``)
so the campaign planner records and executes it like ``fig07``.
"""

from __future__ import annotations

from repro.config import dynamic_config
from repro.core.policies import make_policy
from repro.experiments import ExperimentResult, Settings, Sweep

#: the learned controller measured next to the paper's policy
POLICY = "bandit:ucb"


def run(settings: Settings | None = None,
        sweep: Sweep | None = None) -> ExperimentResult:
    sweep = sweep or Sweep(settings)
    result = ExperimentResult(
        exp_id="riscv_observed",
        title="riscv corpus: IPC normalised by base",
        headers=["program", "base IPC", "dynamic", POLICY])
    config = dynamic_config(3)
    for program in sweep.settings.programs():
        base = sweep.base(program)
        dynamic = sweep.dynamic(program)
        learned = sweep.run(program, config, policy=make_policy(
            POLICY, config.level, config.memory.min_latency))
        result.rows.append([program, f"{base.ipc:.3f}",
                            f"{dynamic.ipc / base.ipc:.2f}",
                            f"{learned.ipc / base.ipc:.2f}"])
    return result
