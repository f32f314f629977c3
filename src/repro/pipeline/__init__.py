"""The out-of-order pipeline substrate (the SimpleScalar replacement).

A 4-wide P6-style superscalar core: fetch with gshare/BTB prediction and
wrong-path injection, decode, rename (map table into ROB entries),
dispatch into the resizable ROB/IQ/LSQ window resources, oldest-first
wakeup/select issue with a configurable issue-loop pipeline depth,
function-unit contention, non-blocking memory access through
:class:`~repro.memory.MemoryHierarchy`, and in-order commit.

The window resources are FIFO structures whose *active region* can be
grown and shrunk at run time — the substrate the paper's contribution
(:mod:`repro.core`) controls.
"""

from repro.pipeline.resources import WindowResource, WindowSet
from repro.pipeline.core import Processor, InFlightOp, simulate
from repro.pipeline.tracer import PipelineTracer, OpRecord
from repro.pipeline.smt import SMTProcessor, SMTRun, simulate_smt

__all__ = ["WindowResource", "WindowSet", "Processor", "InFlightOp",
           "simulate", "PipelineTracer", "OpRecord",
           "SMTProcessor", "SMTRun", "simulate_smt"]
