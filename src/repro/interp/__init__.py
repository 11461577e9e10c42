"""repro.interp — IR interpreter, memory image, and differential tests.

The interpreter executes scalar and vector IR and charges each retired
instruction its issue cost from the target cost model; the resulting
simulated cycle counts substitute for the paper's Skylake wall-clock
measurements.
"""

from .batch import sweep, SweepResult
from .differential import (
    Comparator,
    compare_runs,
    DifferentialOutcome,
    KernelFactory,
    run_on_fresh_memory,
    seeded_sweep,
)
from .interpreter import ExecutionResult, Interpreter, InterpreterError
from .memory import MemoryImage, Pointer

__all__ = [
    "Comparator",
    "compare_runs",
    "DifferentialOutcome",
    "ExecutionResult",
    "Interpreter",
    "InterpreterError",
    "KernelFactory",
    "MemoryImage",
    "Pointer",
    "run_on_fresh_memory",
    "seeded_sweep",
    "sweep",
    "SweepResult",
]
