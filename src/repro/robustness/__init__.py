"""repro.robustness — the guarded compilation driver.

Vectorization is an *optimization*: a production compiler must never let
the SLP pass crash a compile or silently miscompile a kernel.  This
package supplies the safety net the rest of the pipeline threads
through:

* :mod:`diagnostics` — a structured :class:`CompilerError` taxonomy and
  the remark stream surfaced on :class:`~repro.opt.pipelines.CompileResult`.
* :mod:`guard` — snapshot/rollback of every pass (via
  :func:`repro.ir.cloning.clone_function`) and the differential-execution
  oracle that demotes miscompiles back to the scalar baseline.
* :mod:`budget` — resource budgets bounding look-ahead evaluations,
  exhaustive-reorder permutations and per-function compile time, with a
  greedy fallback instead of a hang.
* :mod:`faults` — a deterministic fault-injection harness the tests use
  to prove the guard actually recovers.
"""

from .budget import Budget, BudgetEvent, BudgetMeter, ModuleMeter
from .diagnostics import (
    BudgetExceededError,
    CompilerError,
    DiagnosticEngine,
    InvalidIRError,
    MiscompileError,
    PassCrashError,
    Remark,
    Severity,
)
from .faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    InjectedServiceFault,
    PerturbedCostModel,
    SERVICE_FAULT_SITES,
    ServiceFaultPlan,
    ServiceFaultSpec,
)
from .guard import (
    DifferentialOracle,
    FunctionSnapshot,
    GuardPolicy,
    PassGuard,
)

__all__ = [
    "Budget",
    "FAULT_KINDS",
    "BudgetEvent",
    "BudgetExceededError",
    "BudgetMeter",
    "CompilerError",
    "DiagnosticEngine",
    "DifferentialOracle",
    "FaultInjector",
    "FaultSpec",
    "FunctionSnapshot",
    "GuardPolicy",
    "InjectedFault",
    "InjectedServiceFault",
    "InvalidIRError",
    "MiscompileError",
    "ModuleMeter",
    "PassCrashError",
    "PerturbedCostModel",
    "Remark",
    "SERVICE_FAULT_SITES",
    "ServiceFaultPlan",
    "ServiceFaultSpec",
    "Severity",
]
