"""Differential validation of the compiled tier against the interpreter.

The compiled tier is *never* trusted: any result it serves must be
reproducible by running the same function on the interpreter with an
identically-seeded fresh memory image.  The runs come from the same
seeded sweep as the oracle's and are judged by the same
:class:`~repro.interp.differential.Comparator`, here with tolerance 0:
return values and every memory element must be bit-exact (NaN equals
only NaN, signed zeros must match sign), and the simulated-cycle
accounting (``cycles``, ``instructions_retired``, ``opcode_counts``)
must agree — the compiled tier reconstructs them from static tables
and any drift there means the tables are wrong.

Both sides raising is equivalent *when the exception class matches*
(e.g. both hit the step limit or both trap on division by zero); the
compiled tier executes whole blocks before checking, so error-path
*memory* is deliberately not compared (see docs/BACKEND.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..costmodel.tti import TargetCostModel
from ..interp.differential import Comparator, seeded_sweep
from ..interp.interpreter import Interpreter
from ..interp.memory import MemoryImage
from ..ir.function import Function, Module
from .tiers import TieredExecutor


@dataclass
class CrossCheckResult:
    """Outcome of one compiled-vs-interpreter sweep."""

    ok: bool
    runs: int = 0
    compiled_runs: int = 0     #: runs actually served by the compiled tier
    fallbacks: int = 0
    mismatches: list[str] = field(default_factory=list)

    def render(self) -> str:
        if self.ok:
            return (f"backend cross-check ok: {self.runs} runs, "
                    f"{self.compiled_runs} compiled, "
                    f"{self.fallbacks} fallbacks")
        return "backend cross-check FAILED: " + "; ".join(
            self.mismatches[:3]
        )


def cross_check(module: Module, func: Function,
                target: TargetCostModel,
                base_args: Optional[dict] = None,
                runs: int = 3, base_seed: int = 0,
                backend: str = "compiled",
                source: Optional[str] = None) -> CrossCheckResult:
    """Run ``func`` under both tiers on fresh seeded memories.

    Every run of :func:`~repro.interp.differential.seeded_sweep`
    executes twice — once interpreted, once through the requested
    backend — and the results, final memories, and cycle accounting
    must match exactly.
    """
    outcome = CrossCheckResult(ok=True)
    if backend != "interp" and source is None:
        # emit once up front; per-run executors then share the source
        # (load_compiled memoizes by content hash)
        probe = TieredExecutor(module, MemoryImage(module), target,
                               backend=backend)
        source = probe.source
    for run in seeded_sweep(module, func, base_args, runs, base_seed):
        mem_ref = run.image_for(module)
        mem_cmp = run.image_for(module)

        ref_err: Optional[BaseException] = None
        cmp_err: Optional[BaseException] = None
        ref_result = cmp_result = None
        try:
            ref_result = Interpreter(mem_ref, target).run(func, run.args)
        except Exception as exc:
            ref_err = exc
        executor = TieredExecutor(module, mem_cmp, target,
                                  backend=backend, source=source)
        tier_run = None
        try:
            tier_run = executor.run(func.name, run.args)
        except Exception as exc:
            cmp_err = exc

        outcome.runs += 1
        if tier_run is not None:
            if tier_run.tier == "compiled":
                outcome.compiled_runs += 1
            if tier_run.fallback:
                outcome.fallbacks += 1
            cmp_result = tier_run.result

        if ref_err is not None or cmp_err is not None:
            if (ref_err is None or cmp_err is None
                    or type(ref_err).__name__
                    != type(cmp_err).__name__):
                outcome.ok = False
                outcome.mismatches.append(
                    f"run {run.index}: interp raised {ref_err!r}, "
                    f"backend raised {cmp_err!r}"
                )
            continue

        if (ref_result.cycles != cmp_result.cycles
                or ref_result.instructions_retired
                != cmp_result.instructions_retired
                or ref_result.opcode_counts
                != cmp_result.opcode_counts):
            outcome.ok = False
            outcome.mismatches.append(
                f"run {run.index}: accounting diverged "
                f"(cycles {ref_result.cycles} vs {cmp_result.cycles}, "
                f"retired {ref_result.instructions_retired} vs "
                f"{cmp_result.instructions_retired})"
            )
            continue
        difference = Comparator().run_difference(ref_result, mem_ref,
                                                 cmp_result, mem_cmp)
        if difference is not None:
            outcome.ok = False
            outcome.mismatches.append(f"run {run.index}: {difference}")
    return outcome


__all__ = ["CrossCheckResult", "cross_check"]
