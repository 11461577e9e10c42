"""Compilation pipelines: "O3" and the vectorizing configurations.

``compile_function`` mirrors the paper's experimental setup (§5.1): every
configuration runs the same scalar passes (the "O3" stand-in); the
vectorizing configurations additionally run the (L)SLP pass followed by a
cleanup DCE that removes the scalar address arithmetic the vectorizer
leaves dead.

``compile_function`` is also the guarded driver's entry point: pass
``guard="guarded"`` (or a :class:`~repro.robustness.GuardPolicy`) for
snapshot/rollback, ``oracle=`` a
:class:`~repro.robustness.DifferentialOracle` for scalar-vs-vectorized
execution checking, and ``faults=`` a
:class:`~repro.robustness.FaultInjector` to instrument the pipeline for
recovery testing.  Without those arguments the behaviour is exactly the
historical fail-fast one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

from ..costmodel.targets import skylake_like
from ..costmodel.tti import TargetCostModel
from ..ir.function import Function, Module
from ..obs.tracing import span
from ..robustness.budget import ModuleMeter
from ..robustness.diagnostics import Remark
from ..robustness.faults import FaultInjector
from ..robustness.guard import DifferentialOracle, GuardPolicy, PassGuard
from ..slp.vectorizer import (
    MODULE_SELECT_MODES,
    ModuleVectorizationDriver,
    SLPVectorizer,
    VectorizationReport,
    VectorizerConfig,
)
from .constfold import run_constfold
from .cse import run_cse
from .dce import run_dce
from .ifconvert import run_ifconvert
from .inline import run_inline
from .instcombine import run_instcombine
from .passmanager import PassManager, PipelineResult
from .simplifycfg import run_simplifycfg
from .unroll import run_unroll

#: accepted values for ``compile_function``'s ``guard`` argument
GuardSpec = Union[None, str, GuardPolicy]


@dataclass
class CompileResult:
    """Outcome of compiling one function under one configuration."""

    function: Function
    config: VectorizerConfig
    timing: PipelineResult
    report: VectorizationReport = field(
        default_factory=lambda: VectorizationReport("", "")
    )
    #: structured diagnostics collected by the guarded driver (rollback,
    #: budget, miscompile and configuration remarks)
    remarks: list[Remark] = field(default_factory=list)
    #: names of passes whose effects were rolled back ("oracle" marks a
    #: differential-execution rollback to the scalar reference)
    rolled_back: list[str] = field(default_factory=list)

    @property
    def compile_seconds(self) -> float:
        return self.timing.total_seconds

    @property
    def static_cost(self) -> int:
        return self.report.total_cost

    @property
    def fell_back_to_scalar(self) -> bool:
        """True when vectorization was undone (slp rollback or oracle)."""
        return "slp" in self.rolled_back or "oracle" in self.rolled_back


class _VectorizePass:
    """Adapter so an SLP driver call can sit in a PassManager and still
    surface its report.  ``run`` vectorizes one function: either a whole
    plan/select/apply (:meth:`SLPVectorizer.run_function`) or one
    function's share of a module-wide selection
    (:meth:`ModuleVectorizationDriver.apply_function`)."""

    def __init__(self, run: Callable[[Function], VectorizationReport]):
        self.run = run
        self.report: Optional[VectorizationReport] = None

    def __call__(self, func: Function) -> bool:
        report = self.run(func)
        if self.report is None:
            self.report = report
        else:
            self.report.merge(report)
        return report.num_vectorized > 0


def scalar_pipeline(guard=None,
                    ifconvert: str = "off",
                    target: Optional[TargetCostModel] = None,
                    unroll_max_trip: Optional[int] = None,
                    loop_vectorize: bool = False) -> PassManager:
    """The scalar "O3" passes every configuration runs.

    Loop unrolling runs here (not in the vectorizing add-on) so that the
    O3 baseline and the vectorizing configurations see the *same*
    straight-line code, exactly like the paper's setup where SLP runs
    after the loop transformations (§2.1).  ``unroll_max_trip`` overrides
    the full-unroll cap; ``loop_vectorize`` additionally partially
    unrolls the loops full unrolling refuses (symbolic bounds, trips
    beyond the cap) so the SLP pass can pack across iterations, with the
    original loop kept as a scalar epilogue.  Unroll and if-convert
    decline remarks are collected on ``manager.remark_logs``.

    ``ifconvert`` ("on"/"cost") sequences :func:`repro.opt.ifconvert.
    run_ifconvert` after the CFG is cleaned up and before the post-unroll
    scalar cleanups, so flattened arms get constant-folded/CSE'd exactly
    like code that was straight-line from the start; a second simplifycfg
    then merges the emptied merge blocks back in.  The default "off"
    reproduces the historical pass sequence exactly.
    """
    unroll_remarks: list[Remark] = []
    unroll_target = target if target is not None else skylake_like()

    def run_unroll_pass(func: Function) -> bool:
        return run_unroll(func, max_trip_count=unroll_max_trip,
                          loop_vectorize=loop_vectorize,
                          target=unroll_target, remarks=unroll_remarks)

    manager = (
        PassManager(guard=guard)
        .add("inline", run_inline)
        .add("constfold", run_constfold)
        .add("instcombine", run_instcombine)
        .add("cse", run_cse)
        .add("dce", run_dce)
        .add("unroll", run_unroll_pass)
        .add("simplifycfg", run_simplifycfg)
    )
    manager.remark_logs.append(unroll_remarks)
    if ifconvert != "off":
        ifc_target = target if target is not None else skylake_like()
        collected: list[Remark] = []
        manager.remark_logs.append(collected)

        def run_ifconvert_pass(func: Function,
                               _mode=ifconvert, _target=ifc_target) -> bool:
            return run_ifconvert(func, mode=_mode, target=_target,
                                 remarks=collected)

        manager.add("ifconvert", run_ifconvert_pass)
        manager.add("simplifycfg-post-ifconvert", run_simplifycfg)
    return (
        manager
        .add("constfold-post-unroll", run_constfold)
        .add("instcombine-post-unroll", run_instcombine)
        .add("cse-post-unroll", run_cse)
        .add("dce-post-unroll", run_dce)
    )


def build_pipeline(config: VectorizerConfig,
                   target: Optional[TargetCostModel] = None,
                   guard=None,
                   faults: Optional[FaultInjector] = None,
                   module_meter: Optional[ModuleMeter] = None,
                   ) -> tuple[PassManager, _VectorizePass | None]:
    """A pipeline for ``config``; also returns the report-capturing
    vectorizer pass (None for O3).  ``module_meter`` (when given) shares
    one module-scope budget across every function compiled through this
    pipeline instance — the whole-compile admission unit batch jobs
    use."""
    target = target if target is not None else skylake_like()
    if faults is not None:
        target = faults.perturb_cost_model(target)
    manager = scalar_pipeline(guard=guard, ifconvert=config.ifconvert,
                              target=target,
                              unroll_max_trip=config.unroll_max_trip,
                              loop_vectorize=config.loop_vectorize)
    vectorize = None
    if config.enabled:
        vectorizer = SLPVectorizer(config, target)
        vectorize = _VectorizePass(
            lambda func: vectorizer.run_function(func, module_meter)
        )
        manager.add("slp", vectorize)
        manager.add("dce-post", run_dce)
    if faults is not None:
        faults.instrument(manager)
    return manager, vectorize


def _resolve_guard(guard: GuardSpec,
                   oracle: Optional[DifferentialOracle]
                   ) -> Optional[GuardPolicy]:
    """Normalize the ``guard``/``oracle`` arguments to one policy."""
    if isinstance(guard, GuardPolicy):
        policy: Optional[GuardPolicy] = guard
    elif guard is None:
        policy = None
    elif guard == "off":
        return None
    elif guard in ("guarded", "strict"):
        policy = GuardPolicy(mode=guard)
    else:
        raise ValueError(
            f"unknown guard {guard!r}; use 'off', 'guarded', 'strict' "
            "or a GuardPolicy"
        )
    if oracle is not None:
        if policy is None:
            policy = GuardPolicy()
        if policy.oracle is None:
            policy = replace(policy, oracle=oracle)
    return policy


def compile_function(func: Function, config: VectorizerConfig,
                     target: Optional[TargetCostModel] = None,
                     guard: GuardSpec = None,
                     oracle: Optional[DifferentialOracle] = None,
                     faults: Optional[FaultInjector] = None,
                     module_meter: Optional[ModuleMeter] = None
                     ) -> CompileResult:
    """Run the full pipeline for ``config`` over ``func`` in place."""
    policy = _resolve_guard(guard, oracle)
    pass_guard = PassGuard(policy) if policy is not None else None
    manager, vectorize = build_pipeline(
        config, target, guard=pass_guard, faults=faults,
        module_meter=module_meter,
    )
    with span("compile.function", function=func.name,
              config=config.name):
        timing = manager.run_function(func)
        return _finish(func, config, timing, vectorize, pass_guard,
                       _scalar_remarks(manager))


def _scalar_remarks(manager: PassManager) -> list[Remark]:
    """The decline remarks the scalar pipeline's unroll and if-convert
    passes collected."""
    return [remark for log in manager.remark_logs for remark in log]


def _finish(func: Function, config: VectorizerConfig,
            timing: PipelineResult, vectorize: Optional[_VectorizePass],
            pass_guard: Optional[PassGuard],
            scalar_remarks: list[Remark]) -> CompileResult:
    """Close one function's compile: run the guard's differential
    oracle and finish it, then gather the report and every remark."""
    result = CompileResult(
        func, config, timing,
        report=VectorizationReport(func.name, config.name),
    )
    if vectorize is not None and vectorize.report is not None:
        result.report = vectorize.report
    if pass_guard is not None:
        try:
            if pass_guard.policy.oracle is not None:
                with span("oracle.verify", function=func.name):
                    pass_guard.run_oracle(func)
            else:
                pass_guard.run_oracle(func)
        finally:
            pass_guard.finish()
        result.remarks = pass_guard.diagnostics.remarks
        result.rolled_back = pass_guard.rolled_back
    result.remarks.extend(scalar_remarks)
    result.remarks.extend(result.report.remarks)
    return result


def compile_module(module: Module, config: VectorizerConfig,
                   target: Optional[TargetCostModel] = None,
                   guard: GuardSpec = None,
                   faults: Optional[FaultInjector] = None,
                   module_meter: Optional[ModuleMeter] = None,
                   oracles: Optional[
                       Callable[[Function], Optional[DifferentialOracle]]
                   ] = None
                   ) -> list[CompileResult]:
    """Compile every function of ``module`` under ``config``.

    All functions share one module-scope budget meter when the config's
    budget carries module caps — the whole-compile budget the ROADMAP
    calls for, and the service's per-job admission unit.  The module-*
    plan-select modes plan every function before one module-wide
    selection (:func:`compile_module_planned`); ``oracles`` optionally
    maps each function to its differential oracle."""
    if module_meter is None:
        module_meter = ModuleMeter.for_budget(config.budget)
    if config.enabled and config.plan_select in MODULE_SELECT_MODES:
        return compile_module_planned(
            module, config, target, guard=guard, faults=faults,
            module_meter=module_meter, oracles=oracles,
        )
    return [
        compile_function(func, config, target, guard=guard, faults=faults,
                         module_meter=module_meter,
                         oracle=oracles(func) if oracles else None)
        for func in module.functions.values()
    ]


def compile_module_planned(module: Module, config: VectorizerConfig,
                           target: Optional[TargetCostModel] = None,
                           guard: GuardSpec = None,
                           faults: Optional[FaultInjector] = None,
                           module_meter: Optional[ModuleMeter] = None,
                           oracles: Optional[
                               Callable[[Function],
                                        Optional[DifferentialOracle]]
                           ] = None
                           ) -> list[CompileResult]:
    """The two-phase guarded compile for the module-* plan-select modes.

    Phase 1 runs the scalar "O3" pipeline over *every* function, then
    plans each one read-only, pooling candidates module-wide.  Phase 2
    is one module-scope selection spending the shared
    ``max_select_subsets`` budget where projected savings are largest.
    Phase 3 applies each function's share of the verdicts inside the
    same per-function :class:`PassGuard` that guarded its scalar passes,
    so rollback and the differential oracle behave exactly as in
    :func:`compile_function` — the oracle's "pre-slp" reference is
    captured when the apply pass starts, i.e. after scalar optimization
    but before any vector code exists.
    """
    target = target if target is not None else skylake_like()
    if faults is not None:
        target = faults.perturb_cost_model(target)
    driver = ModuleVectorizationDriver(config, target, module_meter)

    # Phase 1: scalar passes, then read-only planning, per function.
    staged: list[tuple[Function, PipelineResult,
                       Optional[PassGuard], PassManager]] = []
    for func in module.functions.values():
        policy = _resolve_guard(
            guard, oracles(func) if oracles is not None else None
        )
        pass_guard = PassGuard(policy) if policy is not None else None
        manager = scalar_pipeline(guard=pass_guard,
                                  ifconvert=config.ifconvert, target=target,
                                  unroll_max_trip=config.unroll_max_trip,
                                  loop_vectorize=config.loop_vectorize)
        if faults is not None:
            faults.instrument(manager)
        with span("compile.scalar", function=func.name,
                  config=config.name):
            timing = manager.run_function(func)
        driver.plan_function(func)
        staged.append((func, timing, pass_guard, manager))

    # Phase 2: one module-wide selection over the pooled candidates.
    driver.select()

    # Phase 3: materialize per function, guarded, in planning order.  The
    # apply runs as the "slp" pass, so the pass guard's snapshot/rollback
    # (and its oracle reference capture) cover it exactly like
    # compile_function's vectorizer pass.
    results: list[CompileResult] = []
    for func, timing, pass_guard, scalar in staged:
        vectorize = _VectorizePass(driver.apply_function)
        manager = (
            PassManager(guard=pass_guard)
            .add("slp", vectorize)
            .add("dce-post", run_dce)
        )
        if faults is not None:
            faults.instrument(manager)
        with span("compile.function", function=func.name,
                  config=config.name):
            manager.run_function(func, result=timing)
            # Read the scalar remarks only now: if the apply pass cannot
            # snapshot the scalar result, the guard replays the scalar
            # passes, rewriting their remark logs.
            results.append(_finish(func, config, timing, vectorize,
                                   pass_guard, _scalar_remarks(scalar)))
    return results


__all__ = [
    "build_pipeline",
    "compile_function",
    "compile_module",
    "compile_module_planned",
    "CompileResult",
    "GuardSpec",
    "scalar_pipeline",
]
