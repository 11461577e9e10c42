"""The top-level (L)SLP vectorization pass (paper Figure 1).

:class:`VectorizerConfig` captures one experimental configuration; the
paper's four appear as factory methods:

* ``VectorizerConfig.o3()`` — vectorization disabled entirely,
* ``VectorizerConfig.slp_nr()`` — SLP with operand reordering disabled,
* ``VectorizerConfig.slp()`` — vanilla SLP (opcode/consecutive-load
  reordering, no look-ahead, no multi-nodes),
* ``VectorizerConfig.lslp()`` — the paper's contribution (multi-nodes +
  look-ahead reordering), with the depth and multi-node size knobs the
  Figure 13 sensitivity study sweeps.

:class:`ModuleVectorizationDriver` is the one SLP driver.  It runs the
three phases of :mod:`repro.slp.plan` over a module (and
:meth:`SLPVectorizer.run_function` over a one-function module):

1. **plan** — enumerate immutable :class:`~repro.slp.plan.TreePlan`
   candidates (full width, both halves eagerly, reductions) without
   touching the IR, on an isolated analysis context and a phase-scoped
   budget meter.  The default ``plan_select="legacy"`` chooses nothing,
   so it skips planning and only collects each block's seeds;
2. **select** — resolve conflicts between overlapping candidates:
   ``"greedy-savings"``/``"exhaustive"`` pick the best non-conflicting
   subset of each block by plan-time total cost, the ``"module-*"``
   modes pool every block of the module under one selection budget;
3. **apply** — materialize the chosen trees through ``VectorCodeGen``
   in deterministic order, rebuilding and re-checking each on the
   current IR, then sweep first-fit over the rest.  With nothing
   chosen this reproduces the historical greedy pipeline byte-for-byte.

Afterwards every candidate's fate (applied, or rejected with a reason)
is reconciled into ``select``/``reject`` records and the plan sink.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

from ..analysis.aliasing import AliasAnalysis
from ..analysis.scev import ScalarEvolution
from ..costmodel.targets import skylake_like
from ..costmodel.tti import TargetCostModel
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..obs import metrics as _metrics
from ..obs import records as _records
from ..obs.tracing import span
from ..robustness.budget import Budget, BudgetMeter, ModuleMeter
from ..robustness.diagnostics import Remark, Severity
from .builder import BuildPolicy, BuildStats
from .lookahead import LookAheadContext, get_lookahead_score
from .plan import (
    MODULE_SELECT_MODES,
    PLAN_SELECT_MODES,
    Applier,
    BlockPlan,
    FunctionPlan,
    ModulePlan,
    ModuleSelector,
    Planner,
    Selection,
    TreeRecord,
    record_outcomes,
)
from .seeds import collect_store_seeds


@dataclass(frozen=True)
class VectorizerConfig:
    """One vectorizer configuration (paper §5.1)."""

    name: str = "lslp"
    #: master switch: False reproduces plain -O3 (no vectorization)
    enabled: bool = True
    #: apply operand reordering at commutative nodes
    enable_reordering: bool = True
    #: look-ahead depth (0 = vanilla SLP's heuristic)
    look_ahead_depth: int = 8
    #: maximum multi-node size in chained groups (None = unbounded,
    #: 1 = multi-nodes disabled)
    multi_node_max_size: Optional[int] = 1
    #: also vectorize reduction-tree seeds
    enable_reductions: bool = True
    #: vectorize only when the tree cost is strictly below this
    cost_threshold: int = 0
    #: look-ahead score aggregation (paper footnote 4 ablation)
    score_function: object = get_lookahead_score
    #: operand reordering strategy ("greedy" per the paper, or
    #: "exhaustive" for the backtracking ablation)
    reorder_strategy: str = "greedy"
    #: SPLAT-mode detection in the reorderer (ablation knob)
    enable_splat_detection: bool = True
    #: resource budget (look-ahead evals, reorder assignments, wall
    #: clock); ``None`` = unlimited, the historical behaviour
    budget: Optional[Budget] = None
    #: plan-selection mode: "legacy" (default) reproduces the greedy
    #: first-fit byte-for-byte without planning; "greedy-savings"/
    #: "exhaustive" pick the best non-conflicting candidate subset by
    #: plan-time cost per block; "module-greedy"/"module-exhaustive"
    #: pool every block of every function and spend one shared
    #: selection budget where the projected savings are largest
    plan_select: str = "legacy"
    #: selection-time penalty per vector register a plan needs beyond
    #: the target's register file (repro.slp.pressure); 0 disables the
    #: pressure term entirely
    reg_pressure_weight: int = 0
    #: if-conversion mode (repro.opt.ifconvert): "off" (default, keeps
    #: every historical pipeline byte-identical), "on" (flatten every
    #: legal hammock/diamond so SLP can pack across the former branch),
    #: or "cost" (flatten only when the speculated work does not exceed
    #: the branch-removal savings)
    ifconvert: str = "off"
    #: unroll-and-SLP mode (repro.opt.unroll): partially unroll loops
    #: that full unrolling refuses (symbolic bounds, trips beyond the
    #: cap) by a target-derived factor with a scalar epilogue, so SLP
    #: packs across iterations; off by default to keep every historical
    #: pipeline byte-identical
    loop_vectorize: bool = False
    #: full-unroll trip-count cap override (None = MAX_TRIP_COUNT)
    unroll_max_trip: Optional[int] = None

    # ---- the paper's configurations -----------------------------------

    @staticmethod
    def o3() -> "VectorizerConfig":
        """-O3 with all vectorizers disabled."""
        return VectorizerConfig(name="O3", enabled=False)

    @staticmethod
    def slp_nr() -> "VectorizerConfig":
        """SLP with operand reordering disabled (No Rotation)."""
        return VectorizerConfig(
            name="SLP-NR",
            enable_reordering=False,
            look_ahead_depth=0,
            multi_node_max_size=1,
        )

    @staticmethod
    def slp() -> "VectorizerConfig":
        """Vanilla SLP: opcode-based reordering, no look-ahead."""
        return VectorizerConfig(
            name="SLP",
            enable_reordering=True,
            look_ahead_depth=0,
            multi_node_max_size=1,
        )

    @staticmethod
    def lslp(look_ahead_depth: int = 8,
             multi_node_max_size: Optional[int] = None,
             name: Optional[str] = None) -> "VectorizerConfig":
        """Look-ahead SLP; knobs match the Figure 13 sensitivity study."""
        if name is None:
            name = "LSLP"
        return VectorizerConfig(
            name=name,
            enable_reordering=True,
            look_ahead_depth=look_ahead_depth,
            multi_node_max_size=multi_node_max_size,
        )

    def with_name(self, name: str) -> "VectorizerConfig":
        return replace(self, name=name)

    def with_budget(self, budget: Optional[Budget]) -> "VectorizerConfig":
        return replace(self, budget=budget)

    def with_plan_select(self, mode: str) -> "VectorizerConfig":
        return replace(self, plan_select=mode)

    def build_policy(self, meter: Optional[BudgetMeter] = None
                     ) -> BuildPolicy:
        return BuildPolicy(
            enable_reordering=self.enable_reordering,
            look_ahead_depth=self.look_ahead_depth,
            multi_node_max_size=self.multi_node_max_size,
            score_function=self.score_function,
            reorder_strategy=self.reorder_strategy,
            enable_splat_detection=self.enable_splat_detection,
            meter=meter,
        )


@dataclass
class VectorizationReport:
    """Everything the experiments need to know about one function run."""

    function: str
    config: str
    trees: list[TreeRecord] = field(default_factory=list)
    stats: BuildStats = field(default_factory=BuildStats)
    #: budget / degradation remarks emitted while vectorizing
    remarks: list[Remark] = field(default_factory=list)

    @property
    def vectorized_trees(self) -> list[TreeRecord]:
        return [t for t in self.trees if t.vectorized]

    @property
    def num_vectorized(self) -> int:
        return len(self.vectorized_trees)

    @property
    def total_cost(self) -> int:
        """Static cost of the vectorization actually performed (Figure
        10's metric: the sum over accepted trees; 0 when nothing was
        vectorized)."""
        return sum(t.cost for t in self.vectorized_trees)

    def merge(self, other: "VectorizationReport") -> None:
        self.trees.extend(other.trees)
        self.remarks.extend(other.remarks)
        self.stats.nodes += other.stats.nodes
        self.stats.multi_nodes += other.stats.multi_nodes
        self.stats.gathers += other.stats.gathers
        self.stats.reorders += other.stats.reorders
        self.stats.lookahead_evals += other.stats.lookahead_evals


class SLPVectorizer:
    """Runs one configuration over functions, rewriting the IR."""

    def __init__(self, config: Optional[VectorizerConfig] = None,
                 target: Optional[TargetCostModel] = None):
        self.config = config if config is not None else VectorizerConfig.lslp()
        self.target = target if target is not None else skylake_like()
        if self.config.plan_select not in PLAN_SELECT_MODES:
            raise ValueError(
                f"unknown plan-select mode {self.config.plan_select!r}; "
                f"use one of {', '.join(PLAN_SELECT_MODES)}"
            )

    def run_function(self, func: Function,
                     module_meter: Optional[ModuleMeter] = None
                     ) -> VectorizationReport:
        """Vectorize one function: the driver over a one-function
        module."""
        if not self.config.enabled:
            return VectorizationReport(func.name, self.config.name)
        driver = ModuleVectorizationDriver(self.config, self.target,
                                           module_meter)
        driver.plan_function(func)
        driver.select()
        return driver.apply_function(func)


def _publish_report_metrics(report: VectorizationReport) -> None:
    """Publish one function's tallies into the metrics registry (one
    flag check when publication is off)."""
    if not _metrics.publishing():
        return
    stats = report.stats
    _metrics.add("slp.trees_built", len(report.trees))
    _metrics.add("slp.groups_vectorized", report.num_vectorized)
    _metrics.add("slp.nodes", stats.nodes)
    _metrics.add("slp.multi_nodes", stats.multi_nodes)
    _metrics.add("slp.gathers", stats.gathers)
    _metrics.add("reorder.reorders", stats.reorders)
    _metrics.add("lookahead.evals", stats.lookahead_evals)


def _budget_remark(function: str, event) -> Remark:
    return Remark(
        Severity.WARNING, "budget", event.detail,
        function=function, pass_name="slp", phase="budget",
        remediation="raise the Budget caps, or accept the "
                    "greedy/scalar degradation",
    )


# ---------------------------------------------------------------------------
# The plan/select/apply driver
# ---------------------------------------------------------------------------


@dataclass
class _PlannedBlock:
    """One block's phase-1 state, held until the apply phase."""

    block: BasicBlock
    seeds: list
    block_plan: BlockPlan
    ctx: LookAheadContext
    aa: AliasAnalysis


@dataclass
class _PlannedFunction:
    func: Function
    report: VectorizationReport
    meter: BudgetMeter
    blocks: list[_PlannedBlock] = field(default_factory=list)


class ModuleVectorizationDriver:
    """The plan/select/apply flow over a module, for every
    ``plan_select`` mode.

    Phase 1 (:meth:`plan_function`, once per function) collects every
    block's seeds and, in the selecting modes, enumerates its candidates
    read-only into one :class:`~repro.slp.plan.ModulePlan` with
    driver-wide plan ids.  Phase 2 (:meth:`select`) runs the selector
    over the pooled candidates — per block or module-wide, as the mode
    says; ``legacy`` chooses nothing.  :meth:`apply_function` then
    materializes one function's share of the verdicts — callable per
    function so a guarded pipeline (``repro.opt.pipelines``) can wrap
    each function's apply in its own pass guard.

    Seeds and apply-phase analysis contexts are captured at plan time;
    the applier re-checks liveness and rebuilds every tree on the
    current IR, so cross-function ordering cannot invalidate a verdict
    silently.
    """

    def __init__(self, config: VectorizerConfig,
                 target: Optional[TargetCostModel] = None,
                 module_meter: Optional[ModuleMeter] = None):
        self.config = config
        self.target = target if target is not None else skylake_like()
        self.module_meter = (module_meter if module_meter is not None
                             else ModuleMeter.for_budget(config.budget))
        #: legacy chooses nothing, so it needs no candidates
        self.selecting = config.plan_select != "legacy"
        self.module_plan = ModulePlan()
        self._plan_ids = itertools.count()
        self._planned: dict[str, _PlannedFunction] = {}
        self._selections: Optional[dict] = None
        self._select_events: list = []

    # ------------------------------------------------------------------

    def plan_function(self, func: Function) -> None:
        """Phase 1 for one function: collect every block's seeds and,
        when selecting, enumerate its candidates without touching the
        IR."""
        report = VectorizationReport(func.name, self.config.name)
        meter = BudgetMeter(self.config.budget, module=self.module_meter)
        meter.start_function()
        planned = _PlannedFunction(func, report, meter)
        fplan = FunctionPlan(func.name)
        context = _records.push_context(
            function=func.name, config=self.config.name,
            **{"pass": "slp"},
        )
        try:
            with span("slp.plan_function", function=func.name,
                      config=self.config.name):
                for block in func.blocks:
                    # Apply-phase analyses, captured now, used in phase
                    # 3; seeds are collected with the apply context so
                    # its caches populate exactly as the historical
                    # pipeline's did.
                    ctx = LookAheadContext(ScalarEvolution())
                    aa = AliasAnalysis(ctx.scev)
                    seeds = collect_store_seeds(block, ctx.scev,
                                                self.target)
                    block_plan = BlockPlan(block.name, func.name)
                    if self.selecting:
                        # The planner gets its own isolated context
                        # (shared SCEV caches would leak pre-mutation
                        # facts into apply-time builds) and a
                        # phase-scoped meter (planning must not perturb
                        # apply-phase budget accounting).
                        plan_ctx = LookAheadContext(ScalarEvolution())
                        planner = Planner(self.config, self.target,
                                          ids=self._plan_ids,
                                          function=func.name)
                        block_plan = planner.plan_block(
                            block, seeds, plan_ctx,
                            AliasAnalysis(plan_ctx.scev),
                            meter.phase_meter(),
                        )
                    planned.blocks.append(
                        _PlannedBlock(block, seeds, block_plan, ctx, aa)
                    )
                    fplan.blocks.append(block_plan)
        finally:
            _records.restore_context(context)
        self._planned[func.name] = planned
        self.module_plan.functions.append(fplan)

    def select(self) -> None:
        """Phase 2: one selection over the pooled candidates
        (idempotent)."""
        if self._selections is not None:
            return
        if not self.selecting:
            self._selections = {}
            return
        select_meter = BudgetMeter(self.config.budget,
                                   module=self.module_meter)
        self._selections = ModuleSelector(self.config).select(
            self.module_plan, select_meter
        )
        self._select_events = list(select_meter.events)

    def apply_function(self, func: Function) -> VectorizationReport:
        """Phase 3 for one function: materialize its share of the
        selection in deterministic plan order."""
        self.select()
        planned = self._planned[func.name]
        report, meter = planned.report, planned.meter
        nothing_chosen = Selection(mode=self.config.plan_select, chosen=(),
                                   planned_total=0, note="first-fit")
        context = _records.push_context(
            function=func.name, config=self.config.name,
            **{"pass": "slp"},
        )
        try:
            with span("slp.function", function=func.name,
                      config=self.config.name):
                for pb in planned.blocks:
                    selection = self._selections.get(
                        (func.name, pb.block.name), nothing_chosen
                    )
                    applier = Applier(self.config, self.target)
                    applier.apply(pb.block, pb.block_plan, selection,
                                  pb.seeds, pb.ctx, pb.aa, report,
                                  meter)
                    if self.selecting:
                        record_outcomes(pb.block_plan, applier,
                                        self.config.cost_threshold,
                                        selection)
        finally:
            _records.restore_context(context)
        # Selection events surface once, ahead of the apply events of
        # the first function whose apply phase runs.
        for event in self._select_events + meter.events:
            report.remarks.append(_budget_remark(func.name, event))
        self._select_events = []
        _publish_report_metrics(report)
        return report


__all__ = [
    "MODULE_SELECT_MODES",
    "ModuleVectorizationDriver",
    "PLAN_SELECT_MODES",
    "SLPVectorizer",
    "TreeRecord",
    "VectorizationReport",
    "VectorizerConfig",
]
