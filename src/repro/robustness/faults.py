"""Deterministic, seed-driven fault injection for the guarded driver.

The guard's recovery claims are only as good as the failures it is
tested against.  :class:`FaultInjector` can make any named pass raise,
corrupt the IR *after* a pass has run (operand swap, dangling operand,
detached instruction), or perturb cost-model queries — each reproducible
from a seed, so a failing property-test case replays exactly.

Fault kinds and who is expected to catch them:

============================  =============================================
``raise``                      pass raises → guard snapshot/rollback
``corrupt-dangling-operand``   operand points at an instruction outside the
                               function → post-pass IR verifier
``corrupt-detach``             a still-used instruction removed from its
                               block → post-pass IR verifier
``corrupt-swap-operands``      non-commutative operands swapped: *valid*
                               but wrong IR → differential oracle
``corrupt-type-clobber``       an instruction's result type rewritten to a
                               vector type → a later pass or the
                               interpreter trips over it (guard/oracle),
                               or it is inert metadata damage
``perturb-cost``               cost queries jittered: legal but arbitrary
                               vectorization decisions → nothing should
                               break at all
============================  =============================================

Beyond the pass pipeline, the batch service has its own failure
surface.  :class:`ServiceFaultPlan` (built via
:meth:`FaultInjector.for_service`) injects *service* fault sites,
seeded deterministically per job cache key so a chaos batch replays
exactly:

============================  =============================================
``worker-kill``                the worker process exits mid-job →
                               pool rebuild + retry/backoff
``worker-hang``                the worker sleeps past any deadline →
                               per-job timeout, kill, retry
``cache-corrupt``              the disk-cache write lands truncated →
                               the corruption-tolerant read misses and
                               recompiles
``cache-enospc``               the disk-cache write raises ``ENOSPC`` →
                               degrade to memory-only caching
``cache-slow``                 disk-cache reads stall → latency, not
                               failure; nothing should break
============================  =============================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, TYPE_CHECKING

from ..costmodel.tti import TargetCostModel
from ..ir.function import Function
from ..ir.instructions import BinaryOperator, Instruction

if TYPE_CHECKING:  # pragma: no cover
    from ..opt.passmanager import PassManager

FAULT_KINDS = (
    "raise",
    "corrupt-swap-operands",
    "corrupt-dangling-operand",
    "corrupt-detach",
    "corrupt-type-clobber",
    "perturb-cost",
)


class InjectedFault(RuntimeError):
    """The exception the ``raise`` fault kind throws inside a pass."""

    def __init__(self, pass_name: str):
        super().__init__(f"injected fault in pass {pass_name!r}")
        self.pass_name = pass_name


#: service-level fault sites (:class:`ServiceFaultPlan`)
SERVICE_FAULT_SITES = (
    "worker-kill",
    "worker-hang",
    "cache-corrupt",
    "cache-enospc",
    "cache-slow",
)


class InjectedServiceFault(RuntimeError):
    """Raised at a service fault site when the process cannot actually
    be killed (the serial, in-process executor)."""

    def __init__(self, site: str):
        super().__init__(f"injected service fault at site {site!r}")
        self.site = site


@dataclass(frozen=True)
class ServiceFaultSpec:
    """One service fault site to arm.

    ``rate`` is the per-job firing probability, decided by a hash of
    ``(seed, site, job key)`` — the same job fires identically in every
    run.  ``max_fires`` bounds which *attempts* of a job fire (default
    1: the first attempt fails, the retry succeeds, which is what lets
    chaos batches assert byte-identical recovered artifacts).
    ``seconds`` parameterizes the duration sites (hang length, cache
    read delay)."""

    site: str
    rate: float = 1.0
    max_fires: int = 1
    seconds: float = 30.0

    def __post_init__(self):
        if self.site not in SERVICE_FAULT_SITES:
            raise ValueError(f"unknown service fault site {self.site!r}")
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError(f"rate {self.rate!r} outside [0, 1]")


@dataclass(frozen=True)
class ServiceFaultPlan:
    """A picklable set of armed service fault sites.

    Pure data: it crosses the process boundary inside each
    :class:`~repro.service.jobs.CompileJob` and is consulted by the
    worker (``worker-kill``/``worker-hang``) and by the parent-side
    disk cache (``cache-*``).  Firing decisions are deterministic per
    ``(seed, site, job key, attempt)`` and independent of scheduling.
    """

    specs: tuple[ServiceFaultSpec, ...]
    seed: int = 0

    def _spec(self, site: str) -> Optional[ServiceFaultSpec]:
        for spec in self.specs:
            if spec.site == site:
                return spec
        return None

    def fires(self, site: str, key: str, attempt: int = 0) -> bool:
        spec = self._spec(site)
        if spec is None or attempt >= spec.max_fires:
            return False
        return (random.Random(f"{self.seed}:{site}:{key}").random()
                < spec.rate)

    def duration(self, site: str) -> float:
        spec = self._spec(site)
        return spec.seconds if spec is not None else 0.0

    @staticmethod
    def parse(text: str, seed: int = 0) -> "ServiceFaultPlan":
        """Parse ``site[:rate[:seconds]]`` comma lists — the CLI's
        ``--chaos worker-kill:0.3,cache-corrupt:0.5`` surface."""
        specs = []
        for raw in text.split(","):
            raw = raw.strip()
            if not raw:
                continue
            parts = raw.split(":")
            site = parts[0]
            rate = float(parts[1]) if len(parts) > 1 else 1.0
            seconds = float(parts[2]) if len(parts) > 2 else 30.0
            specs.append(ServiceFaultSpec(site=site, rate=rate,
                                          seconds=seconds))
        if not specs:
            raise ValueError(f"no fault sites in {text!r}")
        return ServiceFaultPlan(specs=tuple(specs), seed=seed)


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject: which pass, what kind."""

    pass_name: str = "*"   #: exact pass name, or "*" for every pass
    kind: str = "raise"

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")

    def matches(self, pass_name: str) -> bool:
        return self.pass_name in ("*", pass_name)


class FaultInjector:
    """Applies a list of :class:`FaultSpec` to a pipeline, deterministically.

    ``fired`` records every injection that actually happened as
    ``(pass_name, kind)`` pairs, so tests can assert the harness
    exercised what they meant to exercise.
    """

    def __init__(self, specs: Sequence[FaultSpec] | FaultSpec,
                 seed: int = 0):
        if isinstance(specs, FaultSpec):
            specs = [specs]
        self.specs = list(specs)
        self.seed = seed
        self.fired: list[tuple[str, str]] = []

    # ------------------------------------------------------------------

    def instrument(self, manager: "PassManager") -> None:
        """Wrap every matching pass in ``manager`` with its faults."""
        manager.wrap_passes(self._wrap)

    @staticmethod
    def for_service(specs: "Sequence[ServiceFaultSpec] | ServiceFaultSpec",
                    seed: int = 0) -> ServiceFaultPlan:
        """A :class:`ServiceFaultPlan` arming the service fault sites;
        the service-layer sibling of instrumenting a pass manager."""
        if isinstance(specs, ServiceFaultSpec):
            specs = [specs]
        return ServiceFaultPlan(specs=tuple(specs), seed=seed)

    def perturb_cost_model(self, target: TargetCostModel,
                           magnitude: int = 2) -> TargetCostModel:
        """The cost model to compile with: jittered when any spec asks
        for ``perturb-cost``, otherwise ``target`` unchanged."""
        if any(spec.kind == "perturb-cost" for spec in self.specs):
            self.fired.append(("<cost-model>", "perturb-cost"))
            return PerturbedCostModel(target, seed=self.seed,
                                      magnitude=magnitude)
        return target

    # ------------------------------------------------------------------

    def _wrap(self, name: str, pass_fn):
        specs = [
            spec for spec in self.specs
            if spec.matches(name) and spec.kind != "perturb-cost"
        ]
        if not specs:
            return pass_fn

        def faulty_pass(func: Function) -> bool:
            changed = pass_fn(func)
            for spec in specs:
                self._inject(spec, name, func)
            return changed

        return faulty_pass

    def _inject(self, spec: FaultSpec, name: str, func: Function) -> None:
        if spec.kind == "raise":
            self.fired.append((name, spec.kind))
            raise InjectedFault(name)
        # One RNG per injection, keyed by what is being injected into:
        # a pass the guard replays on the same IR gets the same
        # corruption as on its first run.
        rng = random.Random(f"{self.seed}:{name}:{func.name}")
        injected = False
        if spec.kind == "corrupt-swap-operands":
            injected = self._swap_operands(func, rng)
        elif spec.kind == "corrupt-dangling-operand":
            injected = self._dangle_operand(func, rng)
        elif spec.kind == "corrupt-detach":
            injected = self._detach_instruction(func, rng)
        elif spec.kind == "corrupt-type-clobber":
            injected = self._clobber_type(func, rng)
        if injected:
            self.fired.append((name, spec.kind))

    # ---- corruptions ---------------------------------------------------

    def _swap_operands(self, func: Function, rng: random.Random) -> bool:
        """Miscompile without breaking structural validity: swap the
        operands of a non-commutative binary instruction, or — when the
        function is all-commutative, the common case in this paper's
        kernels — duplicate one operand over the other (``a op b``
        becomes ``b op b``).  Either way the IR still verifies; only the
        differential oracle can tell."""
        noncomm = [
            inst for inst in func.instructions()
            if isinstance(inst, BinaryOperator)
            and not inst.is_commutative
            and inst.operands[0] is not inst.operands[1]
        ]
        if noncomm:
            inst = rng.choice(noncomm)
            lhs, rhs = inst.operands[0], inst.operands[1]
            inst.set_operand(0, rhs)
            inst.set_operand(1, lhs)
            return True
        comm = [
            inst for inst in func.instructions()
            if isinstance(inst, BinaryOperator)
            and inst.is_used()
            and inst.operands[0] is not inst.operands[1]
            and inst.operands[0].type is inst.operands[1].type
        ]
        if not comm:
            return False
        inst = rng.choice(comm)
        inst.set_operand(0, inst.operands[1])
        return True

    def _dangle_operand(self, func: Function, rng: random.Random) -> bool:
        """Point one operand at an instruction that is in no function."""
        candidates = [
            (inst, index)
            for inst in func.instructions()
            for index, op in enumerate(inst.operands)
            if isinstance(op, Instruction) and op.type.is_scalar
        ]
        if not candidates:
            return False
        inst, index = rng.choice(candidates)
        original = inst.operands[index]
        opcode = "fadd" if original.type.is_float else "add"
        # A fixed name keeps object addresses out of the verifier's
        # message, so remark text is reproducible.
        orphan = BinaryOperator(opcode, original, original, name="orphan")
        inst.set_operand(index, orphan)
        return True

    def _clobber_type(self, func: Function, rng: random.Random) -> bool:
        """Rewrite one scalar instruction's result type to a 2-lane
        vector of itself."""
        from ..ir.types import vector_of

        candidates = [
            inst for inst in func.instructions()
            if inst.type.is_scalar and inst.is_used()
        ]
        if not candidates:
            return False
        inst = rng.choice(candidates)
        inst.type = vector_of(inst.type, 2)
        return True

    def _detach_instruction(self, func: Function, rng: random.Random) -> bool:
        """Remove one still-used instruction from its block."""
        candidates = [
            inst for inst in func.instructions()
            if inst.is_used() and not inst.is_terminator
        ]
        if not candidates:
            return False
        inst = rng.choice(candidates)
        inst.parent.remove(inst)
        return True


class PerturbedCostModel(TargetCostModel):
    """Delegates to a base model with deterministic jitter on the query
    results.  Decisions become arbitrary but stay *legal*: whatever the
    vectorizer does under a perturbed model must still be semantics-
    preserving, which makes this a good property-test stressor."""

    def __init__(self, base: TargetCostModel, seed: int = 0,
                 magnitude: int = 2):
        super().__init__(base.desc)
        self._base = base
        self._seed = seed
        self._magnitude = magnitude

    def _jitter(self, key: str, value: int, floor: int = 0) -> int:
        rng = random.Random(f"{self._seed}:{key}")
        return max(floor, value + rng.randint(-self._magnitude,
                                              self._magnitude))

    def scalar_op_cost(self, opcode: str) -> int:
        return self._jitter(f"s:{opcode}",
                            self._base.scalar_op_cost(opcode))

    def vector_op_cost(self, opcode: str, lanes: int) -> int:
        return self._jitter(f"v:{opcode}:{lanes}",
                            self._base.vector_op_cost(opcode, lanes))

    def gather_cost(self, operands) -> int:
        return self._jitter(f"g:{len(operands)}",
                            self._base.gather_cost(operands))

    def extract_cost_for(self, uses: int = 1) -> int:
        return self._jitter(f"e:{uses}",
                            self._base.extract_cost_for(uses))


__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "InjectedServiceFault",
    "PerturbedCostModel",
    "SERVICE_FAULT_SITES",
    "ServiceFaultPlan",
    "ServiceFaultSpec",
]
