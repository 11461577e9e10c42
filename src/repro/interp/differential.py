"""Differential testing: one comparator and one seeded sweep.

Vectorization must be semantics-preserving: running the original and the
transformed function on identical memory images must produce identical
memory contents and return values.  Every check in this repository that
decides whether two runs agree — the guard's oracle (scalar vs
vectorized), :func:`compare_runs`, and the compiled tier's cross-check
(:func:`repro.backend.validate.cross_check`) — draws its runs from
:func:`seeded_sweep` and judges them with one :class:`Comparator`.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from ..costmodel.tti import TargetCostModel
from ..ir.function import Function, Module
from .interpreter import ExecutionResult, Interpreter
from .memory import MemoryImage

#: Builds (module, function) pairs; called once per configuration so each
#: gets a pristine copy of the kernel to transform.
KernelFactory = Callable[[], tuple[Module, Function]]


def _ordinal(value: float) -> int:
    """``value``'s position among the doubles: adjacent doubles differ
    by one, so a difference of ordinals is a distance in ULPs."""
    bits = struct.unpack("<q", struct.pack("<d", value))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


class Comparator:
    """The one rule deciding whether two runs agree.

    Per scalar: NaN equals only NaN; an infinity equals only itself;
    integers match by type and value; finite floats match bit-exactly
    or, with a non-zero ``tolerance``, when ``|a - b| <= tolerance *
    max(1, |a|, |b|)``.  Tolerance 0 is exact, the sign of zero
    included.  Lists compare element by element.

    A comparator remembers the tolerant matches it accepted:
    ``inexact`` counts the float pairs that matched only within the
    tolerance, ``worst_ulp`` is the largest ULP distance among them.
    """

    def __init__(self, tolerance: float = 0.0):
        self.tolerance = tolerance
        self.inexact = 0
        self.worst_ulp = 0

    def scalars(self, a, b) -> bool:
        if type(a) is not type(b):
            return False
        if not isinstance(a, float):
            return a == b
        if a == b and math.copysign(1.0, a) == math.copysign(1.0, b):
            return True     # bit-exact, or the same infinity
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if (not self.tolerance or math.isinf(a) or math.isinf(b)
                or abs(a - b) > self.tolerance * max(1.0, abs(a), abs(b))):
            return False
        self.inexact += 1
        self.worst_ulp = max(self.worst_ulp,
                             abs(_ordinal(a) - _ordinal(b)))
        return True

    def values(self, a, b) -> bool:
        """Interpreter-shaped values: None, a scalar, or a vector list."""
        if isinstance(a, list) or isinstance(b, list):
            return (isinstance(a, list) and isinstance(b, list)
                    and len(a) == len(b)
                    and all(self.scalars(x, y) for x, y in zip(a, b)))
        return self.scalars(a, b)

    def memory_difference(self, a: MemoryImage,
                          b: MemoryImage) -> Optional[str]:
        """The first element where two images disagree, or None."""
        arrays_a, arrays_b = a.arrays(), b.arrays()
        if arrays_a.keys() != arrays_b.keys():
            return (f"buffer sets differ: "
                    f"{sorted(arrays_a.keys() ^ arrays_b.keys())}")
        for name in sorted(arrays_a):
            buf_a, buf_b = arrays_a[name], arrays_b[name]
            if len(buf_a) != len(buf_b):
                return f"@{name} length {len(buf_a)} != {len(buf_b)}"
            for index, (x, y) in enumerate(zip(buf_a, buf_b)):
                # Both images are usually clones of one draw: elements
                # neither run stored to are the very same object.
                if x is not y and not self.scalars(x, y):
                    return f"@{name}[{index}]: {x!r} != {y!r}"
        return None

    def run_difference(self, reference: ExecutionResult,
                       reference_memory: MemoryImage,
                       transformed: ExecutionResult,
                       transformed_memory: MemoryImage) -> Optional[str]:
        """The first observable difference between two runs — final
        memory, then the return value — or None when they agree."""
        detail = self.memory_difference(reference_memory,
                                        transformed_memory)
        if detail is None and not self.values(reference.return_value,
                                              transformed.return_value):
            detail = (f"return value {reference.return_value!r} != "
                      f"{transformed.return_value!r}")
        return detail


@dataclass
class DifferentialOutcome:
    """Result of comparing a reference run against a transformed run."""

    equivalent: bool
    reference: ExecutionResult
    transformed: ExecutionResult
    detail: str = ""
    #: float pairs accepted only within the tolerance (0 = bit-exact)
    inexact: int = 0
    #: the largest ULP distance among those pairs
    worst_ulp: int = 0


def seeded_arg_sets(func: Function,
                    base_args: Optional[dict[str, object]] = None,
                    runs: int = 1,
                    base_seed: int = 0,
                    index_range: int = 8) -> list[dict[str, object]]:
    """``runs`` argument sets for a property-style differential sweep.

    Set 0 is ``base_args`` verbatim (one run reproduces the historical
    single-replay behaviour); later sets vary every *integer* argument
    deterministically from the run's seed, keeping values inside
    ``[0, index_range)`` so kernel base indices stay within the arrays
    the catalog declares.  Float and non-numeric arguments are left
    untouched — varying them would change rounding behaviour, which is
    the cost model's business, not the oracle's.
    """
    base = dict(base_args or {})
    sets: list[dict[str, object]] = [base]
    for run in range(1, max(1, runs)):
        rng = random.Random(0x1517_0000 + base_seed * 8191 + run)
        varied = dict(base)
        for argument in func.arguments:
            value = varied.get(argument.name)
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            varied[argument.name] = rng.randrange(index_range)
        sets.append(varied)
    return sets


@dataclass
class SweepRun:
    """One run of a :func:`seeded_sweep`."""

    index: int
    seed: int
    args: dict[str, object]
    module: Module
    #: pristine image of ``module``, drawn from ``seed``; never run on
    memory: MemoryImage

    def image_for(self, module: Module) -> MemoryImage:
        """A fresh image for one side of the run: a clone of the draw
        when ``module`` is the sweep's, else a new draw from ``seed``."""
        if module is self.module:
            return self.memory.clone()
        memory = MemoryImage(module)
        memory.randomize(seed=self.seed)
        return memory


def seeded_sweep(module: Module, func: Function,
                 base_args: Optional[dict[str, object]] = None,
                 runs: int = 1, base_seed: int = 0) -> Iterator[SweepRun]:
    """The runs of a differential sweep over ``func``'s inputs.

    Run ``k`` pairs the ``k``-th :func:`seeded_arg_sets` set with an
    image of ``module`` randomized from seed ``base_seed + k``.  Images
    are drawn lazily, once per run, however many sides run on them."""
    for index, args in enumerate(
        seeded_arg_sets(func, base_args, runs, base_seed)
    ):
        seed = base_seed + index
        memory = MemoryImage(module)
        memory.randomize(seed=seed)
        yield SweepRun(index, seed, args, module, memory)


def run_on_fresh_memory(module: Module, func: Function,
                        args: Optional[dict[str, object]] = None,
                        seed: int = 0,
                        target: Optional[TargetCostModel] = None
                        ) -> tuple[ExecutionResult, MemoryImage]:
    """Execute ``func`` on a freshly randomized memory image."""
    memory = MemoryImage(module)
    memory.randomize(seed=seed)
    result = Interpreter(memory, target).run(func, args)
    return result, memory


def compare_run(run: SweepRun,
                reference: tuple[Module, Function],
                transformed: tuple[Module, Function],
                target: Optional[TargetCostModel] = None,
                float_tolerance: float = 1e-9) -> DifferentialOutcome:
    """Run both functions on ``run``'s inputs and compare every
    observable: final memory contents and the return value."""
    ref_memory = run.image_for(reference[0])
    new_memory = run.image_for(transformed[0])
    ref_result = Interpreter(ref_memory, target).run(reference[1], run.args)
    new_result = Interpreter(new_memory, target).run(transformed[1],
                                                     run.args)
    comparator = Comparator(float_tolerance)
    detail = comparator.run_difference(ref_result, ref_memory,
                                       new_result, new_memory)
    return DifferentialOutcome(detail is None, ref_result, new_result,
                               detail or "", comparator.inexact,
                               comparator.worst_ulp)


def compare_runs(reference: tuple[Module, Function],
                 transformed: tuple[Module, Function],
                 args: Optional[dict[str, object]] = None,
                 seed: int = 0,
                 target: Optional[TargetCostModel] = None,
                 float_tolerance: float = 1e-9) -> DifferentialOutcome:
    """:func:`compare_run` on a one-run sweep: ``args`` verbatim and
    memory drawn from ``seed``."""
    run = next(seeded_sweep(*reference, args, runs=1, base_seed=seed))
    return compare_run(run, reference, transformed, target,
                       float_tolerance)


__all__ = [
    "Comparator",
    "compare_run",
    "compare_runs",
    "DifferentialOutcome",
    "KernelFactory",
    "run_on_fresh_memory",
    "seeded_arg_sets",
    "seeded_sweep",
    "SweepRun",
]
