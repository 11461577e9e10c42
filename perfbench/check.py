"""Output checker: every compiled program against an independent reference.

The reference for a program is the interpreter run of a freshly lowered,
unoptimized copy of the same source (no passes), on the same seeded
memory and arguments.  A result within the oracle's relative tolerance
of 1e-9 passes; one that is also bit-identical (same float bits, same
integer values, same types) counts toward ``bitexact_frac``.

The comparison is written here rather than taken from ``repro`` so that
a bug in the program's own equivalence checks cannot hide a wrong
result.  Every check runs outside the timed region.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: relative float tolerance of the program's differential oracle
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Verdict:
    """One output compared with its reference."""

    ok: bool            #: within tolerance everywhere
    bitexact: bool      #: bit-identical everywhere
    detail: str = ""


def _bits(value: Any) -> Any:
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    return (type(value).__name__, value)


def _same_bits(a: list, b: list) -> bool:
    """Bit-identical lists; C-speed for the common homogeneous case."""
    if a == b:
        types = set(map(type, a))
        if types != set(map(type, b)):
            return False
        if types <= {int}:
            return True
        if types == {float}:
            # == treats -0.0 and 0.0 as equal; the bytes do not
            return array("d", a).tobytes() == array("d", b).tobytes()
    return _bits(a) == _bits(b)


def _close(a: Any, b: Any) -> bool:
    if isinstance(a, (list, tuple)) or isinstance(b, (list, tuple)):
        return (isinstance(a, (list, tuple)) and isinstance(b, (list, tuple))
                and len(a) == len(b)
                and all(_close(x, y) for x, y in zip(a, b)))
    if isinstance(a, float) or isinstance(b, float):
        if not (isinstance(a, float) and isinstance(b, float)):
            return False
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))
    return type(a) is type(b) and a == b


def compare(reference: "Observed", output: "Observed") -> Verdict:
    """Compare final memories and return values."""
    if reference.memory.keys() != output.memory.keys():
        return Verdict(False, False, "different global arrays")
    bitexact = _bits(reference.returns) == _bits(output.returns)
    if not _close(reference.returns, output.returns):
        return Verdict(False, False,
                       f"returns {reference.returns!r} != "
                       f"{output.returns!r}")
    for name in sorted(reference.memory):
        ref, out = reference.memory[name], output.memory[name]
        if _same_bits(ref, out):
            continue
        bitexact = False
        if len(ref) != len(out):
            return Verdict(False, False, f"@{name} length differs")
        for index, (a, b) in enumerate(zip(ref, out)):
            if not _close(a, b):
                return Verdict(False, False,
                               f"@{name}[{index}]: {a!r} != {b!r}")
    return Verdict(True, bitexact)


@dataclass
class Observed:
    """What one execution of a program left behind."""

    returns: list
    memory: dict[str, list]
    cycles: int = 0
    instructions: int = 0


class Checker:
    """Seeded inputs and memoized reference results for a workload.

    ``programs`` maps a program name to a zero-argument factory that
    lowers a fresh, unoptimized module; ``run`` executes a module on a
    memory image and returns ``(return values, cycles, retired)``.  Each
    program has one seeded input per entry of ``seeds``; requests draw
    one by index, and the deterministic metrics use all of them.
    """

    def __init__(self, programs: dict[str, Callable[[], Any]],
                 run: Callable, args_for: Callable[[str, int], dict],
                 seeds: list[int]):
        self.programs = programs
        self.run = run
        self.args_for = args_for
        self.seeds = seeds
        self._memories: dict[tuple[str, int], Any] = {}
        self._references: dict[tuple[str, int], Observed] = {}
        self._verdicts: dict[tuple, Verdict] = {}
        self._modules: dict[str, Any] = {}

    def fresh_module(self, program: str):
        """The unoptimized module (lowered once, never transformed)."""
        module = self._modules.get(program)
        if module is None:
            module = self.programs[program]()
            self._modules[program] = module
        return module

    def memory(self, program: str, index: int):
        """A private copy of the seeded memory for ``(program, index)``."""
        from repro.interp.memory import MemoryImage

        key = (program, index)
        base = self._memories.get(key)
        if base is None:
            base = MemoryImage(self.fresh_module(program))
            base.randomize(seed=self.seeds[index])
            self._memories[key] = base
        return base.clone()

    def observe(self, module, program: str, index: int) -> Observed:
        memory = self.memory(program, index)
        returns, cycles, retired = self.run(module, memory,
                                            self.args_for(program, index))
        return Observed(returns, memory.arrays(), cycles, retired)

    def reference(self, program: str, index: int) -> Observed:
        key = (program, index)
        observed = self._references.get(key)
        if observed is None:
            observed = self.observe(self.fresh_module(program), program,
                                    index)
            self._references[key] = observed
        return observed

    def check(self, program: str, index: int, output: Observed) -> Verdict:
        return compare(self.reference(program, index), output)

    def check_module(self, program: str, index: int, module,
                     identity: Optional[str] = None) -> Verdict:
        """Run ``module`` on input ``index`` and compare.  ``identity``
        (the printed IR) memoizes the verdict: the interpreter is
        deterministic, so identical IR on identical input behaves the
        same."""
        key = (program, index, identity)
        if identity is not None and key in self._verdicts:
            return self._verdicts[key]
        verdict = self.check(program, index,
                             self.observe(module, program, index))
        if identity is not None:
            self._verdicts[key] = verdict
        return verdict


__all__ = ["Checker", "compare", "Observed", "TOLERANCE", "Verdict"]
