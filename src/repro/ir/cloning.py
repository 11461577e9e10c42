"""Instruction and function cloning with value remapping.

:func:`clone_instruction` serves the loop unroller; :func:`clone_function`
produces the deep snapshots the guarded compilation driver
(:mod:`repro.robustness.guard`) rolls back to when a pass crashes or
corrupts the IR, and the scalar reference the differential oracle
interprets.
"""

from __future__ import annotations

from typing import Callable, Optional

from .basicblock import BasicBlock
from .call import Call
from .controlflow import Br, CondBr, Phi
from .function import Function
from .instructions import (
    BinaryOperator,
    Cmp,
    ExtractElement,
    GetElementPtr,
    InsertElement,
    Instruction,
    Load,
    Ret,
    Select,
    ShuffleVector,
    Splat,
    Store,
    UnaryOperator,
)
from .values import Value

#: maps original values to their replacements during cloning
ValueMap = dict[int, Value]


def map_value(value: Value, vmap: ValueMap) -> Value:
    """The replacement for ``value`` under ``vmap`` (identity default)."""
    return vmap.get(id(value), value)


def clone_instruction(inst: Instruction, vmap: ValueMap) -> Instruction:
    """Clone ``inst`` with operands remapped through ``vmap``.

    Control-flow instructions (br/condbr/phi/ret) are intentionally not
    clonable here: the unroller handles control flow structurally.
    """
    ops = [map_value(op, vmap) for op in inst.operands]

    if isinstance(inst, BinaryOperator):
        return BinaryOperator(inst.opcode, ops[0], ops[1])
    if isinstance(inst, UnaryOperator):
        return UnaryOperator(inst.opcode, ops[0])
    if isinstance(inst, Cmp):
        return Cmp(inst.opcode, inst.predicate, ops[0], ops[1])
    if isinstance(inst, Select):
        return Select(ops[0], ops[1], ops[2])
    if isinstance(inst, GetElementPtr):
        return GetElementPtr(ops[0], ops[1])
    if isinstance(inst, Load):
        return Load(inst.type, ops[0])
    if isinstance(inst, Store):
        return Store(ops[0], ops[1])
    if isinstance(inst, InsertElement):
        return InsertElement(ops[0], ops[1], ops[2])
    if isinstance(inst, ExtractElement):
        return ExtractElement(ops[0], ops[1])
    if isinstance(inst, ShuffleVector):
        return ShuffleVector(ops[0], ops[1], inst.mask)
    if isinstance(inst, Splat):
        return Splat(ops[0], inst.type.count)
    if isinstance(inst, Call):
        return Call(inst.callee, ops)
    if isinstance(inst, (Br, CondBr, Phi, Ret)):
        raise ValueError(f"refusing to clone control flow: {inst!r}")
    raise ValueError(f"do not know how to clone {inst!r}")


def clone_function(func: Function, name: Optional[str] = None) -> Function:
    """Deep-copy ``func`` into a standalone :class:`Function`.

    The clone gets its own arguments, blocks and instructions (names
    preserved); constants, global arrays and callee functions stay
    shared.  Control flow is cloned structurally — branch targets and
    phi edges are remapped to the cloned blocks, and phi incoming values
    may reference forward definitions (loop back-edges), so operand
    remapping happens in a second pass once every instruction exists.
    """
    clone = Function(
        name if name is not None else func.name,
        [(arg.name, arg.type) for arg in func.arguments],
        func.return_type,
    )
    vmap: ValueMap = {}
    for old_arg, new_arg in zip(func.arguments, clone.arguments):
        vmap[id(old_arg)] = new_arg

    block_map: dict[int, BasicBlock] = {}
    for block in func.blocks:
        new_block = BasicBlock(block.name)
        new_block.parent = clone
        clone.blocks.append(new_block)
        block_map[id(block)] = new_block

    # Pass 1: clone every instruction.  Operands initially reference the
    # *original* values (identity vmap); pass 2 rewrites them, which
    # also handles defs that only appear later in block order.
    phis: list[tuple[Phi, Phi]] = []
    for block in func.blocks:
        new_block = block_map[id(block)]
        for inst in block:
            if isinstance(inst, Phi):
                copy: Instruction = Phi(inst.type, inst.name)
                phis.append((inst, copy))
            elif isinstance(inst, Br):
                copy = Br(block_map[id(inst.target)])
            elif isinstance(inst, CondBr):
                copy = CondBr(inst.condition,
                              block_map[id(inst.on_true)],
                              block_map[id(inst.on_false)])
            elif isinstance(inst, Ret):
                copy = Ret(inst.return_value)
            else:
                copy = clone_instruction(inst, {})
            copy.name = inst.name
            vmap[id(inst)] = copy
            new_block.append(copy)

    # Pass 2: remap operands (and phi edges) to their clones.
    for block in clone.blocks:
        for inst in block:
            for index, operand in enumerate(inst.operands):
                mapped = vmap.get(id(operand))
                if mapped is not None and mapped is not operand:
                    inst.set_operand(index, mapped)
    for original, copy in phis:
        for value, pred in original.incoming():
            copy.add_incoming(map_value(value, vmap), block_map[id(pred)])

    clone._name_counts = dict(func._name_counts)
    return clone


def discard_blocks(blocks: list[BasicBlock]) -> None:
    """Detach every instruction in ``blocks`` from its operands' use
    lists (best-effort: a crashed pass may have left them corrupt).

    Used when a cloned snapshot is thrown away, or when a corrupt body
    is replaced during rollback, so shared values (constants, globals,
    callee functions) do not accumulate stale uses.
    """
    for block in blocks:
        for inst in block.instructions:
            try:
                inst.drop_all_references()
            except Exception:
                pass  # use lists already corrupt; nothing left to unhook
            inst.parent = None


def discard_body(func: Function) -> None:
    """Drop ``func``'s entire body via :func:`discard_blocks`."""
    discard_blocks(func.blocks)
    func.blocks = []


__all__ = [
    "clone_function",
    "clone_instruction",
    "discard_blocks",
    "discard_body",
    "map_value",
    "ValueMap",
]
