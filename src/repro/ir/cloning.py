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
    shared.  Control flow is cloned structurally: branch targets and
    phi edges are remapped to the cloned blocks.  Operands are remapped
    in the same walk that creates each instruction, so every use is
    registered once.  Only operands defined later in block order (a
    layout that is not in dominance order) are re-pointed afterwards,
    and phi edges, which may name loop back-edge definitions, are added
    once every instruction exists.
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

    phis: list[tuple[Phi, Phi]] = []
    forward: list[tuple[Instruction, int, Instruction]] = []
    for block in func.blocks:
        new_block = block_map[id(block)]
        for inst in block:
            if isinstance(inst, Phi):
                copy: Instruction = Phi(inst.type, inst.name)
                phis.append((inst, copy))
            elif isinstance(inst, Br):
                copy = Br(block_map[id(inst.target)])
            elif isinstance(inst, CondBr):
                copy = CondBr(map_value(inst.condition, vmap),
                              block_map[id(inst.on_true)],
                              block_map[id(inst.on_false)])
            elif isinstance(inst, Ret):
                value = inst.return_value
                copy = Ret(None if value is None else map_value(value, vmap))
            else:
                copy = clone_instruction(inst, vmap)
            for index, (mapped, operand) in enumerate(
                    zip(copy.operands, inst.operands)):
                if mapped is operand and isinstance(operand, Instruction):
                    forward.append((copy, index, operand))
            copy.name = inst.name
            vmap[id(inst)] = copy
            new_block.append(copy)

    for copy, index, operand in forward:
        copy.set_operand(index, map_value(operand, vmap))
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
