"""Tests for instruction cloning with value remapping."""

import pytest

from repro.ir import (
    Br,
    clone_function,
    clone_instruction,
    Constant,
    discard_body,
    Function,
    GlobalArray,
    I64,
    IRBuilder,
    map_value,
    Module,
    Phi,
    print_function,
    verify_function,
)


@pytest.fixture
def env():
    module = Module("m")
    a = module.add_global(GlobalArray("A", I64, 16))
    func = Function("f", [("i", I64), ("j", I64)])
    builder = IRBuilder(func.add_block("entry"))
    return module, func, builder, a


def test_map_value_identity_default(env):
    module, func, builder, a = env
    i = func.argument("i")
    assert map_value(i, {}) is i
    j = func.argument("j")
    assert map_value(i, {id(i): j}) is j


def test_clone_binop_with_remap(env):
    module, func, builder, a = env
    i, j = func.arguments
    add = builder.add(i, builder.i64(1))
    clone = clone_instruction(add, {id(i): j})
    assert clone is not add
    assert clone.opcode == "add"
    assert clone.operands[0] is j
    assert clone.operands[1] is add.operands[1]
    assert clone.parent is None


def test_clone_memory_chain(env):
    module, func, builder, a = env
    i, j = func.arguments
    gep = builder.gep(a, i)
    load = builder.load(gep)
    store = builder.store(load, gep)
    vmap = {id(i): j}
    gep2 = clone_instruction(gep, vmap)
    vmap[id(gep)] = gep2
    load2 = clone_instruction(load, vmap)
    vmap[id(load)] = load2
    store2 = clone_instruction(store, vmap)
    assert gep2.index is j
    assert load2.ptr is gep2
    assert store2.value is load2
    assert store2.ptr is gep2


def test_clone_cmp_select_and_vector_ops(env):
    module, func, builder, a = env
    i, j = func.arguments
    cmp = builder.icmp("slt", i, j)
    sel = builder.select(cmp, i, j)
    vec = builder.build_vector([i, j])
    shuf = builder.shufflevector(vec, vec, [1, 0])
    ext = builder.extractelement(shuf, 0)
    splat = builder.splat(ext, 2)
    for inst in (cmp, sel, shuf, ext, splat):
        clone = clone_instruction(inst, {})
        assert clone.opcode == inst.opcode
        assert clone.type is inst.type
    cmp_clone = clone_instruction(cmp, {})
    assert cmp_clone.predicate == "slt"
    shuf_clone = clone_instruction(shuf, {})
    assert shuf_clone.mask == (1, 0)


def test_control_flow_not_clonable(env):
    module, func, builder, a = env
    other = func.add_block("other")
    br = Br(other)
    with pytest.raises(ValueError, match="control flow"):
        clone_instruction(br, {})
    phi = Phi(I64)
    with pytest.raises(ValueError, match="control flow"):
        clone_instruction(phi, {})


def _check_clone(func):
    """The clone prints like ``func``, verifies and references none of
    ``func``'s own values; those keep their use counts, and shared
    values (constants, globals) lose the clone's uses again when it is
    discarded."""
    owned = list(func.arguments)
    owned += [inst for block in func.blocks for inst in block]
    owned_ids = {id(value) for value in owned}
    shared = [op for inst in owned[len(func.arguments):]
              for op in inst.operands if id(op) not in owned_ids]
    owned_uses = [value.num_uses for value in owned]
    clone = clone_function(func)
    assert print_function(clone) == print_function(func)
    verify_function(clone)
    verify_function(func)
    for block in clone.blocks:
        for inst in block:
            assert not any(id(op) in owned_ids for op in inst.operands), inst
    assert [value.num_uses for value in owned] == owned_uses
    shared_uses = [value.num_uses for value in shared]
    discard_body(clone_function(func))
    assert [value.num_uses for value in owned] == owned_uses
    assert [value.num_uses for value in shared] == shared_uses
    return clone


def test_clone_function_straight_line(env):
    module, func, builder, a = env
    i, j = func.arguments
    x = builder.load(builder.gep(a, i))
    builder.store(builder.add(x, j), builder.gep(a, j))
    builder.ret()
    _check_clone(func)


def test_clone_function_layout_not_in_dominance_order(env):
    module, func, builder, a = env
    i, j = func.arguments
    use = func.add_block("use")
    define = func.add_block("define")  # laid out after its user
    builder.br(define)
    builder.position_at_end(define)
    x = builder.add(i, builder.i64(1))
    c = builder.icmp("slt", x, j)
    builder.br(use)
    builder.position_at_end(use)
    done = func.add_block("done")
    y = builder.mul(x, x)
    builder.store(y, builder.gep(a, x))
    builder.condbr(c, done, done)
    builder.position_at_end(done)
    builder.ret(y)
    clone = _check_clone(func)
    assert [block.name for block in clone.blocks] \
        == ["entry", "use", "define", "done"]


def test_clone_function_loop_with_back_edge_phis(env):
    module, func, builder, a = env
    i, j = func.arguments
    loop = func.add_block("loop")
    exit_ = func.add_block("exit")
    entry = func.entry
    builder.br(loop)
    builder.position_at_end(loop)
    iv = builder.phi(I64)
    acc = builder.phi(I64)
    step = builder.add(iv, builder.i64(1))
    total = builder.add(acc, builder.load(builder.gep(a, iv)))
    iv.add_incoming(i, entry)
    iv.add_incoming(step, loop)
    acc.add_incoming(j, entry)
    acc.add_incoming(total, loop)
    builder.condbr(builder.icmp("slt", step, builder.i64(8)), loop, exit_)
    builder.position_at_end(exit_)
    builder.ret(total)
    clone = _check_clone(func)
    head = clone.blocks[1].phis()
    assert [pred.name for pred in head[0].incoming_blocks] == ["entry", "loop"]
    assert head[0].incoming()[1][0].parent is clone.blocks[1]
