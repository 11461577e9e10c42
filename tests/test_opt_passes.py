"""Tests for the scalar optimization passes ("O3")."""

import pytest

from repro.ir import (
    Constant,
    Function,
    GlobalArray,
    I64,
    IRBuilder,
    Module,
    verify_function,
)
from repro.opt import (
    PassManager,
    run_constfold,
    run_cse,
    run_dce,
    run_instcombine,
    scalar_pipeline,
)


def make_env():
    module = Module("m")
    a = module.add_global(GlobalArray("A", I64, 64))
    func = Function("f", [("i", I64)])
    builder = IRBuilder(func.add_block("entry"))
    return module, func, builder, a


class TestConstFold:
    def test_folds_constant_chain(self):
        module, func, builder, a = make_env()
        x = builder.add(builder.i64(2), builder.i64(3))
        y = builder.mul(x, builder.i64(4))
        store = builder.store(y, builder.gep(a, func.argument("i")))
        builder.ret()
        assert run_constfold(func)
        verify_function(func)
        folded = store.value
        assert isinstance(folded, Constant)
        assert folded.value == 20

    def test_preserves_division_by_zero(self):
        module, func, builder, a = make_env()
        div = builder.sdiv(builder.i64(1), builder.i64(0))
        builder.store(div, builder.gep(a, func.argument("i")))
        builder.ret()
        assert not run_constfold(func)
        assert div.parent is not None

    def test_folds_cmp_and_select(self):
        module, func, builder, a = make_env()
        cmp = builder.icmp("slt", builder.i64(1), builder.i64(2))
        sel = builder.select(cmp, builder.i64(10), builder.i64(20))
        store = builder.store(sel, builder.gep(a, func.argument("i")))
        builder.ret()
        run_constfold(func)
        verify_function(func)
        assert isinstance(store.value, Constant)
        assert store.value.value == 10

    def test_no_change_on_symbolic(self):
        module, func, builder, a = make_env()
        x = builder.add(func.argument("i"), builder.i64(1))
        builder.store(x, builder.gep(a, func.argument("i")))
        builder.ret()
        assert not run_constfold(func)


class TestDCE:
    def test_removes_dead_chain(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        x = builder.add(i, builder.i64(1))
        builder.mul(x, builder.i64(2))  # dead
        builder.ret()
        assert run_dce(func)
        verify_function(func)
        assert len(func.entry) == 1  # only ret

    def test_keeps_stores(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        builder.store(builder.i64(1), builder.gep(a, i))
        builder.ret()
        assert not run_dce(func)
        assert len(func.entry) == 3

    def test_removes_dead_loads(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        builder.load(builder.gep(a, i))  # dead load: no side effects here
        builder.ret()
        assert run_dce(func)
        assert len(func.entry) == 1


class TestCSE:
    def test_merges_identical_geps_and_adds(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        x1 = builder.add(i, builder.i64(1))
        x2 = builder.add(i, builder.i64(1))
        builder.store(x1, builder.gep(a, x1))
        builder.store(x2, builder.gep(a, x2))
        builder.ret()
        assert run_cse(func)
        run_dce(func)
        verify_function(func)
        adds = [inst for inst in func.entry if inst.opcode == "add"]
        assert len(adds) == 1

    def test_does_not_merge_loads(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        ptr = builder.gep(a, i)
        l1 = builder.load(ptr)
        builder.store(builder.add(l1, builder.i64(1)), ptr)
        l2 = builder.load(ptr)  # after a store: must not merge with l1
        builder.store(l2, builder.gep(a, builder.add(i, builder.i64(1))))
        builder.ret()
        run_cse(func)
        loads = [inst for inst in func.entry if inst.opcode == "load"]
        assert len(loads) == 2

    def test_commutative_operands_merge_swapped(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        j = builder.add(i, builder.i64(7))
        x1 = builder.mul(i, j)
        x2 = builder.mul(j, i)
        builder.store(builder.add(x1, x2), builder.gep(a, i))
        builder.ret()
        assert run_cse(func)
        muls = [inst for inst in func.entry if inst.opcode == "mul"]
        assert len(muls) == 1

    def test_non_commutative_not_merged_swapped(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        j = builder.add(i, builder.i64(7))
        x1 = builder.sub(i, j)
        x2 = builder.sub(j, i)
        builder.store(builder.add(x1, x2), builder.gep(a, i))
        builder.ret()
        run_cse(func)
        subs = [inst for inst in func.entry if inst.opcode == "sub"]
        assert len(subs) == 2

    def test_chained_duplicates_merge_in_one_walk(self):
        module = Module("m")
        arr = module.add_global(GlobalArray("A", I64, 64))
        func = Function("f", [("a", I64), ("b", I64), ("c", I64)])
        builder = IRBuilder(func.add_block("entry"))
        a, b, c = (func.argument(name) for name in "abc")
        t1 = builder.add(a, b)
        t2 = builder.add(a, b)
        u1 = builder.mul(t1, c)
        u2 = builder.mul(t2, c)  # a duplicate only once t2 becomes t1
        builder.store(u1, builder.gep(arr, a))
        builder.store(u2, builder.gep(arr, b))
        builder.ret()
        assert run_cse(func)
        verify_function(func)
        opcodes = [inst.opcode for inst in func.entry]
        assert opcodes.count("add") == 1
        assert opcodes.count("mul") == 1
        stores = [inst for inst in func.entry if inst.opcode == "store"]
        assert stores[0].value is stores[1].value
        assert not run_cse(func)

    def test_store_between_duplicate_loads_splits_them(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        ptr = builder.gep(a, i)
        l1 = builder.load(ptr)
        l2 = builder.load(ptr)  # merges into l1
        builder.store(builder.add(l1, l2), ptr)
        l3 = builder.load(ptr)  # after the store: must stay
        builder.store(l3, builder.gep(a, builder.add(i, builder.i64(1))))
        builder.ret()
        assert run_cse(func)
        verify_function(func)
        loads = [inst for inst in func.entry if inst.opcode == "load"]
        assert loads == [l1, l3]

    def test_one_run_reaches_the_fixed_point_after_o3(self):
        from repro.kernels.catalog import ALL_KERNELS
        from repro.kernels.suites import build_suite, SUITE_SPECS
        from repro.opt import compile_module
        from repro.slp import VectorizerConfig

        modules = [kernel.build()[0] for kernel in ALL_KERNELS.values()]
        modules += [build_suite(spec) for spec in SUITE_SPECS]
        checked = 0
        for module in modules:
            compile_module(module, VectorizerConfig.o3())
            for func in module.functions.values():
                assert not run_cse(func), func.name
                checked += 1
        assert checked == len(ALL_KERNELS) + sum(
            spec.total_functions for spec in SUITE_SPECS)


class TestInstCombine:
    @pytest.mark.parametrize("opcode,identity", [
        ("add", 0), ("sub", 0), ("shl", 0), ("or", 0), ("xor", 0),
        ("mul", 1),
    ])
    def test_identity_elements(self, opcode, identity):
        module, func, builder, a = make_env()
        i = func.argument("i")
        x = builder.binop(opcode, i, builder.i64(identity))
        builder.store(x, builder.gep(a, i))
        builder.ret()
        assert run_instcombine(func)
        store = [inst for inst in func.entry if inst.opcode == "store"][0]
        assert store.value is i

    def test_mul_by_zero(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        x = builder.mul(i, builder.i64(0))
        builder.store(x, builder.gep(a, i))
        builder.ret()
        run_instcombine(func)
        store = [inst for inst in func.entry if inst.opcode == "store"][0]
        assert isinstance(store.value, Constant)
        assert store.value.value == 0

    def test_sub_self_is_zero(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        x = builder.sub(i, i)
        builder.store(x, builder.gep(a, i))
        builder.ret()
        run_instcombine(func)
        store = [inst for inst in func.entry if inst.opcode == "store"][0]
        assert isinstance(store.value, Constant)
        assert store.value.value == 0

    def test_and_self_is_self(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        x = builder.and_(i, i)
        builder.store(x, builder.gep(a, i))
        builder.ret()
        run_instcombine(func)
        store = [inst for inst in func.entry if inst.opcode == "store"][0]
        assert store.value is i

    def test_constants_canonicalize_right(self):
        module, func, builder, a = make_env()
        i = func.argument("i")
        x = builder.add(builder.i64(5), i)
        builder.store(x, builder.gep(a, i))
        builder.ret()
        assert run_instcombine(func)
        assert isinstance(x.rhs, Constant)
        assert x.lhs is i


class TestPassManager:
    def test_records_timings(self):
        module, func, builder, a = make_env()
        builder.add(func.argument("i"), builder.i64(0))
        builder.ret()
        manager = scalar_pipeline()
        result = manager.run_function(func)
        assert len(result.timings) == len(manager.pass_names)
        assert result.total_seconds >= 0
        assert result.seconds_for("dce") >= 0

    def test_pipeline_cleans_frontend_noise(self):
        from tests.conftest import build_kernel

        module, func = build_kernel("""
long A[64], B[64];
void kernel(long i) {
    A[i + 0] = B[i + 0] + 0;
}
""")
        scalar_pipeline().run_function(func)
        verify_function(func)
        opcodes = [inst.opcode for inst in func.entry]
        # add i+0 folded away; single gep per array; direct store of load
        assert opcodes.count("add") == 0


class TestVerifyEach:
    def test_pipeline_verifies_between_passes(self):
        from tests.conftest import build_kernel
        from repro.opt import compile_function
        from repro.slp import VectorizerConfig
        from repro.kernels import EVALUATION_KERNELS

        for kernel in EVALUATION_KERNELS:
            _, func = kernel.build()
            compile_function(func, VectorizerConfig.lslp(),
                             guard="strict")

    def test_broken_pass_is_named(self):
        from repro.ir import Function, I64, IRBuilder
        from repro.opt import PassManager
        from repro.robustness import GuardPolicy, InvalidIRError, PassGuard

        func = Function("f", [("i", I64)])
        builder = IRBuilder(func.add_block("entry"))
        a = builder.add(func.argument("i"), builder.i64(1))
        builder.add(a, builder.i64(2))
        builder.ret()

        def evil_pass(f):
            block = f.entry
            first = block.instructions[0]
            block.remove(first)
            block.append(first)  # def now after use
            return True

        guard = PassGuard(GuardPolicy(mode="strict"))
        manager = PassManager(guard=guard).add("evil", evil_pass)
        with pytest.raises(InvalidIRError) as error:
            manager.run_function(func)
        assert error.value.pass_name == "evil"
        assert "pass 'evil'" in str(error.value)
