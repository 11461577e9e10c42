"""Differential tests for the compiled execution backend.

Every catalog kernel must reproduce the interpreter *exactly*: return
values, final memory, and the simulated cycle accounting (cycles /
instructions retired / opcode counts).  Control flow (loops, diamonds),
calls (including recursion), wide vectors and the error paths (bounds,
step limit, call depth, missing arguments) are exercised with
hand-built or parsed IR.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.backend import (
    EMIT_VERSION,
    CompiledModule,
    TieredExecutor,
    clear_load_cache,
    cross_check,
    emit_module,
    load_compiled,
)
from repro.costmodel.targets import target_by_name
from repro.interp.interpreter import Interpreter, InterpreterError
from repro.interp.memory import MemoryImage
from repro.ir import F64, Function, GlobalArray, I64, IRBuilder, Module
from repro.ir.parser import parse_module
from repro.kernels.catalog import EVALUATION_KERNELS
from repro.opt.pipelines import compile_function
from repro.slp.vectorizer import VectorizerConfig

TARGET = target_by_name("skylake-like")


def _build(kernel, config):
    module, func = kernel.build()
    compile_function(func, config, TARGET)
    return module, func


# ---------------------------------------------------------------------------
# Catalog sweep: both configs, exact equality
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kernel", EVALUATION_KERNELS, ids=lambda k: k.name
)
def test_catalog_lslp_exact(kernel):
    module, func = _build(kernel, VectorizerConfig.lslp())
    result = cross_check(
        module, func, TARGET, base_args=dict(kernel.default_args),
        runs=2,
    )
    assert result.ok, result.render()
    assert result.compiled_runs == result.runs


@pytest.mark.parametrize(
    "kernel", EVALUATION_KERNELS[:4], ids=lambda k: k.name
)
def test_catalog_scalar_exact(kernel):
    module, func = _build(kernel, VectorizerConfig.o3())
    result = cross_check(
        module, func, TARGET, base_args=dict(kernel.default_args),
        runs=2,
    )
    assert result.ok, result.render()


# ---------------------------------------------------------------------------
# Control flow and calls
# ---------------------------------------------------------------------------


def loop_module():
    """A counted accumulation loop over @A with two phis."""
    m = Module("loops")
    m.add_global(GlobalArray("A", F64, 16))
    f = Function("accum", [("n", I64)])
    f.return_type = F64
    entry = f.add_block("entry")
    loop = f.add_block("loop")
    done = f.add_block("done")
    b = IRBuilder(entry)
    b.br(loop)
    b.set_block(loop)
    i = b.phi(I64, "i")
    acc = b.phi(F64, "acc")
    x = b.load(b.gep(m.globals["A"], i))
    acc2 = b.fadd(acc, x)
    i2 = b.add(i, b.i64(1))
    b.condbr(b.icmp("slt", i2, f.argument("n")), loop, done)
    i.add_incoming(b.i64(0), entry)
    i.add_incoming(i2, loop)
    acc.add_incoming(b.const(F64, 0.0), entry)
    acc.add_incoming(acc2, loop)
    b.set_block(done)
    b.ret(acc2)
    m.add_function(f)
    return m, f


def call_module():
    """main -> double -> double, accounting merged across frames."""
    m = Module("calls")
    m.add_global(GlobalArray("A", I64, 8))
    callee = Function("double", [("x", I64)])
    callee.return_type = I64
    cb = IRBuilder(callee.add_block("entry"))
    cb.ret(cb.add(callee.argument("x"), callee.argument("x")))
    m.add_function(callee)
    caller = Function("main", [("x", I64)])
    caller.return_type = I64
    b = IRBuilder(caller.add_block("entry"))
    r1 = b.call(callee, [caller.argument("x")])
    r2 = b.call(callee, [r1])
    b.ret(b.add(r1, r2))
    m.add_function(caller)
    return m, caller


def recursive_module():
    """Self-recursion counting down from %x."""
    m = Module("rec")
    f = Function("down", [("x", I64)])
    f.return_type = I64
    entry = f.add_block("entry")
    again = f.add_block("again")
    out = f.add_block("out")
    b = IRBuilder(entry)
    b.condbr(b.icmp("sgt", f.argument("x"), b.i64(0)), again, out)
    b.set_block(again)
    r = b.call(f, [b.sub(f.argument("x"), b.i64(1))])
    b.ret(b.add(r, b.i64(1)))
    b.set_block(out)
    b.ret(b.i64(0))
    m.add_function(f)
    return m, f


def test_loop_exact():
    m, f = loop_module()
    result = cross_check(m, f, TARGET, base_args={"n": 16}, runs=3)
    assert result.ok, result.render()


def test_calls_merge_accounting():
    m, f = call_module()
    result = cross_check(m, f, TARGET, base_args={"x": 7}, runs=3)
    assert result.ok, result.render()


def test_recursion_within_depth():
    m, f = recursive_module()
    result = cross_check(m, f, TARGET, base_args={"x": 20}, runs=2)
    assert result.ok, result.render()


def test_recursion_depth_limit_matches():
    m, f = recursive_module()
    result = cross_check(m, f, TARGET, base_args={"x": 100}, runs=1)
    assert result.ok, result.render()


# ---------------------------------------------------------------------------
# Error paths: same exception class, same message
# ---------------------------------------------------------------------------


def _both_raise(module, func, args, step_limit=1_000_000):
    mem_ref = MemoryImage(module)
    mem_ref.randomize(3)
    mem_cmp = mem_ref.clone()
    with pytest.raises(InterpreterError) as interp_err:
        Interpreter(mem_ref, TARGET).run(
            func, args, step_limit=step_limit
        )
    executor = TieredExecutor(module, mem_cmp, TARGET,
                              backend="compiled")
    with pytest.raises(InterpreterError) as backend_err:
        executor.run(func.name, args, step_limit=step_limit)
    return str(interp_err.value), str(backend_err.value)


def test_step_limit_message_matches():
    m, f = loop_module()
    a, b = _both_raise(m, f, {"n": 16}, step_limit=10)
    assert a == b
    assert "step limit 10 exceeded" in a


def test_out_of_bounds_matches():
    m, f = loop_module()
    a, b = _both_raise(m, f, {"n": 25})  # @A only holds 16
    # Identical up to the context suffix: the interpreter cites the
    # faulting Instruction, the backend says "in generated code".
    assert a.split(" in ")[0] == b.split(" in ")[0]
    assert "out of bounds" in a and "out of bounds" in b


def test_missing_argument_matches():
    m, f = loop_module()
    a, b = _both_raise(m, f, {})
    assert a == b == "missing argument %n for @accum"


# ---------------------------------------------------------------------------
# Runtime plumbing
# ---------------------------------------------------------------------------


def test_load_cache_memoizes_by_content():
    m, f = loop_module()
    emitted = emit_module(m, TARGET)
    clear_load_cache()
    first = load_compiled(emitted.source)
    second = load_compiled(emitted.source)
    assert first.namespace is second.namespace
    assert first.sha256 == second.sha256


def test_version_mismatch_rejected():
    m, f = loop_module()
    emitted = emit_module(m, TARGET)
    source = emitted.source.replace(f"'version': {EMIT_VERSION}",
                                    "'version': 999")
    assert source != emitted.source
    clear_load_cache()
    with pytest.raises(ValueError, match="version"):
        CompiledModule(source)


def test_bound_function_survives_in_place_mutation():
    """Bound buffers are captured by reference; randomize/set_array
    mutate in place, so results track the live memory."""
    m, f = loop_module()
    memory = MemoryImage(m)
    executor = TieredExecutor(m, memory, TARGET, backend="compiled")
    memory.set_array("A", [1.0] * 16)
    first = executor.run(f.name, {"n": 4}).result
    assert first.return_value == 4.0
    memory.set_array("A", [2.0] * 16)
    second = executor.run(f.name, {"n": 4}).result
    assert second.return_value == 8.0
    assert first.cycles == second.cycles


def test_interp_backend_is_plain_interpreter():
    m, f = loop_module()
    memory = MemoryImage(m)
    memory.randomize(0)
    executor = TieredExecutor(m, memory, TARGET, backend="interp")
    run = executor.run(f.name, {"n": 8})
    assert run.tier == "interp"
    assert not run.fallback
    assert executor.compiled is None


# ---------------------------------------------------------------------------
# Wide vectors and the generated module's imports
# ---------------------------------------------------------------------------


WIDE_IR = """\
module "wide"

@A = global [64 x i32]
@B = global [64 x i32]
@C = global [64 x i32]

define void @wide(i64 %i) {
entry:
  %ptr = gep i32* @A, i64 %i
  %ptr1 = gep i32* @B, i64 %i
  %ptr2 = gep i32* @C, i64 %i
  %vld = load <16 x i32>, i32* %ptr
  %vld1 = load <16 x i32>, i32* %ptr1
  %add = add <16 x i32> %vld, <16 x i32> %vld1
  %mul = mul <16 x i32> %add, <16 x i32> %vld1
  %shuf = shufflevector <16 x i32> %mul, <16 x i32> %vld, \
[1, 4, 7, 10, 13, 16, 19, 22, 25, 28, 31, 2, 5, 8, 11, 14]
  %splat = splat i32 0, 16
  %cmp = icmp slt <16 x i32> %shuf, <16 x i32> %splat
  %sel = select <16 x i1> %cmp, <16 x i32> %vld, <16 x i32> %shuf
  %splat1 = splat i32 3, 16
  %sdiv = sdiv <16 x i32> %sel, <16 x i32> %splat1
  store <16 x i32> %sdiv, i32* %ptr2
  ret void
}
"""


def test_sixteen_lane_module_served_compiled():
    """Lane count does not change the rendering: a 16-lane module with
    a vector ``sdiv`` is served by the compiled tier, exactly."""
    module = parse_module(WIDE_IR)
    assert emit_module(module, TARGET).unsupported == {}
    result = cross_check(module, module.get_function("wide"), TARGET,
                         base_args={"i": 4}, runs=3)
    assert result.ok, result.render()
    assert result.compiled_runs == result.runs == 3


def test_compiled_tier_does_not_import_numpy():
    """Generated modules are plain Python: emitting, loading and running
    one must not pull NumPy into the process."""
    program = (
        "import sys\n"
        "from repro.backend import TieredExecutor\n"
        "from repro.costmodel.targets import target_by_name\n"
        "from repro.interp.memory import MemoryImage\n"
        "from repro.kernels.catalog import EVALUATION_KERNELS\n"
        "from repro.opt.pipelines import compile_function\n"
        "from repro.slp.vectorizer import VectorizerConfig\n"
        "kernel = EVALUATION_KERNELS[0]\n"
        "module, func = kernel.build()\n"
        "target = target_by_name('skylake-like')\n"
        "compile_function(func, VectorizerConfig.lslp(), target)\n"
        "memory = MemoryImage(module)\n"
        "memory.randomize(0)\n"
        "executor = TieredExecutor(module, memory, target,"
        " backend='compiled')\n"
        "run = executor.run(func.name, dict(kernel.default_args))\n"
        "assert run.tier == 'compiled'\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", program], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def _lane_sweep_ir(width: int, lanes: int) -> str:
    """The ``WIDE_IR`` op mix at any element width and lane count."""
    elem = f"i{width}"
    vec = f"<{lanes} x {elem}>"
    shuffle = ", ".join(str((3 * lane + 1) % (2 * lanes))
                        for lane in range(lanes))
    return f"""\
module "sweep"

@A = global [128 x {elem}]
@B = global [128 x {elem}]
@C = global [128 x {elem}]

define void @sweep(i64 %i) {{
entry:
  %ptr = gep {elem}* @A, i64 %i
  %ptr1 = gep {elem}* @B, i64 %i
  %ptr2 = gep {elem}* @C, i64 %i
  %vld = load {vec}, {elem}* %ptr
  %vld1 = load {vec}, {elem}* %ptr1
  %add = add {vec} %vld, {vec} %vld1
  %mul = mul {vec} %add, {vec} %vld1
  %shuf = shufflevector {vec} %mul, {vec} %vld, [{shuffle}]
  %splat = splat {elem} 0, {lanes}
  %cmp = icmp slt {vec} %shuf, {vec} %splat
  %sel = select <{lanes} x i1> %cmp, {vec} %vld, {vec} %shuf
  %splat1 = splat {elem} 3, {lanes}
  %sdiv = sdiv {vec} %sel, {vec} %splat1
  %splat2 = splat {elem} 2, {lanes}
  %shl = shl {vec} %sdiv, {vec} %splat2
  store {vec} %shl, {elem}* %ptr2
  ret void
}}
"""


@pytest.mark.parametrize("lanes", [2, 8, 32])
@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_lane_and_width_sweep_served_compiled(width, lanes):
    """Every integer element width and lane count, on both sides of
    the old 16-lane rendering switch, renders one way and reproduces
    the interpreter exactly, wrap-around included."""
    module = parse_module(_lane_sweep_ir(width, lanes))
    assert emit_module(module, TARGET).unsupported == {}
    result = cross_check(module, module.get_function("sweep"), TARGET,
                         base_args={"i": 4}, runs=2)
    assert result.ok, result.render()
    assert result.compiled_runs == result.runs == 2
