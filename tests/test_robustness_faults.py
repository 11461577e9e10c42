"""Fault-injection acceptance sweep for the guarded driver.

The ISSUE's acceptance scenario: with fault injection configured to make
*every* pass fail (including slp) across the Table 2 kernel catalog,
guarded compilation must never raise, every surviving function must pass
the IR verifier, and differential execution against the scalar baseline
must report zero mismatches.

Marked ``faults`` so CI can run it as a separate smoke stage::

    PYTHONPATH=src python -m pytest -m faults -q
"""

from __future__ import annotations

import pytest

from repro.interp import compare_runs
from repro.ir import verify_function
from repro.kernels.catalog import ALL_KERNELS
from repro.opt import compile_function
from repro.robustness import (
    FAULT_KINDS,
    DifferentialOracle,
    FaultInjector,
    FaultSpec,
    GuardPolicy,
)
from repro.slp import VectorizerConfig

pytestmark = pytest.mark.faults

PASS_NAMES = [
    "inline", "constfold", "instcombine", "cse", "dce", "unroll",
    "simplifycfg", "constfold-post-unroll", "instcombine-post-unroll",
    "cse-post-unroll", "dce-post-unroll", "slp", "dce-post",
]

CONFIGS = [
    VectorizerConfig.o3,
    VectorizerConfig.slp_nr,
    VectorizerConfig.slp,
    VectorizerConfig.lslp,
]


def guarded_policy(module, kernel, oracle_reference="input"):
    """A guard whose oracle replays the kernel's own default arguments,
    referenced against the pristine input so corruption in *any* pass is
    observable."""
    args = dict(kernel.default_args) if kernel.default_args else None
    return GuardPolicy(
        oracle=DifferentialOracle(module, args=args),
        oracle_reference=oracle_reference,
    )


def scalar_baseline(kernel):
    module, func = kernel.build()
    compile_function(func, VectorizerConfig.o3())
    return module, func


def assert_equivalent_to_scalar(kernel, module, func):
    reference = scalar_baseline(kernel)
    args = dict(kernel.default_args) if kernel.default_args else None
    outcome = compare_runs(reference, (module, func), args=args)
    assert outcome.equivalent, (
        f"{kernel.name}: surviving IR diverges from the scalar "
        f"baseline: {outcome.detail}"
    )


@pytest.mark.parametrize("kernel", ALL_KERNELS.values(),
                         ids=list(ALL_KERNELS))
@pytest.mark.parametrize("make_config", CONFIGS,
                         ids=[c().name for c in CONFIGS])
def test_every_pass_raising_never_breaks_compilation(kernel, make_config):
    """FaultSpec("*", "raise") fails every pass in the pipeline; the
    guard must absorb all of them and leave a correct scalar function."""
    module, func = kernel.build()
    faults = FaultInjector(FaultSpec("*", "raise"))
    result = compile_function(
        func, make_config(), guard="guarded", faults=faults
    )
    verify_function(func)
    assert faults.fired, "the sweep must actually inject"
    # Every pass that ran was rolled back...
    assert set(result.rolled_back) == {name for name, _ in faults.fired}
    # ...so the function is untransformed and trivially correct.
    assert_equivalent_to_scalar(kernel, module, func)


@pytest.mark.parametrize("kernel", ALL_KERNELS.values(),
                         ids=list(ALL_KERNELS))
def test_slp_raise_sweep_across_catalog(kernel):
    """Failing just the vectorizer must degrade every kernel to the
    scalar baseline, never crash."""
    module, func = kernel.build()
    faults = FaultInjector(FaultSpec("slp", "raise"))
    result = compile_function(
        func, VectorizerConfig.lslp(), guard="guarded", faults=faults
    )
    verify_function(func)
    assert result.fell_back_to_scalar
    assert_equivalent_to_scalar(kernel, module, func)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", [
    k for k in FAULT_KINDS if k not in ("raise",)
])
def test_corruption_kinds_recovered_on_catalog_sample(kind, seed):
    """Each corruption kind, injected after the slp pass, is caught by
    its designated detector (verifier or oracle) or is harmless; the
    surviving function always verifies and matches scalar semantics."""
    for kernel in list(ALL_KERNELS.values())[:8]:
        module, func = kernel.build()
        faults = FaultInjector(FaultSpec("slp", kind), seed=seed)
        result = compile_function(
            func, VectorizerConfig.lslp(),
            guard=guarded_policy(module, kernel), faults=faults,
        )
        verify_function(func)
        assert_equivalent_to_scalar(kernel, module, func)


@pytest.mark.parametrize("pass_name", PASS_NAMES)
def test_per_pass_corruption_is_contained(pass_name):
    """Corrupting the output of any single pass never escapes the
    guard: the final function verifies and computes scalar semantics."""
    kernel = ALL_KERNELS["453.boy-surface"]
    for kind in ("corrupt-dangling-operand", "corrupt-detach",
                 "corrupt-swap-operands"):
        module, func = kernel.build()
        faults = FaultInjector(FaultSpec(pass_name, kind), seed=1)
        compile_function(
            func, VectorizerConfig.lslp(),
            guard=guarded_policy(module, kernel), faults=faults,
        )
        verify_function(func)
        assert_equivalent_to_scalar(kernel, module, func)


@pytest.mark.parametrize("kernel", list(ALL_KERNELS.values())[:10],
                         ids=list(ALL_KERNELS)[:10])
def test_perturbed_cost_model_is_harmless(kernel):
    """Arbitrary (but legal) vectorization decisions under a jittered
    cost model must still preserve semantics — no guard needed."""
    module, func = kernel.build()
    faults = FaultInjector(FaultSpec("*", "perturb-cost"), seed=7)
    compile_function(func, VectorizerConfig.lslp(), faults=faults)
    verify_function(func)
    assert_equivalent_to_scalar(kernel, module, func)


def test_fault_specs_validate():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec("slp", "segfault")
    assert FaultSpec("*", "raise").matches("anything")
    assert not FaultSpec("slp", "raise").matches("dce")


def test_injection_is_deterministic():
    kernel = ALL_KERNELS["453.boy-surface"]
    outputs = []
    for _ in range(2):
        module, func = kernel.build()
        faults = FaultInjector(
            FaultSpec("slp", "corrupt-swap-operands"), seed=42
        )
        compile_function(
            func, VectorizerConfig.lslp(),
            guard=guarded_policy(module, kernel), faults=faults,
        )
        from repro.ir import print_function

        outputs.append((print_function(func), tuple(faults.fired)))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("make_config", CONFIGS[:1] + CONFIGS[2:],
                         ids=[c().name for c in CONFIGS[:1] + CONFIGS[2:]])
@pytest.mark.parametrize("kernel_name", ["453.intersect-quadratic",
                                         "453.vsumsqr"])
def test_uncloneable_recovery_state_never_escapes(kernel_name,
                                                  make_config, seed):
    """Type clobbers after every pass can leave even the restored
    recovery state uncloneable; the guard must fall back to the input
    function instead of raising the clone's TypeError."""
    _, func = ALL_KERNELS[kernel_name].build()
    faults = FaultInjector(FaultSpec("*", "corrupt-type-clobber"), seed=seed)
    compile_function(func, make_config(), guard="guarded", faults=faults)
    verify_function(func)


@pytest.mark.parametrize("kind", [
    "corrupt-swap-operands", "corrupt-dangling-operand", "corrupt-detach",
    "corrupt-type-clobber",
])
def test_replayed_pass_injects_the_same_corruption(kind):
    """A guard replay reruns a pass on the same IR; the injector must
    corrupt it the same way both times, with no object address in what
    the verifier reports."""
    from repro.ir import print_function
    from repro.ir.verifier import VerificationError
    from repro.opt.passmanager import PassManager

    faults = FaultInjector(FaultSpec("cse", kind), seed=5)
    outputs = []
    for _ in range(2):
        _, func = ALL_KERNELS["433.mult-su2"].build()
        manager = PassManager().add("cse", lambda func: False)
        faults.instrument(manager)
        manager.run_function(func)
        try:
            verify_function(func)
            problem = ""
        except (VerificationError, TypeError) as exc:
            problem = str(exc)
        assert "%<" not in problem
        outputs.append((print_function(func), problem))
    assert faults.fired == [("cse", kind)] * 2
    assert outputs[0] == outputs[1]
