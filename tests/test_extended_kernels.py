"""Tests for the extended (helper/loop-style) kernels."""

import pytest

from repro.experiments.runner import PAPER_CONFIGS
from repro.interp import compare_runs
from repro.ir import Call, verify_function
from repro.kernels import EXTENDED_KERNELS, BOY_SURFACE_LOOP
from repro.opt import compile_function
from repro.slp import VectorizerConfig


@pytest.mark.parametrize("config", PAPER_CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("kernel", EXTENDED_KERNELS, ids=lambda k: k.name)
def test_extended_kernel_correct_under_config(kernel, config):
    reference = kernel.build()
    module, func = kernel.build()
    compile_function(func, config, guard="strict")
    verify_function(func)
    outcome = compare_runs(reference, (module, func),
                           args=kernel.default_args)
    assert outcome.equivalent, (
        f"{kernel.name} under {config.name}: {outcome.detail}"
    )


def test_helpers_fully_inlined_and_vectorized():
    for kernel in EXTENDED_KERNELS:
        module, func = kernel.build()
        result = compile_function(func, VectorizerConfig.lslp())
        assert not any(
            isinstance(inst, Call) for inst in func.instructions()
        ), kernel.name
        assert result.report.num_vectorized >= 1, kernel.name


def test_boy_surface_loop_differentiates_lslp():
    _, slp_func = BOY_SURFACE_LOOP.build()
    slp = compile_function(slp_func, VectorizerConfig.slp())
    _, lslp_func = BOY_SURFACE_LOOP.build()
    lslp = compile_function(lslp_func, VectorizerConfig.lslp())
    assert lslp.static_cost < slp.static_cost
