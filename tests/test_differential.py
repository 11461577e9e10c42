"""The one comparator every differential check shares.

Each scalar rule is exercised where the guard's oracle meets it: through
``compare_runs`` (tolerance 1e-9), the oracle inside a guarded compile,
and the oracle's inexact-run metrics on the CLI.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.interp import Comparator, compare_runs, seeded_sweep
from repro.ir import (
    F64, Function, GlobalArray, I64, IRBuilder, Module, vector_of,
)
from repro.ir.values import VectorConstant
from repro.opt import compile_function
from repro.robustness import DifferentialOracle, FaultInjector, FaultSpec
from repro.slp import VectorizerConfig
from tests.conftest import build_kernel

INF = float("inf")
NAN = float("nan")
ARGS = {"i": 0}
LIT = os.path.join(os.path.dirname(__file__), "lit")


def storing(value: float):
    """A kernel storing the constant ``value`` to ``X[i]``."""
    module = Module("m")
    x = module.add_global(GlobalArray("X", F64, 4))
    func = module.add_function(Function("kernel", [("i", I64)]))
    builder = IRBuilder(func.add_block("entry"))
    builder.store(builder.const(F64, value),
                  builder.gep(x, func.argument("i")))
    builder.ret()
    return module, func


def returning(value):
    """A kernel returning ``value``: a float, or a list of lanes."""
    module = Module("m")
    if isinstance(value, list):
        ty = vector_of(F64, len(value))
        func = module.add_function(Function("kernel", [("i", I64)], ty))
        constant = VectorConstant(ty, value)
    else:
        func = module.add_function(Function("kernel", [("i", I64)], F64))
        constant = None
    builder = IRBuilder(func.add_block("entry"))
    builder.ret(constant if constant is not None
                else builder.const(F64, value))
    return module, func


def agree(reference, transformed) -> bool:
    return compare_runs(reference, transformed, args=ARGS).equivalent


class TestMemoryRule:
    def test_nan_never_equals_a_finite_value(self):
        assert not agree(storing(1.0), storing(NAN))
        assert not agree(storing(NAN), storing(1.0))

    def test_finite_never_equals_an_infinity(self):
        assert not agree(storing(1.0), storing(INF))
        assert not agree(storing(-INF), storing(1.0))

    def test_infinities_keep_their_sign(self):
        assert not agree(storing(INF), storing(-INF))
        assert agree(storing(INF), storing(INF))

    def test_nan_equals_nan(self):
        assert agree(storing(NAN), storing(NAN))


class TestReturnRule:
    def test_infinities_keep_their_sign(self):
        assert not agree(returning(INF), returning(-INF))

    def test_nan_return_equals_nan_return(self):
        assert agree(returning(NAN), returning(NAN))

    def test_list_return_within_tolerance(self):
        outcome = compare_runs(returning([1.0, 2.0]),
                               returning([1.0 + 1e-13, 2.0]), args=ARGS)
        assert outcome.equivalent, outcome.detail
        assert outcome.inexact == 1 and outcome.worst_ulp == 450


class TestComparator:
    def test_exact_checks_the_sign_of_zero(self):
        assert not Comparator().scalars(0.0, -0.0)
        assert Comparator(1e-9).scalars(0.0, -0.0)

    def test_integers_match_by_type_and_value(self):
        comparator = Comparator(1e-9)
        assert comparator.scalars(3, 3)
        assert not comparator.scalars(3, 3.0)
        assert not comparator.scalars(3, 4)

    def test_bit_exact_matches_are_not_inexact(self):
        comparator = Comparator(1e-9)
        assert comparator.values([1.5, INF, NAN], [1.5, INF, NAN])
        assert comparator.inexact == 0

    def test_sweep_draws_one_image_per_run(self):
        module, func = storing(1.0)
        runs = list(seeded_sweep(module, func, ARGS, runs=3, base_seed=5))
        assert [run.seed for run in runs] == [5, 6, 7]
        assert runs[0].args == ARGS
        first = runs[0].image_for(module)
        assert first is not runs[0].memory
        assert first.arrays() == runs[0].memory.arrays()
        # another module with the same arrays draws the same contents
        other, _ = storing(2.0)
        assert runs[0].image_for(other).arrays() == first.arrays()


def test_guarded_compile_rolls_back_an_infinite_store():
    """Swapping the operands of ``1e-308 / B[i]`` after the vectorizer
    turns a tiny finite store into +-inf; the oracle must reject it."""
    module, func = build_kernel(
        "double A[16], B[16];\n"
        "void kernel(long i) { A[i] = 1.0e-308 / B[i]; }"
    )
    faults = FaultInjector(FaultSpec("slp", "corrupt-swap-operands"))
    result = compile_function(
        func, VectorizerConfig.lslp(), guard="guarded",
        oracle=DifferentialOracle(module, args={"i": 2}), faults=faults,
    )
    assert faults.fired == [("slp", "corrupt-swap-operands")]
    assert "oracle" in result.rolled_back
    (miscompile,) = [r for r in result.remarks
                     if r.category == "miscompile"]
    assert "inf" in miscompile.message


def test_oracle_ulp_distances_land_in_finite_buckets():
    """An accepted run ~4500 ULPs off (inside the 1e-9 tolerance) is
    counted below the 2**52-ULP top bound, not in ``+Inf``."""
    from repro.obs import metrics

    module, reference = storing(1.0)
    _, transformed = storing(1.0 + 1e-12)
    metrics.set_publishing(True)
    assert DifferentialOracle(module, args=ARGS).check(
        reference, transformed) is None
    ulp = metrics.registry().snapshot()["oracle.ulp"]
    assert ulp["count"] == 1 and 4096 < ulp["max"] <= 8192
    assert ulp["buckets"]["4096"] == 0 and ulp["buckets"]["8192"] == 1
    assert ulp["buckets"]["4503599627370496"] == 1


def _inexact_runs(kernel: str, capsys) -> int:
    assert main(["run", os.path.join(LIT, kernel), "--arg", "i=1",
                 "--seed", "1", "--verify", "--stats=json"]) == 0
    out = capsys.readouterr().out
    assert "outputs match" in out
    stats = json.loads(out.strip().splitlines()[-1])
    ulp = stats.get("oracle.ulp")
    if ulp is not None:  # every sample sits in a finite bucket
        assert ulp["buckets"]["4503599627370496"] == ulp["count"]
    return stats.get("oracle.inexact_runs", 0)


@pytest.mark.parametrize("kernel, inexact", [
    ("reduction_hadd.c", True),     # the reduction reassociates fadds
    ("fig2_lslp.c", False),         # integer kernel: always bit-exact
])
def test_oracle_reports_inexact_runs(kernel, inexact, capsys):
    assert (_inexact_runs(kernel, capsys) >= 1) is inexact
