"""Property-based differential testing of the whole vectorizer.

Hypothesis generates random straight-line kernels shaped like the
paper's workloads: a random expression template instantiated across 2 or
4 lanes, with commutative operand swaps and re-associations injected per
lane (the exact non-isomorphism LSLP targets).  Every generated program,
under every configuration, must verify and compute exactly what the
unoptimized reference computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import pytest
from hypothesis import given, settings, strategies as st

from repro.interp import compare_runs
from repro.ir import verify_function
from repro.opt import compile_function
from repro.robustness import (
    FAULT_KINDS,
    DifferentialOracle,
    FaultInjector,
    FaultSpec,
    GuardPolicy,
)
from repro.slp import VectorizerConfig
from tests.conftest import build_kernel

ARRAYS = ["B", "C", "D", "E"]
COMMUTATIVE_OPS = ["+", "*", "&", "|", "^"]
NON_COMMUTATIVE_OPS = ["-", "<<", ">>"]


# ---------------------------------------------------------------------------
# Expression templates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    kind: str      #: "load" | "const" | "param"
    array: str = "B"
    offset: int = 0
    value: int = 0


@dataclass(frozen=True)
class Node:
    op: str
    left: Union["Node", Leaf]
    right: Union["Node", Leaf]


def render(expr, lane: int, swaps: list[bool], slot: list[int]) -> str:
    """Render a template for one lane, consuming per-node swap bits."""
    if isinstance(expr, Leaf):
        if expr.kind == "load":
            return f"{expr.array}[i + {expr.offset + lane}]"
        if expr.kind == "param":
            return "k"
        return str(expr.value)
    my_swap = False
    if expr.op in COMMUTATIVE_OPS and slot[0] < len(swaps):
        my_swap = swaps[slot[0]]
        slot[0] += 1
    left = render(expr.left, lane, swaps, slot)
    right = render(expr.right, lane, swaps, slot)
    if my_swap:
        left, right = right, left
    if expr.op == "<<" or expr.op == ">>":
        # keep shift amounts small constants for well-defined shapes
        right = str(abs(hash(right)) % 5 + 1) if not right.isdigit() else right
    return f"({left} {expr.op} {right})"


leaves = st.one_of(
    st.builds(
        Leaf,
        kind=st.just("load"),
        array=st.sampled_from(ARRAYS),
        offset=st.integers(min_value=0, max_value=3),
    ),
    st.builds(
        Leaf,
        kind=st.just("const"),
        value=st.integers(min_value=-7, max_value=7),
    ),
    st.builds(Leaf, kind=st.just("param")),
)


def expressions(max_depth: int = 3):
    return st.recursive(
        leaves,
        lambda children: st.builds(
            Node,
            op=st.sampled_from(COMMUTATIVE_OPS + NON_COMMUTATIVE_OPS),
            left=children,
            right=children,
        ),
        max_leaves=6,
    )


@st.composite
def kernels(draw):
    lanes = draw(st.sampled_from([2, 4]))
    template = draw(expressions())
    rows = []
    for lane in range(lanes):
        swaps = draw(
            st.lists(st.booleans(), min_size=0, max_size=8)
        )
        body = render(template, lane, swaps, [0])
        rows.append(f"    A[i + {lane}] = {body};")
    decls = "unsigned long A[64], " + ", ".join(
        f"{name}[64]" for name in ARRAYS
    ) + ";"
    source = (
        f"{decls}\n"
        "void kernel(long i, long k) {\n"
        + "\n".join(rows)
        + "\n}\n"
    )
    return source


CONFIGS = [
    VectorizerConfig.slp_nr(),
    VectorizerConfig.slp(),
    VectorizerConfig.lslp(),
    VectorizerConfig.lslp(2, 2, name="LSLP-LA2-Multi2"),
]


@settings(max_examples=60, deadline=None)
@given(source=kernels(), seed=st.integers(min_value=0, max_value=10**6))
def test_vectorization_preserves_semantics(source, seed):
    reference = build_kernel(source)
    for config in CONFIGS:
        module, func = build_kernel(source)
        compile_function(func, config)
        verify_function(func)
        outcome = compare_runs(
            reference, (module, func),
            args={"i": 4, "k": seed % 97 - 48}, seed=seed,
        )
        assert outcome.equivalent, (
            f"{config.name} broke semantics: {outcome.detail}\n{source}"
        )


@settings(max_examples=30, deadline=None)
@given(source=kernels())
def test_lslp_cost_never_worse_than_slp(source):
    _, slp_func = build_kernel(source)
    slp = compile_function(slp_func, VectorizerConfig.slp())
    _, lslp_func = build_kernel(source)
    lslp = compile_function(lslp_func, VectorizerConfig.lslp())
    assert lslp.static_cost <= slp.static_cost, source


# ---------------------------------------------------------------------------
# Randomized fault injection: the guarded driver's recovery property
# ---------------------------------------------------------------------------

PASS_NAMES = [
    "inline", "constfold", "instcombine", "cse", "dce", "unroll",
    "simplifycfg", "constfold-post-unroll", "instcombine-post-unroll",
    "cse-post-unroll", "dce-post-unroll", "slp", "dce-post", "*",
]


@pytest.mark.faults
@settings(max_examples=60, deadline=None)
@given(
    source=kernels(),
    pass_name=st.sampled_from(PASS_NAMES),
    kind=st.sampled_from(FAULT_KINDS),
    fault_seed=st.integers(min_value=0, max_value=10**6),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_guarded_compile_survives_random_faults(
    source, pass_name, kind, fault_seed, seed
):
    """Under any fault in any pass, for every configuration: guarded
    compilation never raises, the surviving IR verifies, and its
    interpreted output matches the scalar baseline."""
    run_args = {"i": 4, "k": seed % 97 - 48}
    reference = build_kernel(source)
    for config in CONFIGS:
        module, func = build_kernel(source)
        faults = FaultInjector(FaultSpec(pass_name, kind), seed=fault_seed)
        policy = GuardPolicy(
            oracle=DifferentialOracle(module, args=run_args,
                                      base_seed=seed),
            oracle_reference="input",
        )
        result = compile_function(func, config, guard=policy,
                                  faults=faults)
        verify_function(func)
        outcome = compare_runs(
            reference, (module, func), args=run_args, seed=seed,
        )
        assert outcome.equivalent, (
            f"{config.name} with {kind} in {pass_name!r} "
            f"(fault seed {fault_seed}) broke semantics: "
            f"{outcome.detail}\nrolled back: {result.rolled_back}\n"
            f"{source}"
        )


@settings(max_examples=30, deadline=None)
@given(source=kernels())
def test_compilation_is_deterministic(source):
    _, func1 = build_kernel(source)
    result1 = compile_function(func1, VectorizerConfig.lslp())
    _, func2 = build_kernel(source)
    result2 = compile_function(func2, VectorizerConfig.lslp())
    assert result1.static_cost == result2.static_cost
    assert (
        result1.report.num_vectorized == result2.report.num_vectorized
    )
    from repro.ir import print_function

    assert print_function(func1) == print_function(func2)
