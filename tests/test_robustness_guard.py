"""Tests for the guarded compilation driver (repro.robustness).

Covers function cloning, snapshot/rollback, the strict-mode error
taxonomy, resource budgets, the differential-execution oracle, and the
CLI surface (``--strict`` / ``--remarks`` / ``run --verify`` plus the
``--arg`` and configuration-warning satellites).
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.interp import compare_runs
from repro.ir import clone_function, print_function, verify_function
from repro.opt import compile_function
from repro.opt.pipelines import build_pipeline
from repro.robustness import (
    Budget,
    BudgetMeter,
    DiagnosticEngine,
    DifferentialOracle,
    FaultInjector,
    FaultSpec,
    FunctionSnapshot,
    GuardPolicy,
    InvalidIRError,
    MiscompileError,
    PassCrashError,
    PassGuard,
    Remark,
    Severity,
)
from repro.slp import VectorizerConfig
from tests.conftest import build_kernel

KERNEL = """
double A[1024], B[1024], C[1024], D[1024];
void kernel(long i) {
    A[i + 0] = B[i + 0]*C[i + 0] + C[i + 0]*D[i + 0] + B[i + 0]*D[i + 0];
    A[i + 1] = D[i + 1]*B[i + 1] + B[i + 1]*C[i + 1] + D[i + 1]*C[i + 1];
    A[i + 2] = B[i + 2]*C[i + 2] + C[i + 2]*D[i + 2] + B[i + 2]*D[i + 2];
    A[i + 3] = D[i + 3]*B[i + 3] + B[i + 3]*C[i + 3] + D[i + 3]*C[i + 3];
}
"""

ARGS = {"i": 8}


def build():
    return build_kernel(KERNEL)


# ---------------------------------------------------------------------------
# clone_function
# ---------------------------------------------------------------------------


class TestCloneFunction:
    def test_clone_prints_identically(self):
        _, func = build()
        clone = clone_function(func)
        assert print_function(clone) == print_function(func).replace(
            f"@{func.name}", f"@{clone.name}", 1
        )

    def test_clone_verifies(self):
        _, func = build()
        verify_function(clone_function(func))

    def test_clone_is_independent(self):
        _, func = build()
        before = print_function(func)
        clone = clone_function(func)
        # Mutating the clone must not disturb the original.
        clone.blocks[0].instructions[0].name = "tampered"
        assert print_function(func) == before
        verify_function(func)

    def test_clone_survives_optimization_of_original(self):
        _, func = build()
        clone = clone_function(func)
        compile_function(func, VectorizerConfig.lslp())
        verify_function(clone)

    def test_clone_with_control_flow(self):
        """Loops exercise phi back-edges in the two-pass operand fixup."""
        module, func = build_kernel(
            """
            long A[64], B[64];
            void kernel(long n) {
                for (long j = 0; j < n; j = j + 1) {
                    A[j] = B[j] + 1;
                }
            }
            """
        )
        clone = clone_function(func)
        verify_function(clone)
        outcome = compare_runs(
            (module, func), (module, clone), args={"n": 8}
        )
        assert outcome.equivalent, outcome.detail


# ---------------------------------------------------------------------------
# FunctionSnapshot
# ---------------------------------------------------------------------------


class TestFunctionSnapshot:
    def test_restore_undoes_mutation(self):
        _, func = build()
        before = print_function(func)
        snapshot = FunctionSnapshot(func)
        compile_function(func, VectorizerConfig.lslp())
        assert print_function(func) != before
        snapshot.restore()
        assert print_function(func) == before
        verify_function(func)

    def test_restore_is_single_use(self):
        _, func = build()
        snapshot = FunctionSnapshot(func)
        snapshot.restore()
        assert not snapshot.live
        with pytest.raises(RuntimeError):
            snapshot.restore()

    def test_restored_function_recompiles(self):
        """After a rollback the same Function object must still be a
        valid pipeline input (the guard keeps compiling with it)."""
        _, func = build()
        snapshot = FunctionSnapshot(func)
        compile_function(func, VectorizerConfig.lslp())
        snapshot.restore()
        result = compile_function(func, VectorizerConfig.lslp())
        verify_function(func)
        assert result.report.num_vectorized > 0


# ---------------------------------------------------------------------------
# Guarded pass execution
# ---------------------------------------------------------------------------


class TestPassGuard:
    def test_raising_pass_rolls_back_and_continues(self):
        _, func = build()
        faults = FaultInjector(FaultSpec("instcombine", "raise"))
        result = compile_function(
            func, VectorizerConfig.lslp(), guard="guarded", faults=faults
        )
        verify_function(func)
        assert result.rolled_back == ["instcombine"]
        # The rest of the pipeline still ran: the kernel vectorized.
        assert result.report.num_vectorized > 0
        rollback = [r for r in result.remarks if r.category == "rollback"]
        assert len(rollback) == 1
        assert rollback[0].pass_name == "instcombine"
        assert rollback[0].function == func.name
        assert rollback[0].remediation

    def test_slp_rollback_degrades_to_scalar(self):
        module, func = build()
        faults = FaultInjector(FaultSpec("slp", "raise"))
        result = compile_function(
            func, VectorizerConfig.lslp(), guard="guarded", faults=faults
        )
        verify_function(func)
        assert result.fell_back_to_scalar
        reference, ref_func = build()
        compile_function(ref_func, VectorizerConfig.o3())
        outcome = compare_runs(
            (reference, ref_func), (module, func), args=ARGS
        )
        assert outcome.equivalent, outcome.detail

    def test_corrupt_ir_caught_by_verifier(self):
        _, func = build()
        faults = FaultInjector(FaultSpec("dce", "corrupt-detach"), seed=3)
        result = compile_function(
            func, VectorizerConfig.lslp(), guard="guarded", faults=faults
        )
        verify_function(func)
        assert "dce" in result.rolled_back
        remark = next(r for r in result.remarks if r.pass_name == "dce")
        assert remark.phase == "verify"

    def test_uncloneable_ir_recovers_via_last_good_snapshot(self):
        """A type clobber survives the verifier but crashes the next
        pass's snapshot clone; the guard must fall back to its retained
        known-good state instead of propagating the clone error."""
        module, func = build()
        faults = FaultInjector(
            FaultSpec("instcombine", "corrupt-type-clobber"), seed=1
        )
        oracle = DifferentialOracle(module, args=ARGS)
        result = compile_function(
            func, VectorizerConfig.lslp(),
            guard=GuardPolicy(oracle=oracle, oracle_reference="input"),
            faults=faults,
        )
        verify_function(func)
        ref_module, ref_func = build()
        outcome = compare_runs(
            (ref_module, ref_func), (module, func), args=ARGS
        )
        assert outcome.equivalent, outcome.detail

    def test_clean_compile_takes_three_snapshots_and_no_replay(self):
        """The scalar passes share one entry snapshot; only slp and
        dce-post are snapshotted on their own."""
        from repro import obs
        from repro.kernels.catalog import ALL_KERNELS

        _, func = ALL_KERNELS["453.boy-surface"].build()
        obs.metrics.set_publishing(True)
        result = compile_function(func, VectorizerConfig.lslp(),
                                  guard="guarded")
        counters = obs.metrics.registry().snapshot()
        assert result.rolled_back == []
        assert result.report.num_vectorized > 0
        assert 0 < counters["guard.snapshots"] <= 3
        assert counters.get("guard.replays", 0) == 0
        # one verify for the scalar segment, one each for slp, dce-post
        assert counters["guard.verifies"] == 3

    def test_failing_pass_replays_its_segment_once(self):
        from repro import obs

        _, func = build()
        obs.metrics.set_publishing(True)
        result = compile_function(
            func, VectorizerConfig.lslp(), guard="guarded",
            faults=FaultInjector(FaultSpec("instcombine", "raise")),
        )
        assert obs.metrics.registry().snapshot()["guard.replays"] == 1
        assert result.rolled_back == ["instcombine"]

    def test_replay_leaves_no_trace_of_the_failed_attempt(self):
        """The optimistic attempt runs unroll on corrupt IR; its timings
        and decline remarks must not survive the replay."""
        from repro.kernels.catalog import ALL_KERNELS

        kernel = ALL_KERNELS["loop-dot"]
        _, clean_func = kernel.build()
        clean = compile_function(clean_func, VectorizerConfig.lslp(),
                                 guard="guarded")
        _, func = kernel.build()
        result = compile_function(
            func, VectorizerConfig.lslp(), guard="guarded",
            faults=FaultInjector(FaultSpec("inline", "corrupt-detach")),
        )
        assert result.rolled_back == ["inline"]
        names = [timing.name for timing in result.timing.timings]
        assert names == [timing.name for timing in clean.timing.timings]
        unroll = [r.render() for r in result.remarks
                  if r.pass_name == "unroll"]
        assert unroll == [r.render() for r in clean.remarks
                          if r.pass_name == "unroll"]
        assert print_function(func) == print_function(clean_func)

    def test_unguarded_compile_still_raises(self):
        _, func = build()
        faults = FaultInjector(FaultSpec("instcombine", "raise"))
        with pytest.raises(Exception):
            compile_function(func, VectorizerConfig.lslp(), faults=faults)

    def test_guarded_result_unchanged_without_faults(self):
        _, plain_func = build()
        plain = compile_function(plain_func, VectorizerConfig.lslp())
        _, guarded_func = build()
        guarded = compile_function(
            guarded_func, VectorizerConfig.lslp(), guard="guarded"
        )
        assert print_function(plain_func) == print_function(guarded_func)
        assert plain.static_cost == guarded.static_cost
        assert guarded.rolled_back == []
        assert guarded.remarks == []

    def test_report_names_are_populated(self):
        """CompileResult.report must carry real names even under O3,
        where the vectorizer pass never runs."""
        _, func = build()
        result = compile_function(func, VectorizerConfig.o3())
        assert result.report.function == func.name
        assert result.report.config == "O3"


class TestStrictMode:
    def test_strict_reraises_pass_crash(self):
        _, func = build()
        faults = FaultInjector(FaultSpec("cse", "raise"))
        with pytest.raises(PassCrashError) as info:
            compile_function(
                func, VectorizerConfig.lslp(), guard="strict",
                faults=faults,
            )
        assert info.value.pass_name == "cse"
        assert info.value.function == func.name
        # Even strict mode restores the function before raising.
        verify_function(func)

    def test_strict_reraises_invalid_ir(self):
        _, func = build()
        faults = FaultInjector(
            FaultSpec("instcombine", "corrupt-dangling-operand"), seed=1
        )
        with pytest.raises(InvalidIRError):
            compile_function(
                func, VectorizerConfig.lslp(), guard="strict",
                faults=faults,
            )
        verify_function(func)

    def test_strict_reraises_miscompile(self):
        module, func = build()
        faults = FaultInjector(
            FaultSpec("slp", "corrupt-swap-operands"), seed=0
        )
        oracle = DifferentialOracle(module, args=ARGS)
        with pytest.raises(MiscompileError):
            compile_function(
                func, VectorizerConfig.lslp(),
                guard=GuardPolicy(mode="strict", oracle=oracle),
                faults=faults,
            )
        verify_function(func)

    def test_bad_guard_spec_rejected(self):
        _, func = build()
        with pytest.raises(ValueError, match="unknown guard"):
            compile_function(func, VectorizerConfig.lslp(), guard="bogus")
        with pytest.raises(ValueError, match="unknown guard mode"):
            GuardPolicy(mode="lenient")


# ---------------------------------------------------------------------------
# Differential oracle
# ---------------------------------------------------------------------------


class TestDifferentialOracle:
    def test_mismatch_rolls_back_to_scalar(self):
        module, func = build()
        faults = FaultInjector(
            FaultSpec("slp", "corrupt-swap-operands"), seed=0
        )
        oracle = DifferentialOracle(module, args=ARGS)
        result = compile_function(
            func, VectorizerConfig.lslp(), guard="guarded",
            oracle=oracle, faults=faults,
        )
        verify_function(func)
        assert "oracle" in result.rolled_back
        assert result.fell_back_to_scalar
        miscompiles = [
            r for r in result.remarks if r.category == "miscompile"
        ]
        assert len(miscompiles) == 1
        assert miscompiles[0].severity is Severity.WARNING
        # The surviving function equals the clean scalar baseline.
        ref_module, ref_func = build()
        compile_function(ref_func, VectorizerConfig.lslp())
        outcome = compare_runs(
            (ref_module, ref_func), (module, func), args=ARGS
        )
        assert outcome.equivalent, outcome.detail

    def test_clean_compile_passes_oracle(self):
        module, func = build()
        oracle = DifferentialOracle(module, args=ARGS, runs=3)
        result = compile_function(
            func, VectorizerConfig.lslp(), guard="guarded", oracle=oracle
        )
        assert "oracle" not in result.rolled_back
        assert result.report.num_vectorized > 0

    def test_oracle_counts_interpreter_crash_as_mismatch(self):
        """IR whose execution fails (rather than producing wrong
        values) must also read as a mismatch, not raise."""
        module, func = build()
        oracle = DifferentialOracle(module, args=None)  # missing 'i'
        detail = oracle.check(func, func)
        assert detail is not None
        assert "execution failed" in detail

    def test_input_reference_catches_scalar_miscompile(self):
        module, func = build()
        faults = FaultInjector(
            FaultSpec("cse-post-unroll", "corrupt-swap-operands"), seed=1
        )
        oracle = DifferentialOracle(module, args=ARGS)
        policy = GuardPolicy(oracle=oracle, oracle_reference="input")
        result = compile_function(
            func, VectorizerConfig.lslp(), guard=policy, faults=faults
        )
        verify_function(func)
        ref_module, ref_func = build()
        outcome = compare_runs(
            (ref_module, ref_func), (module, func), args=ARGS
        )
        assert outcome.equivalent, outcome.detail


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------


class TestBudgets:
    def test_lookahead_budget_caps_evals(self):
        _, unlimited_func = build()
        unlimited = compile_function(
            unlimited_func, VectorizerConfig.lslp()
        )
        evals = unlimited.report.stats.lookahead_evals
        assert evals > 2, "kernel must exercise look-ahead"

        cap = 2
        _, func = build()
        config = VectorizerConfig.lslp().with_budget(
            Budget(max_lookahead_evals=cap)
        )
        result = compile_function(func, config)
        verify_function(func)
        assert result.report.stats.lookahead_evals <= cap + 1
        budget_remarks = [
            r for r in result.remarks if r.category == "budget"
        ]
        assert budget_remarks, "budget exhaustion must leave a remark"
        assert budget_remarks[0].pass_name == "slp"

    def test_exhausted_budget_still_correct(self):
        module, func = build()
        config = VectorizerConfig.lslp().with_budget(
            Budget(max_lookahead_evals=1)
        )
        compile_function(func, config)
        verify_function(func)
        ref_module, ref_func = build()
        compile_function(ref_func, VectorizerConfig.o3())
        outcome = compare_runs(
            (ref_module, ref_func), (module, func), args=ARGS
        )
        assert outcome.equivalent, outcome.detail

    def test_exhaustive_budget_falls_back_to_greedy(self):
        base = VectorizerConfig.lslp()
        exhaustive = VectorizerConfig(
            name="LSLP-X",
            enable_reordering=True,
            look_ahead_depth=base.look_ahead_depth,
            multi_node_max_size=None,
            reorder_strategy="exhaustive",
        )
        _, free_func = build()
        free = compile_function(free_func, exhaustive)
        free_evals = free.report.stats.lookahead_evals
        assert free_evals > 0

        from dataclasses import replace

        capped = replace(
            exhaustive,
            budget=Budget(max_reorder_assignments=1),
        )
        _, func = build()
        result = compile_function(func, capped)
        verify_function(func)
        assert result.report.stats.lookahead_evals < free_evals
        remarks = [r for r in result.remarks if r.category == "budget"]
        assert remarks, "greedy fallback must be recorded as a remark"
        assert any("greedy" in r.message for r in remarks)

    def test_wall_clock_budget_degrades_gracefully(self):
        module, func = build()
        config = VectorizerConfig.lslp().with_budget(
            Budget(max_seconds=0.0)
        )
        result = compile_function(func, config)
        verify_function(func)
        assert result.report.num_vectorized == 0
        ref_module, ref_func = build()
        compile_function(ref_func, VectorizerConfig.o3())
        outcome = compare_runs(
            (ref_module, ref_func), (module, func), args=ARGS
        )
        assert outcome.equivalent, outcome.detail

    def test_meter_dedups_events(self):
        meter = BudgetMeter(Budget(max_lookahead_evals=1))
        meter.start_function()
        for _ in range(10):
            meter.lookahead_allowed()
            meter.charge_lookahead()
        kinds = [event.kind for event in meter.events]
        assert kinds.count("lookahead") == 1

    def test_unlimited_budget_never_trips(self):
        meter = BudgetMeter(Budget.unlimited())
        meter.start_function()
        meter.charge_lookahead(10**9)
        assert meter.lookahead_allowed()
        assert not meter.time_exceeded()
        assert meter.events == []


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kernel.c"
    path.write_text(KERNEL)
    return str(path)


class TestRobustnessCLI:
    def test_run_verify_reports_match(self, kernel_file, capsys):
        assert main(["run", kernel_file, "--arg", "i=8",
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "outputs match" in out

    def test_run_verify_rejects_no_guard(self, kernel_file):
        with pytest.raises(SystemExit, match="verify requires"):
            main(["run", kernel_file, "--arg", "i=8", "--verify",
                  "--no-guard"])

    def test_missing_required_arg(self, kernel_file):
        with pytest.raises(SystemExit, match="requires argument"):
            main(["run", kernel_file])
        with pytest.raises(SystemExit, match="requires argument"):
            main(["run", kernel_file, "--verify"])

    def test_malformed_arg_value(self, kernel_file):
        with pytest.raises(SystemExit, match="not a number"):
            main(["run", kernel_file, "--arg", "i=abc"])

    def test_malformed_arg_shape(self, kernel_file):
        with pytest.raises(SystemExit, match="malformed --arg"):
            main(["run", kernel_file, "--arg", "i"])
        with pytest.raises(SystemExit, match="malformed --arg"):
            main(["run", kernel_file, "--arg", "=5"])

    def test_float_arg_still_parses(self, kernel_file, capsys):
        assert main(["run", kernel_file, "--arg", "i=8",
                     "--arg", "x=1.5"]) == 0

    def test_lslp_knobs_warn_on_other_configs(self, kernel_file, capsys):
        assert main(["compile", kernel_file, "--config", "slp",
                     "--look-ahead", "4"]) == 0
        err = capsys.readouterr().err
        assert "--look-ahead ignored" in err
        assert "SLP" in err

    def test_no_warning_for_lslp(self, kernel_file, capsys):
        assert main(["compile", kernel_file, "--look-ahead", "4"]) == 0
        assert "ignored" not in capsys.readouterr().err

    def test_budget_remark_printed(self, kernel_file, capsys):
        assert main(["compile", kernel_file, "--remarks",
                     "--max-lookahead-evals", "2"]) == 0
        out = capsys.readouterr().out
        assert "warning: budget" in out

    def test_strict_cli_fails_cleanly(self, kernel_file, capsys, monkeypatch):
        import repro.cli as cli_module

        real = cli_module.compile_function

        def exploding(func, config, target=None, **kwargs):
            faults = FaultInjector(FaultSpec("dce", "raise"))
            return real(func, config, target, faults=faults, **kwargs)

        monkeypatch.setattr(cli_module, "compile_function", exploding)
        assert main(["compile", kernel_file, "--strict"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_guarded_cli_recovers(self, kernel_file, capsys, monkeypatch):
        import repro.cli as cli_module

        real = cli_module.compile_function

        def exploding(func, config, target=None, **kwargs):
            faults = FaultInjector(FaultSpec("dce", "raise"))
            return real(func, config, target, faults=faults, **kwargs)

        monkeypatch.setattr(cli_module, "compile_function", exploding)
        assert main(["compile", kernel_file]) == 0
        err = capsys.readouterr().err
        assert "rolled back" in err


# ---------------------------------------------------------------------------
# Diagnostics plumbing
# ---------------------------------------------------------------------------


class TestDiagnostics:
    def test_remark_render(self):
        remark = Remark(
            Severity.WARNING, "rollback", "boom",
            function="kernel", pass_name="dce", remediation="fix it",
        )
        text = remark.render()
        assert "warning" in text and "@kernel" in text
        assert "'dce'" in text and "hint: fix it" in text

    def test_engine_collects_in_order(self):
        engine = DiagnosticEngine()
        engine.note("a", "first")
        engine.warning("b", "second")
        engine.error("c", "third")
        assert [r.category for r in engine.remarks] == ["a", "b", "c"]
        assert len(engine.render()) == 3

    def test_error_taxonomy_fields(self):
        error = PassCrashError(
            "kaboom", function="kernel", pass_name="cse",
            remediation="rerun",
        )
        assert error.phase == "transform"
        assert error.function == "kernel"
        assert "kaboom" in str(error)
        assert isinstance(error, Exception)
