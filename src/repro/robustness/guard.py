"""Snapshot/rollback around every pass, and the differential-execution
oracle.

The guarded driver treats every pass as untrusted.  The scalar passes
run optimistically as one segment: the function is cloned once
(:func:`repro.ir.cloning.clone_function`) before them and verified once
after them.  The vectorizer and the passes after it are cloned and
verified one at a time.  If a pass raises, or the IR verifier rejects
its output, the snapshot is restored in place — a failed segment is
then replayed pass by pass, so exactly the failing pass is rolled back
— and compilation continues with the remaining passes, degrading toward
the paper's scalar "O3" baseline instead of crashing the compile.
Strict mode re-raises as a :class:`CompilerError` subclass, preserving
today's fail-fast behaviour for tests.

The :class:`DifferentialOracle` closes the remaining gap: a pass can
produce *valid but wrong* IR that no verifier catches.  The oracle
interprets a scalar reference snapshot and the transformed function on
the same seeded :class:`~repro.interp.memory.MemoryImage`; any output or
array mismatch rolls the function back to the reference and emits a
miscompile diagnostic (the checker-based safety net LLM-Vectorizer
argues for, built from the interpreter this repo already has).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, TYPE_CHECKING

from ..ir.cloning import clone_function, discard_blocks, discard_body
from ..ir.function import Function, Module
from ..ir.verifier import VerificationError, verify_function
from ..obs import metrics as _metrics
from ..obs.tracing import span
from .diagnostics import (
    DiagnosticEngine,
    InvalidIRError,
    MiscompileError,
    PassCrashError,
    Severity,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..costmodel.tti import TargetCostModel
    from ..opt.passmanager import PipelineResult

#: ``oracle.ulp`` bucket bounds: 1, 2, 4 .. 2**52 ULPs, so every
#: distance the oracle's tolerance accepts lands in a finite bucket
ULP_BUCKETS: tuple[float, ...] = tuple(float(2 ** k) for k in range(53))


class FunctionSnapshot:
    """A restorable deep copy of one function's body.

    ``restore`` swaps the cloned blocks *and arguments* back into the
    original :class:`Function` object, so every caller still holding a
    reference to the function sees the pre-pass state.  The discarded
    (possibly corrupt) body is unhooked from shared values best-effort.
    """

    def __init__(self, func: Function, clone: Optional[Function] = None):
        self.func = func
        self._clone = clone if clone is not None else clone_function(func)

    @property
    def live(self) -> bool:
        return self._clone is not None

    def restore(self) -> None:
        """Replace ``func``'s body with the snapshot, in place."""
        clone = self._require_clone()
        func = self.func
        old_blocks = func.blocks
        func.blocks = clone.blocks
        for block in func.blocks:
            block.parent = func
        func.arguments = clone.arguments
        for arg in func.arguments:
            arg.parent = func
        func._name_counts = dict(clone._name_counts)
        discard_blocks(old_blocks)
        self._clone = None

    def discard(self) -> None:
        """Throw the snapshot away, unhooking it from shared values."""
        if self._clone is None:
            return
        discard_body(self._clone)
        self._clone = None

    def reference(self) -> Function:
        """The snapshot as a standalone, interpretable function."""
        return self._require_clone()

    def _require_clone(self) -> Function:
        if self._clone is None:
            raise RuntimeError("snapshot already restored or discarded")
        return self._clone


@dataclass
class DifferentialOracle:
    """Compares a reference and a transformed function by execution.

    The oracle replays ``runs`` runs of
    :func:`repro.interp.differential.seeded_sweep` — run 0 is ``args``
    on memory drawn from ``base_seed``; later runs draw fresh images and
    vary the integer arguments — and both functions must agree on every
    observable (final array contents, return value) under the shared
    :class:`~repro.interp.differential.Comparator` with
    ``float_tolerance``.  A mismatch, or a run that fails to execute,
    reports which run diverged.  Runs accepted within the tolerance but
    not bit-exact count in ``oracle.inexact_runs``; their worst ULP
    distance goes to the ``oracle.ulp`` histogram.
    """

    module: Module
    args: Optional[dict[str, object]] = None
    runs: int = 1
    base_seed: int = 0
    float_tolerance: float = 1e-9
    target: Optional["TargetCostModel"] = None

    def check(self, reference: Function,
              transformed: Function) -> Optional[str]:
        """``None`` when equivalent, else a human-readable mismatch
        naming the run (seed and argument set) that diverged."""
        # Imported lazily: repro.interp pulls in repro.opt at package
        # import time, which would cycle back into this module.
        from ..interp.differential import compare_run, seeded_sweep

        for run in seeded_sweep(self.module, reference, self.args,
                                self.runs, self.base_seed):
            where = f"run {run.index} (seed {run.seed}, args {run.args})"
            try:
                outcome = compare_run(
                    run, (self.module, reference),
                    (self.module, transformed), self.target,
                    self.float_tolerance,
                )
            except Exception as exc:
                # Corrupt-but-valid IR can crash the interpreter
                # (division by a swapped-in zero, runaway step limit);
                # execution failure counts as a mismatch.
                return f"{where}: execution failed: {exc}"
            if not outcome.equivalent:
                return f"{where}: {outcome.detail}"
            if outcome.inexact:
                _metrics.add("oracle.inexact_runs")
                _metrics.observe("oracle.ulp", outcome.worst_ulp,
                                 ULP_BUCKETS)
        return None


@dataclass
class GuardPolicy:
    """How the guarded driver reacts to pass failures."""

    #: "guarded" recovers and continues; "strict" re-raises as a
    #: :class:`CompilerError` after restoring the snapshot
    mode: str = "guarded"
    #: differential-execution oracle, or None to skip execution checks
    oracle: Optional[DifferentialOracle] = None
    #: the pass whose pre-state is the oracle's scalar reference; the
    #: passes before it run as one optimistic segment
    oracle_before: str = "slp"
    #: "pre-slp" references the O3-optimized scalar snapshot (the
    #: paper's baseline); "input" references the pristine input function
    #: (also catches scalar-pass miscompiles)
    oracle_reference: str = "pre-slp"

    def __post_init__(self):
        if self.mode not in ("guarded", "strict"):
            raise ValueError(f"unknown guard mode {self.mode!r}")
        if self.oracle_reference not in ("pre-slp", "input"):
            raise ValueError(
                f"unknown oracle reference {self.oracle_reference!r}"
            )

    @property
    def strict(self) -> bool:
        return self.mode == "strict"


class _Segment:
    """Passes the guard ran optimistically as one unit, and the pipeline
    records to rewind when it has to replay them pass by pass."""

    def __init__(self, passes: list[tuple[str, Callable]],
                 result: "PipelineResult", logs: Sequence[list]):
        self.passes = passes
        self.result = result
        self.logs = logs
        self._timings = len(result.timings)
        self._log_marks = [len(log) for log in logs]

    def rewind(self) -> None:
        """Drop the timings and logged remarks of the failed attempt."""
        del self.result.timings[self._timings:]
        for log, mark in zip(self.logs, self._log_marks):
            del log[mark:]


class PassGuard:
    """Pass-isolation engine one :class:`PassManager` run consults.

    Create one per ``run_function`` invocation: it accumulates the
    rollback record, the diagnostic stream, and the oracle's scalar
    reference snapshot for that function.
    """

    def __init__(self, policy: Optional[GuardPolicy] = None,
                 diagnostics: Optional[DiagnosticEngine] = None):
        self.policy = policy if policy is not None else GuardPolicy()
        self.diagnostics = (
            diagnostics if diagnostics is not None else DiagnosticEngine()
        )
        self.rolled_back: list[str] = []
        #: the state before the first pass: the last-resort recovery point
        self._entry: Optional[FunctionSnapshot] = None
        self._reference: Optional[FunctionSnapshot] = None
        #: pre-state of the last pass (or segment) that committed, kept
        #: as a recovery point for corruption the verifier cannot see
        self._last_good: Optional[FunctionSnapshot] = None
        self._last_pass_name: str = ""
        #: set when ``_last_good`` is the entry of a committed segment:
        #: recovering from it means replaying the segment pass by pass
        self._last_segment: Optional[_Segment] = None
        #: set once the function fell back to ``_entry``; every later
        #: pass is skipped
        self._exhausted = False

    # ------------------------------------------------------------------

    def run_pass(self, passes: Sequence[tuple[str, Callable]],
                 func: Function, result: "PipelineResult",
                 logs: Sequence[list] = ()) -> None:
        """Run ``(name, pass_fn)`` pairs over ``func`` under the guard.

        The passes before ``policy.oracle_before`` run as one optimistic
        segment: one entry snapshot, no per-pass clone or verify, one
        verify at the end.  If a pass raises, the end verify fails, or
        the next snapshot cannot be cloned, the segment replays pass by
        pass from its entry snapshot, which rolls back exactly the
        failing pass.  The remaining passes run one at a time.  ``logs``
        are lists the passes append remarks to; a replay truncates them
        along with the failed attempt's timings."""
        passes = list(passes)
        names = [name for name, _ in passes]
        cut = (names.index(self.policy.oracle_before)
               if self.policy.oracle_before in names else len(passes))
        if cut > 1:
            self._run_segment(_Segment(passes[:cut], result, logs), func)
            passes = passes[cut:]
        self._run_each(passes, func, result)

    def _run_segment(self, segment: _Segment, func: Function) -> None:
        snapshot = (None if self._exhausted
                    else self._snapshot(segment.passes[0][0], func))
        if snapshot is None:
            # the guard gave up: record every pass as skipped
            self._run_each(segment.passes, func, segment.result)
            return
        from ..opt.passmanager import PassTiming

        try:
            for name, pass_fn in segment.passes:
                start = time.perf_counter()
                changed = self._call(name, pass_fn, func)
                segment.result.timings.append(
                    PassTiming(name, time.perf_counter() - start, changed)
                )
            self._verify(func)
        except Exception:  # guard boundary: contain everything
            self._replay(segment, snapshot, func)
            return
        self._commit(snapshot, segment.passes[-1][0], segment)

    def _replay(self, segment: _Segment, entry: FunctionSnapshot,
                func: Function) -> None:
        """Restore ``segment``'s entry state and rerun it pass by pass."""
        _metrics.add("guard.replays")
        segment.rewind()
        self._restore(entry, func)
        if self._last_good is entry:
            self._last_good = None
            self._last_segment = None
        self._run_each(segment.passes, func, segment.result)

    def _run_each(self, passes: Sequence[tuple[str, Callable]],
                  func: Function, result: "PipelineResult") -> None:
        """Snapshot, run and verify each pass; roll back a failing one."""
        for name, pass_fn in passes:
            snapshot = None if self._exhausted else self._snapshot(name,
                                                                   func)
            if snapshot is None:
                self.rolled_back.append(name)
                continue
            self._run_one(name, pass_fn, func, result, snapshot)

    def _run_one(self, name: str, pass_fn: Callable, func: Function,
                 result: "PipelineResult",
                 snapshot: FunctionSnapshot) -> None:
        from ..opt.passmanager import PassTiming

        policy = self.policy
        start = time.perf_counter()
        changed = False
        error: Optional[Exception] = None
        try:
            changed = self._call(name, pass_fn, func)
            self._verify(func)
        except Exception as exc:  # guard boundary: contain everything
            error = exc
        elapsed = time.perf_counter() - start

        if error is None:
            self._commit(snapshot, name)
            result.timings.append(PassTiming(name, elapsed, changed))
            return

        self._restore(snapshot, func)
        self.rolled_back.append(name)
        result.timings.append(PassTiming(name, elapsed, False))
        is_verify = isinstance(error, VerificationError)
        self.diagnostics.emit(
            Severity.ERROR if policy.strict else Severity.WARNING,
            "rollback",
            f"{'invalid IR after' if is_verify else 'exception in'} pass: "
            f"{error}",
            function=func.name, pass_name=name,
            phase="verify" if is_verify else "transform",
            remediation=(
                "function restored to its pre-pass state; rerun with "
                "--strict to fail fast, or file the pass bug"
            ),
        )
        if policy.strict:
            error_cls = InvalidIRError if is_verify else PassCrashError
            raise error_cls(str(error), function=func.name,
                            pass_name=name) from error

    @staticmethod
    def _call(name: str, pass_fn: Callable, func: Function) -> bool:
        # One span per pass ("opt.<name>"); a no-op flag check when
        # tracing is disabled.
        with span(f"opt.{name}", function=func.name):
            return bool(pass_fn(func))

    @staticmethod
    def _verify(func: Function) -> None:
        _metrics.add("guard.verifies")
        verify_function(func)

    # ---- snapshots ---------------------------------------------------

    def _take(self, name: str, func: Function) -> FunctionSnapshot:
        """Clone ``func`` before pass ``name``.  The first snapshot is
        the entry state; the one before ``oracle_before`` (or, for an
        "input" reference, the entry) doubles as the oracle's
        reference."""
        snapshot = FunctionSnapshot(func)
        _metrics.add("guard.snapshots")
        if self._entry is None:
            self._entry = snapshot
        policy = self.policy
        if policy.oracle is not None:
            if policy.oracle_reference == "input":
                if self._reference is None:
                    self._reference = snapshot
            elif name == policy.oracle_before:
                self._reference = snapshot
        return snapshot

    def _snapshot(self, name: str,
                  func: Function) -> Optional[FunctionSnapshot]:
        """The snapshot before pass ``name``, recovering first when the
        current IR cannot be cloned; None once the guard gave up and
        restored the entry state."""
        try:
            return self._take(name, func)
        except Exception as exc:
            # The current IR is so corrupt it cannot even be cloned —
            # a previous pass damaged it in a way the verifier missed
            # (e.g. a clobbered type that trips constructor checks).
            error = exc
        if self._last_segment is not None:
            self._replay(self._last_segment, self._last_good, func)
            if self._exhausted:
                return None
            try:
                return self._take(name, func)
            except Exception as exc:
                error = exc
        return self._recover_corrupt_state(name, func, error)

    def _commit(self, snapshot: FunctionSnapshot, name: str,
                segment: Optional[_Segment] = None) -> None:
        if self._last_good is not None:
            self._release(self._last_good)
        self._last_good = snapshot
        self._last_pass_name = name
        self._last_segment = segment

    def _release(self, snapshot: FunctionSnapshot) -> None:
        if snapshot is not self._entry and snapshot is not self._reference:
            snapshot.discard()

    def _restore(self, snapshot: FunctionSnapshot, func: Function) -> None:
        """Restore ``snapshot``; re-clone it when it is also the entry
        or the oracle's reference, which must outlive the restore."""
        shared = snapshot is self._entry or snapshot is self._reference
        snapshot.restore()
        if not shared:
            return
        try:
            fresh: Optional[FunctionSnapshot] = FunctionSnapshot(func)
            _metrics.add("guard.snapshots")
        except Exception:
            fresh = None
        if snapshot is self._entry:
            self._entry = fresh
        if snapshot is self._reference:
            self._reference = fresh

    def _recover_corrupt_state(self, name: str, func: Function,
                               exc: Exception
                               ) -> Optional[FunctionSnapshot]:
        """Roll back to the last known-good state when the current IR
        cannot be snapshotted, then retry the snapshot for ``name``;
        fall back to the entry state when that fails too."""
        culprit = self._last_pass_name or name
        if self._last_good is not None and self._last_good.live:
            self._restore(self._last_good, func)
            self._last_good = None
            self.rolled_back.append(culprit)
            self.diagnostics.emit(
                Severity.ERROR if self.policy.strict else Severity.WARNING,
                "rollback",
                f"IR too corrupt to snapshot before pass {name!r} ({exc}); "
                f"restored the state before pass {culprit!r}",
                function=func.name, pass_name=culprit, phase="verify",
                remediation=(
                    "an earlier pass produced IR the verifier does not "
                    "reject; file the pass bug"
                ),
            )
            if self.policy.strict:
                raise InvalidIRError(str(exc), function=func.name,
                                     pass_name=culprit) from exc
            try:
                return self._take(name, func)
            except Exception as retry:
                exc = retry
        elif self._entry is None or self.policy.strict:
            # No recovery point: the *input* function is broken, which
            # is a caller error, not a contained pass failure.
            raise InvalidIRError(
                f"function cannot be snapshotted: {exc}",
                function=func.name, pass_name=culprit,
            ) from exc
        self._fall_back_to_entry(name, func, exc)
        return None

    def _fall_back_to_entry(self, name: str, func: Function,
                            exc: Exception) -> None:
        """Give up on this function: restore the entry state (when the
        entry snapshot is still live; otherwise keep the verified state
        just restored) and skip every remaining pass."""
        restored = self._entry is not None and self._entry.live
        if restored:
            self._entry.restore()
        if self._reference is not None:
            # Nothing left for the oracle to check.
            self._reference.discard()
            self._reference = None
        self._exhausted = True
        kept = ("restored the input function" if restored
                else "kept the last verified state")
        self.diagnostics.emit(
            Severity.WARNING,
            "rollback",
            f"IR still too corrupt to snapshot before pass {name!r} "
            f"({exc}); {kept} and skipped the remaining passes",
            function=func.name, pass_name=name, phase="verify",
            remediation=(
                "an earlier pass produced IR the verifier does not "
                "reject; file the pass bug"
            ),
        )

    def finish(self) -> None:
        """Release retained snapshots once compilation (and the oracle)
        are done, unhooking their clones from shared use lists."""
        for snapshot in (self._last_good, self._entry, self._reference):
            if snapshot is not None:
                snapshot.discard()
        self._last_good = self._entry = self._reference = None
        self._last_segment = None

    # ------------------------------------------------------------------

    def run_oracle(self, func: Function) -> bool:
        """Execute the differential oracle against the reference
        snapshot.  On mismatch, roll ``func`` back to the reference and
        record a miscompile diagnostic.  Returns True when a rollback
        happened (strict mode raises instead)."""
        oracle = self.policy.oracle
        if oracle is None or self._reference is None:
            return False
        if not self._reference.live:
            return False
        detail = oracle.check(self._reference.reference(), func)
        if detail is None:
            self._reference.discard()
            return False
        self.rolled_back.append("oracle")
        self.diagnostics.emit(
            Severity.ERROR if self.policy.strict else Severity.WARNING,
            "miscompile",
            f"scalar/vectorized outputs diverge ({detail}); "
            f"rolled back to the scalar "
            f"{'input' if self.policy.oracle_reference == 'input' else 'baseline'}",
            function=func.name, pass_name=self.policy.oracle_before,
            phase="oracle",
            remediation=(
                "the transformed function was discarded; inspect the "
                "rejected IR with --remarks and file the vectorizer bug"
            ),
        )
        # Swap the reference back in: callers keep scalar semantics.
        self._reference.restore()
        if self.policy.strict:
            raise MiscompileError(detail, function=func.name,
                                  pass_name=self.policy.oracle_before)
        return True


__all__ = [
    "DifferentialOracle",
    "FunctionSnapshot",
    "GuardPolicy",
    "PassGuard",
]
