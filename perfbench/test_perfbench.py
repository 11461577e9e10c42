"""Self-tests of the benchmark: output format, tracing, checker, repeats.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import run  # noqa: E402
from perfbench.check import compare, Observed  # noqa: E402
from perfbench.layers import (  # noqa: E402
    LayerTrace,
    MOVES,
    PER_LAYER,
    SpanRecorder,
    TIME_METRICS,
)

DETERMINISTIC = ("bitexact_frac", "sim_cycles_ratio", "static_savings",
                 "code_insts")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_matches_the_metrics_the_benchmark_prints():
    document = spec()
    assert {m["name"]: m["unit"] for m in document["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"])
            for m in document["per_layer"]} == PER_LAYER
    assert set(MOVES) == set(PER_LAYER)
    from perfbench.workloads import WORKLOADS

    assert {w["name"] for w in document["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(trace):
    document = spec()
    expected = {m["name"]: m["unit"] for m in
                document["end_to_end" if trace == "0" else "per_layer"]}
    out = result(bench("--workload", "warm-exec", "--seed", "3",
                       "--seconds", "0.5", "--trace", trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    assert {name: m["unit"] for name, m in out["metrics"].items()} \
        == expected
    for m in out["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))


def test_spans_nest_and_self_times_are_not_negative():
    from repro.kernels.catalog import ALL_KERNELS
    from repro.service import CompilationService, CompileCache
    from repro.service import job_for_kernel
    from repro.service.cache import CompileCache as Original
    from perfbench.workloads import lslp_full

    original_get = Original.get
    recorder = SpanRecorder()
    service = CompilationService(cache=CompileCache(), jobs=1)
    job = job_for_kernel(ALL_KERNELS["453.boy-surface"], lslp_full(),
                         verify_runs=1, backend="auto")
    with LayerTrace(recorder):
        recorder.enabled = True
        recorder.call("request", service.compile_job, job)
        recorder.enabled = False
    assert Original.get is original_get
    names = {span[0] for span in recorder.spans}
    assert {"request", "service.compile_job", "frontend.lower",
            "opt.pass", "robustness.guard", "slp.vectorize",
            "backend.emit", "interp.run"} <= names
    for name, start, end, parent, _, child in recorder.spans:
        assert end >= start
        assert child <= end - start + 1e-9
        if parent >= 0:
            outer = recorder.spans[parent]
            assert outer[1] <= start and end <= outer[2]
    assert all(t >= -1e-9 for t in recorder.self_times().values())
    spanned = {s for spans in TIME_METRICS.values() for s in spans}
    assert names <= spanned


def test_checker_flags_a_flipped_memory_word():
    reference = Observed([None], {"A": [1.5, -0.25, 3.0], "B": [7, 8]})

    def copy(observed):
        return Observed(list(observed.returns),
                        {k: list(v) for k, v in observed.memory.items()})

    same = compare(reference, copy(reference))
    assert same.ok and same.bitexact
    flipped = copy(reference)
    flipped.memory["B"][1] ^= 1
    assert not compare(reference, flipped).ok
    drifted = copy(reference)
    drifted.memory["A"][0] += 1e-12
    verdict = compare(reference, drifted)
    assert verdict.ok and not verdict.bitexact
    zero = Observed([0.0], {})
    verdict = compare(zero, Observed([-0.0], {}))
    assert verdict.ok and not verdict.bitexact


def test_checker_flags_a_corrupted_compiled_output(tmp_path):
    from perfbench.workloads import CatalogCold

    workload = CatalogCold(5, tmp_path)
    workload.setup()
    request = workload.prepare(("453.hreciprocal", "LSLP"),
                               random.Random(0))
    output = workload.execute(request)
    assert workload.verify(request, output).ok
    observed = workload.checker.observe(output.module, "453.hreciprocal",
                                        request.index)
    assert workload.checker.check("453.hreciprocal", request.index,
                                  observed).ok
    name = sorted(observed.memory)[0]
    observed.memory[name][12] = observed.memory[name][12] * 2 + 1
    assert not workload.checker.check("453.hreciprocal", request.index,
                                      observed).ok


def test_two_runs_of_one_seed_agree_on_counters_and_determinism():
    traced = [result(bench("--workload", "catalog-cold", "--seed", "2",
                           "--seconds", "0", "--trace", "1"))
              for _ in range(2)]
    counts = [{name: m["value"] for name, m in out["metrics"].items()
               if m["unit"] == "count"} for out in traced]
    assert counts[0] == counts[1]
    assert counts[0]["slp.trees_built"] > 0
    plain = [result(bench("--workload", "warm-exec", "--seed", "2",
                          "--seconds", "0.5", "--trace", "0"))
             for _ in range(2)]
    for name in DETERMINISTIC:
        assert (plain[0]["metrics"][name]["value"]
                == plain[1]["metrics"][name]["value"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("--workload", "catalog-cold", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


def test_gauge_scales_each_block_to_the_reference_speed(monkeypatch):
    speeds = iter([2.0, 2.0, 4.0, 1.0])
    monkeypatch.setattr(run, "calibration_seconds",
                        lambda: next(speeds) * run.CALIBRATION_REF_S)
    gauge = run.Gauge()
    gauge.add("request", 0.04)
    gauge.add("request", 0.08)     # closes: calibrations 2 and 2
    gauge.add("exec", 0.03)
    gauge.add("request", 0.01)     # kind change closes: 2 and 4
    gauge.close()                  # 4 and 1
    assert gauge.scaled["request"] == pytest.approx([0.02, 0.04, 0.004])
    assert gauge.scaled["exec"] == pytest.approx([0.01])
