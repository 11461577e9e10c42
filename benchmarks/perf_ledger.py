"""Perf ledger: one committed record per repository-benchmark workload.

Runs ``perfbench/run.py`` for each workload at seed 7 for 20 s, once with
tracing off (the end-to-end metrics) and once with tracing on (the
per-layer self times and work counters), and writes
``BENCH_<workload>.json`` at the repository root.  Each file carries the
machine fingerprint perfbench prints, so a later change can compare its
own run against the committed one and see which layer moved::

    python3 benchmarks/perf_ledger.py

It takes no options: every run writes the same comparable record.

Timings from different machines, or from one machine under different
load, are not comparable; the work counters (``ir.clones``,
``opt.pass_runs``, ``interp.instructions``, ``ir.index_rebuilds``...)
depend on the seed alone and are.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNNER = ROOT / "perfbench" / "run.py"
WORKLOADS = ("catalog-cold", "suite-cold", "warm-exec")
SEED = 7
SECONDS = 20.0

#: what a reader of the ledger must know before comparing two entries
NOTES = {
    "setup_s": "spreads wider than its 0.25 bound between runs of "
               "identical set-up code on a loaded machine; compare it "
               "only across several alternating runs",
}


def run(workload: str, trace: int) -> dict:
    """One perfbench run: its result line and its machine fingerprint."""
    completed = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    prefix = "# machine: "
    for line in lines:
        if line.startswith(prefix):
            result["machine"] = json.loads(line[len(prefix):])
    return result


def ledger_entry(workload: str) -> dict:
    plain = run(workload, trace=0)
    traced = run(workload, trace=1)
    spans = ROOT / ".perfbench-out" / f"spans-{workload}-seed{SEED}.json"
    counters = json.loads(spans.read_text())["counters"]
    return {
        "workload": workload,
        "seed": SEED,
        "seconds": SECONDS,
        "machine": plain["machine"],
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "end_to_end": plain["metrics"],
        "per_layer": traced["metrics"],
        "counters": {name: value for name, value in sorted(counters.items())
                     if isinstance(value, int)},
        "notes": NOTES,
    }


def main() -> int:
    for workload in WORKLOADS:
        entry = ledger_entry(workload)
        path = ROOT / f"BENCH_{workload}.json"
        path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
        print(f"{path.name}: correct={entry['correct']} "
              f"attempted={entry['attempted']} failed={entry['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
