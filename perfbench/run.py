"""Repository benchmark: seeded closed-loop workloads over the LSLP stack.

Run from the repository root::

    python3 perfbench/run.py --workload catalog-cold --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
set-up time, then whole rounds of the workload's distinct requests in
seeded order, each round followed by steady execution sweeps over the
workload's outputs (80% and 20% of ``--seconds``).  Throughput and
execution rate are taken over the whole run; the latency percentiles
are taken over the distinct requests, each at its median over the run.
Every timing metric, set-up included, is scaled to a reference machine
speed measured by a fixed calibration loop between blocks of work (see
:class:`Gauge`), so that neighbours slowing a shared machine do not
move it.

``--trace 1`` measures untraced throughput for half of ``--seconds``,
then a fixed amount of work (whole rounds of the workload's distinct
requests and execution sweeps) with every layer entry point wrapped
(:mod:`perfbench.layers`) and the program's metric counters published;
it reports the per-layer metrics and writes the spans to
``.perfbench-out/``.

Every output is checked against the unoptimized reference
(:mod:`perfbench.check`) outside the timed region.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: share of ``--seconds`` the untraced run spends on requests; the rest
#: goes to the execution sweeps
REQUEST_SHARE = 0.8
#: fresh processes whose set-up time joins the run's own (median of all)
SETUP_CHILDREN = 4
#: the tail percentile over the distinct requests
TAIL_PERCENTILE = 90
#: rounds a run makes at least, so each distinct request's median
#: latency rests on three samples or more
MIN_ROUNDS = 3
#: measured seconds of one kind between two calibrations
BLOCK_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_ms_p50": "ms",
    f"latency_ms_p{TAIL_PERCENTILE}": "ms",
    "exec_runs_per_s": "1/s",
    "bitexact_frac": "frac",
    "sim_cycles_ratio": "ratio",
    "static_savings": "cost",
    "code_insts": "count",
    "peak_rss_mb": "MB",
}


#: the calibration loop's time on an undisturbed 2-vCPU Xeon virtual
#: machine; every timing metric is scaled to that speed (see Gauge)
CALIBRATION_REF_S = 2.0e-4


class _Cell:
    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def total(self) -> int:
        return self.a + self.b


def calibration_seconds() -> float:
    """The fastest of five rounds of a fixed pure-Python loop, about
    1 ms in all, whose time tracks how fast the machine runs Python code
    at the moment.  It allocates objects, calls methods and stores into
    a dict, which tracked the program's own speed better than plain
    arithmetic; the collector is off while it runs, so it never scans
    the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(5):
            started = time.perf_counter()
            cells = [_Cell(i, i + 1) for i in range(1000)]
            table = {}
            for cell in cells:
                table[cell.a] = cell.total()
            best = min(best, time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return best


def machine() -> dict:
    """The fingerprint printed with every result."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "machine": platform.machine(),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


def sweep(targets) -> tuple[int, float]:
    """Run every execution target once; each group's memory is restored
    before its runs, off the clock.  Returns (runs, busy seconds)."""
    runs, busy = 0, 0.0
    for restore, group in targets:
        restore()
        for run in group:
            started = time.perf_counter()
            run()
            busy += time.perf_counter() - started
        runs += len(group)
    return runs, busy


class Gauge:
    """Scales measured seconds to the reference machine speed.

    A shared 2-vCPU Xeon virtual machine takes up to 1.7 times as long
    over the same Python code for spells of seconds to minutes while
    neighbours contend for the core; CPU time slows as much as wall
    time, so no clock escapes it, and whole runs land in slow spells.  The gauge groups measured
    seconds of one kind into blocks of at least ``BLOCK_S``, runs the
    calibration loop (off the clock) between blocks and scales each
    block by ``CALIBRATION_REF_S`` over the mean of the calibrations
    taken just before and just after it.  The loop does not run the
    program's code, so a change in the program's own work moves the
    scaled figures as it moves the raw ones.
    """

    def __init__(self):
        self.before = calibration_seconds()
        self.kind = ""
        self.block: list[float] = []
        self.total = 0.0
        self.scaled: dict[str, list[float]] = {}
        self.speeds: list[float] = []

    def add(self, kind: str, seconds: float) -> None:
        if kind != self.kind:
            self.close()
            self.kind = kind
        self.block.append(seconds)
        self.total += seconds
        if self.total >= BLOCK_S:
            self.close()

    def close(self) -> None:
        if not self.block:
            return
        after = calibration_seconds()
        speed = (self.before + after) / 2 / CALIBRATION_REF_S
        self.scaled.setdefault(self.kind, []).extend(
            x / speed for x in self.block)
        self.speeds.append(speed)
        self.before, self.block, self.total = after, [], 0.0


def closed_loop(workload, rng: random.Random, seconds: float = 0.0,
                min_rounds: int = 1, rounds: int = 0,
                exec_share: float = 0.0) -> dict:
    """Whole seeded rounds over the distinct requests, one at a time.

    Runs until ``seconds`` of request time and ``min_rounds`` rounds
    have passed, or exactly ``rounds`` rounds when given.  Each output is
    checked between requests, off the clock.  With ``exec_share``, each
    round is followed by execution sweeps over the workload's outputs
    until they hold that share of the busy time, so both kinds of work
    sample the whole run.  Returns the request latencies and the sweep
    times, both scaled by a :class:`Gauge`.
    """
    loop = {"rounds": 0, "failed": 0, "details": [], "runs": 0,
            "sweeps": 0, "keys": []}
    busy = exec_busy = 0.0
    targets = None
    gauge = Gauge()
    gc.collect()
    while True:
        order = list(workload.distinct())
        rng.shuffle(order)
        for key in order:
            request = workload.prepare(key, rng)
            started = time.perf_counter()
            output = workload.execute(request)
            latency = time.perf_counter() - started
            gauge.add("request", latency)
            loop["keys"].append(key)
            busy += latency
            verdict = workload.verify(request, output)
            if not verdict.ok:
                loop["failed"] += 1
                loop["details"].append(f"{key}: {verdict.detail}")
        loop["rounds"] += 1
        if exec_share:
            targets = targets or workload.exec_targets()
            while exec_busy < busy * exec_share / (1 - exec_share):
                runs, spent = sweep(targets)
                gauge.add("exec", spent)
                exec_busy += spent
                loop["runs"] += runs
                loop["sweeps"] += 1
        if rounds and loop["rounds"] >= rounds:
            break
        if not rounds and busy >= seconds and loop["rounds"] >= min_rounds:
            break
    gauge.close()
    loop["latencies"] = gauge.scaled["request"]
    loop["exec_seconds"] = gauge.scaled.get("exec", [])
    loop["raw_request_s"] = busy
    loop["speed"] = statistics.median(gauge.speeds)
    return loop


def request_rate(loop: dict) -> float:
    return len(loop["latencies"]) / sum(loop["latencies"])


def child_setup_seconds(args) -> float:
    """Set-up time of a fresh process running the same workload."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"set-up child failed: {completed.stderr}")
    return float(completed.stdout.split()[-1])


def tail(latencies: list[float]) -> float:
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return cuts[TAIL_PERCENTILE - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def measure(workload, args, setups: list[float]
            ) -> tuple[dict, int, int]:
    rng = random.Random(f"perfbench:{workload.name}:{args.seed}:requests")
    loop = closed_loop(workload, rng, args.seconds * REQUEST_SHARE,
                       min_rounds=MIN_ROUNDS,
                       exec_share=1 - REQUEST_SHARE)
    latencies = loop["latencies"]
    # Each distinct request's median latency over the run, then the
    # percentiles over the distinct requests: percentiles of the pooled
    # latencies fall between the clusters of two requests and move with
    # the extremes of each.
    by_key: dict = {}
    for key, latency in zip(loop["keys"], latencies):
        by_key.setdefault(key, []).append(latency)
    per_request = [statistics.median(v) for v in by_key.values()]
    values = {
        # Set-up is too short to calibrate on its own; the run's median
        # speed, measured seconds after it, scales it.
        "setup_s": statistics.median(setups) / loop["speed"],
        "requests_per_s": request_rate(loop),
        "latency_ms_p50": statistics.median(per_request) * 1e3,
        f"latency_ms_p{TAIL_PERCENTILE}": tail(per_request) * 1e3,
        "exec_runs_per_s": loop["runs"] / sum(loop["exec_seconds"]),
    }
    values.update(workload.deterministic())
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    print(f"# {workload.name} seed {args.seed}: {len(latencies)} requests "
          f"in {loop['rounds']} rounds ({len(by_key)} distinct, each "
          f">= {min(map(len, by_key.values()))} times), {loop['runs']} "
          f"executions in {loop['sweeps']} sweeps, {workload.rollbacks} "
          f"guard rollbacks; the machine ran at {1 / loop['speed']:.2f} "
          f"of reference speed (unscaled "
          f"{len(latencies) / loop['raw_request_s']:.2f} requests/s)")
    for detail in loop["details"][:5]:
        print(f"# FAILED {detail}")
    metrics = {name: metric(values[name], unit)
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, len(latencies), loop["failed"]


def traced(workload, args) -> tuple[dict, int, int]:
    from repro.obs import metrics as obs_metrics

    from perfbench.layers import (
        LayerTrace,
        MOVES,
        PASS_SPAN,
        PER_LAYER,
        SpanRecorder,
        TIME_METRICS,
    )

    rng = random.Random(f"perfbench:{workload.name}:{args.seed}:requests")
    plain = closed_loop(workload, rng, args.seconds / 2)

    # The traced work is fixed by the seed alone, so two traced runs of
    # one seed see identical counters.
    rng = random.Random(f"perfbench:{workload.name}:{args.seed}:traced")
    recorder = SpanRecorder()
    workload.rollbacks = 0
    registry = obs_metrics.MetricsRegistry()
    previous = obs_metrics.swap_registry(registry)
    obs_metrics.set_publishing(True)
    tracing_workload = _RequestSpans(workload, recorder)
    try:
        with LayerTrace(recorder):
            loop = closed_loop(tracing_workload, rng,
                               rounds=workload.traced_rounds)
            targets = workload.exec_targets()
            recorder.enabled = True
            for _ in range(workload.traced_sweeps):
                sweep(targets)
            recorder.enabled = False
    finally:
        obs_metrics.set_publishing(False)
        obs_metrics.swap_registry(previous)
    counters = registry.snapshot()

    def counter(*names: str) -> int:
        return sum(int(counters.get(name, 0)) for name in names)

    self_times = recorder.self_times()
    values: dict[str, float] = {
        name: sum(self_times.get(span, 0.0) for span in spans)
        for name, spans in TIME_METRICS.items()
    }
    hits = counter("cache.memory_hits", "cache.disk_hits")
    misses = counter("cache.misses")
    candidates = counter("plan.candidates", "plan.module.candidates")
    selected = counter("plan.selected", "plan.module.selected")
    spans = recorder.span_counts()
    values.update({
        "opt.pass_runs": spans.get(PASS_SPAN, 0),
        "robustness.rollbacks": workload.rollbacks,
        "ir.clones": recorder.counts.get("ir.clones", 0),
        "slp.trees_built": counter("slp.trees_built"),
        "slp.lookahead_evals": counter("lookahead.evals"),
        "slp.plan_candidates": candidates,
        "slp.plan_selected": selected,
        "slp.plan_useful_frac": selected / candidates if candidates else 0.0,
        "service.cache_hits": hits,
        "service.cache_misses": misses,
        "service.cache_hit_frac": (hits / (hits + misses)
                                   if hits + misses else 0.0),
        "backend.loads": counter("backend.loads"),
        "backend.fallbacks": counter("backend.fallbacks"),
        "interp.instructions": recorder.counts.get("interp.instructions",
                                                   0),
        "trace.overhead_frac": request_rate(plain) / request_rate(loop) - 1,
    })
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
    recorder.dump(path, extra={"workload": workload.name,
                               "seed": args.seed, "machine": machine(),
                               "counters": counters})
    total = sum(values[name] for name in TIME_METRICS)
    traced_requests = len(loop["latencies"])
    print(f"# {workload.name} seed {args.seed}: traced "
          f"{traced_requests} requests, {len(recorder.spans)} spans "
          f"-> {path.relative_to(ROOT)}")
    for name in TIME_METRICS:
        share = values[name] / total if total else 0.0
        print(f"#   {name:28s} {values[name]:10.4f} s  {share:6.1%}"
              f"   moves {MOVES[name]}")
    metrics = {name: metric(values[name], unit)
               for name, (unit, _) in PER_LAYER.items()}
    for detail in (plain["details"] + loop["details"])[:5]:
        print(f"# FAILED {detail}")
    attempted = len(plain["latencies"]) + traced_requests
    return metrics, attempted, plain["failed"] + loop["failed"]


class _RequestSpans:
    """The workload with each request under a root ``request`` span."""

    def __init__(self, workload, recorder):
        self._workload = workload
        self._recorder = recorder
        self._requests = 0

    def __getattr__(self, name):
        return getattr(self._workload, name)

    def execute(self, request):
        recorder = self._recorder
        recorder.request = self._requests
        recorder.enabled = True
        self._requests += 1
        try:
            return recorder.call("request", self._workload.execute, request)
        finally:
            recorder.enabled = False
            recorder.request = -1


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        setup_s = time.perf_counter() - _STARTED
        if args.setup_only:
            print(repr(setup_s))
            return 0
        print(f"# machine: {json.dumps(machine(), sort_keys=True)}")
        if args.trace:
            metrics, attempted, failed = traced(workload, args)
        else:
            setups = [setup_s] + [child_setup_seconds(args)
                                  for _ in range(SETUP_CHILDREN)]
            metrics, attempted, failed = measure(workload, args, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
