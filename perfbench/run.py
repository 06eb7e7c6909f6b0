"""The repo's benchmark: one workload per process, every answer checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` for the programs and why):

* ``cold``    -- fresh world -> first verified answer, per op;
* ``restart`` -- the cold ops over a code cache set-up filled;
* ``steady``  -- parsed do-its re-run on warmed runtimes;
* ``serve``   -- open-loop Poisson arrivals into ``repro.serve.Service``.

``--trace 0`` measures the workload's op list once, sets the workload
up several times, half before the measured pass and half after
(``setup_s`` is the median), and prints the end-to-end metrics, after a
report of each op kind's fastest and median time.
``--trace 1`` measures the same op list untraced and then traced (an
``obs.trace.Tracer`` passed through ``Runtime(tracer=...)``) and
prints the per-layer split of the traced pass, the per-program times
of the untraced one, and the tracing overhead between them.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
Any wrong answer sets ``correct`` to false and the exit code to 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from workloads import LATENCY_LIMIT_MS, PROGRAMS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"



def metric_units(kind: str) -> dict:
    """``{name: unit}`` of BENCHMARK.json's ``end_to_end`` or
    ``per_layer`` metrics: the one list of what a run prints."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def host_probe_ms() -> float:
    """A fixed pure-Python loop, median of three, in ms.  Recorded at
    the start and end of a run to show host-speed drift; never used to
    rescale a metric."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append((time.perf_counter() - started) * 1000)
    return statistics.median(times)


def percentile(values, q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_kind(result, statistic) -> dict:
    """``statistic`` of the correct ops' times, per op kind (a program,
    or a serve request kind)."""
    by_kind: dict = {}
    for kind, ms, status in result.ops:
        if status == "ok":
            by_kind.setdefault(kind, []).append(ms)
    return {kind: statistic(v) for kind, v in sorted(by_kind.items())}


def fastest(result) -> dict:
    """Each op kind's time: its fastest correct op.

    cold, restart and steady repeat each program's op with identical
    work (a fresh world, or a warmed runtime re-running the same do-it);
    a serve request kind repeats one source, and its fastest request is
    the one that met an idle service, so its time is parse + compile +
    run.  Any time above the fastest is queueing or host noise, and on
    a shared 2-core VM the host noise is large: fast and slow phases,
    1.6x apart and more, alternate every few seconds to minutes.  A
    median flips with the phase most ops fell in; the minimum needs one
    op in a fast phase.  In one set of ten cold runs the geomean of
    per-program medians spread 23% (quartiles over median), that of
    minima 8%; when whole runs fell in slow phases both spread past 30%.
    """
    return per_kind(result, min)


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def in_time(result, limit_ms: float) -> int:
    """Correct answers within the latency limit."""
    return sum(1 for _, ms, status in result.ops
               if status == "ok" and ms <= limit_ms)


def wall_geomean(result) -> float:
    """Geometric mean over op kinds (programs, or serve request kinds)
    of :func:`fastest`: the run's headline wall-clock number."""
    return geomean(fastest(result).values())


def end_to_end(result, setup_s: float, limit_ms: float) -> dict:
    """The end-to-end metrics of one untraced pass.

    ``ok_share`` counts correct answers within the workload's latency
    limit over ops attempted.  ``modeled_kcycles`` is the modeled run
    time per op (the repo's stand-in for the paper's measured speed,
    Table T1): deterministic, like ``code_kb``.  Op times are not end-to-end metrics:
    they repeat only as well as the host does, and on the shared 2-core
    VM this benchmark was built on a fixed pure-Python loop swung from
    16 ms to 86 ms within minutes.  Across sets of ten runs of one build
    the cold ``wall.geomean_ms`` spread 13-54% (quartiles over median),
    with medians or minima alike -- past 0.25, the largest regression
    bound a BENCHMARK.json metric may carry.  They are printed on every
    run and are per-layer rows.
    """
    return {
        "setup_s": setup_s,
        "ok_share": (
            in_time(result, limit_ms) / len(result.ops) if result.ops else 0.0
        ),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "code_kb": result.code_bytes / 1024,
        "modeled_kcycles": (
            result.cycles / len(result.ops) / 1000 if result.ops else 0.0
        ),
    }


def verdict(ops) -> tuple:
    """``(correct, attempted, failed)`` of a Result's ops: correct means
    no wrong answer; failed counts wrong answers and requests the
    service refused."""
    statuses = [status for _, _, status in ops]
    failed = sum(1 for status in statuses if status != "ok")
    return "wrong" not in statuses, len(statuses), failed


def serve_rows(result, limit_ms: float) -> dict:
    """The serve layer's rows.  Latencies cover every request; a refused
    one (shed, past deadline, quarantined) counts as missing the latency
    limit, at its time to failure or the limit, whichever is later, so
    shedding more cannot make the percentiles look better."""
    requests = len(result.late_ms)
    latencies = [ms if status != "failed" else max(ms, limit_ms)
                 for _, ms, status in result.ops]
    return {
        "serve.latency_ms_p50": percentile(latencies, 50),
        "serve.latency_ms_p99": percentile(latencies, 99),
        "serve.queue_wait_ms_p50": percentile(result.queue_wait_ms, 50),
        "serve.queue_wait_ms_p99": percentile(result.queue_wait_ms, 99),
        "serve.service_ms_p50": percentile(result.service_ms, 50),
        "serve.service_ms_p99": percentile(result.service_ms, 99),
        "serve.shed_share": result.shed / requests if requests else 0.0,
        "serve.overload_entered": result.overload_entered,
        "serve.tenants": result.tenants,
        "serve.late_ms_p99": percentile(result.late_ms, 99),
        "serve.goodput_rps": (
            in_time(result, limit_ms) / result.wall_s if result.wall_s else 0.0
        ),
    }


def _scrub_environment() -> None:
    """Every REPRO_* knob at its default: ambient settings must not
    change what the benchmark measures."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        scratch: str) -> tuple:
    """Returns ``(correct, attempted, failed, metrics, report_lines)``."""
    from layers import Tally, layer_metrics
    from repro.obs.trace import NULL_TRACER, Tracer
    from runner import make_workload

    workload = make_workload(workload_name, str(SRC), scratch)
    limit_ms = LATENCY_LIMIT_MS[workload_name]
    ops = workload.ops(seed, seconds)
    lines = [f"workload {workload_name} seed {seed} ops {len(ops)}"]
    probe_start = host_probe_ms()

    if not trace:
        # Half the set-ups run before the measured pass and half after,
        # so their median spans the run rather than its first seconds.
        setup_times = []

        def timed_setup():
            gc.collect()
            started = time.perf_counter()
            state = workload.setup(NULL_TRACER)
            setup_times.append(time.perf_counter() - started)
            return state

        before = (workload.setups + 1) // 2
        for _ in range(before - 1):
            workload.close(timed_setup())
        state = timed_setup()
        try:
            result = workload.measure(state, ops)
        finally:
            workload.close(state)
            state = None
        for _ in range(workload.setups - before):
            workload.close(timed_setup())
        values = end_to_end(result, statistics.median(setup_times), limit_ms)
        units = metric_units("end_to_end")
        checked = result.ops
    else:
        state = workload.setup(NULL_TRACER)
        try:
            result = workload.measure(state, ops)
        finally:
            workload.close(state)
            state = None
        times = fastest(result)
        untraced_geomean = wall_geomean(result)
        gc.collect()
        tracer = Tracer()
        tally = Tally()
        traced_state = workload.setup(tracer)
        try:
            mark = len(tracer.roots)
            traced = workload.measure(traced_state, ops, tracer, tally)
        finally:
            workload.close(traced_state)
        tally.add_spans(tracer.roots[mark:])
        values = layer_metrics(
            tally, len(ops), traced if workload_name == "serve" else None
        )
        units = metric_units("per_layer")
        # Wall-clock rows come from the untraced pass.
        values.update(
            serve_rows(result, limit_ms) if workload_name == "serve" else
            {name: 0.0 for name in units if name.startswith("serve.")}
        )
        for name in PROGRAMS:
            values[f"program.{name}_ms"] = times.get(name, 0.0)
        values["wall.geomean_ms"] = untraced_geomean
        values["trace.geomean_ms"] = wall_geomean(traced)
        values["trace.overhead_pct"] = (
            (values["trace.geomean_ms"] / untraced_geomean - 1) * 100
            if untraced_geomean else 0.0
        )
        # Correctness covers both passes.
        checked = result.ops + traced.ops
        result.mismatches.extend(traced.mismatches)

    probe_end = host_probe_ms()
    if trace:
        values["host.probe_start_ms"] = probe_start
        values["host.probe_end_ms"] = probe_end
    lines.append(f"host probe {probe_start:.2f} ms -> {probe_end:.2f} ms")
    lines.append(f"wall.geomean_ms {wall_geomean(result):.3f}")
    medians = per_kind(result, statistics.median)
    for kind, best in fastest(result).items():
        lines.append(f"  {kind:12} fastest {best:10.3f} ms"
                     f"  median {medians[kind]:10.3f} ms")
    lines.extend(f"  MISMATCH {m}" for m in result.mismatches)

    correct, attempted, failed = verdict(checked)
    metrics = {
        name: {"value": values[name], "unit": units[name]} for name in units
    }
    return correct, attempted, failed, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    _scrub_environment()

    scratch_root = ROOT / ".perfbench_tmp"
    scratch = str(scratch_root / f"run-{os.getpid()}")
    try:
        correct, attempted, failed, metrics, lines = run(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
