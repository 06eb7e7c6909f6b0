"""Execution (raw wall-clock) throughput benchmark → ``BENCH_exec.json``.

Measures what the translation tier buys in *real seconds* — the one
number the modeled cost accounting deliberately does not capture.  For
each workload the same parsed do-it runs twice through identical
runtimes differing only in ``translate_threshold``:

* **baseline** — threshold 0: every body runs on the predecoded
  threaded-dispatch stream;
* **translated** — threshold 1 (configurable): every body is promoted
  to its specialized host function on first activation.

Methodology notes (they matter):

* modeled counters are compiled out (``REPRO_MODELED_COUNTERS=0``) for
  both sides — this benchmark is about raw speed, and the accounting
  instructions would dominate the translated bodies;
* the do-it is parsed **once** and re-run via ``run_doit``: the method
  cache keys on the node identity, so warm repeats measure steady-state
  execution, not re-parsing + re-compiling + re-translating;
* a few warm-up runs precede timing (IC warm-up, promotion), then the
  best of N timed repeats is taken on both sides.

Usage::

    python -m repro.bench.exec_bench --json BENCH_exec.json
    python -m repro.bench.exec_bench --workloads sumTo,towers \
        --assert-speedup 2.0                                   # CI gate
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Optional

#: schema identifier written into BENCH_exec.json (bump on shape change)
EXEC_SCHEMA = "repro-bench-exec/1"

#: registry key of the measured system (never the display label)
EXEC_CONFIG = "newself"

#: default workload set: the t1 send-heavy group plus the two
#: loop-heavy "small" programs for the upper bound
DEFAULT_WORKLOADS = (
    "sumTo", "sieve", "towers", "queens-oo", "tree-oo", "richards",
)

#: the hostile-polymorphism matrix: same translated runtime, dispatch
#: ladder (REPRO_PIC) off vs on
POLY_WORKLOADS = (
    "poly1", "poly2", "poly4", "poly8", "poly32", "poly128",
    "poly32-skew", "poly128-skew",
)

#: poly cells whose every send is megamorphic — the cells the
#: dispatch table exists for (CI gates their pic speedup).  The skewed
#: N >= 32 cells are reported but not gated: seven of eight of their
#: sends hit the monomorphic entry in *both* configurations, so the
#: ladder's win there is structurally bounded by the megamorphic tail
#: (~1.5-3x), not a regression signal.
POLY_MEGAMORPHIC = ("poly32", "poly128")


def _timed_run(runtime, doit, warmups: int, best_of: int) -> float:
    import gc

    for _ in range(warmups):
        runtime.run_doit(doit)
    best = None
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(best_of):
            start = time.perf_counter()
            runtime.run_doit(doit)
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
    finally:
        if was_enabled:
            gc.enable()
    return best


def measure_workload(
    name: str,
    threshold: int = 1,
    warmups: int = 2,
    best_of: int = 3,
) -> dict:
    """Baseline-vs-translated steady-state seconds for one benchmark."""
    from ..lang.parser import parse_doit
    from ..vm.runtime import Runtime
    from ..world.bootstrap import World
    from .base import SYSTEMS, get_benchmark

    benchmark = get_benchmark(name)
    config = SYSTEMS[EXEC_CONFIG]
    row = {"name": name, "group": benchmark.group}
    seconds = {}
    stats = None
    for label, tier_threshold in (("baseline", 0), ("translated", threshold)):
        world = World()
        world.add_slots(benchmark.setup_source)
        runtime = Runtime(world, config)
        runtime.translate_threshold = tier_threshold
        doit = parse_doit(benchmark.run_source)
        answer = runtime.run_doit(doit)
        if benchmark.expected is not None and answer != benchmark.expected:
            raise AssertionError(
                f"{name} under {label} returned {answer!r}, "
                f"expected {benchmark.expected!r}"
            )
        seconds[label] = _timed_run(
            runtime, doit, max(warmups, tier_threshold), best_of
        )
        if label == "translated":
            stats = runtime.translate_stats
    row["baseline_seconds"] = seconds["baseline"]
    row["translated_seconds"] = seconds["translated"]
    row["speedup"] = (
        seconds["baseline"] / seconds["translated"]
        if seconds["translated"] > 0
        else 0.0
    )
    row["translated_bodies"] = stats["translated"]
    row["factories_reused"] = stats["reused"]
    row["emit_seconds"] = stats["emit_seconds"]
    row["emit_failed"] = stats["emit_failed"]
    return row


def measure_poly_workload(
    name: str,
    threshold: int = 1,
    warmups: int = 2,
    best_of: int = 5,
) -> dict:
    """PIC-ladder-off vs PIC-ladder-on steady-state seconds for one
    poly benchmark.

    Both cells run the *translated* tier (the fastest rung either way);
    the only difference is ``REPRO_PIC`` — off relinks the monomorphic
    IC on every receiver change, on probes the bounded PIC and then the
    shared megamorphic table.
    """
    from ..lang.parser import parse_doit
    from ..vm.runtime import Runtime
    from ..world.bootstrap import World
    from .base import SYSTEMS, get_benchmark
    from .programs.poly import PASSES, PROBES_PER_SLOT, VECTOR_SIZE

    benchmark = get_benchmark(name)
    config = SYSTEMS[EXEC_CONFIG]
    # Dispatch-ladder sends per run: the discarded probe sends, plus
    # probeTwice and its two inner probe sends, per slot per pass.
    ladder_sends = PASSES * VECTOR_SIZE * (PROBES_PER_SLOT + 3)
    row = {"name": name, "group": benchmark.group, "sends": ladder_sends}
    previous_pic = os.environ.get("REPRO_PIC")
    seconds = {}
    try:
        for label, pic in (("pic_off", "0"), ("pic_on", "1")):
            os.environ["REPRO_PIC"] = pic
            world = World()
            world.add_slots(benchmark.setup_source)
            runtime = Runtime(world, config)
            runtime.translate_threshold = threshold
            doit = parse_doit(benchmark.run_source)
            answer = runtime.run_doit(doit)
            if answer != benchmark.expected:
                raise AssertionError(
                    f"{name} under {label} returned {answer!r}, "
                    f"expected {benchmark.expected!r}"
                )
            seconds[label] = _timed_run(
                runtime, doit, max(warmups, threshold), best_of
            )
            if label == "pic_on":
                row["mega_transitions"] = runtime.mega_transitions
                row["mega_table_hits"] = runtime.mega_table_hits
                row["split_refused_megamorphic"] = (
                    runtime.aggregate_compile_stats().get(
                        "split_refused_megamorphic", 0
                    )
                )
    finally:
        if previous_pic is None:
            os.environ.pop("REPRO_PIC", None)
        else:
            os.environ["REPRO_PIC"] = previous_pic
    row["pic_off_seconds"] = seconds["pic_off"]
    row["pic_on_seconds"] = seconds["pic_on"]
    row["pic_speedup"] = (
        seconds["pic_off"] / seconds["pic_on"]
        if seconds["pic_on"] > 0
        else 0.0
    )
    row["per_send_ns_on"] = seconds["pic_on"] / ladder_sends * 1e9
    row["per_send_ns_off"] = seconds["pic_off"] / ladder_sends * 1e9
    return row


def run_poly(
    workloads=POLY_WORKLOADS,
    threshold: int = 1,
    warmups: int = 2,
    best_of: int = 5,
) -> dict:
    """The poly matrix: per-cell pic on/off seconds plus the summary
    numbers the acceptance gates read."""
    previous = os.environ.get("REPRO_MODELED_COUNTERS")
    os.environ["REPRO_MODELED_COUNTERS"] = "0"
    try:
        rows = [
            measure_poly_workload(name, threshold, warmups, best_of)
            for name in workloads
        ]
    finally:
        if previous is None:
            os.environ.pop("REPRO_MODELED_COUNTERS", None)
        else:
            os.environ["REPRO_MODELED_COUNTERS"] = previous
    by_name = {row["name"]: row for row in rows}
    mega_rows = [by_name[n] for n in POLY_MEGAMORPHIC if n in by_name]
    summary = {
        "megamorphic_min_pic_speedup": (
            min(r["pic_speedup"] for r in mega_rows) if mega_rows else 0.0
        ),
    }
    # Per-send flatness across the megamorphic range: the table makes
    # dispatch O(1) in N, so N=8 -> N=128 should cost the same per send.
    if "poly8" in by_name and "poly128" in by_name:
        base = by_name["poly8"]["per_send_ns_on"]
        summary["per_send_ratio_8_to_128"] = (
            by_name["poly128"]["per_send_ns_on"] / base if base > 0 else 0.0
        )
    return {"workloads": rows, **summary}


def run_benchmark(
    workloads=DEFAULT_WORKLOADS,
    threshold: int = 1,
    warmups: int = 2,
    best_of: int = 3,
    poly_workloads=POLY_WORKLOADS,
) -> dict:
    """Every workload's measurement plus the geometric-mean speedup."""
    previous = os.environ.get("REPRO_MODELED_COUNTERS")
    os.environ["REPRO_MODELED_COUNTERS"] = "0"
    try:
        rows = [
            measure_workload(name, threshold, warmups, best_of)
            for name in workloads
        ]
    finally:
        if previous is None:
            os.environ.pop("REPRO_MODELED_COUNTERS", None)
        else:
            os.environ["REPRO_MODELED_COUNTERS"] = previous
    speedups = [row["speedup"] for row in rows if row["speedup"] > 0]
    geomean = (
        math.exp(sum(math.log(s) for s in speedups) / len(speedups))
        if speedups
        else 0.0
    )
    payload = {
        "schema": EXEC_SCHEMA,
        "config": EXEC_CONFIG,
        "modeled_counters": False,
        "translate_threshold": threshold,
        "warmups": warmups,
        "best_of": best_of,
        "workloads": rows,
        "geomean_speedup": geomean,
    }
    if poly_workloads:
        payload["poly"] = run_poly(poly_workloads, threshold, warmups, best_of)
    return payload


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.exec_bench",
        description=(
            "Measure raw wall-clock speedup of the translation tier "
            "over the predecoded threaded-dispatch stream."
        ),
    )
    parser.add_argument(
        "--json",
        default="BENCH_exec.json",
        help="output path (default: BENCH_exec.json; '' to disable)",
    )
    parser.add_argument(
        "--workloads",
        default=",".join(DEFAULT_WORKLOADS),
        help="comma-separated benchmark names",
    )
    parser.add_argument(
        "--threshold", type=int, default=1,
        help="translate threshold for the translated side (default 1)",
    )
    parser.add_argument(
        "--warmups", type=int, default=2, help="unmeasured warm-up runs"
    )
    parser.add_argument(
        "--best-of", type=int, default=3, help="timed repeats (best kept)"
    )
    parser.add_argument(
        "--assert-speedup", type=float, default=None,
        help="exit 1 unless the geomean speedup reaches this factor",
    )
    parser.add_argument(
        "--poly-workloads",
        default=",".join(POLY_WORKLOADS),
        help=(
            "comma-separated poly benchmarks for the dispatch-ladder "
            "(REPRO_PIC on/off) matrix; '' to skip"
        ),
    )
    parser.add_argument(
        "--assert-pic-speedup", type=float, default=None,
        help=(
            "exit 1 unless every megamorphic poly cell's pic-on/pic-off "
            "speedup reaches this factor"
        ),
    )
    parser.add_argument(
        "--history",
        default="BENCH_history.jsonl",
        help="append-only perf trajectory "
        "(default: BENCH_history.jsonl; '' to disable)",
    )
    args = parser.parse_args(argv)

    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    poly_workloads = [
        w.strip() for w in args.poly_workloads.split(",") if w.strip()
    ]
    payload = run_benchmark(
        workloads=workloads,
        threshold=args.threshold,
        warmups=args.warmups,
        best_of=args.best_of,
        poly_workloads=poly_workloads,
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)

    for row in payload["workloads"]:
        print(
            f"{row['name']:12} base={row['baseline_seconds'] * 1e3:9.2f}ms  "
            f"translated={row['translated_seconds'] * 1e3:9.2f}ms  "
            f"speedup={row['speedup']:5.2f}x  "
            f"({row['translated_bodies']} bodies, "
            f"emit {row['emit_seconds'] * 1e3:.1f}ms)"
        )
    print(f"geomean speedup: {payload['geomean_speedup']:.2f}x")
    poly = payload.get("poly")
    if poly:
        for row in poly["workloads"]:
            print(
                f"{row['name']:13} pic_off={row['pic_off_seconds'] * 1e3:8.2f}ms  "
                f"pic_on={row['pic_on_seconds'] * 1e3:8.2f}ms  "
                f"speedup={row['pic_speedup']:5.2f}x  "
                f"per_send={row['per_send_ns_on']:6.0f}ns  "
                f"(mega {row['mega_transitions']} transitions, "
                f"{row['mega_table_hits']} table hits)"
            )
        print(
            "poly megamorphic min pic speedup: "
            f"{poly['megamorphic_min_pic_speedup']:.2f}x; "
            "per-send N=8 -> N=128 ratio: "
            f"{poly.get('per_send_ratio_8_to_128', 0.0):.2f}"
        )
    if args.history:
        from .history import append_history, format_delta

        entry, previous = append_history(
            args.history, "exec",
            {"geomean_speedup": payload["geomean_speedup"]},
        )
        print(format_delta(entry, previous))
    if (
        args.assert_speedup is not None
        and payload["geomean_speedup"] < args.assert_speedup
    ):
        print(
            f"FAIL: geomean speedup {payload['geomean_speedup']:.2f}x "
            f"< required {args.assert_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    if args.assert_pic_speedup is not None:
        reached = payload.get("poly", {}).get(
            "megamorphic_min_pic_speedup", 0.0
        )
        if reached < args.assert_pic_speedup:
            print(
                f"FAIL: megamorphic pic speedup {reached:.2f}x "
                f"< required {args.assert_pic_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
