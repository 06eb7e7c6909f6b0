"""The per-layer split of a traced pass, and what each metric means.

``BENCHMARK.json`` holds each metric's name, unit and direction.
:data:`LAYER_NOTES` holds the rest, keyed by name: the metric's layer
(named after the repo's modules), the workloads where that layer does
work, and what it should move: an end-to-end metric, or a workload's
headline op time (``<workload>/wall.geomean_ms``).

The ``world.*`` and ``lang.*`` times are ms per call (one bootstrap,
fork, ``add_slots`` or parse); the other times are ms per op of the
traced pass, so compile, codegen, emit and run add up towards an op.
Counts are totals over the pass, shares are ratios in 0..1.  A layer
that does no work on a workload reads 0 there.
"""

from __future__ import annotations

from collections import Counter

from repro.obs.metrics import registry_for_runtime
from repro.types import lattice

from workloads import PROGRAMS, STEADY_PROGRAMS

_C, _CR, _S, _V = "cold", "cold, restart", "steady", "serve"

#: the serve tail: a per-layer row, and the end-to-end share of
#: answers within the latency limit it feeds
_TAIL = "serve.latency_ms_p99, serve/ok_share"

#: name -> (layer, where it works, what it should move)
LAYER_NOTES = {
    "world.bootstrap_ms": ("world", _CR,
                           "cold/wall.geomean_ms (a few percent of it)"),
    "world.fork_ms": ("world", _V, _TAIL),
    "world.add_slots_ms": ("world", "all", "cold/wall.geomean_ms, " + _TAIL),
    "lang.parse_ms": ("lang", _V, "serve/wall.geomean_ms"),
    "compiler.compile_ms": (
        "compiler", "cold, serve",
        "cold/wall.geomean_ms, serve/wall.geomean_ms; nothing on steady"),
    "compiler.analysis_ms": (
        "compiler", "cold, serve",
        "cold/wall.geomean_ms (compile-span self time)"),
    "compiler.wasted_ms": (
        "compiler", "cold (towers)",
        "cold/wall.geomean_ms (compile attempts that ended degraded)"),
    "compiler.useful_share": (
        "compiler", "cold, serve",
        "cold/wall.geomean_ms (kept compiles / attempted)"),
    "compiler.compiles": ("compiler", "cold, serve",
                          "cold/wall.geomean_ms, serve/wall.geomean_ms"),
    "compiler.inlined_sends": ("compiler", _C, "modeled_kcycles, code_kb"),
    "compiler.type_tests": ("compiler", _C, "modeled_kcycles, code_kb"),
    "compiler.loop_analysis_iterations": ("compiler", _C,
                                          "cold/wall.geomean_ms"),
    "compiler.sharing.hit_share": ("compiler", "cold, serve",
                                   "cold/wall.geomean_ms"),
    "codecache.hit_share": ("compiler.codecache", "restart",
                            "restart/wall.geomean_ms; nothing on cold"),
    "codecache.uncacheable": ("compiler.codecache", "restart",
                              "restart/wall.geomean_ms"),
    "vm.codegen_ms": ("vm.codegen", _C, "cold/wall.geomean_ms"),
    "vm.threaded_slots": ("vm.codegen", _C, "cold/wall.geomean_ms, code_kb"),
    "vm.superinstructions_fused": (
        "vm.codegen", _C,
        "cold/wall.geomean_ms (the ROADMAP's fusion question)"),
    "vm.translate.emit_ms": ("vm.translate", _CR,
                             "cold/wall.geomean_ms, restart/wall.geomean_ms"),
    "vm.translate.bodies": ("vm.translate", _CR,
                            "cold/wall.geomean_ms, restart/wall.geomean_ms"),
    "vm.translate.reused": ("vm.translate", _CR, "cold/wall.geomean_ms"),
    "vm.translate.emit_failed": ("vm.translate", _CR, "steady/wall.geomean_ms"),
    "vm.run_ms": ("vm.runtime", "steady, cold",
                  "steady/wall.geomean_ms (op time minus compile and emit)"),
    "vm.cycles": ("vm.runtime", _S, "steady/modeled_kcycles (repeats exactly)"),
    "vm.instructions": ("vm.runtime", _S,
                        "steady/wall.geomean_ms (modeled; repeats exactly)"),
    "vm.dispatch.ic_hit_share": ("vm.dispatch", _S, "steady/wall.geomean_ms"),
    "vm.dispatch.megamorphic_sends": ("vm.dispatch", _S,
                                      "steady/wall.geomean_ms"),
    "vm.dispatch.pic_hits": (
        "vm.dispatch", _S,
        "steady/wall.geomean_ms (0 with the default REPRO_PIC off)"),
    "vm.dispatch.mega_table_hits": (
        "vm.dispatch", _S,
        "steady/wall.geomean_ms (0 with the default REPRO_PIC off)"),
    "types.memo_entries": (
        "types", "cold, serve",
        "cold/wall.geomean_ms, serve/peak_rss_mb (peak over ops)"),
    "robustness.degradations": ("robustness", "serve, cold (towers)",
                                _TAIL + ", cold/wall.geomean_ms"),
    "robustness.invalidations": ("robustness", _V, _TAIL),
    "robustness.codes_retired": ("robustness", _V, _TAIL),
    "serve.latency_ms_p50": (
        "serve", _V,
        "serve/wall.geomean_ms (the median request, from due time; "
        "a refused request counts at the latency limit or later)"),
    "serve.latency_ms_p99": (
        "serve", _V,
        "serve/ok_share (the request tail, from due time; a refused "
        "request counts at the latency limit or later)"),
    "serve.queue_wait_ms_p50": ("serve", _V, "serve.latency_ms_p50"),
    "serve.queue_wait_ms_p99": ("serve", _V, _TAIL),
    "serve.service_ms_p50": ("serve", _V,
                             "serve/wall.geomean_ms, serve.latency_ms_p50"),
    "serve.service_ms_p99": ("serve", _V, _TAIL),
    "serve.shed_share": ("serve", _V, "serve.goodput_rps"),
    "serve.overload_entered": ("serve", _V, _TAIL + ", serve.goodput_rps"),
    "serve.tenants": ("serve", _V,
                      "none: an input property, fixed by the request count"),
    "serve.late_ms_p99": ("serve", _V,
                          "none: how late the arrival generator ran"),
    "serve.goodput_rps": (
        "serve", _V,
        "serve/ok_share (correct answers within the latency limit "
        "per second)"),
    **{
        f"program.{name}_ms": (
            "program",
            "cold, restart" + (", steady" if name in STEADY_PROGRAMS else ""),
            "geomean_ms of that workload (this program's fastest op, "
            "untraced)")
        for name in PROGRAMS
    },
    "wall.geomean_ms": (
        "wall clock", "all",
        "none: the headline op time, untraced (see run.end_to_end for "
        "why it is not end-to-end)"),
    "trace.geomean_ms": ("trace", "all",
                         "none: wall.geomean_ms of the traced pass"),
    "trace.overhead_pct": (
        "trace", "all", "none: traced over untraced wall.geomean_ms, minus 1"),
    "host.probe_start_ms": (
        "host", "all",
        "none: fixed pure-Python loop at the start of the run (diagnostic)"),
    "host.probe_end_ms": (
        "host", "all",
        "none: the same loop at the end of the run (diagnostic)"),
}


class Tally:
    """Totals of one traced pass: spans by name, runtime counters, and
    the peak size of the lattice's intern and memo tables."""

    def __init__(self) -> None:
        self.span_ms: Counter = Counter()
        self.span_calls: Counter = Counter()
        self.compiles = 0
        self.compiles_kept = 0
        self.compile_self_ms = 0.0
        self.compile_wasted_ms = 0.0
        self.counts: Counter = Counter()
        self.memo_entries = 0

    @staticmethod
    def snapshot(runtime) -> dict:
        """The runtime's counters as numbers (histograms dropped)."""
        return {
            name: value
            for name, value in registry_for_runtime(runtime).snapshot().items()
            if isinstance(value, (int, float))
        }

    def add_runtime(self, runtime, baseline=None) -> None:
        """Add a runtime's counters, less ``baseline`` (a snapshot taken
        before the pass, for runtimes that outlive one op)."""
        baseline = baseline or {}
        for name, value in self.snapshot(runtime).items():
            self.counts[name] += value - baseline.get(name, 0)

    def note_memo(self) -> None:
        self.memo_entries = max(
            self.memo_entries, sum(lattice.cache_sizes().values())
        )

    def add_spans(self, roots) -> None:
        stack = list(roots)
        while stack:
            span = stack.pop()
            ms = span.dur_us / 1000
            self.span_ms[span.name] += ms
            self.span_calls[span.name] += 1
            if span.name == "compile":
                self.compiles += 1
                if span.attrs.get("outcome") == "ok":
                    self.compiles_kept += 1
                else:
                    self.compile_wasted_ms += ms
                self.compile_self_ms += ms - sum(
                    child.dur_us / 1000 for child in span.children
                )
            stack.extend(span.children)


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tally: Tally, ops: int, serve=None) -> dict:
    """Per-layer values of one traced pass; ``serve`` is its Result when
    the workload is serve.  (run.py adds the serve, program, trace and
    host rows.)"""
    c = tally.counts
    per_op = 1.0 / max(1, ops)
    compile_ms = c["vm.compile_seconds"] * 1000
    emit_ms = c["translate.emit_seconds"] * 1000
    ms = tally.span_ms

    def per_call(*names) -> float:
        calls = sum(tally.span_calls[name] for name in names)
        return _share(sum(ms[name] for name in names), calls)

    if serve is not None:
        busy_ms = sum(serve.service_ms)
        run_ms = (busy_ms - ms["world.fork"] - ms["world.add_slots"]
                  - ms["parse"] - compile_ms - emit_ms)
    else:
        run_ms = ms["vm.run"] - compile_ms - emit_ms
    loads = (c["compiler.codecache.hits"] + c["compiler.codecache.misses"]
             + c["compiler.codecache.uncacheable"])
    sends = c["ic.hits"] + c["ic.misses"] + c["ic.megamorphic"]
    return {
        "world.bootstrap_ms": per_call("world.bootstrap"),
        "world.fork_ms": per_call("world.fork"),
        "world.add_slots_ms": per_call("world.add_slots"),
        # "parse" is the span Runtime.run records; "lang.parse" is ours
        "lang.parse_ms": per_call("lang.parse", "parse"),
        "compiler.compile_ms": compile_ms * per_op,
        "compiler.analysis_ms": tally.compile_self_ms * per_op,
        "compiler.wasted_ms": tally.compile_wasted_ms * per_op,
        "compiler.useful_share": _share(tally.compiles_kept, tally.compiles),
        "compiler.compiles": tally.compiles,
        "compiler.inlined_sends": c["compiler.inlined_sends"],
        "compiler.type_tests": c["compiler.type_tests"],
        "compiler.loop_analysis_iterations":
            c["compiler.loop_analysis_iterations"],
        "compiler.sharing.hit_share": _share(
            c["compiler.sharing.hits"], c["vm.methods_compiled"]),
        "codecache.hit_share": _share(c["compiler.codecache.hits"], loads),
        "codecache.uncacheable": c["compiler.codecache.uncacheable"],
        "vm.codegen_ms": ms["codegen"] * per_op,
        "vm.threaded_slots": c["dispatch.threaded_slots"],
        "vm.superinstructions_fused": c["dispatch.superinstructions_fused"],
        "vm.translate.emit_ms": emit_ms * per_op,
        "vm.translate.bodies": c["translate.translated"],
        "vm.translate.reused": c["translate.reused"],
        "vm.translate.emit_failed": c["translate.emit_failed"],
        "vm.run_ms": run_ms * per_op,
        "vm.cycles": c["vm.cycles"],
        "vm.instructions": c["vm.instructions"],
        "vm.dispatch.ic_hit_share": _share(c["ic.hits"], sends),
        "vm.dispatch.megamorphic_sends": c["ic.megamorphic"],
        "vm.dispatch.pic_hits": c["ic.pic_hits"],
        "vm.dispatch.mega_table_hits": c["dispatch.mega_table_hits"],
        "types.memo_entries": tally.memo_entries,
        "robustness.degradations": c["tiers.degradations"],
        "robustness.invalidations": c["invalidation.invalidations"],
        "robustness.codes_retired": c["invalidation.codes_retired"],
    }
