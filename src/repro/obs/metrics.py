"""The metrics registry: named counters, gauges, and histograms.

The runtime and compiler keep their hot counters as plain attribute
increments (``self.stats["type_tests"] += 1``, ``vm.send_hits += 1``)
— a method call per increment in the dispatch loop would be measurable
host overhead.  The registry therefore plays two roles:

* a home for *first-class* metrics (``Counter``/``Gauge``/
  ``Histogram`` objects) owned by cold code paths, and
* a **collector** that pulls the scattered raw counters into one
  namespace after (or during) a run — :func:`registry_for_runtime`
  produces the unified view: ``compiler.*`` effort/effect stats,
  ``vm.*`` execution measurements, ``ic.*`` inline-cache accounting,
  ``dispatch.*`` predecode counts, ``translate.*``
  translation-tier accounting, ``tiers.*`` degradations,
  ``invalidation.*`` dependency/invalidation accounting, and
  ``faults.*`` injection hits.

Snapshots are plain dicts of primitives (JSON-ready); ``diff`` gives
the delta between two snapshots, which is how a benchmark isolates the
cost of its measured region from warm-up.
"""

from __future__ import annotations

from typing import Optional

#: separator between a scope (universe id) and a metric's base name in
#: a scoped key.  Metric names themselves use "." namespacing and never
#: contain "/", so the split is unambiguous: "u0/vm.cycles" is the
#: "vm.cycles" counter of tenant "u0".
SCOPE_SEP = "/"


def scoped_name(scope: str, name: str) -> str:
    return f"{scope}{SCOPE_SEP}{name}"


def split_scoped(name: str) -> tuple:
    """``(scope, base)`` for a scoped key, ``(None, name)`` otherwise."""
    scope, sep, base = name.partition(SCOPE_SEP)
    if sep and scope:
        return scope, base
    return None, name


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (n={n})")
        self.value += n

    def snapshot(self):
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value (may go up or down; may be float)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def snapshot(self):
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """A distribution summary: count, sum, min, max.

    No buckets: the consumers here want "how many loop-analysis rounds
    did methods need, and what was the worst case", not quantiles.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def observe(self, value) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} sum={self.total}>"


class MetricsRegistry:
    """A namespace of metrics; one per run (or one per subsystem)."""

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def get(self, name: str):
        """The metric's snapshot value, or None when absent."""
        metric = self._metrics.get(name)
        return None if metric is None else metric.snapshot()

    def snapshot(self) -> dict:
        """Every metric's current value, keyed by name (JSON-ready)."""
        return {name: m.snapshot() for name, m in sorted(self._metrics.items())}

    @staticmethod
    def diff(before: dict, after: dict) -> dict:
        """Per-metric delta between two snapshots.

        Numeric metrics subtract; histogram snapshots diff their
        ``count``/``sum`` fields (min/max are not meaningful as deltas
        and are dropped).  Metrics absent from ``before`` count from
        zero.
        """
        out: dict = {}
        for name, now in after.items():
            was = before.get(name)
            if isinstance(now, dict):
                was = was or {}
                out[name] = {
                    "count": now.get("count", 0) - was.get("count", 0),
                    "sum": (now.get("sum") or 0) - (was.get("sum") or 0),
                }
            else:
                out[name] = now - (was or 0)
        return out

    def scoped(self, universe_id: str) -> "ScopedView":
        """A per-tenant view of this registry: every metric created (or
        read) through the view lives under ``<universe_id>/<name>``, so
        one registry can hold several universes' ``vm.*``/``ic.*``/…
        counters side by side without collisions."""
        if not universe_id or SCOPE_SEP in universe_id:
            raise ValueError(f"invalid metric scope {universe_id!r}")
        return ScopedView(self, universe_id)

    def render(self, title: str = "metrics") -> str:
        """A plain-text two-column table of every metric."""
        lines = [title]
        for name, value in self.snapshot().items():
            if isinstance(value, dict):
                value = (
                    f"n={value['count']} sum={value['sum']} "
                    f"min={value['min']} max={value['max']}"
                )
            elif isinstance(value, float):
                value = f"{value:.6f}"
            lines.append(f"  {name:40} {value}")
        return "\n".join(lines)


class ScopedView:
    """A :class:`MetricsRegistry` facade that prefixes every name with
    one tenant's scope.

    Quacks like the registry for everything the collectors use
    (``counter``/``gauge``/``histogram``/``names``/``get``/
    ``snapshot``), so :func:`collect_runtime` works unchanged against a
    view — that is what makes ``registry_for_runtime(rt, scope=...)``
    a one-line change rather than a parallel collector.
    """

    __slots__ = ("_registry", "scope")

    def __init__(self, registry: MetricsRegistry, scope: str) -> None:
        self._registry = registry
        self.scope = scope

    def counter(self, name: str) -> Counter:
        return self._registry.counter(scoped_name(self.scope, name))

    def gauge(self, name: str) -> Gauge:
        return self._registry.gauge(scoped_name(self.scope, name))

    def histogram(self, name: str) -> Histogram:
        return self._registry.histogram(scoped_name(self.scope, name))

    def names(self) -> list[str]:
        prefix = self.scope + SCOPE_SEP
        return sorted(
            name[len(prefix):]
            for name in self._registry.names()
            if name.startswith(prefix)
        )

    def get(self, name: str):
        return self._registry.get(scoped_name(self.scope, name))

    def snapshot(self) -> dict:
        """This tenant's metrics only, with the scope prefix stripped."""
        prefix = self.scope + SCOPE_SEP
        return {
            name[len(prefix):]: value
            for name, value in self._registry.snapshot().items()
            if name.startswith(prefix)
        }


# ---------------------------------------------------------------------------
# Collectors: raw counters -> unified names
# ---------------------------------------------------------------------------


def collect_compile_stats(registry: MetricsRegistry, stats: dict) -> None:
    """File the compiler's effort/effect counters under ``compiler.*``."""
    for key, value in sorted(stats.items()):
        registry.counter(f"compiler.{key}").inc(value)


def collect_runtime(registry: MetricsRegistry, runtime) -> None:
    """Pull one Runtime's scattered counters into the registry."""
    registry.counter("vm.cycles").inc(runtime.cycles)
    registry.counter("vm.instructions").inc(runtime.instructions)
    registry.counter("vm.code_bytes").inc(runtime.code_bytes)
    registry.counter("vm.methods_compiled").inc(runtime.methods_compiled)
    registry.gauge("vm.compile_seconds").set(runtime.compile_seconds)
    registry.counter("ic.hits").inc(runtime.send_hits)
    registry.counter("ic.misses").inc(runtime.send_misses)
    registry.counter("ic.megamorphic").inc(runtime.send_megamorphic)
    registry.counter("ic.pic_hits").inc(runtime.send_pic_hits)
    # Dispatch-ladder state (REPRO_PIC=1; all zero with the ladder off).
    # The histogram is the ladder-state census across warm sites: 1 for
    # a monomorphic site, 2..pic_depth for a PIC of that many rows,
    # pic_depth+1 for a site that overflowed into the megamorphic table.
    registry.counter("ic.mega_transitions").inc(runtime.mega_transitions)
    registry.counter("dispatch.mega_table_hits").inc(
        runtime.mega_table_hits
    )
    depth_hist = registry.histogram("ic.pic_depth_histogram")
    for code in runtime.iter_compiled_codes():
        for site in getattr(code, "ic_sites", ()):
            if site.mega is not None:
                depth_hist.observe(runtime.pic_depth + 1)
            elif site.pic is not None:
                depth_hist.observe(len(site.pic))
            elif site.entries:
                depth_hist.observe(1)
    registry.counter("compiler.sharing.hits").inc(runtime.share_hits)
    registry.counter("compiler.sharing.stores").inc(runtime.share_stores)
    for key, value in sorted(runtime.translate_stats.items()):
        # emit_seconds is host time (a float), not a monotone count
        if key == "emit_seconds":
            registry.gauge("translate.emit_seconds").set(value)
        else:
            registry.counter(f"translate.{key}").inc(value)
    code_cache = getattr(runtime, "code_cache", None)
    if code_cache is not None:
        for key, value in sorted(code_cache.stats.items()):
            registry.counter(f"compiler.codecache.{key}").inc(value)
    collect_compile_stats(registry, runtime.aggregate_compile_stats())
    for key, value in sorted(runtime.aggregate_dispatch_stats().items()):
        registry.counter(f"dispatch.{key}").inc(value)
    for key, value in sorted(runtime.recovery.summary().items()):
        registry.counter(f"tiers.{key}").inc(value)
    # The ring may have wrapped: `total` stays exact, `dropped` says how
    # many events the per-edge summary above is missing.
    registry.counter("tiers.degradations").inc(runtime.recovery.total)
    registry.counter("tiers.dropped").inc(runtime.recovery.dropped)
    for key, value in sorted(runtime.universe.deps.stats.items()):
        registry.counter(f"invalidation.{key}").inc(value)
    registry.gauge("invalidation.edges_live").set(
        runtime.universe.deps.edge_count()
    )
    profiler = getattr(runtime, "profiler", None)
    if profiler is not None:
        collect_profile(registry, profiler)


def collect_profile(registry, profiler) -> None:
    """File a :class:`~repro.obs.profile.Profiler`'s tick totals under
    ``profile.*`` (per-tier tick counts included)."""
    registry.counter("profile.ticks").inc(profiler.ticks)
    registry.counter("profile.ticks.activation").inc(profiler.activation_ticks)
    registry.counter("profile.ticks.branch").inc(profiler.branch_ticks)
    registry.counter("profile.ticks.interp").inc(profiler.interp_ticks)
    for tier, count in sorted(profiler.tier_ticks.items()):
        registry.counter(f"profile.tier.{tier}").inc(count)
    for kind, count in sorted(profiler.ic.events.items()):
        registry.counter(f"profile.ic_events.{kind}").inc(count)


def collect_graph(registry: MetricsRegistry, graph) -> None:
    """File one CompiledGraph's stats: node mix + effort counters.

    Used by :mod:`repro.tools.report` for per-method (rather than
    per-run) views; node-kind counts go under ``graph.nodes.*``.
    """
    registry.gauge("graph.nodes.total").set(graph.stats.total)
    for kind, count in sorted(graph.stats.counts.items()):
        registry.gauge(f"graph.nodes.{kind}").set(count)
    collect_compile_stats(registry, graph.compile_stats)


def registry_for_runtime(
    runtime, scope: Optional[str] = None
) -> MetricsRegistry:
    """The unified post-run view of one Runtime's measurements.

    With ``scope`` (typically ``runtime.universe.universe_id``) the
    counters are collected through :meth:`MetricsRegistry.scoped`, so
    the snapshot's keys read ``<scope>/vm.cycles`` etc. — the
    per-tenant form multi-universe hosts aggregate into one registry.
    """
    registry = MetricsRegistry()
    target = registry.scoped(scope) if scope is not None else registry
    collect_runtime(target, runtime)
    return registry
