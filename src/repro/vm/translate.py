"""The translation tier: hot bodies run as specialized host functions.

Fourth (fastest) rung of the execution ladder — translated above
optimizing above pessimistic above interpreter.  The dispatch loop
promotes a :class:`~.code.Code` body here once it has seen
``REPRO_TRANSLATE_THRESHOLD`` fresh activations (default 16; ``0``
disables the tier): :meth:`Translator.translate` emits one specialized
Python function for the whole predecoded stream (:mod:`.emit`),
``compile()``s it, and installs the result in ``code.translated``.

Contracts the tier keeps:

* **Fallback is always safe.**  Labels in the translated function are
  instruction indices (the threaded stream is index-aligned with
  ``Code.insns``), so ``frame.pc`` is valid in both tiers and
  the deopt PC mapping is the identity.  When invalidation retires a
  translation (``code.translated = False``), live frames simply resume
  on the predecoded stream at their next activation boundary; the
  dispatch loop counts those entries (``translate.fallback_entries``).
* **Never persisted.**  The persistent code cache stores bytecode
  streams only; a cache-hit load arrives with ``translated = None`` and
  re-translates lazily once it gets hot again.
* **Failure is contained.**  Any exception during emission or
  ``compile()`` — including the ``vm.translate.emit`` fault-injection
  site — marks the body untranslatable (``False``: never retried),
  increments ``translate.emit_failed``, records a recovery-log
  degradation back to the optimizing tier, and execution continues on
  the predecoded stream with identical semantics.
* **Emission cost is accounted separately.**  Host seconds spent
  emitting and compiling accumulate in ``translate.emit_seconds``,
  never in the modeled ``compile_seconds``.

Share clones re-predecode the same ``insns`` list into congruent
streams, so the compiled factory is cached per ``insns`` identity and
reused across clones (``translate.reused``): only the constant
extraction (IC sites, maps, templates) runs per clone.
"""

from __future__ import annotations

import time
from typing import Optional

from ..robustness import faults
from ..robustness.recovery import TIER_OPTIMIZING, TIER_TRANSLATED
from .emit import EMIT_GLOBALS, emit_source, extract_constant


class _FactoryEntry:
    """One emitted+compiled factory, keyed by ``id(code.insns)``.

    ``insns`` is held strongly: the cache key is an ``id()``, which the
    host may reuse once the original list is collected.
    """

    __slots__ = ("insns", "factory", "paths", "guards")

    def __init__(self, insns, factory, paths, guards) -> None:
        self.insns = insns
        self.factory = factory
        self.paths = paths
        #: well-known-map identities baked into the source; a clone may
        #: reuse the factory only when its stream carries the same
        #: objects at these paths (see :func:`~.emit.emit_source`)
        self.guards = guards


class Translator:
    """Per-runtime translation service (owned by ``Runtime``)."""

    __slots__ = (
        "runtime", "counters", "profiling", "pic", "_factories",
    )

    def __init__(
        self, runtime, counters: bool, profiling: bool = False,
        pic: bool = False,
    ) -> None:
        self.runtime = runtime
        #: compile modeled-counter accounting into the generated source
        #: (REPRO_MODELED_COUNTERS; off = raw wall-clock mode)
        self.counters = counters
        #: compile profiler tick hooks into the generated source, the
        #: same emission-time pattern as ``counters``: with profiling
        #: off the emitted source is byte-identical to before the
        #: profiler existed (the zero-overhead-off guarantee)
        self.profiling = profiling
        #: open-code the dispatch ladder (PIC probe + megamorphic table)
        #: in generated sends (REPRO_PIC); off keeps the emission
        #: byte-identical to a build without the ladder
        self.pic = pic
        self._factories: dict[int, _FactoryEntry] = {}

    def translate(self, code) -> Optional[object]:
        """Translate ``code`` in place; returns the installed function,
        or None when translation failed (the body is then marked
        untranslatable and never retried)."""
        stats = self.runtime.translate_stats
        started = time.perf_counter()
        try:
            fn = self._build(code)
        except Exception as error:
            stats["emit_seconds"] += time.perf_counter() - started
            stats["emit_failed"] += 1
            code.translated = False
            self.runtime.recovery.record(
                stage="translate",
                selector=code.name,
                from_tier=TIER_TRANSLATED,
                to_tier=TIER_OPTIMIZING,
                error=error,
            )
            return None
        stats["emit_seconds"] += time.perf_counter() - started
        stats["translated"] += 1
        code.translated = fn
        tracer = self.runtime.tracer
        if tracer.enabled:
            from ..obs.trace import CAT_RUNTIME

            tracer.event(
                "translate",
                category=CAT_RUNTIME,
                selector=code.name,
                slots=len(code.threaded),
                counters=self.counters,
            )
        return fn

    def _build(self, code):
        corrupted = faults.ENABLED and faults.hit(faults.SITE_VM_TRANSLATE)
        key = id(code.insns)
        entry = self._factories.get(key)
        if (
            entry is not None
            and entry.insns is code.insns
            and all(
                extract_constant(code.threaded, p) is v
                for p, v in entry.guards
            )
            and not corrupted
        ):
            # A share clone of an already-translated body: same insns,
            # congruent re-predecoded stream — reuse the compiled
            # factory, extract this clone's constants.
            self.runtime.translate_stats["reused"] += 1
            factory, paths = entry.factory, entry.paths
        else:
            source, paths, guards = emit_source(
                code.threaded, self.counters, self.runtime.universe,
                profiling=self.profiling, pic=self.pic,
            )
            if corrupted:
                # Injected wild write mid-emission: the source is
                # truncated and trashed, so compile() below rejects it
                # and containment marks the body untranslatable.
                source = source[: len(source) // 2] + "\n<corrupted>\n"
            host_code = compile(source, f"<translated {code.name}>", "exec")
            namespace = dict(EMIT_GLOBALS)
            exec(host_code, namespace)
            factory = namespace["_factory"]
            self._factories[key] = _FactoryEntry(
                code.insns, factory, paths, guards
            )
        consts = tuple(extract_constant(code.threaded, p) for p in paths)
        return factory(consts)
