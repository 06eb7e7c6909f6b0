"""The bytecode VM and dynamic-compilation runtime.

A :class:`Runtime` owns a code cache and executes bytecode produced by
the compiler under one :class:`~repro.compiler.config.CompilerConfig`.
Methods are compiled lazily, *customized per receiver map* when the
configuration says so — this is the paper's dynamic compilation setup:
only code that actually runs is compiled, and the measured "compiled
code size" is the size of what the run touched.

Dynamically-bound sends go through per-site inline caches with
hit/miss/megamorphic accounting, so the richards task-queue anomaly
(section 6.1 of the paper) emerges from the model rather than being
hard-coded.

Execution is token-threaded: at code-install time every instruction is
predecoded into ``(handler, cycles, count, ...operands)`` tuples (see
:mod:`.dispatch`), so the hot loop below is three indexed loads, two
integer adds, and one call per dispatch — no ``if/elif`` opcode walk,
no per-instruction cost-model lookup.  Every executed instruction still
adds its cost-model cycles to ``runtime.cycles`` — the deterministic
stand-in for the paper's wall-clock measurements.
"""

from __future__ import annotations

import os
import time
from typing import Optional, Sequence

from ..compiler.annotations import StaticAnnotations
from ..compiler.codecache import cache_from_env
from ..compiler.config import CompilerConfig
from ..interp.interpreter import _NonLocalReturn
from ..lang.ast_nodes import MethodNode
from ..lang.parser import parse_doit
from ..objects.errors import (
    MessageNotUnderstood,
    NonLocalReturnFromDeadActivation,
    PrimitiveFailed,
    VMError,
)
from ..objects.maps import ASSIGNMENT, CONSTANT, DATA
from ..objects.model import (
    SelfBlock,
    SelfMethod,
    block_value_selector,
)
from ..primitives.registry import PrimFailSignal
from ..robustness.recovery import (
    RecoveryLog,
    TIER_OPTIMIZING,
    TIER_PESSIMISTIC,
)
from ..robustness.tiers import (
    InterpretedCode,
    TierInterpreter,
    call_foreign_block,
    compile_with_tiers,
    run_interpreted_block,
    run_interpreted_method,
)
from ..world.bootstrap import World
from ..world.lookup import lookup_slot
from .code import Code, InlineCacheSite
from .cost import PRIMITIVE_WORK_CYCLES, CostModel, model_for
from .dispatch import NLR_SIGNAL, predecode
from .frame import Frame, NonLocalUnwind
from .translate import Translator

#: backwards-compatible aliases (Frame used to be defined here)
_NonLocalUnwind = NonLocalUnwind


def _clone_shared_code(code: Code, model: CostModel) -> Code:
    """A per-map clone of a receiver-map-independent compiled body.

    The instruction stream, constants, stats, and sizing are shared by
    reference (all immutable after codegen); inline-cache sites carry
    per-map runtime state and are rebuilt fresh, then the threaded
    stream is re-predecoded against them.  The clone is a distinct Code
    so per-map accounting (size, IC behavior) stays exact.
    """
    ic_sites = [InlineCacheSite(site.selector) for site in code.ic_sites]
    return Code(
        name=code.name,
        insns=code.insns,
        consts=code.consts,
        reg_count=code.reg_count,
        self_reg=code.self_reg,
        arg_regs=code.arg_regs,
        env_keys=code.env_keys,
        ic_sites=ic_sites,
        size_bytes=code.size_bytes,
        is_block=code.is_block,
        graph_stats=code.graph_stats,
        compile_stats=code.compile_stats,
        config_name=code.config_name,
        threaded=predecode(code.insns, code.consts, ic_sites, model),
        map_dependent=code.map_dependent,
    )


class Runtime:
    """Execute guest code under one compiler configuration."""

    def __init__(
        self,
        world: World,
        config: CompilerConfig,
        model: Optional[CostModel] = None,
        annotations: Optional[StaticAnnotations] = None,
        use_polymorphic_caches: bool = False,
        tracer=None,
        profile: Optional[bool] = None,
    ) -> None:
        self.world = world
        self.universe = world.universe
        self.config = config
        self.model = model or model_for(config.name)
        self.annotations = annotations if config.static_types else None
        #: the paper's §6.1 proposal ("call-site-specific inline-cache
        #: miss handlers"): polymorphic sites dispatch through a short
        #: stub instead of relinking — the PIC extension.
        self.use_polymorphic_caches = use_polymorphic_caches

        # -- the real dispatch ladder (REPRO_PIC=1) ------------------------
        #: mono IC -> bounded PIC -> megamorphic table, as a wall-clock
        #: mechanism: accounting on every rung is identical to the
        #: modeled relink it replaces, so the modeled numbers are
        #: bit-identical with the ladder on or off (INTERNALS.md §15)
        self.pic_enabled = os.environ.get("REPRO_PIC", "0") != "0"
        self.pic_depth = max(
            1, int(os.environ.get("REPRO_PIC_DEPTH", "4") or 4)
        )
        #: per-selector megamorphic dispatch tables (map_id -> action),
        #: shared by every overflowed site of this runtime so hostile
        #: polymorphism warms each selector once, plus the parallel
        #: invalidation scopes (map_id -> consulted-map frozenset)
        self.mega_tables: dict[str, dict] = {}
        self.mega_deps: dict[str, dict] = {}

        #: (method identity, map id or 0) -> (AST node, Code).  The AST
        #: node is stored to keep it alive: the key uses ``id()``, which
        #: the host may reuse once the node is collected.
        self._method_code: dict[tuple[int, int], tuple[object, Code]] = {}
        #: (block id, receiver map id or 0) -> (code node, Code); the
        #: node is pinned in the value for the same id-reuse reason
        self._block_code: dict[tuple[int, int], tuple[object, Code]] = {}
        #: method identity -> (AST node, canonical non-customized Code):
        #: compiles whose taint flag proved independence from the
        #: receiver map; other maps get a cheap clone instead of a
        #: recompile (``REPRO_SHARE_CODE=0`` disables)
        self._shared_method_code: dict[int, tuple[object, Code]] = {}
        self._share_enabled = (
            os.environ.get("REPRO_SHARE_CODE", "1") != "0" and config.customize
        )
        #: customization-aware sharing accounting (host-speed only; the
        #: modeled measurements are identical with sharing on or off)
        self.share_hits = 0
        self.share_stores = 0
        #: persistent cross-run code cache (None unless REPRO_CODE_CACHE
        #: points somewhere); stats live on the cache object
        self.code_cache = cache_from_env()
        #: block literal id -> BlockTemplate (captured at MAKE_BLOCK)
        self._block_templates: dict[int, object] = {}
        #: bound once: the dispatch handlers' map lookup
        self._map_of = world.universe.map_of

        # -- translation tier (vm/translate.py) ---------------------------
        #: fresh-activation count at which a body is translated to a
        #: specialized host function (0 disables the tier)
        self.translate_threshold = int(
            os.environ.get("REPRO_TRANSLATE_THRESHOLD", "16") or 0
        )
        #: compile modeled-counter accounting into translated bodies
        #: (default on: goldens stay bit-identical; REPRO_MODELED_COUNTERS=0
        #: elides all accounting for raw wall-clock runs)
        self.modeled_counters = (
            os.environ.get("REPRO_MODELED_COUNTERS", "1") != "0"
        )
        #: deterministic activation-tick profiler (obs/profile.py), or
        #: None — the off state.  Construction-time only, mirroring
        #: REPRO_MODELED_COUNTERS: translated bodies compile their tick
        #: hooks in (or out) at emission, so profiling cannot toggle
        #: mid-run.  Off costs one ``is not None`` test per run segment
        #: and nothing per instruction.
        if profile is None:
            profile = os.environ.get("REPRO_PROFILE", "0") != "0"
        if profile:
            from ..obs.profile import Profiler

            self.profiler = Profiler(self)
        else:
            self.profiler = None
        self.translator = Translator(
            self, self.modeled_counters,
            profiling=self.profiler is not None,
            pic=self.pic_enabled,
        )
        #: translate.* observability counters (surfaced by obs/metrics.py)
        self.translate_stats = {
            "translated": 0,
            "reused": 0,
            "retired": 0,
            "fallback_entries": 0,
            "emit_failed": 0,
            "emit_seconds": 0.0,
        }

        # -- measurements ------------------------------------------------
        self.cycles = 0
        self.compile_seconds = 0.0
        self.code_bytes = 0
        self.methods_compiled = 0
        self.send_hits = 0
        self.send_misses = 0
        self.send_megamorphic = 0
        self.send_pic_hits = 0
        #: dispatch-ladder telemetry (host-level, never modeled):
        #: dispatches served by a megamorphic table, and PIC->table
        #: overflow transitions
        self.mega_table_hits = 0
        self.mega_transitions = 0
        self.instructions = 0

        self.frames: list[Frame] = []
        #: value produced by the RETURN/NLR handler that ended a segment
        self._ret_value = None
        #: in-flight non-local return: (target frame, value, resume pc)
        self._nlr = None

        #: observability: NULL_TRACER unless a real tracer is injected —
        #: the dispatch loop itself never touches it, so the modeled
        #: measurements are bit-identical with tracing on or off
        from ..obs.trace import NULL_TRACER

        self.tracer = tracer if tracer is not None else NULL_TRACER

        #: structured log of tier degradations (robustness subsystem);
        #: scoped to the owning universe so a multi-tenant host can
        #: attribute every record to exactly one tenant
        self.recovery = RecoveryLog(
            tracer=self.tracer, scope=self.universe.universe_id
        )
        self._tier_interpreter: Optional[TierInterpreter] = None

        # -- serving hooks (repro.serve) -----------------------------------
        #: per-request wall/fuel bound, installed by the supervisor and
        #: checked at every frame switch (None = unbounded, one is-None
        #: test per switch)
        self.execution_budget = None
        #: overload mode: new compiles take the pessimistic tier and
        #: translation promotion is suppressed, trading peak throughput
        #: for compile latency (see :meth:`set_degraded`)
        self.degraded = False
        #: cache keys compiled while degraded — dropped when overload
        #: ends so the bodies reoptimize at full tier
        self._degraded_keys: set[tuple] = set()

        # -- invalidation / deoptimization state --------------------------
        #: a mutation retired code with live frames: until they return,
        #: new compiles take the pessimistic tier and are provisional
        self._deopt_storm = False
        #: retired bodies still referenced by live frames — kept so a
        #: *second* mutation can still flush their inline caches
        self._retired_live: list[Code] = []
        #: cache keys compiled during a storm ("m"/"b", key) — dropped
        #: at the next quiet top-level entry so they reoptimize
        self._provisional_keys: set[tuple] = set()
        #: the dependency registry invalidates through this registration
        self.universe.runtimes.add(self)

    @property
    def tier_interpreter(self) -> TierInterpreter:
        """The interpreter-tier evaluator, created on first degradation."""
        if self._tier_interpreter is None:
            self._tier_interpreter = TierInterpreter(self)
        return self._tier_interpreter

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, source: str, receiver=None):
        """Parse a do-it, compile it, and execute it to a value."""
        if self.tracer.enabled:
            with self.tracer.span("parse", chars=len(source)):
                doit = parse_doit(source)
        else:
            doit = parse_doit(source)
        return self.run_doit(doit, receiver)

    def run_doit(self, doit: MethodNode, receiver=None):
        self._maybe_reoptimize()
        if receiver is None:
            receiver = self.world.lobby
        code = self._compile_method(doit, self.universe.map_of(receiver), "<doit>")
        previous = self.universe.evaluator
        self.universe.evaluator = self
        try:
            if isinstance(code, InterpretedCode):
                return run_interpreted_method(
                    self, code.code, receiver, (), selector=code.selector
                )
            return self._run_code(code, receiver, (), home=None)
        finally:
            self.universe.evaluator = previous

    def call(self, receiver, selector: str, args: Sequence = ()):
        """Perform one dynamically-bound send from the outside."""
        self._maybe_reoptimize()
        previous = self.universe.evaluator
        self.universe.evaluator = self
        try:
            return self._send_sync(receiver, selector, list(args))
        finally:
            self.universe.evaluator = previous

    def call_block(self, block: SelfBlock, args: Sequence = ()):
        """Evaluator protocol (used by _BlockWhileTrue: and friends)."""
        return self._call_block_sync(block, list(args))

    def reset_measurements(self) -> None:
        self.cycles = 0
        self.instructions = 0
        self.send_hits = self.send_misses = self.send_megamorphic = 0
        self.send_pic_hits = 0
        self.mega_table_hits = 0
        # Per-site IC counters are measurements too: without this,
        # back-to-back bench reps inherit the previous rep's hot sites
        # (the cache *contents* — entries, PIC rows, tables — are state,
        # not measurement, and survive the reset).
        for code in self.iter_compiled_codes():
            for site in getattr(code, "ic_sites", ()):
                site.hits = site.misses = site.relinks = 0
        for code in self._retired_live:
            for site in code.ic_sites:
                site.hits = site.misses = site.relinks = 0

    @property
    def compiled_code_bytes(self) -> int:
        return self.code_bytes

    def iter_compiled_codes(self):
        """Every distinct compiled body (methods, then blocks), once each.

        Both code caches are keyed by (identity, receiver map), so one
        body recompiled per map appears under several keys — but each
        entry holds a distinct Code.  The identity-dedup guards the
        aggregators against any future sharing between the two caches
        (and is what keeps aggregate totals honest by construction).
        """
        seen: set[int] = set()
        for _, code in self._method_code.values():
            if id(code) not in seen:
                seen.add(id(code))
                yield code
        for _, code in self._block_code.values():
            if id(code) not in seen:
                seen.add(id(code))
                yield code

    def aggregate_compile_stats(self) -> dict:
        """Sum the compiler's effort/effect counters over every body
        this runtime compiled (methods and blocks) — the evidence for
        "how many sends were inlined, how many checks deleted"."""
        totals: dict = {}
        for code in self.iter_compiled_codes():
            # Interpreter-tier bodies have no compiled stats to count.
            for key, value in getattr(code, "compile_stats", {}).items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def aggregate_dispatch_stats(self) -> dict:
        """Predecode accounting over every compiled body."""
        totals = {"compiled_bodies": 0, "threaded_slots": 0}
        for code in self.iter_compiled_codes():
            threaded = getattr(code, "threaded", None)
            if threaded is None:
                continue
            totals["compiled_bodies"] += 1
            totals["threaded_slots"] += len(threaded)
        return totals

    def observed_fanout(self) -> dict:
        """Selector -> distinct receiver maps observed at this runtime's
        IC sites and megamorphic tables — the compiler's refusal oracle:
        splitting and customization stop past ``pic_depth`` (§6.1's
        megamorphic sites are not worth specializing against)."""
        fan: dict[str, set] = {}
        for code in self.iter_compiled_codes():
            for site in getattr(code, "ic_sites", ()):
                if site.entries:
                    fan.setdefault(site.selector, set()).update(site.entries)
        for selector, table in self.mega_tables.items():
            if table:
                fan.setdefault(selector, set()).update(
                    rmap.map_id for rmap in table
                )
        return {selector: len(ids) for selector, ids in fan.items()}

    def _megamorphic_selector(self, selector: str) -> bool:
        """The compiler-side refusal gate: ``selector`` has been seen
        with more receiver maps than the PIC can absorb."""
        return (
            self.pic_enabled
            and bool(selector)
            and self.observed_fanout().get(selector, 0) > self.pic_depth
        )

    def _dispatch_deps(self, receiver_map, selector: str, action):
        """The consulted-map scope of a dispatch-ladder row.

        ``None`` means "retire on any invalidation": prim/block
        resolutions have no lookup to scope them, and a row whose
        lookup-cache entry already expired is treated the same way.
        """
        if action[0] in ("prim", "block"):
            return None
        from ..world.lookup import cached_lookup_deps

        return cached_lookup_deps(self.universe, receiver_map, selector)

    # ------------------------------------------------------------------
    # Compilation (the JIT half)
    # ------------------------------------------------------------------

    def _compile_method(self, code_node, receiver_map, selector: str):
        """Compile (or fetch) a method body — down the tier ladder.

        Returns a :class:`Code`, or an :class:`InterpretedCode` marker
        when compilation degraded all the way to the interpreter tier.

        Customization-aware sharing: a previous compile of this body
        whose taint flag proved it never consulted its receiver map
        is *cloned* for the new map (fresh inline caches, re-predecode)
        instead of recompiled.  Every modeled number — size, cycles,
        compile counters — is identical to a fresh compile by
        construction, so sharing buys host seconds only.

        Megamorphic customization refusal (REPRO_PIC): once the
        dispatch ladder has seen more receiver maps for ``selector``
        than the PIC holds, further customization is refused — the body
        compiles once, receiver-map independent, under the shared key
        ``0`` and every subsequent map reuses that one Code (one copy
        of the modeled bytes, one IC site set, so the hot sites inside
        it overflow into the megamorphic table instead of splintering
        per map).
        """
        refused = self._megamorphic_selector(selector)
        key_map = (
            receiver_map.map_id
            if self.config.customize and not refused else 0
        )
        key = (id(code_node), key_map)
        cached = self._method_code.get(key)
        if cached is not None:
            return cached[1]
        from ..robustness import faults

        sharable_map = (
            self._share_enabled
            and receiver_map.kind == "object"
            and not self._deopt_storm
            and not self.degraded
        )
        if sharable_map:
            entry = self._shared_method_code.get(id(code_node))
            if entry is not None and entry[0] is code_node:
                canonical = entry[1]
                started = time.perf_counter()
                try:
                    compiled = _clone_shared_code(canonical, self.model)
                    if faults.ENABLED and faults.hit(faults.SITE_VM_SHARING):
                        # Corrupt mode: a wild write truncated the
                        # clone's threaded stream mid-flight.
                        compiled.threaded = compiled.threaded[
                            : len(compiled.threaded) // 2
                        ]
                    if len(compiled.threaded) != len(canonical.threaded):
                        raise RuntimeError(
                            "shared-code clone failed the integrity check"
                        )
                except Exception as error:  # noqa: BLE001 — degrade to compile
                    self.compile_seconds += time.perf_counter() - started
                    self.recovery.record(
                        "share-clone", selector, "sharing", TIER_OPTIMIZING, error
                    )
                else:
                    self.compile_seconds += time.perf_counter() - started
                    compiled.dep_keys = frozenset(
                        (canonical.dep_keys or frozenset())
                        | {("shape", receiver_map.map_id)}
                    )
                    self._method_code[key] = (code_node, compiled)
                    self._register_code_dependency(
                        "method", key, compiled, code_node, selector
                    )
                    self.code_bytes += compiled.size_bytes
                    self.methods_compiled += 1
                    self.share_hits += 1
                    return compiled
        started = time.perf_counter()
        recovery_before = self.recovery.total
        compiled = compile_with_tiers(
            self, code_node, receiver_map, selector=selector,
            force_pessimistic=self._deopt_storm or self.degraded,
        )
        self.compile_seconds += time.perf_counter() - started
        self._method_code[key] = (code_node, compiled)
        if self._deopt_storm:
            self._provisional_keys.add(("m", key))
        elif self.degraded:
            self._degraded_keys.add(("m", key))
        if isinstance(compiled, Code):
            self._register_code_dependency(
                "method", key, compiled, code_node, selector
            )
            self.code_bytes += compiled.size_bytes
            self.methods_compiled += 1
            if (
                sharable_map
                and not compiled.map_dependent
                and self.recovery.total == recovery_before
            ):
                # Untainted, compiled at the intended tier (no recovery
                # events fired): canonical copy for every later map.
                self._shared_method_code[id(code_node)] = (code_node, compiled)
                self.share_stores += 1
                self._register_code_dependency(
                    "shared", id(code_node), compiled, code_node, selector
                )
        return compiled

    def _compile_block(self, block: SelfBlock, receiver_map):
        key_map = receiver_map.map_id if self.config.customize else 0
        key = (block.code.block_id, key_map)
        cached = self._block_code.get(key)
        if cached is not None:
            return cached[1]
        template = self._block_templates.get(block.code.block_id)
        started = time.perf_counter()
        selector = f"<block#{block.code.block_id}>"
        compiled = compile_with_tiers(
            self, block.code, receiver_map,
            selector=selector, is_block=True,
            block_template=template,
            force_pessimistic=self._deopt_storm or self.degraded,
        )
        self.compile_seconds += time.perf_counter() - started
        self._block_code[key] = (block.code, compiled)
        if self._deopt_storm:
            self._provisional_keys.add(("b", key))
        elif self.degraded:
            self._degraded_keys.add(("b", key))
        if isinstance(compiled, Code):
            self._register_code_dependency(
                "block", key, compiled, block.code, selector
            )
            self.code_bytes += compiled.size_bytes
            self.methods_compiled += 1
        return compiled

    def _register_code_dependency(
        self, kind: str, cache_key, code, code_node, selector: str
    ) -> None:
        """Register ``code`` against every world assumption it recorded.

        ``dep_keys`` is filled by :func:`compile_with_tiers` (or derived
        structurally on a persistent-cache hit); a world mutation that
        fires any of these keys retires the code via
        :mod:`repro.robustness.invalidate`.
        """
        if not isinstance(code, Code) or not code.dep_keys:
            return
        from ..world.deps import CodeDependency

        self.universe.deps.register(
            code.dep_keys,
            CodeDependency(
                self, kind, cache_key, code, code_node, selector, code.disk_key
            ),
        )

    def _maybe_reoptimize(self) -> None:
        """End a deopt storm once no affected frames remain live.

        While a storm is on, every new compile is pessimistic and its
        cache key is *provisional*.  At the next top-level entry with an
        empty frame stack we drop those provisional bodies and flush the
        inline caches, so subsequent sends recompile at the optimizing
        tier against the post-mutation world — transparent
        reoptimization, without ever reasoning about a half-executed
        optimized frame.
        """
        if not self._deopt_storm or self.frames:
            return
        dropped = 0
        profiler = self.profiler
        for kind, key in self._provisional_keys:
            table = self._method_code if kind == "m" else self._block_code
            popped = table.pop(key, None)
            if popped is not None:
                dropped += 1
                if profiler is not None:
                    # Keep the dropped body's send-site counters
                    # attributable in the profile.
                    profiler.note_retired(popped[1])
        self._provisional_keys.clear()
        self._retired_live.clear()
        self._deopt_storm = False
        from ..robustness.invalidate import _flush_ics

        stats = self.universe.deps.stats
        stats["ic_flushes"] += _flush_ics(self)
        stats["reoptimized"] += 1
        self.recovery.note(
            stage="reoptimize",
            selector="<world>",
            from_tier=TIER_PESSIMISTIC,
            to_tier=TIER_OPTIMIZING,
            error_kind="WorldMutation",
            detail=f"storm ended: {dropped} provisional bodies dropped",
        )

    # ------------------------------------------------------------------
    # Serving hooks (repro.serve)
    # ------------------------------------------------------------------

    def set_degraded(self, flag: bool) -> None:
        """Enter or leave overload mode (the serve layer's load valve).

        While degraded, new compiles take the pessimistic tier and
        translation promotion is suppressed — strictly less compile
        work per request, at the price of slower steady-state code.
        Leaving overload (called between requests, with no live frames)
        drops every body compiled under degradation and flushes inline
        caches, so subsequent sends recompile at the optimizing tier —
        the same transparent-reoptimization move a deopt storm uses.
        """
        if flag == self.degraded:
            return
        self.degraded = flag
        if flag or self.frames:
            return
        dropped = 0
        profiler = self.profiler
        for kind, key in self._degraded_keys:
            table = self._method_code if kind == "m" else self._block_code
            popped = table.pop(key, None)
            if popped is not None:
                dropped += 1
                if profiler is not None:
                    profiler.note_retired(popped[1])
        self._degraded_keys.clear()
        if dropped:
            from ..robustness.invalidate import _flush_ics

            stats = self.universe.deps.stats
            stats["ic_flushes"] += _flush_ics(self)
            self.recovery.note(
                stage="reoptimize",
                selector="<world>",
                from_tier=TIER_PESSIMISTIC,
                to_tier=TIER_OPTIMIZING,
                error_kind="Overload",
                detail=f"overload ended: {dropped} degraded bodies dropped",
            )

    def kill_frames(self) -> int:
        """Abandon every live frame after an aborted request.

        A :class:`~repro.objects.errors.DeadlineExceeded` (or any fault
        the supervisor refuses to retry) propagates out of the dispatch
        loop without unwinding ``self.frames``; the supervisor calls
        this before reusing the runtime so the next request starts from
        a clean stack.  Frames are marked dead first, so any closure
        that captured one raises NonLocalReturnFromDeadActivation
        instead of resuming into an abandoned activation.
        """
        killed = len(self.frames)
        for frame in self.frames:
            frame.alive = False
        self.frames.clear()
        self._nlr = None
        return killed

    # ------------------------------------------------------------------
    # Synchronous call helpers (re-entrant run segments)
    # ------------------------------------------------------------------

    def _send_sync(self, receiver, selector: str, args: list):
        if selector.startswith("_"):
            return self._run_primitive_send(receiver, selector, args)
        if type(receiver) is SelfBlock and selector == block_value_selector(len(args)):
            return self._call_block_sync(receiver, args)
        found = lookup_slot(self.universe, receiver, selector)
        if found is None:
            raise MessageNotUnderstood(selector, self.universe.print_string(receiver))
        holder, slot = found
        if slot.kind == CONSTANT:
            value = slot.value
            if isinstance(value, SelfMethod):
                code = self._compile_method(
                    value.code, self.universe.map_of(receiver), selector
                )
                if isinstance(code, InterpretedCode):
                    return run_interpreted_method(
                        self, code.code, receiver, args, selector=selector
                    )
                self.cycles += self.model.frame_cycles
                return self._run_code(code, receiver, args, home=None)
            return value
        if slot.kind == DATA:
            self.cycles += self.model.slot_cycles
            return holder.get_data(slot.offset)
        if slot.kind == ASSIGNMENT:
            self.cycles += self.model.slot_cycles
            holder.set_data(slot.offset, args[0])
            return receiver
        raise VMError(f"unexpected slot kind {slot.kind}")

    def _call_block_sync(self, block: SelfBlock, args: list):
        home = block.home
        if not isinstance(home, Frame):
            # A closure created at the interpreter tier (its home is an
            # Activation): route it back to the bridge evaluator.
            return call_foreign_block(self, block, args)
        method_home = home
        while method_home.home is not None:
            method_home = method_home.home
        if not method_home.alive:
            raise NonLocalReturnFromDeadActivation()
        receiver = block.captured_self if block.captured_self is not None else home.receiver
        code = self._compile_block(block, self.universe.map_of(receiver))
        if isinstance(code, InterpretedCode):
            return run_interpreted_block(self, block, args)
        self.cycles += self.model.frame_cycles
        return self._run_code(
            code, receiver, args, home=home, env_map=block.env_map
        )

    def _run_primitive_send(self, receiver, selector: str, args: list):
        from ..primitives.registry import lookup_primitive

        primitive = lookup_primitive(selector)
        if primitive is None:
            raise MessageNotUnderstood(selector, self.universe.print_string(receiver))
        fail_handler = None
        if selector.endswith("IfFail:") and selector != primitive.selector:
            fail_handler = args.pop()
        self.cycles += self.model.prim_call_cycles
        self.cycles += PRIMITIVE_WORK_CYCLES.get(primitive.selector, 4)
        try:
            return primitive.fn(self.universe, receiver, args)
        except PrimFailSignal as failure:
            if fail_handler is None:
                raise PrimitiveFailed(primitive.selector, failure.code) from None
            if isinstance(fail_handler, SelfBlock):
                handler_args = [failure.code] if fail_handler.arity == 1 else []
                return self._call_block_sync(fail_handler, handler_args)
            return fail_handler

    # ------------------------------------------------------------------
    # The threaded interpreter loop
    # ------------------------------------------------------------------

    def _run_code(
        self,
        code: Code,
        receiver,
        args: Sequence,
        home: Optional[Frame],
        env_map: Optional[dict] = None,
    ):
        frame = Frame(code, receiver, home, ret_reg=-1, env_map=env_map)
        frame.regs[code.self_reg] = receiver
        for reg, value in zip(code.arg_regs, args):
            frame.regs[reg] = value
        base = len(self.frames)
        self.frames.append(frame)
        try:
            return self._loop(base)
        except (NonLocalUnwind, _NonLocalReturn):
            # The target activation lives below this run segment (a VM
            # frame, or — across the tier bridge — an interpreter
            # activation): unwind our frames and re-raise for the outer
            # segment or evaluator.
            for dead in self.frames[base:]:
                dead.alive = False
            del self.frames[base:]
            raise

    def _loop(self, base: int):
        # The whole cost of profiling-off: this single test per run
        # segment.  The profiled twin below carries the tick hooks so
        # the hot loop here stays untouched.
        if self.profiler is not None:
            return self._loop_profiled(base)
        frames = self.frames
        cycles = 0
        icount = 0
        threshold = self.translate_threshold
        budget = self.execution_budget
        try:
            while True:
                # Execution budget (serving): one is-None test per
                # frame switch when unarmed; armed, a fuel compare plus
                # a strided wall-clock probe.  A raised DeadlineExceeded
                # leaves frames on the stack — the supervisor calls
                # kill_frames before reusing this runtime.
                if budget is not None:
                    budget.tick(self.cycles + cycles)
                frame = frames[-1]
                code = frame.code
                regs = frame.regs
                pc = frame.pc
                # Tier selection: a hot body runs as one specialized
                # host function (vm/translate.py).  Promotion counts
                # fresh activations (pc == 0) only; a deopt storm (or
                # serving overload) suppresses new translations the
                # same way it forces pessimistic compiles.
                # ``translated`` is three-state: None = cold, callable
                # = translated, False = failed or retired (fall back to
                # the threaded stream forever).
                fn = code.translated
                if fn is None and threshold and pc == 0:
                    count = code.invocations + 1
                    code.invocations = count
                    if (
                        count >= threshold
                        and not self._deopt_storm
                        and not self.degraded
                    ):
                        fn = self.translator.translate(code)
                try:
                    if fn:
                        # A translated body may *decline* an entry by
                        # returning a non-negative pc: resume points
                        # inside a fused leaf have no dispatch label, so
                        # the rare re-entry there (cold callee, deopt
                        # fallback, NLR resume) continues this
                        # activation on the predecoded stream below —
                        # the identity PC mapping makes that exact.
                        pc = fn(self, frame, regs)
                    elif fn is False:
                        # A retired/untranslatable body: this entry
                        # fell back to the predecoded stream (the
                        # identity PC mapping makes any resume
                        # point valid in both tiers).
                        self.translate_stats["fallback_entries"] += 1
                    if pc >= 0:
                        insns = code.threaded
                        # The hot loop: fetch, charge the precomputed
                        # modeled cost, and jump straight to the bound
                        # handler.
                        while pc >= 0:
                            insn = insns[pc]
                            cycles += insn[1]
                            icount += insn[2]
                            pc = insn[0](self, frame, regs, insn, pc + 1)
                except NonLocalUnwind as unwind:
                    # A nested run segment (or the interpreter tier, via
                    # the bridge) unwound into this segment: pick the
                    # unwind up as if our own NLR handler had signalled.
                    self._nlr = (unwind.target, unwind.value, frame.pc)
                    pc = NLR_SIGNAL
                if pc != NLR_SIGNAL:
                    # REDISPATCH: a callee was pushed or a frame popped.
                    if len(frames) <= base:
                        return self._ret_value
                    continue
                # A non-local return is unwinding toward its home.  The
                # target is found by identity scan (not list.index, whose
                # ValueError doubles as control flow and compares by
                # equality): absence is an expected outcome, not an error.
                target, value, resume_pc = self._nlr
                position = -1
                for index in range(len(frames) - 1, base - 1, -1):
                    if frames[index] is target:
                        position = index
                        break
                if position < 0:
                    frame.pc = resume_pc
                    raise NonLocalUnwind(target, value)
                for dead in frames[position:]:
                    dead.alive = False
                ret_reg = target.ret_reg
                del frames[position:]
                if len(frames) <= base:
                    return value
                if ret_reg >= 0:
                    frames[-1].regs[ret_reg] = value
        finally:
            self.cycles += cycles
            self.instructions += icount

    def _loop_profiled(self, base: int):
        """:meth:`_loop` with the profiler's deterministic tick hooks.

        An exact twin of the hot loop — same tier selection, decline
        protocol, NLR scan, and modeled accounting — plus an activation
        tick per fresh entry (``pc == 0``) and a branch tick per taken
        backward branch (``0 <= next_pc <= current index``).  The hooks
        only *read* VM state, so cycles/instructions/IC counters are
        bit-identical to an unprofiled run.  Kept as a separate body so
        profiling off pays nothing inside :meth:`_loop`.
        """
        frames = self.frames
        prof = self.profiler
        cycles = 0
        icount = 0
        threshold = self.translate_threshold
        budget = self.execution_budget
        try:
            while True:
                if budget is not None:
                    budget.tick(self.cycles + cycles)
                frame = frames[-1]
                code = frame.code
                regs = frame.regs
                pc = frame.pc
                fn = code.translated
                if fn is None and threshold and pc == 0:
                    count = code.invocations + 1
                    code.invocations = count
                    if (
                        count >= threshold
                        and not self._deopt_storm
                        and not self.degraded
                    ):
                        fn = self.translator.translate(code)
                # Tick after tier selection so the activation lands on
                # the tier that actually runs it (a body promoted on
                # this very entry counts as translated).
                if pc == 0:
                    prof.tick_activation(frame)
                try:
                    if fn:
                        pc = fn(self, frame, regs)
                    elif fn is False:
                        self.translate_stats["fallback_entries"] += 1
                    if pc >= 0:
                        insns = code.threaded
                        while pc >= 0:
                            insn = insns[pc]
                            cycles += insn[1]
                            icount += insn[2]
                            npc = insn[0](self, frame, regs, insn, pc + 1)
                            if 0 <= npc <= pc:
                                prof.tick_branch(frame)
                            pc = npc
                except NonLocalUnwind as unwind:
                    self._nlr = (unwind.target, unwind.value, frame.pc)
                    pc = NLR_SIGNAL
                if pc != NLR_SIGNAL:
                    if len(frames) <= base:
                        return self._ret_value
                    continue
                target, value, resume_pc = self._nlr
                position = -1
                for index in range(len(frames) - 1, base - 1, -1):
                    if frames[index] is target:
                        position = index
                        break
                if position < 0:
                    frame.pc = resume_pc
                    raise NonLocalUnwind(target, value)
                for dead in frames[position:]:
                    dead.alive = False
                ret_reg = target.ret_reg
                del frames[position:]
                if len(frames) <= base:
                    return value
                if ret_reg >= 0:
                    frames[-1].regs[ret_reg] = value
        finally:
            self.cycles += cycles
            self.instructions += icount

    # ------------------------------------------------------------------
    # Cold helpers used by the dispatch handlers
    # ------------------------------------------------------------------

    def _resolve_send(self, receiver, receiver_map, selector: str, arity: int):
        if selector.startswith("_"):
            return ("prim",)
        if type(receiver) is SelfBlock and selector == block_value_selector(arity):
            return ("block",)
        found = lookup_slot(self.universe, receiver, selector)
        if found is None:
            raise MessageNotUnderstood(selector, self.universe.print_string(receiver))
        holder, slot = found
        holder_for_action = None if holder is receiver else holder
        if slot.kind == CONSTANT:
            value = slot.value
            if isinstance(value, SelfMethod):
                code = self._compile_method(value.code, receiver_map, selector)
                if isinstance(code, InterpretedCode):
                    return ("interp", code)
                return ("call", code)
            return ("const", value)
        if slot.kind == DATA:
            return ("data", holder_for_action, slot.offset)
        if slot.kind == ASSIGNMENT:
            return ("assign", holder_for_action, slot.offset)
        raise VMError(f"unexpected slot kind {slot.kind}")

    def _send_block(self, regs, insn, block, pc: int) -> int:
        """A SEND whose resolved action is a block invocation; pushes
        the block's frame and returns the REDISPATCH sentinel (or runs
        the block synchronously at the interpreter tier and returns
        ``pc``)."""
        home = block.home
        if not isinstance(home, Frame):
            regs[insn[3]] = call_foreign_block(
                self, block, [regs[r] for r in insn[6]]
            )
            return pc
        method_home = home
        while method_home.home is not None:
            method_home = method_home.home
        if not method_home.alive:
            raise NonLocalReturnFromDeadActivation()
        receiver = (
            block.captured_self if block.captured_self is not None
            else home.receiver
        )
        code = self._compile_block(block, self.universe.map_of(receiver))
        if isinstance(code, InterpretedCode):
            regs[insn[3]] = run_interpreted_block(
                self, block, [regs[r] for r in insn[6]]
            )
            return pc
        self.cycles += self.model.frame_cycles
        callee = Frame(code, receiver, home, ret_reg=insn[3], env_map=block.env_map)
        callee.regs[code.self_reg] = receiver
        for reg, src in zip(code.arg_regs, insn[6]):
            callee.regs[reg] = regs[src]
        self.frames.append(callee)
        return -1

    def _run_interpreted(self, code: InterpretedCode, receiver, args: list):
        """Execute an interpreter-tier method body for the dispatch loop."""
        return run_interpreted_method(
            self, code.code, receiver, args, selector=code.selector
        )

    def _make_block(self, frame: Frame, block_node, template, captured_self):
        self._block_templates.setdefault(block_node.block_id, template)
        env_map = self._build_env_map(frame, template)
        return SelfBlock(
            self.universe.block_map(block_node), block_node, frame,
            env_map=env_map, captured_self=captured_self,
        )

    # ------------------------------------------------------------------
    # Environments
    # ------------------------------------------------------------------

    def _build_env_map(self, frame: Frame, template) -> dict:
        """Capture the closure's free-name -> env-key mapping.

        Passthrough entries ('*name') come from this frame's own closure
        mapping (we are block code creating a nested block).
        """
        env_map: dict = {}
        frame_map = frame.env_map
        for name, key in template.resolutions.items():
            if key is None:
                continue
            if key.startswith("*"):
                source = key[1:]
                if frame_map is not None and source in frame_map:
                    env_map[source] = frame_map[source]
                else:
                    env_map[source] = source
            else:
                env_map[name] = key
        return env_map

    def _env_load(self, frame: Frame, key: str):
        current: Optional[Frame] = frame
        if frame.env_map is not None and key in frame.env_map:
            # A free variable of this block: by construction it lives in
            # the home chain, never in this frame — start above, so a
            # recursive block's own (identically-keyed) locals cannot
            # shadow the instance the closure captured.
            key = frame.env_map[key]
            current = frame.home
        hops = 1
        while current is not None:
            env = current.env
            if env is not None and key in env:
                self.cycles += self.model.env_hop_cycles * hops
                return env[key]
            current = current.home
            hops += 1
        raise VMError(f"unresolved environment variable {key!r}")

    def _env_store(self, frame: Frame, key: str, value) -> None:
        current: Optional[Frame] = frame
        if frame.env_map is not None and key in frame.env_map:
            key = frame.env_map[key]
            current = frame.home
        hops = 1
        while current is not None:
            env = current.env
            if env is not None and key in env:
                self.cycles += self.model.env_hop_cycles * hops
                env[key] = value
                return
            current = current.home
            hops += 1
        raise VMError(f"unresolved environment variable {key!r}")
