"""Compiled bytecode objects and inline-cache sites."""

from __future__ import annotations

from typing import Optional


class InlineCacheSite:
    """One send site's inline cache.

    Tracks the actions per receiver map and the miss count; after
    ``megamorphic_threshold`` distinct maps the site is megamorphic and
    every send pays most of a lookup (this is the effect behind the
    paper's richards anomaly, section 6.1).
    """

    __slots__ = (
        "selector", "entries", "cached_map_id", "cached_map",
        "cached_action", "pic", "mega", "misses", "hits", "relinks",
        "owner", "index",
    )

    def __init__(self, selector: str) -> None:
        self.selector = selector
        #: resolution cache (all actions ever resolved at this site)
        self.entries: dict[int, object] = {}
        #: the single inline-cache entry (monomorphic, as in the era)
        self.cached_map_id = -1
        #: the cached map *object* (``REPRO_PIC=1`` only): the lean
        #: translated probe compares map identity, skipping the
        #: ``map_id`` attribute load; maintained alongside
        #: ``cached_map_id`` on every relink and cleared by every flush
        self.cached_map = None
        self.cached_action = None
        #: bounded polymorphic inline cache (``REPRO_PIC=1``): a list of
        #: ``(map, action, dep_map_ids)`` rows probed linearly (by map
        #: identity) after the monomorphic entry misses; ``None`` while
        #: the site is monomorphic or the PIC tier is off
        self.pic = None
        #: the megamorphic tier: a per-selector dispatch table shared
        #: across every overflowed site of the owning runtime
        #: (``map -> action``, keyed by map identity); ``None`` until
        #: the PIC overflows
        self.mega = None
        self.misses = 0
        self.hits = 0
        self.relinks = 0
        #: stable site identity for profiling — the owning body's name
        #: and this site's position in it, stamped by Code.__init__ so
        #: share clones (fresh site objects over the same body)
        #: aggregate under one (owner, index, selector) key
        self.owner = ""
        self.index = -1

    @property
    def polymorphic(self) -> bool:
        return len(self.entries) > 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<IC {self.selector!r} {len(self.entries)} maps "
            f"h{self.hits}/m{self.misses}/r{self.relinks}>"
        )


class Code:
    """One compiled activation body (method or block) in bytecode."""

    __slots__ = (
        "name",
        "insns",
        "threaded",
        "consts",
        "reg_count",
        "self_reg",
        "arg_regs",
        "env_keys",
        "ic_sites",
        "size_bytes",
        "is_block",
        "graph_stats",
        "compile_stats",
        "config_name",
        "map_dependent",
        "dep_keys",
        "disk_key",
        "retired",
        "translated",
        "invocations",
        "tier",
    )

    def __init__(
        self,
        name: str,
        insns: list,
        consts: list,
        reg_count: int,
        self_reg: int,
        arg_regs: tuple[int, ...],
        env_keys: frozenset,
        ic_sites: list[InlineCacheSite],
        size_bytes: int,
        is_block: bool,
        graph_stats=None,
        compile_stats=None,
        config_name: str = "",
        threaded=None,
        map_dependent: bool = True,
    ) -> None:
        self.name = name
        self.insns = insns
        #: the predecoded stream the VM actually executes (see
        #: :mod:`.dispatch`), index-aligned with ``insns``, which is kept
        #: as the architectural listing for tests, sizing, and
        #: disassembly.
        self.threaded = threaded
        self.consts = consts
        self.reg_count = reg_count
        self.self_reg = self_reg
        self.arg_regs = arg_regs
        self.env_keys = env_keys
        self.ic_sites = ic_sites
        for position, site in enumerate(ic_sites):
            site.owner = name
            site.index = position
        self.size_bytes = size_bytes
        self.is_block = is_block
        self.graph_stats = graph_stats
        self.compile_stats = compile_stats or {}
        self.config_name = config_name
        #: customization taint from the compiler: False only when no
        #: compile-time decision consulted the receiver map, so this
        #: body may be shared (cloned) across receiver maps.
        self.map_dependent = map_dependent
        #: world facts this compile assumed (frozenset of dependency
        #: keys, filled by compile_with_tiers); None until compiled
        self.dep_keys = None
        #: persistent code-cache key when this body was loaded from or
        #: stored to disk (for dependency-driven eviction)
        self.disk_key = None
        #: set by invalidation: this body's assumptions were broken and
        #: it has been removed from the caches that served it
        self.retired = False
        #: the translated-tier entry: ``None`` (not yet translated),
        #: a callable ``fn(vm, frame, regs) -> sentinel`` (the fourth
        #: tier — see :mod:`.translate`), or ``False`` (translation
        #: failed or was retired by invalidation; never retry, every
        #: activation falls back to the predecoded stream).  Labels in
        #: the translated function are threaded-stream indices, so
        #: ``frame.pc`` is valid in both representations — the fallback
        #: PC mapping is the identity.
        self.translated = None
        #: fresh activations observed by the dispatch loop (drives
        #: promotion past ``REPRO_TRANSLATE_THRESHOLD``)
        self.invocations = 0
        #: the compile tier that produced this body ("optimizing" or
        #: "pessimistic", stamped by compile_with_tiers); the profiler
        #: attributes ticks per tier through it.  A translated body is
        #: recognized by ``translated`` being a callable, and the
        #: interpreter tier never builds a Code at all.
        self.tier = "optimizing"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Code {self.name!r} {len(self.insns)} insns, "
            f"{self.size_bytes} bytes, {self.reg_count} regs>"
        )

    def disassemble(self) -> str:
        """Human-readable instruction listing (for tests and examples)."""
        from .opcodes import op_name

        lines = []
        for index, insn in enumerate(self.insns):
            operands = " ".join(repr(x) for x in insn[1:])
            lines.append(f"{index:4}: {op_name(insn[0]):<10} {operands}")
        return "\n".join(lines)

    def disassemble_threaded(self) -> str:
        """Listing of the predecoded stream the VM executes."""
        from .dispatch import disassemble_threaded

        return disassemble_threaded(self.threaded)
