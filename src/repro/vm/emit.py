"""Source emission for the translated tier: threaded stream -> Python.

:func:`emit_source` walks one predecoded stream (:func:`~.dispatch.predecode`'s
output, one slot per architectural instruction) and generates the
source of one specialized host function for the whole body.  Where the threaded loop
pays one indexed load plus one call per instruction, the translated
function is straight-line code: handler bodies are inlined in stream
order, and control flow is lowered to a dispatch-free jump-label scheme

::

    while True:
        if _l == 0:          # labels are instruction indices
            ...straight-line handler bodies...
            _l = 12          # a taken branch: set the label,
            continue         # re-enter the chain
        elif _l == 12:
            ...

**Labels are instruction indices.**  The label set is ``{0}`` plus every
branch target plus the index after every SEND (which suspends the frame
when it pushes a callee), so ``frame.pc`` means the same thing in both
representations and the fallback PC mapping is the identity: a frame
suspended by a translated SEND can resume in the threaded loop (and
vice versa) at any activation boundary — this is what makes
invalidation's "live translated frames fall back to the predecoded
stream" contract trivially sound (docs/INTERNALS.md §12).

**Register moves are propagated, not executed.**  The compiler's
register allocator produces long chains of plain moves
(``regs[4] = regs[3]; regs[5] = regs[4]``); executing them one-for-one
would dominate the generated code.  The emitter instead keeps an
emission-time alias map — "the logical value of register *r* currently
lives in slot *p*" — substitutes every read through it, and *defers*
the stores.  Deferred stores materialize only where another tier (or
another frame) could observe ``regs`` physically: at taken branches and
block boundaries (filtered by a liveness analysis over the threaded
stream, so dead registers are never stored at all), and at every SEND
(the argument registers plus whatever is live at the resume point —
the callee's return value write, the cold send helpers, and a threaded
fallback resume all read ``regs`` directly).  Terminating exits
(RETURN, NLR, guest errors) flush nothing: the frame is dead or
unwinding and its registers are unobservable.

**Modeled counters** are compiled in only when requested.  With
``counters=True`` every instruction charges its precomputed static cost
(``_cyc += c; _n += k``) into locals flushed by a ``try/finally`` —
bit-identical to the threaded loop's accounting, including exception
exits.  A MOVE's or LOADK's cost is carried forward into the next
charge statement of its block (their lowerings emit no branch, raise
or call, so no exit can observe the delay): a register-move chain
costs one ``_cyc +=`` statement, not one per move.  With ``counters=False``
(``REPRO_MODELED_COUNTERS=0``) all accounting is elided from the
generated source: the modeled measurements of translated bodies become
meaningless, and the win is raw wall-clock.

**Constants** (IC sites, maps, block templates, primitive functions)
are not baked into the source; each is referenced as ``_K[i]`` and the
emitter returns the *paths* ``(stream_index[, operand])`` that
locate them in the threaded stream.  The same compiled factory is
therefore reusable across share clones (congruent re-predecoded
streams over the same ``insns`` list): only the cheap constant
extraction runs per clone.  Immutable literals (ints, strs, floats,
None, bools) are inlined directly.

The open-coded SEND probe duplicates only the monomorphic hit path;
the cold halves call :func:`~.dispatch._send_miss` and
:func:`~.dispatch._send_action` — the same functions the threaded
handler uses — so cache-miss, PIC, and every non-call action kind have
exactly one implementation.
"""

from __future__ import annotations

from ..objects.errors import (
    NonLocalReturnFromDeadActivation,
    PrimitiveFailed,
    VMError,
)
from ..objects.model import (
    SMALLINT_MAX,
    SMALLINT_MIN,
    BigInt,
    SelfBlock,
    SelfObject,
    SelfVector,
)
from ..primitives.registry import PrimFailSignal
from .dispatch import (
    _do_add,
    _do_add_ov,
    _do_alen,
    _do_aload,
    _do_astore,
    _do_bounds,
    _do_cmp_eq,
    _do_cmp_ge,
    _do_cmp_gt,
    _do_cmp_le,
    _do_cmp_lt,
    _do_cmp_ne,
    _do_div,
    _do_div_ov,
    _do_env_load,
    _do_env_store,
    _do_error,
    _do_jump,
    _do_loadk,
    _do_loadslot,
    _do_make_block,
    _do_mod,
    _do_mod_ov,
    _do_move,
    _do_mul,
    _do_mul_ov,
    _do_nlr,
    _do_primcall,
    _do_primcall_clone,
    _do_primcall_newvec,
    _do_return,
    _do_send,
    _do_storeslot,
    _do_sub,
    _do_sub_ov,
    _do_typetest,
    _send_action,
    _send_miss,
)
from .frame import Frame


class UnsupportedStream(Exception):
    """The stream contains something the emitter cannot lower; the
    translator marks the body untranslatable and the predecoded stream
    keeps running it."""


#: the exec() namespace every generated factory closes over
EMIT_GLOBALS = {
    "_Frame": Frame,
    "_new_frame": object.__new__,
    "_send_miss": _send_miss,
    "_send_action": _send_action,
    "_PrimFail": PrimFailSignal,
    "_PrimitiveFailed": PrimitiveFailed,
    "_BigInt": BigInt,
    "_SelfObject": SelfObject,
    "_SelfBlock": SelfBlock,
    "_SelfVector": SelfVector,
    "_DeadNLR": NonLocalReturnFromDeadActivation,
    "_VMError": VMError,
}

#: direct translated->translated calls deeper than this trampoline
#: back through the caller's inline loop (bounds host stack growth)
MAX_DIRECT_DEPTH = 64


def extract_constant(threaded, path):
    """Resolve one constant path against a (congruent) threaded stream."""
    obj = threaded[path[0]]
    for index in path[1:]:
        obj = obj[index]
    return obj


def _is_literal(value) -> bool:
    return (
        value is None
        or value is True
        or value is False
        or type(value) is int
        or type(value) is str
        or type(value) is float
    )


class _Ctx:
    """Emission state: output lines, indent depth, constant paths, and
    the move-propagation alias map.

    ``alias[r] == p`` means "the logical value of register ``r``
    currently lives in physical slot ``p``" — reads go through
    :meth:`rd`, plain moves through :meth:`defer_move` (which emits
    nothing), and real stores through :meth:`wr` (which first
    *materializes* any register whose value is physically backed by the
    slot about to be clobbered).  The invariant maintained throughout
    is that no alias key ever appears as an alias value, so the stores
    emitted by :meth:`flush` are independent of order.

    The alias map is *emission-time* state: conditional arms that
    rejoin the straight-line path must leave it exactly as they found
    it (callers :meth:`snapshot`/:meth:`restore` around arms that exit
    via ``goto``/``raise``).
    """

    __slots__ = (
        "threaded", "counters", "universe", "lines", "depth",
        "paths", "_path_index", "guards", "alias", "live_in",
        "profiling", "pic", "cur", "site_locals", "pending",
    )

    def __init__(self, threaded, counters: bool, universe=None,
                 live_in=None, profiling: bool = False,
                 pic: bool = False) -> None:
        self.threaded = threaded
        self.counters = counters
        #: emit profiler tick hooks (activation ticks at the trampoline,
        #: branch ticks at backward gotos) — same emission-time gating
        #: as ``counters``, so profiling off leaves the source untouched
        self.profiling = profiling
        #: open-code the dispatch ladder (PIC probe + megamorphic
        #: table) in SEND emission.  Only the raw-speed mode takes the
        #: lean path: with counters or profiling on, sends keep the
        #: pre-ladder emission (everything cold goes through
        #: ``_send_miss``) so modeled accounting stays bit-identical
        self.pic = pic
        #: stream index of the instruction currently being emitted
        #: (maintained by emit_source's pass 1; a goto to ``<= cur`` is
        #: a backward branch)
        self.cur = -1
        #: when provided, type tests against well-known maps lower to
        #: host type checks and object-map probes to attribute loads
        #: (sound: the compile that planted the test recorded the
        #: well-known-map dependency, so the mutation that could break
        #: the specialization also retires this translation)
        self.universe = universe
        self.lines: list[str] = []
        self.depth = 0
        self.paths: list[tuple] = []
        self._path_index: dict[tuple, int] = {}
        #: (path, value) pairs a *reused* factory must re-verify: a
        #: well-known-map specialization bakes the map's identity into
        #: the source (no ``_K`` reference), so a congruent clone stream
        #: must carry the same object at that path to share the factory
        self.guards: list[tuple] = []
        self.alias: dict[int, int] = {}
        #: per-stream-index live register sets (threaded semantics),
        #: consulted when a control transfer forces deferred stores out
        self.live_in = live_in
        #: lean mode only: IC-site constants bound to function-entry
        #: locals (``_sN = _K[n]``) so each open-coded ladder probe
        #: skips the per-send constant-pool subscript.  Maps the
        #: constant path to the local's name; empty outside lean mode,
        #: keeping non-lean emission byte-identical to a PIC-off build.
        self.site_locals: dict[tuple, str] = {}
        #: counters mode: ``(cycles, count)`` of the MOVE/LOADK run not
        #: yet charged — carried into the block's next charge statement
        self.pending = (0, 0)

    def guard(self, path: tuple, value) -> None:
        self.guards.append((path, value))

    def w(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def konst(self, *path) -> str:
        index = self._path_index.get(path)
        if index is None:
            index = len(self.paths)
            self.paths.append(path)
            self._path_index[path] = index
        return f"_K[{index}]"

    def site_local(self, path: tuple) -> str:
        """The entry-hoisted local holding the IC site at ``path``."""
        expr = self.konst(*path)
        name = "_s" + expr[3:-1]
        self.site_locals[path] = name
        return name

    def operand(self, i: int, j: int) -> str:
        """Operand ``j`` of slot ``i``: inline literal or constant-pool
        slot."""
        value = self.threaded[i][j]
        if _is_literal(value):
            return repr(value)
        return self.konst(i, j)

    # -- move propagation ---------------------------------------------------

    def rd(self, reg: int) -> str:
        """The expression reading logical register ``reg``."""
        return f"regs[{self.alias.get(reg, reg)}]"

    def wr(self, reg: int) -> str:
        """The lvalue for a real store to ``reg``; materializes every
        register whose deferred value is backed by this slot first.
        Call only after all read expressions of the statement are
        resolved (:meth:`rd` of the old ``reg`` must not see the drop).
        """
        alias = self.alias
        if alias:
            for q in [q for q, p in alias.items() if p == reg]:
                self.w(f"regs[{q}] = regs[{reg}]")
                del alias[q]
            alias.pop(reg, None)
        return f"regs[{reg}]"

    def defer_move(self, dst: int, src: int) -> None:
        """Record ``dst := src`` in the alias map; emits no store."""
        alias = self.alias
        for q in [q for q, p in alias.items() if p == dst]:
            self.w(f"regs[{q}] = regs[{dst}]")
            del alias[q]
        root = alias.get(src, src)
        if root == dst:
            alias.pop(dst, None)
        else:
            alias[dst] = root

    def flush(self, needed=None, clear: bool = False) -> None:
        """Materialize deferred stores (restricted to ``needed`` when
        given).  Order-independent by the keys-never-values invariant.
        """
        alias = self.alias
        if alias:
            for q in sorted(alias):
                if needed is None or q in needed:
                    self.w(f"regs[{q}] = regs[{alias[q]}]")
        if clear:
            self.alias = {}

    def snapshot(self) -> dict:
        return dict(self.alias)

    def restore(self, saved: dict) -> None:
        self.alias = saved

    # -----------------------------------------------------------------------

    def charge(self, insn) -> None:
        """Charge ``insn``'s static cost before its lowering.

        A MOVE's or LOADK's cost is carried forward into the next charge
        statement instead: their lowerings emit no branch, raise or
        call, so no exit lies between them and that statement and the
        totals stay exact.  A fallthrough into a label, which ends the
        block, pays the carried cost with :meth:`flush_charge`.
        """
        if self.counters:
            cycles, count = self.pending
            self.pending = (cycles + insn[1], count + insn[2])
            if insn[0] is not _do_move and insn[0] is not _do_loadk:
                self.flush_charge()

    def flush_charge(self) -> None:
        cycles, count = self.pending
        if count:
            self.pending = (0, 0)
            if cycles:
                self.w(f"_cyc += {cycles}; _n += {count}")
            else:
                self.w(f"_n += {count}")

    def goto(self, target: int) -> None:
        # A taken control transfer is observable: the target block (in
        # either tier) reads registers physically, so deferred stores
        # of registers live there materialize on this path.  The alias
        # map itself is untouched — the fallthrough emission path
        # continues with its deferrals intact.
        self.flush(self.live_in[target])
        if self.profiling and 0 <= target <= self.cur:
            # A taken backward branch: the same deterministic tick the
            # threaded loop records for ``next_pc <= pc``.
            self.w("vm.profiler.tick_branch(frame)")
        self.w(f"_l = {target}")
        self.w("continue")


# ---------------------------------------------------------------------------
# Liveness over the threaded stream
# ---------------------------------------------------------------------------
# Each handler contributes an ordered tuple of *parts*
# ``(reads, writes, targets)``: the machine reads ``reads``, may
# transfer to any of ``targets`` (where that index's live-in set
# applies), and on fallthrough has performed ``writes``.  Folding the
# parts backward gives the instruction's live-in from its live-out.
# Reads are exact-or-over-approximated and writes under-approximated
# where edges differ (e.g. the overflow edge's error-register store is
# ignored), which only ever *grows* the live sets — flushing a dead
# register is wasted work, never wrong.


def _lv_move(i):
    return (((i[4],), (i[3],), ()),), True


def _lv_loadk(i):
    return (((), (i[3],), ()),), True


def _lv_cmp(i):
    return (((i[3], i[4]), (), (i[5],)),), True


def _lv_arith(i):
    return (((i[4], i[5]), (i[3],), ()),), True


def _lv_arith_ov(i):
    return (((i[4], i[5]), (), (i[7],)), ((), (i[3],), ())), True


def _lv_typetest(i):
    return (((i[3],), (), (i[5],)),), True


def _lv_bounds(i):
    return (((i[3], i[4]), (), (i[5],)),), True


def _lv_aload(i):
    return (((i[4], i[5]), (i[3],), ()),), True


def _lv_astore(i):
    return (((i[3], i[4], i[5]), (), ()),), True


def _lv_alen(i):
    return (((i[4],), (i[3],), ()),), True


def _lv_loadslot(i):
    return (((i[4],), (i[3],), ()),), True


def _lv_storeslot(i):
    return (((i[3], i[5]), (), ()),), True


def _lv_env_load(i):
    return (((), (i[3],), ()),), True


def _lv_env_store(i):
    return (((i[4],), (), ()),), True


def _lv_make_block(i):
    return (((i[6],), (i[3],), ()),), True


def _lv_jump(i):
    return (((), (), (i[3],)),), False


def _lv_return(i):
    return (((i[3],), (), ()),), False


def _lv_nlr(i):
    # Conservative fallthrough: the frame in fact dies or unwinds, but
    # treating the next slot as a successor only enlarges the live set.
    return (((i[3],), (), ()),), True


def _lv_error(i):
    reads = (i[5],) if i[4] is None else ()
    return ((reads, (), ()),), False


def _lv_send(i):
    return (((i[5],) + tuple(i[6]), (i[3],), ()),), True


def _lv_primcall(i):
    targets = (i[8],) if i[8] >= 0 else ()
    return (((i[5],) + tuple(i[6]), (), targets), ((), (i[3],), ())), True


def _analyze_liveness(threaded):
    """Backward fixpoint of live registers per stream index.

    Returns ``live_in`` of length ``len(threaded) + 1`` (the sentinel
    tail entry is empty) consulted wherever a deferred store could
    become observable: the emitter stores a dead register *never*, a
    live one only at the control transfer that exposes it.
    """
    n = len(threaded)
    specs = []
    for insn in threaded:
        fn = _LIVE_SPECS.get(insn[0])
        if fn is None:
            raise UnsupportedStream(
                f"no liveness spec for handler {insn[0].__name__}"
            )
        specs.append(fn(insn))
    empty = frozenset()
    live_in = [empty] * (n + 1)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1, -1, -1):
            parts, fall = specs[i]
            live = live_in[i + 1] if fall else empty
            for reads, writes, targets in reversed(parts):
                for t in targets:
                    live = live | live_in[t]
                if writes:
                    live = live.difference(writes)
                if reads:
                    live = live.union(reads)
            if live != live_in[i]:
                live_in[i] = live
                changed = True
    return live_in


# ---------------------------------------------------------------------------
# Lowering helpers, and the long SEND and PRIMCALL lowerings
# ---------------------------------------------------------------------------


#: well-known-map kinds whose instances are bare host values with a
#: dedicated singleton map: ``map_of(x) is <wk map>  <=>  type(x) is T``
_WK_HOST_TYPES = {
    "smallInt": "int",
    "bigInt": "_BigInt",
    "float": "float",
    "string": "str",
}

#: model classes that carry their map as an attribute, keyed by map
#: kind (a wrong guess only costs the ``_map_of`` fallback, never
#: correctness, so no reuse guard is needed for this form)
_ATTR_CLASSES = {"block": "_SelfBlock", "vector": "_SelfVector"}


def _map_mismatch(c, i, reg, map_j) -> str:
    """The condition for "``regs[reg]``'s map is not the tested map".

    Without a universe this is the handler's literal form.  With one,
    tests against the singleton well-known maps become host ``type``
    checks (guarded for factory reuse), and everything else probes the
    ``.map`` attribute directly with ``_map_of`` as the cold fallback —
    eliminating the per-test ``map_of`` call that dominates translated
    send-heavy profiles.
    """
    expr = c.rd(reg)
    uni = c.universe
    if uni is not None:
        path = (i, map_j)
        tested = c.threaded[i][map_j]
        kind = getattr(tested, "kind", None)
        host_type = _WK_HOST_TYPES.get(kind)
        if host_type is not None and tested is getattr(
            uni, {"smallInt": "smallint_map", "bigInt": "bigint_map",
                  "float": "float_map", "string": "string_map"}[kind]
        ):
            c.guard(path, tested)
            return f"type({expr}) is not {host_type}"
        cls = _ATTR_CLASSES.get(kind, "_SelfObject")
        return (
            f"({expr}.map if {expr}.__class__ is {cls} "
            f"else _map_of({expr})) is not {c.operand(i, map_j)}"
        )
    return f"_map_of({expr}) is not {c.operand(i, map_j)}"


def _em_send(c, insn, i, resume):
    """Open-code one SEND: monomorphic probe + inlined call action;
    every other outcome reuses the threaded handler's cold halves.

    A pushed callee is not bounced back to the runtime's outer loop:
    the tail trampoline direct-calls the callee's own translated
    function (depth-capped so the host stack stays bounded), and keeps
    re-dispatching whatever frame is on top until control returns to
    *this* frame — so a chain of hot translated sends runs entirely
    inside generated code.  Cold, retired, or over-deep callees fall
    out to the outer loop (``return -1``), which still counts their
    invocations and promotes them as usual.

    A send is where deferred moves become observable: the cold helpers
    read the argument registers physically, the callee's return writes
    ``regs[dst]`` physically, and a deopt fallback resumes the frame on
    the threaded stream — so everything live at the resume point (plus
    the arguments) is flushed here and the alias map starts empty on
    the far side.
    """
    dst, recv, arg_regs = insn[3], insn[5], insn[6]
    insn_k = c.konst(i)
    recv_e = c.rd(recv)
    c.flush(c.live_in[resume].union(arg_regs), clear=True)
    # The dispatch ladder is open-coded only in raw-speed mode: with
    # counters or profiling on the cold half stays ``_send_miss`` so
    # the modeled accounting (and the emitted source) is identical to
    # a PIC-off build.
    lean = c.pic and not c.counters and not c.profiling
    if lean:
        site = c.site_local((i, 7))
        c.w(f"_recv = {recv_e}")
    else:
        c.w(f"frame.pc = {resume}")
        c.w(f"_recv = {recv_e}")
        c.w(f"_site = {c.konst(i, 7)}")
        site = "_site"
    # map_of(SelfObject) is exactly ``value.map``; everything else
    # (ints, floats, blocks, vectors, ...) takes the cold call.
    c.w(
        "_rm = _recv.map if _recv.__class__ is _SelfObject "
        "else _map_of(_recv)"
    )

    def emit_call_body(set_pc):
        if set_pc:
            c.w(f"frame.pc = {resume}")
        if c.counters:
            c.w(f"_cyc += {insn[12]}")
        c.w("_code = _act[1]")
        # Frame fields spelled out inline (mirrors Frame.__init__):
        # the constructor call itself is measurable at send-heavy
        # call rates.
        c.w("_callee = _new_frame(_Frame)")
        c.w("_callee.code = _code")
        c.w("_callee.pc = 0")
        c.w("_callee.regs = _cregs = [None] * _code.reg_count")
        c.w("_callee.receiver = _recv")
        c.w("_ek = _code.env_keys")
        c.w("_callee.env = dict.fromkeys(_ek) if _ek else None")
        c.w("_callee.env_map = None")
        c.w("_callee.home = None")
        c.w(f"_callee.ret_reg = {dst}")
        c.w("_callee.alive = True")
        c.w("_cregs[_code.self_reg] = _recv")
        if arg_regs:
            c.w("_ar = _code.arg_regs")
            c.w(f"if len(_ar) == {len(arg_regs)}:")
            c.depth += 1
            for j, src in enumerate(arg_regs):
                c.w(f"_cregs[_ar[{j}]] = regs[{src}]")
            c.depth -= 1
            c.w("else:")
            c.depth += 1
            srcs = ", ".join(str(src) for src in arg_regs)
            c.w(f"for _a, _s in zip(_ar, ({srcs},)):")
            c.depth += 1
            c.w("_cregs[_a] = regs[_s]")
            c.depth -= 2
        c.w("_F.append(_callee)")
        c.w("_r = -1")

    if lean:
        # Wall-clock tier.  The hot probes — mono, shared megamorphic
        # table, bounded PIC — are pure loads and compares: no
        # accounting, no MRU rotation, and ``frame.pc`` is stored only
        # on the branches that can actually suspend this frame (a
        # pushed callee, a generic action, or the ``_send_miss`` cold
        # call).  The megamorphic table is probed *before* the PIC:
        # an overflowed site has ``pic = None``, so the table probe is
        # the common second rung on hostile workloads, while a
        # still-polymorphic site pays one extra None-test.  Probes
        # compare map *identity* (``cached_map`` / map-keyed tables),
        # skipping the ``map_id`` attribute load.  Ladder telemetry
        # (``mega_table_hits``) is counted by the interpreter tier
        # only; this path stays bare.
        #
        # Translation runs *after* warm-up, so a site that is already
        # megamorphic at emit time gets table-first emission with the
        # mono probe and the PIC arm compiled out entirely — the
        # ladder is one-way (only a wholesale flush nulls ``mega``,
        # and that path falls back to ``_send_miss``, which re-learns
        # and re-overflows).  The specialization bakes in this site's
        # state, so the factory is guarded on the site object: a share
        # clone with a colder site re-emits instead of reusing.
        site_obj = c.threaded[i][7]
        if getattr(site_obj, "mega", None) is not None:
            c.guard((i, 7), site_obj)
            # MRU promotion keeps the mono probe even in table-first
            # emission: the table hit below re-installs its row here,
            # so a skewed distribution's dominant receiver pays one
            # identity compare per send and the table is only
            # consulted when the receiver changes.
            c.w(f"if {site}.cached_map is _rm:")
            c.depth += 1
            c.w(f"_act = {site}.cached_action")
            c.depth -= 1
            c.w("else:")
            c.depth += 1
            c.w(f"_mega = {site}.mega")
            c.w("if _mega is not None:")
            c.depth += 1
            c.w("try:")
            c.depth += 1
            c.w("_act = _mega[_rm]")
            c.depth -= 1
            c.w("except KeyError:")
            c.depth += 1
            c.w(f"frame.pc = {resume}")
            c.w(f"_act = _send_miss(vm, _recv, {site}, {insn_k})")
            c.depth -= 1
            c.w("else:")
            c.depth += 1
            c.w(f"{site}.cached_map_id = _rm.map_id")
            c.w(f"{site}.cached_map = _rm")
            c.w(f"{site}.cached_action = _act")
            c.depth -= 2
            c.w("else:")
            c.depth += 1
            c.w(f"frame.pc = {resume}")
            c.w(f"_act = _send_miss(vm, _recv, {site}, {insn_k})")
            c.depth -= 2
        else:
            c.w(f"if {site}.cached_map is _rm:")
            c.depth += 1
            c.w(f"_act = {site}.cached_action")
            c.depth -= 1
            c.w("else:")
            c.depth += 1
            c.w(f"_mega = {site}.mega")
            c.w("if _mega is not None:")
            c.depth += 1
            # ``try`` is free on the hit path (3.11+ zero-cost
            # exception ranges); a genuine table miss eats the handler
            # cost once and comes back installed.
            c.w("try:")
            c.depth += 1
            c.w("_act = _mega[_rm]")
            c.depth -= 1
            c.w("except KeyError:")
            c.depth += 1
            c.w(f"frame.pc = {resume}")
            c.w(f"_act = _send_miss(vm, _recv, {site}, {insn_k})")
            c.depth -= 1
            # MRU: promote the table hit into the mono entry.
            c.w("else:")
            c.depth += 1
            c.w(f"{site}.cached_map_id = _rm.map_id")
            c.w(f"{site}.cached_map = _rm")
            c.w(f"{site}.cached_action = _act")
            c.depth -= 2
            c.w("else:")
            c.depth += 1
            c.w("_act = None")
            c.w(f"_pic = {site}.pic")
            c.w("if _pic is not None:")
            c.depth += 1
            c.w("for _row in _pic:")
            c.depth += 1
            c.w("if _row[0] is _rm:")
            c.depth += 1
            c.w("_act = _row[1]")
            c.w("break")
            c.depth -= 3
            c.w("if _act is None:")
            c.depth += 1
            c.w(f"frame.pc = {resume}")
            c.w(f"_act = _send_miss(vm, _recv, {site}, {insn_k})")
            c.depth -= 3
        # Slot-access actions are spelled out so a megamorphic
        # accessor send never leaves generated code, and the constant
        # arm is tested first: on dispatch-bound workloads constant
        # and data slots outnumber method activations.  Slot arms
        # push no frame, so each falls straight through to the resume
        # point — no ``_r`` store, no trampoline test; only the call
        # and generic arms (which can suspend this frame) carry their
        # own trampoline.  A statement-position send's result register
        # is dead at the resume point, so the slot arms skip the store
        # entirely (the callee-return machinery of the 'call' arm and
        # the generic ``_send_action`` still write it — harmlessly).
        # (Modeled slot cycles are a counters-mode concern; this tier
        # measures wall clock only.)
        dst_live = dst in c.live_in[resume]
        c.w("if _act[0] == 'const':")
        c.depth += 1
        if dst_live:
            c.w(f"regs[{dst}] = _act[1]")
        else:
            c.w("pass")
        c.depth -= 1
        c.w("elif _act[0] == 'call':")
        c.depth += 1
        emit_call_body(set_pc=True)
        _trampoline(c)
        c.depth -= 1
        c.w("elif _act[0] == 'data':")
        c.depth += 1
        if dst_live:
            c.w("_h = _act[1]")
            c.w(f"regs[{dst}] = (_h if _h is not None else _recv)"
                ".data[_act[2]]")
        else:
            c.w("pass")
        c.depth -= 1
        if arg_regs:
            c.w("elif _act[0] == 'assign':")
            c.depth += 1
            c.w("_h = _act[1]")
            c.w("(_h if _h is not None else _recv)"
                f".data[_act[2]] = regs[{arg_regs[0]}]")
            if dst_live:
                c.w(f"regs[{dst}] = _recv")
            c.depth -= 1
        c.w("else:")
        c.depth += 1
        c.w(f"frame.pc = {resume}")
        c.w(
            f"_r = _send_action(vm, frame, regs, {insn_k}, {resume}, "
            f"_recv, _act)"
        )
        _trampoline(c)
        c.depth -= 1
        return
    else:
        c.w("if _site.cached_map_id == _rm.map_id:")
        c.depth += 1
        if c.counters:
            c.w("_site.hits += 1")
            c.w("vm.send_hits += 1")
            c.w(f"_cyc += {insn[8]}")
        c.w("_act = _site.cached_action")
        c.depth -= 1
        c.w("else:")
        c.depth += 1
        c.w(f"_act = _send_miss(vm, _recv, _site, {insn_k})")
        c.depth -= 1
        c.w("if _act[0] == 'call':")
        c.depth += 1
        emit_call_body(set_pc=False)
        c.depth -= 1
        c.w("else:")
        c.depth += 1
        c.w(
            f"_r = _send_action(vm, frame, regs, {insn_k}, {resume}, "
            f"_recv, _act)"
        )
        c.depth -= 1
    _trampoline(c)


def _trampoline(c):
    """The direct-dispatch trampoline after a SEND's action arms.

    -1 means "a frame above this one needs to run": dispatch it
    directly while it stays translated, until the top of the stack is
    this frame again (our callee returned; fall through to the resume
    point).  A direct-called frame returns -3 for an in-flight NLR
    (propagate to our own caller), -1 to ask for more dispatch, or a
    pc >= 0 when it *declined* a fused resume entry — that pc belongs
    to the callee's stream, so hand the whole stack back to the outer
    loop (-1) rather than interpreting it here.
    """
    c.w("while _r == -1:")
    c.depth += 1
    c.w("if _F[-1] is frame:")
    c.depth += 1
    c.w("break")
    c.depth -= 1
    c.w(f"if _d >= {MAX_DIRECT_DEPTH}:")
    c.depth += 1
    c.w("return -1")
    c.depth -= 1
    c.w("_nf = _F[-1]")
    c.w("_nfn = _nf.code.translated")
    c.w("if not _nfn:")
    c.depth += 1
    c.w("return -1")
    c.depth -= 1
    if c.profiling:
        # The direct call bypasses the outer loop, so its activation
        # tick is planted here — guarded on pc == 0 exactly like the
        # loop's own hook, because the depth-cap escalation path can
        # hand a *suspended* frame back to a shallower trampoline.
        c.w("if _nf.pc == 0:")
        c.depth += 1
        c.w("vm.profiler.tick_activation(_nf)")
        c.depth -= 1
    c.w("_r = _nfn(vm, _nf, _nf.regs, _d + 1)")
    c.w("if _r == -3:")
    c.depth += 1
    c.w("return -3")
    c.depth -= 1
    c.w("if _r >= 0:")
    c.depth += 1
    c.w("return -1")
    c.depth -= 1
    c.depth -= 1


def _primcall_core(c, insn, i, nxt, variant):
    """PRIMCALL and its allocation-costed variants (clone / newvec)."""
    dst, recv, arg_regs = insn[3], insn[5], insn[6]
    err, fail, selector = insn[7], insn[8], insn[9]
    args_expr = "[" + ", ".join(c.rd(r) for r in arg_regs) + "]"
    recv_expr = c.rd(recv)
    c.w(f"frame.pc = {nxt}")
    if c.counters and variant == "clone":
        c.w(f"_recv = {recv_expr}")
        recv_expr = "_recv"
        c.w("if isinstance(_recv, _SelfVector):")
        c.depth += 1
        c.w(f"_cyc += int(len(_recv.elements) * {insn[10]!r})")
        c.depth -= 1
    elif c.counters and variant == "newvec":
        c.w(f"_recv = {recv_expr}")
        c.w(f"_args = {args_expr}")
        recv_expr, args_expr = "_recv", "_args"
        c.w("if _args and type(_args[0]) is int:")
        c.depth += 1
        c.w(f"_cyc += int(_args[0] * {insn[10]!r})")
        c.depth -= 1
        c.w("elif isinstance(_recv, _SelfVector):")
        c.depth += 1
        c.w(f"_cyc += int(len(_recv.elements) * {insn[10]!r})")
        c.depth -= 1
    fn_k = c.konst(i, 4)
    # The fail edge sees registers as they were before the call (the
    # destination was never written), so the except arm is emitted
    # against the pre-store snapshot: its ``goto`` re-materializes
    # whatever the handler block reads — including a destination whose
    # pre-call value still lives in another slot.
    pre = c.snapshot()
    c.w("try:")
    c.depth += 1
    c.w(f"{c.wr(dst)} = {fn_k}(vm.universe, {recv_expr}, {args_expr})")
    c.depth -= 1
    post = c.snapshot()
    c.restore(pre)
    c.w("except _PrimFail as _e:")
    c.depth += 1
    if fail < 0:
        c.w(f"raise _PrimitiveFailed({selector!r}, _e.code) from None")
    else:
        if err >= 0:
            c.w(f"{c.wr(err)} = _e.code")
        c.goto(fail)
    c.depth -= 1
    c.restore(post)


# ---------------------------------------------------------------------------
# Per-handler emitters
# ---------------------------------------------------------------------------
# Signature: emitter(ctx, insn, i, nxt) -> bool (True when the lowering
# closed control flow: nothing falls through to the next stream slot).


def _em_move(c, insn, i, nxt):
    c.defer_move(insn[3], insn[4])


def _em_loadk(c, insn, i, nxt):
    value = c.operand(i, 4)
    c.w(f"{c.wr(insn[3])} = {value}")


def _make_cmp(sym):
    def _em(c, insn, i, nxt):
        # ``not (a < b)`` rather than ``a >= b``: exact for unordered
        # operands (guest floats), mirroring the handler's conditional.
        a_e, b_e = c.rd(insn[3]), c.rd(insn[4])
        c.w(f"if not ({a_e} {sym} {b_e}):")
        c.depth += 1
        c.goto(insn[5])
        c.depth -= 1

    return _em


def _make_arith(sym):
    def _em(c, insn, i, nxt):
        a_e, b_e = c.rd(insn[4]), c.rd(insn[5])
        c.w(f"{c.wr(insn[3])} = {a_e} {sym} {b_e}")

    return _em


def _make_arith_ov(sym):
    """ADD_OV/SUB_OV/MUL_OV."""

    def _em(c, insn, i, nxt):
        a_e, b_e = c.rd(insn[4]), c.rd(insn[5])
        c.w(f"_t = {a_e} {sym} {b_e}")
        c.w(f"if {SMALLINT_MIN} <= _t <= {SMALLINT_MAX}:")
        c.depth += 1
        pre = c.snapshot()
        c.w(f"{c.wr(insn[3])} = _t")
        c.depth -= 1
        post = c.snapshot()
        c.restore(pre)
        c.w("else:")
        c.depth += 1
        c.w(f"{c.wr(insn[6])} = 'overflowError'")
        c.goto(insn[7])
        c.depth -= 1
        c.restore(post)

    return _em


def _em_div_ov(c, insn, i, nxt):
    b_e = c.rd(insn[5])
    c.w(f"_t = {b_e}")
    c.w("if _t == 0:")
    c.depth += 1
    pre = c.snapshot()
    c.w(f"{c.wr(insn[6])} = 'divisionByZeroError'")
    c.goto(insn[7])
    c.depth -= 1
    c.restore(pre)
    a_e = c.rd(insn[4])
    c.w(f"_q = {a_e} // _t")
    c.w(f"if {SMALLINT_MIN} <= _q <= {SMALLINT_MAX}:")
    c.depth += 1
    pre = c.snapshot()
    c.w(f"{c.wr(insn[3])} = _q")
    c.depth -= 1
    post = c.snapshot()
    c.restore(pre)
    c.w("else:")
    c.depth += 1
    c.w(f"{c.wr(insn[6])} = 'overflowError'")
    c.goto(insn[7])
    c.depth -= 1
    c.restore(post)


def _em_mod_ov(c, insn, i, nxt):
    b_e = c.rd(insn[5])
    c.w(f"_t = {b_e}")
    c.w("if _t == 0:")
    c.depth += 1
    pre = c.snapshot()
    c.w(f"{c.wr(insn[6])} = 'divisionByZeroError'")
    c.goto(insn[7])
    c.depth -= 1
    c.restore(pre)
    a_e = c.rd(insn[4])
    c.w(f"{c.wr(insn[3])} = {a_e} % _t")


def _make_div_mod(sym, selector):
    def _em(c, insn, i, nxt):
        b_e = c.rd(insn[5])
        c.w(f"_t = {b_e}")
        c.w("if _t == 0:")
        c.depth += 1
        c.w(f"raise _PrimitiveFailed({selector!r}, 'divisionByZeroError')")
        c.depth -= 1
        a_e = c.rd(insn[4])
        c.w(f"{c.wr(insn[3])} = {a_e} {sym} _t")

    return _em


def _em_typetest(c, insn, i, nxt):
    c.w(f"if {_map_mismatch(c, i, insn[3], 4)}:")
    c.depth += 1
    c.goto(insn[5])
    c.depth -= 1


def _em_bounds(c, insn, i, nxt):
    idx_e, arr_e = c.rd(insn[4]), c.rd(insn[3])
    c.w(f"_i = {idx_e}")
    c.w(
        f"if type(_i) is not int or _i < 0 "
        f"or _i >= len({arr_e}.elements):"
    )
    c.depth += 1
    c.goto(insn[5])
    c.depth -= 1


def _em_aload(c, insn, i, nxt):
    arr_e, idx_e = c.rd(insn[4]), c.rd(insn[5])
    c.w(f"{c.wr(insn[3])} = {arr_e}.elements[{idx_e}]")


def _em_astore(c, insn, i, nxt):
    c.w(f"{c.rd(insn[3])}.elements[{c.rd(insn[4])}] = {c.rd(insn[5])}")


def _em_alen(c, insn, i, nxt):
    src_e = c.rd(insn[4])
    c.w(f"{c.wr(insn[3])} = len({src_e}.elements)")


def _em_loadslot(c, insn, i, nxt):
    obj_e = c.rd(insn[4])
    c.w(f"{c.wr(insn[3])} = {obj_e}.data[{c.operand(i, 5)}]")


def _em_storeslot(c, insn, i, nxt):
    c.w(f"{c.rd(insn[3])}.data[{c.operand(i, 4)}] = {c.rd(insn[5])}")


def _em_env_load(c, insn, i, nxt):
    key = c.operand(i, 4)
    c.w(f"{c.wr(insn[3])} = vm._env_load(frame, {key})")


def _em_env_store(c, insn, i, nxt):
    val_e = c.rd(insn[4])
    c.w(f"vm._env_store(frame, {c.operand(i, 3)}, {val_e})")


def _em_make_block(c, insn, i, nxt):
    node_k = c.konst(i, 4)
    template_k = c.konst(i, 5)
    src_e = c.rd(insn[6])
    c.w(
        f"{c.wr(insn[3])} = vm._make_block(frame, {node_k}, "
        f"{template_k}, {src_e})"
    )


def _em_jump(c, insn, i, nxt):
    c.goto(insn[3])
    return True


def _em_return(c, insn, i, nxt):
    # The frame is finished: deferred stores die with it, only the
    # result register is read (substituted).  The caller's own
    # ``regs[ret_reg]`` write is physical in both tiers.
    src_e = c.rd(insn[3])
    c.w(f"_t = {src_e}")
    c.w("frame.alive = False")
    c.w("_F.pop()")
    c.w("vm._ret_value = _t")
    c.w("if _F:")
    c.depth += 1
    c.w("_r = frame.ret_reg")
    c.w("if _r >= 0:")
    c.depth += 1
    # A frame at a run-segment boundary always has ret_reg -1, so this
    # never writes into an outer segment's frame (see _do_return).
    c.w("_F[-1].regs[_r] = _t")
    c.depth -= 2
    c.w("return -1")
    return True


def _em_nlr(c, insn, i, nxt):
    # The frame ends here in every outcome (the unwind pops it, or a
    # missing target kills it at the segment boundary): no flush.
    src_e = c.rd(insn[3])
    c.w(f"_t = {src_e}")
    c.w("_h = frame")
    c.w("while _h.home is not None:")
    c.depth += 1
    c.w("_h = _h.home")
    c.depth -= 1
    c.w("if not _h.alive:")
    c.depth += 1
    c.w("raise _DeadNLR()")
    c.depth -= 1
    if c.counters:
        c.w(f"_cyc += {insn[4]}")
    c.w(f"vm._nlr = (_h, _t, {nxt})")
    c.w("return -3")
    return True


def _em_error(c, insn, i, nxt):
    code = insn[4]
    if code is None:
        c.w(f"raise _PrimitiveFailed({insn[3]!r}, {c.rd(insn[5])})")
    else:
        c.w(f"raise _PrimitiveFailed({insn[3]!r}, {code!r})")
    return True


def _make_primcall(variant):
    def _em(c, insn, i, nxt):
        _primcall_core(c, insn, i, nxt, variant)

    return _em


_EMITTERS = {
    _do_move: _em_move,
    _do_loadk: _em_loadk,
    _do_cmp_lt: _make_cmp("<"),
    _do_cmp_le: _make_cmp("<="),
    _do_cmp_gt: _make_cmp(">"),
    _do_cmp_ge: _make_cmp(">="),
    _do_cmp_eq: _make_cmp("=="),
    _do_cmp_ne: _make_cmp("!="),
    _do_add_ov: _make_arith_ov("+"),
    _do_sub_ov: _make_arith_ov("-"),
    _do_mul_ov: _make_arith_ov("*"),
    _do_div_ov: _em_div_ov,
    _do_mod_ov: _em_mod_ov,
    _do_add: _make_arith("+"),
    _do_sub: _make_arith("-"),
    _do_mul: _make_arith("*"),
    _do_div: _make_div_mod("//", "_IntDiv:"),
    _do_mod: _make_div_mod("%", "_IntMod:"),
    _do_typetest: _em_typetest,
    _do_bounds: _em_bounds,
    _do_aload: _em_aload,
    _do_astore: _em_astore,
    _do_alen: _em_alen,
    _do_loadslot: _em_loadslot,
    _do_storeslot: _em_storeslot,
    _do_env_load: _em_env_load,
    _do_env_store: _em_env_store,
    _do_make_block: _em_make_block,
    _do_jump: _em_jump,
    _do_return: _em_return,
    _do_nlr: _em_nlr,
    _do_error: _em_error,
    _do_send: _em_send,
    _do_primcall: _make_primcall("plain"),
    _do_primcall_clone: _make_primcall("clone"),
    _do_primcall_newvec: _make_primcall("newvec"),
}

_LIVE_SPECS = {
    _do_move: _lv_move,
    _do_loadk: _lv_loadk,
    _do_cmp_lt: _lv_cmp,
    _do_cmp_le: _lv_cmp,
    _do_cmp_gt: _lv_cmp,
    _do_cmp_ge: _lv_cmp,
    _do_cmp_eq: _lv_cmp,
    _do_cmp_ne: _lv_cmp,
    _do_add_ov: _lv_arith_ov,
    _do_sub_ov: _lv_arith_ov,
    _do_mul_ov: _lv_arith_ov,
    _do_div_ov: _lv_arith_ov,
    _do_mod_ov: _lv_arith_ov,
    _do_add: _lv_arith,
    _do_sub: _lv_arith,
    _do_mul: _lv_arith,
    _do_div: _lv_arith,
    _do_mod: _lv_arith,
    _do_typetest: _lv_typetest,
    _do_bounds: _lv_bounds,
    _do_aload: _lv_aload,
    _do_astore: _lv_astore,
    _do_alen: _lv_alen,
    _do_loadslot: _lv_loadslot,
    _do_storeslot: _lv_storeslot,
    _do_env_load: _lv_env_load,
    _do_env_store: _lv_env_store,
    _do_make_block: _lv_make_block,
    _do_jump: _lv_jump,
    _do_return: _lv_return,
    _do_nlr: _lv_nlr,
    _do_error: _lv_error,
    _do_send: _lv_send,
    _do_primcall: _lv_primcall,
    _do_primcall_clone: _lv_primcall,
    _do_primcall_newvec: _lv_primcall,
}

assert set(_LIVE_SPECS) == set(_EMITTERS), "liveness specs out of sync"

#: handler -> operand position of its branch target (an instruction
#: index; the primcall family's fail target is -1 when it cannot fail)
_TARGET_POSITION = {
    _do_cmp_lt: 5, _do_cmp_le: 5, _do_cmp_gt: 5,
    _do_cmp_ge: 5, _do_cmp_eq: 5, _do_cmp_ne: 5,
    _do_add_ov: 7, _do_sub_ov: 7, _do_mul_ov: 7,
    _do_div_ov: 7, _do_mod_ov: 7,
    _do_typetest: 5, _do_bounds: 5, _do_jump: 3,
    _do_primcall: 8, _do_primcall_clone: 8, _do_primcall_newvec: 8,
}


def _collect_labels(threaded) -> tuple[set[int], set[int]]:
    """``(labels, resumes)``: dispatch labels (entry + branch targets)
    and the resume indices after SENDs, which suspend the frame when
    they push a callee.

    A resume index that is *also* a branch target stays a dispatch
    label; the rest are fused into their leaf — the send's trampoline
    falls through into the resume code physically, and the rare outer
    re-entry there declines into the threaded tier instead.
    """
    labels = {0}
    resumes = set()
    for i, insn in enumerate(threaded):
        pos = _TARGET_POSITION.get(insn[0])
        if pos is not None and insn[pos] >= 0:
            labels.add(insn[pos])
        if insn[0] is _do_send:
            resumes.add(i + 1)
    return labels, resumes - labels


def emit_source(
    threaded, counters: bool, universe=None, profiling: bool = False,
    pic: bool = False,
) -> tuple:
    """Generate the factory source for one threaded stream.

    Returns ``(source, paths, guards)``: ``source`` defines
    ``_factory(_K)`` returning the translated
    ``fn(vm, frame, regs, _d=0)``, ``paths`` are the
    constant-extraction paths whose values (in order) form the ``_K``
    tuple — see :func:`extract_constant` — and ``guards`` are
    ``(path, value)`` identity checks a congruent clone stream must
    satisfy before reusing the compiled factory (well-known-map
    specializations bake those identities into the source).

    Label dispatch is a **balanced comparison tree** over the sorted
    label set, not a flat ``elif`` chain: heavily split bodies (the
    paper's extended message splitting multiplies branch targets) reach
    hundreds of labels, and a linear scan per taken branch would eat
    the translation win.  The tree costs ``log2(len(labels))`` integer
    compares per transition; leaves hold the straight-line blocks in
    stream order.
    """
    if not threaded:
        raise UnsupportedStream("empty threaded stream")
    labels, resumes = _collect_labels(threaded)
    size = len(threaded)
    if any(t < 0 or t >= size for t in labels | resumes):
        raise UnsupportedStream("branch target outside the stream")
    live_in = _analyze_liveness(threaded)

    # Pass 1: lower each label's block (label up to the next label, in
    # stream order) into its own line buffer at relative depth 0.  A
    # dispatch entry carries no alias state, so each block starts with
    # an empty alias map; falling through into the next label flushes
    # whatever is live there.
    c = _Ctx(
        threaded, counters, universe, live_in, profiling=profiling, pic=pic,
    )
    blocks: dict[int, list[str]] = {}
    closed = True
    for i, insn in enumerate(threaded):
        if i in labels:
            if not closed:
                # Fallthrough into the label: emitted while ``cur`` is
                # still the previous index, so it reads as the forward
                # transfer it is (never a branch tick).  The block ends
                # here, so it pays any MOVE/LOADK cost still carried.
                c.flush_charge()
                c.goto(i)
            c.lines = blocks[i] = []
            c.depth = 0
            c.alias = {}
            closed = False
        elif closed:
            # Dead slot: not a branch target and unreachable by
            # fallthrough — nothing can enter it in either tier.
            continue
        emitter = _EMITTERS.get(insn[0])
        if emitter is None:
            raise UnsupportedStream(
                f"no emitter for handler {insn[0].__name__}"
            )
        c.cur = i
        c.charge(insn)
        closed = bool(emitter(c, insn, i, i + 1))
    if not closed:
        raise UnsupportedStream("stream does not end in a terminator")

    # Pass 2: assemble — prologue, then the comparison tree.  Every
    # block ends in continue/return/raise, so the tree is the entire
    # loop body.
    out: list[str] = []
    ordered = sorted(blocks)

    def w(depth: int, text: str) -> None:
        out.append("    " * depth + text)

    def build(lo: int, hi: int, depth: int) -> None:
        if hi - lo == 1:
            for line in blocks[ordered[lo]]:
                out.append("    " * depth + line)
            return
        mid = (lo + hi) // 2
        w(depth, f"if _l < {ordered[mid]}:")
        build(lo, mid, depth + 1)
        w(depth, "else:")
        build(mid, hi, depth + 1)

    w(0, "def _factory(_K):")
    label_literal = ", ".join(str(l) for l in ordered)
    w(1, f"_LBL = frozenset(({label_literal},))")
    if resumes:
        resume_literal = ", ".join(str(r) for r in sorted(resumes))
        w(1, f"_RES = frozenset(({resume_literal},))")
    w(1, "def _translated(vm, frame, regs, _d=0):")
    w(2, "_map_of = vm._map_of")
    w(2, "_F = vm.frames")
    # Lean-mode IC sites: bound once per activation so every
    # open-coded ladder probe is a plain local load (empty otherwise).
    for name in sorted(
        c.site_locals.values(), key=lambda n: int(n[2:])
    ):
        w(2, f"{name} = _K[{name[2:]}]")
    w(2, "_l = frame.pc")
    # Entry pc must head a block: the tree narrows by comparisons only,
    # so an off-label pc must not silently run the wrong block.  A
    # resume point fused into the middle of a leaf has no dispatch
    # label; that (rare) re-entry is declined — the outer loop
    # continues the activation on the predecoded stream at the same pc
    # (identity mapping).  Anything else is corrupted frame state.
    # ``_l and`` first: fresh activations (pc 0, always a label) skip
    # the set membership test entirely.
    w(2, "if _l and _l not in _LBL:")
    if resumes:
        w(3, "if _l in _RES:")
        w(4, "return _l")
    w(3, "raise _VMError('translated entry at non-label pc %r' % (_l,))")
    body = 2
    if counters:
        w(2, "_cyc = 0")
        w(2, "_n = 0")
        w(2, "try:")
        body = 3
    w(body, "while True:")
    build(0, len(ordered), body + 1)
    if counters:
        w(2, "finally:")
        w(3, "vm.cycles += _cyc")
        w(3, "vm.instructions += _n")
    w(1, "return _translated")
    return "\n".join(out) + "\n", tuple(c.paths), tuple(c.guards)
