"""Token-threaded dispatch: one predecoded slot per instruction.

The VM used to rediscover every opcode with a long ``if/elif`` walk and
call :meth:`CostModel.instruction_cycles` once per executed instruction.
This module translates each :class:`~.code.Code` object's tuple
instructions — once, at code-install time — into a *predecoded stream*
where

* element 0 of every instruction is the per-opcode **handler function**
  itself (direct threading: dispatch is one indexed load plus one call),
* constant-pool indices are resolved to the actual objects (constants,
  block templates, inline-cache sites, primitive functions),
* the static cost-model cycles and the architectural instruction count
  (always 1) are precomputed (elements 1 and 2), so the hot loop adds
  two ints per dispatch instead of consulting the cost model.

The stream is index-aligned with ``Code.insns``: slot *i* is
instruction *i*, so branch operands pass through unchanged and a
``frame.pc`` means the same thing in the architectural listing, the
threaded stream and the translated tier (:mod:`.emit`).

Handler protocol::

    handler(vm, frame, regs, insn, pc) -> next_pc

``pc`` is the index of the *following* predecoded instruction.  A
handler returns the next index, or a negative sentinel:

* ``REDISPATCH`` (-1): the frame stack changed (a callee was pushed or
  the current frame returned); the outer loop re-examines ``frames[-1]``
  or finishes the run segment.
* ``NLR_SIGNAL`` (-3): a non-local return is in flight; the outer loop
  (which knows the segment base) unwinds or re-raises.
"""

from __future__ import annotations

from ..objects.errors import (
    NonLocalReturnFromDeadActivation,
    PrimitiveFailed,
    VMError,
)
from ..objects.model import SMALLINT_MAX, SMALLINT_MIN, SelfBlock, SelfVector
from ..primitives.registry import PrimFailSignal
from ..robustness import faults
from . import opcodes as op
from .frame import Frame

#: sentinel: the frame stack changed; re-dispatch from ``frames[-1]``.
REDISPATCH = -1
#: sentinel: a non-local return is unwinding (``vm._nlr`` holds it).
NLR_SIGNAL = -3


# ---------------------------------------------------------------------------
# Single-opcode handlers
# ---------------------------------------------------------------------------
# Operand layout starts at index 3: (handler, cycles, count, *operands).


def _do_move(vm, frame, regs, insn, pc):
    regs[insn[3]] = regs[insn[4]]
    return pc


def _do_loadk(vm, frame, regs, insn, pc):
    regs[insn[3]] = insn[4]
    return pc


def _do_cmp_lt(vm, frame, regs, insn, pc):
    return pc if regs[insn[3]] < regs[insn[4]] else insn[5]


def _do_cmp_le(vm, frame, regs, insn, pc):
    return pc if regs[insn[3]] <= regs[insn[4]] else insn[5]


def _do_cmp_gt(vm, frame, regs, insn, pc):
    return pc if regs[insn[3]] > regs[insn[4]] else insn[5]


def _do_cmp_ge(vm, frame, regs, insn, pc):
    return pc if regs[insn[3]] >= regs[insn[4]] else insn[5]


def _do_cmp_eq(vm, frame, regs, insn, pc):
    return pc if regs[insn[3]] == regs[insn[4]] else insn[5]


def _do_cmp_ne(vm, frame, regs, insn, pc):
    return pc if regs[insn[3]] != regs[insn[4]] else insn[5]


def _do_add_ov(vm, frame, regs, insn, pc):
    result = regs[insn[4]] + regs[insn[5]]
    if SMALLINT_MIN <= result <= SMALLINT_MAX:
        regs[insn[3]] = result
        return pc
    regs[insn[6]] = "overflowError"
    return insn[7]


def _do_sub_ov(vm, frame, regs, insn, pc):
    result = regs[insn[4]] - regs[insn[5]]
    if SMALLINT_MIN <= result <= SMALLINT_MAX:
        regs[insn[3]] = result
        return pc
    regs[insn[6]] = "overflowError"
    return insn[7]


def _do_mul_ov(vm, frame, regs, insn, pc):
    result = regs[insn[4]] * regs[insn[5]]
    if SMALLINT_MIN <= result <= SMALLINT_MAX:
        regs[insn[3]] = result
        return pc
    regs[insn[6]] = "overflowError"
    return insn[7]


def _do_div_ov(vm, frame, regs, insn, pc):
    divisor = regs[insn[5]]
    if divisor == 0:
        regs[insn[6]] = "divisionByZeroError"
        return insn[7]
    result = regs[insn[4]] // divisor
    if SMALLINT_MIN <= result <= SMALLINT_MAX:
        regs[insn[3]] = result
        return pc
    regs[insn[6]] = "overflowError"
    return insn[7]


def _do_mod_ov(vm, frame, regs, insn, pc):
    divisor = regs[insn[5]]
    if divisor == 0:
        regs[insn[6]] = "divisionByZeroError"
        return insn[7]
    regs[insn[3]] = regs[insn[4]] % divisor
    return pc


def _do_add(vm, frame, regs, insn, pc):
    regs[insn[3]] = regs[insn[4]] + regs[insn[5]]
    return pc


def _do_sub(vm, frame, regs, insn, pc):
    regs[insn[3]] = regs[insn[4]] - regs[insn[5]]
    return pc


def _do_mul(vm, frame, regs, insn, pc):
    regs[insn[3]] = regs[insn[4]] * regs[insn[5]]
    return pc


def _do_div(vm, frame, regs, insn, pc):
    divisor = regs[insn[5]]
    if divisor == 0:
        raise PrimitiveFailed("_IntDiv:", "divisionByZeroError")
    regs[insn[3]] = regs[insn[4]] // divisor
    return pc


def _do_mod(vm, frame, regs, insn, pc):
    divisor = regs[insn[5]]
    if divisor == 0:
        raise PrimitiveFailed("_IntMod:", "divisionByZeroError")
    regs[insn[3]] = regs[insn[4]] % divisor
    return pc


def _do_typetest(vm, frame, regs, insn, pc):
    return pc if vm._map_of(regs[insn[3]]) is insn[4] else insn[5]


def _do_bounds(vm, frame, regs, insn, pc):
    vector = regs[insn[3]]
    index = regs[insn[4]]
    if type(index) is not int or index < 0 or index >= len(vector.elements):
        return insn[5]
    return pc


def _do_aload(vm, frame, regs, insn, pc):
    regs[insn[3]] = regs[insn[4]].elements[regs[insn[5]]]
    return pc


def _do_astore(vm, frame, regs, insn, pc):
    regs[insn[3]].elements[regs[insn[4]]] = regs[insn[5]]
    return pc


def _do_alen(vm, frame, regs, insn, pc):
    regs[insn[3]] = len(regs[insn[4]].elements)
    return pc


def _do_loadslot(vm, frame, regs, insn, pc):
    regs[insn[3]] = regs[insn[4]].data[insn[5]]
    return pc


def _do_storeslot(vm, frame, regs, insn, pc):
    regs[insn[3]].data[insn[4]] = regs[insn[5]]
    return pc


def _do_env_load(vm, frame, regs, insn, pc):
    regs[insn[3]] = vm._env_load(frame, insn[4])
    return pc


def _do_env_store(vm, frame, regs, insn, pc):
    vm._env_store(frame, insn[3], regs[insn[4]])
    return pc


def _do_make_block(vm, frame, regs, insn, pc):
    # insn: (..., dst, block_node, template, self_reg)
    regs[insn[3]] = vm._make_block(frame, insn[4], insn[5], regs[insn[6]])
    return pc


def _do_jump(vm, frame, regs, insn, pc):
    return insn[3]


def _do_send(vm, frame, regs, insn, pc):
    # insn: (..., dst, selector, recv_reg, arg_regs, site,
    #        hit_cyc, miss_cyc, mega_cyc, pic_cyc, frame_cyc, slot_cyc)
    #
    # Split into probe + _send_miss + _send_action so the translation
    # tier (vm/emit.py) can open-code the monomorphic probe and reuse
    # the cold halves verbatim instead of duplicating their logic.
    frame.pc = pc
    receiver = regs[insn[5]]
    site = insn[7]
    receiver_map = vm._map_of(receiver)
    if site.cached_map_id == receiver_map.map_id:
        # Monomorphic inline-cache hit: the fast path of
        # Deutsch–Schiffman caching, which both ST-80 and SELF used.
        site.hits += 1
        vm.send_hits += 1
        vm.cycles += insn[8]
        action = site.cached_action
    else:
        # The dispatch ladder (REPRO_PIC=1): bounded PIC probe, then
        # the per-selector megamorphic table, then the cold half.  Rows
        # and tables key on map *identity* (cheaper than the map-id
        # attribute load in the lean translated probe; equivalent,
        # since map ids are one per Map).  With the ladder off both
        # tiers are None and this is two loads.
        action = None
        pic = site.pic
        if pic is not None:
            for row in pic:
                if row[0] is receiver_map:
                    action = _pic_hit(
                        vm, site, insn, receiver_map, row[1], "pic"
                    )
                    break
        elif site.mega is not None:
            action = site.mega.get(receiver_map)
            if action is not None:
                action = _pic_hit(
                    vm, site, insn, receiver_map, action, "mega"
                )
        if action is None:
            action = _send_miss(vm, receiver, site, insn)
    return _send_action(vm, frame, regs, insn, pc, receiver, action)


def _pic_hit(vm, site, insn, receiver_map, action, event):
    """A bounded-PIC row or megamorphic-table hit.

    The accounting is deliberately identical to ``_send_miss``'s warm
    (entries-hit) branch: the modeled numbers cannot tell the real
    dispatch ladder from the modeled relink it replaces, which is what
    keeps the goldens bit-identical under ``REPRO_PIC=1``.
    """
    if event == "mega":
        vm.mega_table_hits += 1
    site.relinks += 1
    if vm.use_polymorphic_caches:
        vm.send_pic_hits += 1
        vm.cycles += insn[11]
    else:
        vm.send_megamorphic += 1
        vm.cycles += insn[10]
        event = "relink"
    map_id = receiver_map.map_id
    site.entries[map_id] = action
    site.cached_map_id = map_id
    site.cached_map = receiver_map
    site.cached_action = action
    profiler = vm.profiler
    if profiler is not None:
        profiler.note_ic(site, event)
    return action


def _send_miss(vm, receiver, site, insn):
    """The out-of-line half of SEND: the monomorphic cache missed."""
    map_id = vm._map_of(receiver).map_id
    action = site.entries.get(map_id)
    if action is None:
        # Cold: full lookup (and possibly a compile).
        site.misses += 1
        vm.send_misses += 1
        vm.cycles += insn[9]
        action = vm._resolve_send(
            receiver, vm._map_of(receiver), insn[4], len(insn[6])
        )
        site.entries[map_id] = action
        event = "miss"
    elif vm.use_polymorphic_caches:
        # Extension: a polymorphic inline cache dispatches the
        # known receiver maps through a stub (§6.1's proposed
        # fix; PICs in the later literature).
        site.relinks += 1
        vm.send_pic_hits += 1
        vm.cycles += insn[11]
        event = "pic"
    else:
        # The site is polymorphic: the cache keeps relinking.
        # This is what makes the richards task-dispatch site
        # expensive (paper, section 6.1).
        site.relinks += 1
        vm.send_megamorphic += 1
        vm.cycles += insn[10]
        event = "relink"
    if vm.pic_enabled:
        receiver_map = vm._map_of(receiver)
        _pic_note(vm, site, receiver_map, map_id, action)
        site.cached_map = receiver_map
    site.cached_map_id = map_id
    site.cached_action = action
    # IC lifecycle telemetry rides the cold path only: the monomorphic
    # hit above never reaches here, and with profiling off this is one
    # attribute load per miss.  Both tiers share this helper, so the
    # translated tier needs no lifecycle hooks of its own.
    profiler = vm.profiler
    if profiler is not None:
        profiler.note_ic(site, event)
    return action


def _pic_note(vm, site, receiver_map, map_id, action):
    """Grow the dispatch ladder after a resolve/relink (REPRO_PIC=1).

    A site that turns polymorphic gets a bounded PIC; a PIC that would
    exceed ``vm.pic_depth`` spills into the runtime's per-selector
    megamorphic table (shared across every overflowed site, so hostile
    polymorphism warms it once).  Each row carries the map ids its
    lookup consulted — targeted invalidation retires exactly those rows.
    """
    mega = site.mega
    if mega is not None:
        if receiver_map not in mega:
            mega[receiver_map] = action
            vm.mega_deps.setdefault(site.selector, {})[map_id] = \
                vm._dispatch_deps(receiver_map, site.selector, action)
        return
    pic = site.pic
    if pic is None:
        if len(site.entries) < 2:
            return  # still monomorphic: the single inline entry suffices
        site.pic = [(receiver_map, action,
                     vm._dispatch_deps(receiver_map, site.selector, action))]
        return
    for row in pic:
        if row[0] is receiver_map:
            return
    if len(pic) >= vm.pic_depth:
        vm.mega_transitions += 1
        table = vm.mega_tables.setdefault(site.selector, {})
        deps = vm.mega_deps.setdefault(site.selector, {})
        for rmap, raction, rdeps in pic:
            if rmap not in table:
                table[rmap] = raction
                deps[rmap.map_id] = rdeps
        table[receiver_map] = action
        deps[map_id] = vm._dispatch_deps(receiver_map, site.selector, action)
        site.mega = table
        site.pic = None
        return
    pic.append((receiver_map, action,
                vm._dispatch_deps(receiver_map, site.selector, action)))


def _send_action(vm, frame, regs, insn, pc, receiver, action):
    """Perform one resolved send action; returns the next pc (or a
    negative sentinel when a callee frame was pushed)."""
    kind = action[0]
    if kind == "call":
        vm.cycles += insn[12]
        code = action[1]
        callee = Frame(code, receiver, None, insn[3])
        cregs = callee.regs
        cregs[code.self_reg] = receiver
        for reg, src in zip(code.arg_regs, insn[6]):
            cregs[reg] = regs[src]
        vm.frames.append(callee)
        return REDISPATCH
    if kind == "data":
        holder = action[1] if action[1] is not None else receiver
        regs[insn[3]] = holder.data[action[2]]
        vm.cycles += insn[13]
        return pc
    if kind == "const":
        regs[insn[3]] = action[1]
        return pc
    if kind == "assign":
        holder = action[1] if action[1] is not None else receiver
        holder.data[action[2]] = regs[insn[6][0]]
        regs[insn[3]] = receiver
        vm.cycles += insn[13]
        return pc
    if kind == "block":
        return vm._send_block(regs, insn, receiver, pc)
    if kind == "prim":
        regs[insn[3]] = vm._run_primitive_send(
            receiver, insn[4], [regs[r] for r in insn[6]]
        )
        return pc
    if kind == "interp":
        # The callee degraded to the interpreter tier: run it
        # synchronously (its execution is not charged modeled cycles).
        regs[insn[3]] = vm._run_interpreted(
            action[1], receiver, [regs[r] for r in insn[6]]
        )
        return pc
    raise VMError(f"bad send action {action!r}")


def _do_primcall(vm, frame, regs, insn, pc):
    # insn: (..., dst, fn, recv_reg, arg_regs, err_reg, fail_target, selector)
    # Static cycles (prim_call_cycles + the per-primitive work table
    # entry) are already baked into insn[1] by the predecoder.
    frame.pc = pc
    try:
        regs[insn[3]] = insn[4](
            vm.universe, regs[insn[5]], [regs[r] for r in insn[6]]
        )
    except PrimFailSignal as failure:
        return _primcall_failure(regs, insn, failure)
    return pc


def _do_primcall_clone(vm, frame, regs, insn, pc):
    # _Clone: allocation cost is a per-system constant (baked into
    # insn[1]); cloning a vector additionally pays per element.
    frame.pc = pc
    receiver = regs[insn[5]]
    if isinstance(receiver, SelfVector):
        vm.cycles += int(len(receiver.elements) * insn[10])
    try:
        regs[insn[3]] = insn[4](vm.universe, receiver, [regs[r] for r in insn[6]])
    except PrimFailSignal as failure:
        return _primcall_failure(regs, insn, failure)
    return pc


def _do_primcall_newvec(vm, frame, regs, insn, pc):
    # _NewVector:Filler: pays per requested element.
    frame.pc = pc
    receiver = regs[insn[5]]
    args = [regs[r] for r in insn[6]]
    if args and type(args[0]) is int:
        vm.cycles += int(args[0] * insn[10])
    elif isinstance(receiver, SelfVector):
        vm.cycles += int(len(receiver.elements) * insn[10])
    try:
        regs[insn[3]] = insn[4](vm.universe, receiver, args)
    except PrimFailSignal as failure:
        return _primcall_failure(regs, insn, failure)
    return pc


def _primcall_failure(regs, insn, failure):
    fail_target = insn[8]
    if fail_target < 0:
        raise PrimitiveFailed(insn[9], failure.code) from None
    err_reg = insn[7]
    if err_reg >= 0:
        regs[err_reg] = failure.code
    return fail_target


def _do_return(vm, frame, regs, insn, pc):
    value = regs[insn[3]]
    frame.alive = False
    frames = vm.frames
    frames.pop()
    vm._ret_value = value
    if frames:
        ret_reg = frame.ret_reg
        if ret_reg >= 0:
            # A frame at a run-segment boundary always has ret_reg -1,
            # so this never writes into an outer segment's frame.
            frames[-1].regs[ret_reg] = value
    return REDISPATCH


def _do_nlr(vm, frame, regs, insn, pc):
    # insn: (..., src, nlr_cycles)
    value = regs[insn[3]]
    target = frame
    while target.home is not None:
        target = target.home
    if not target.alive:
        raise NonLocalReturnFromDeadActivation()
    vm.cycles += insn[4]
    vm._nlr = (target, value, pc)
    return NLR_SIGNAL


def _do_error(vm, frame, regs, insn, pc):
    # insn: (..., prim_name, code_or_None, err_reg)
    code = insn[4]
    if code is None:
        code = regs[insn[5]]
    raise PrimitiveFailed(insn[3], code)


# ---------------------------------------------------------------------------
# Predecoding
# ---------------------------------------------------------------------------

_SIMPLE_HANDLERS = {
    op.MOVE: _do_move,
    op.CMP_LT: _do_cmp_lt,
    op.CMP_LE: _do_cmp_le,
    op.CMP_GT: _do_cmp_gt,
    op.CMP_GE: _do_cmp_ge,
    op.CMP_EQ: _do_cmp_eq,
    op.CMP_NE: _do_cmp_ne,
    op.ADD_OV: _do_add_ov,
    op.SUB_OV: _do_sub_ov,
    op.MUL_OV: _do_mul_ov,
    op.DIV_OV: _do_div_ov,
    op.MOD_OV: _do_mod_ov,
    op.ADD: _do_add,
    op.SUB: _do_sub,
    op.MUL: _do_mul,
    op.DIV: _do_div,
    op.MOD: _do_mod,
    op.TYPETEST: _do_typetest,
    op.BOUNDS: _do_bounds,
    op.ALOAD: _do_aload,
    op.ASTORE: _do_astore,
    op.ALEN: _do_alen,
    op.LOADSLOT: _do_loadslot,
    op.STORESLOT: _do_storeslot,
    op.ENV_LOAD: _do_env_load,
    op.ENV_STORE: _do_env_store,
    op.JUMP: _do_jump,
    op.RETURN: _do_return,
}


def predecode(insns, consts, ic_sites, model):
    """Translate a code object's tuple instructions into the threaded
    stream executed by :meth:`Runtime._loop`.

    Returns one predecoded tuple per instruction, index-aligned with
    ``insns``, so branch operands pass through unchanged.  Every branch
    target is checked to lie inside the stream: a wild jump is rejected
    here, at code installation, rather than when it is taken.
    """
    cycle_table = model.static_cycle_table()
    n = len(insns)
    # Corrupt mode: a wild write pushes every branch target past the end
    # of the stream; the range check below rejects it.
    skew = n if faults.ENABLED and faults.hit(faults.SITE_VM_PREDECODE) else 0

    def target(t):
        t += skew
        if not 0 <= t < n:
            raise VMError(f"branch target {t} outside a stream of {n}")
        return t

    def decode_one(insn):
        opcode = insn[0]
        cycles = cycle_table[opcode]
        handler = _SIMPLE_HANDLERS.get(opcode)
        if handler is not None:
            pos = op.BRANCH_OPERANDS.get(opcode)
            if pos is None:
                return (handler, cycles, 1, *insn[1:])
            operands = list(insn[1:])
            operands[pos - 1] = target(insn[pos])
            return (handler, cycles, 1, *operands)
        if opcode == op.LOADK:
            return (_do_loadk, cycles, 1, insn[1], consts[insn[2]])
        if opcode == op.MAKE_BLOCK:
            block_node, template = consts[insn[2]]
            return (_do_make_block, cycles, 1, insn[1], block_node, template, insn[3])
        if opcode == op.SEND:
            dst, selector, recv, arg_regs, site_index = insn[1:6]
            return (
                _do_send, cycles, 1, dst, selector, recv, arg_regs,
                ic_sites[site_index],
                model.send_hit_cycles, model.send_miss_cycles,
                model.send_megamorphic_cycles, model.send_pic_hit_cycles,
                model.frame_cycles, model.slot_cycles,
            )
        if opcode == op.PRIMCALL:
            from .cost import PRIMITIVE_WORK_CYCLES

            dst, primitive, recv, arg_regs, err_reg, fail_target = insn[1:7]
            selector = primitive.selector
            fail_target = target(fail_target) if (
                fail_target is not None and fail_target >= 0
            ) else -1
            if selector == "_Clone" or selector == "_NewVector:Filler:":
                handler = (
                    _do_primcall_clone if selector == "_Clone"
                    else _do_primcall_newvec
                )
                cycles += model.alloc_cycles
                return (
                    handler, cycles, 1, dst, primitive.fn, recv, arg_regs,
                    err_reg, fail_target, selector,
                    model.prim_per_element_cycles,
                )
            cycles += PRIMITIVE_WORK_CYCLES.get(selector, 4)
            return (
                _do_primcall, cycles, 1, dst, primitive.fn, recv, arg_regs,
                err_reg, fail_target, selector,
            )
        if opcode == op.NLR:
            return (_do_nlr, cycles, 1, insn[1], model.nlr_cycles)
        if opcode == op.ERROR:
            return (_do_error, cycles, 1, insn[1], insn[2], insn[3])
        raise VMError(f"cannot predecode opcode {op.op_name(opcode)}")

    return [decode_one(insn) for insn in insns]


def disassemble_threaded(threaded) -> str:
    """Human-readable listing of a predecoded stream (debugging aid)."""
    lines = []
    for index, insn in enumerate(threaded):
        name = insn[0].__name__.lstrip("_")
        operands = " ".join(repr(x) for x in insn[3:])
        lines.append(
            f"{index:4}: {name:<22} cyc={insn[1]:<3} n={insn[2]} {operands}"
        )
    return "\n".join(lines)
