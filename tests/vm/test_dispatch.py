"""Predecode unit tests.

:func:`repro.vm.dispatch.predecode` turns the architectural instruction
tuples into the handler-threaded stream the VM executes.  The
invariants under test:

* **conservation** — the threaded stream charges exactly the modeled
  cycles and architectural instruction count of the tuple stream;
* **alignment** — slot *i* is instruction *i*, so every branch operand
  is its architectural target unchanged;
* **branch safety** — a branch target outside the stream is rejected
  at predecode, not when the branch is taken;
* **pool resolution** — constants, IC sites, and primitive functions
  appear in the stream as the objects themselves, not as pool indices.
"""

import pytest

from repro.bench.base import get_benchmark
from repro.compiler import NEW_SELF, compile_code
from repro.lang import parse_doit
from repro.objects.errors import VMError
from repro.robustness import faults
from repro.vm import NEW_SELF_MODEL, ST80_MODEL, Runtime, generate
from repro.vm import opcodes as op
from repro.vm.code import InlineCacheSite
from repro.vm.dispatch import predecode
from repro.world import World

LOOP = "| i <- 0 | [ i < 9 ] whileTrue: [ i: i + 1 ]. i"


@pytest.fixture(scope="module")
def world():
    return World()


def _compiled(world, source, model=NEW_SELF_MODEL):
    graph = compile_code(
        world.universe, NEW_SELF, parse_doit(source),
        world.universe.map_of(world.lobby), "<doit>",
    )
    return generate(graph, model)


# -- conservation -----------------------------------------------------------


def test_instruction_count_is_conserved(world):
    code = _compiled(world, LOOP)
    assert sum(t[2] for t in code.threaded) == len(code.insns)


def test_static_cycles_are_conserved(world):
    """Per-opcode cycles summed over the threaded stream equal the
    cost-model walk over the architectural stream (no PRIMCALL/SEND in
    this program, whose baked extras are charged dynamically)."""
    code = _compiled(world, LOOP)
    assert not any(i[0] in (op.PRIMCALL, op.SEND) for i in code.insns)
    expected = sum(NEW_SELF_MODEL.instruction_cycles(i[0]) for i in code.insns)
    assert sum(t[1] for t in code.threaded) == expected


# -- alignment --------------------------------------------------------------


@pytest.fixture(scope="module")
def richards_codes():
    benchmark = get_benchmark("richards")
    world = World()
    world.add_slots(benchmark.setup_source)
    runtime = Runtime(world, NEW_SELF)
    assert runtime.run(benchmark.run_source) == benchmark.expected
    return list(runtime.iter_compiled_codes())


def test_stream_is_index_aligned_with_insns(richards_codes):
    """Every body richards compiles predecodes to one slot per
    instruction, and every branch operand is the architectural target
    itself (PRIMCALL's "cannot fail" target is normalized to -1)."""
    assert len(richards_codes) > 10
    for code in richards_codes:
        assert len(code.threaded) == len(code.insns)
        for insn, slot in zip(code.insns, code.threaded):
            assert slot[2] == 1
            pos = op.BRANCH_OPERANDS.get(insn[0])
            if pos is None:
                continue
            target = insn[pos]
            if insn[0] == op.PRIMCALL and (target is None or target < 0):
                target = -1
            # operands start at index 3 in the threaded tuple
            assert slot[pos + 2] == target


# -- branch safety ----------------------------------------------------------


def test_every_remapped_branch_is_in_range(world):
    """Branch operands of a compiled body stay inside the stream."""
    code = _compiled(world, LOOP)
    n = len(code.threaded)
    for t in code.threaded:
        if t[0].__name__ in ("_do_jump",):
            assert 0 <= t[3] < n
        if t[0].__name__.startswith("_do_cmp"):
            assert 0 <= t[5] < n


@pytest.mark.parametrize("target", [2, 3, -1])
def test_predecode_rejects_an_out_of_range_branch_target(target):
    insns = [(op.JUMP, target), (op.RETURN, 0)]
    with pytest.raises(VMError, match="outside"):
        predecode(insns, [], [], ST80_MODEL)


def test_corrupt_predecode_is_rejected():
    insns = [(op.CMP_LT, 0, 1, 2), (op.MOVE, 0, 1), (op.RETURN, 0)]
    assert len(predecode(insns, [], [], ST80_MODEL)) == 3
    plan = faults.FaultPlan(site=faults.SITE_VM_PREDECODE, mode="corrupt")
    with faults.injected(plan):
        with pytest.raises(VMError, match="outside"):
            predecode(insns, [], [], ST80_MODEL)


# -- pool resolution --------------------------------------------------------


def test_loadk_resolves_the_constant():
    marker = object()
    insns = [(op.LOADK, 0, 0), (op.RETURN, 0)]
    threaded = predecode(insns, [marker], [], ST80_MODEL)
    assert threaded[0][0].__name__ == "_do_loadk"
    assert threaded[0][4] is marker


def test_send_costs_are_baked_per_model():
    site = InlineCacheSite("foo")
    insns = [(op.SEND, 0, "foo", 1, (), 0), (op.RETURN, 0)]
    threaded = predecode(insns, [], [site], ST80_MODEL)
    send = threaded[0]
    assert send[8] == ST80_MODEL.send_hit_cycles
    assert send[9] == ST80_MODEL.send_miss_cycles
    assert send[10] == ST80_MODEL.send_megamorphic_cycles
    assert send[12] == ST80_MODEL.frame_cycles
