"""The translation tier: specialized host functions above the threaded VM.

Four contracts under test:

* **Differential transparency** — every benchmark workload produces the
  same answer *and the same modeled measurements* (cycles,
  instructions, code bytes, IC counters) with translation forced on as
  with it disabled: the tier is a host-speed change only.
* **Interop** — blocks, non-local returns, and dead-activation errors
  behave identically across the tier boundary (translated caller,
  untranslated callee, and vice versa).
* **Lifecycle** — promotion happens exactly at the threshold;
  invalidation retires a translated body mid-run and the live frame
  falls back to the predecoded stream; share clones reuse one compiled
  factory.
* **Containment** — an injected emission fault (``vm.translate.emit``,
  raise or corrupt) marks the body untranslatable, logs a degradation,
  and never changes the program's result.
"""

import pytest

from repro.bench.base import all_benchmarks, get_benchmark
from repro.bench.harness import run_benchmark
from repro.compiler import NEW_SELF
from repro.objects import NonLocalReturnFromDeadActivation
from repro.robustness import faults
from repro.robustness.faults import SITE_VM_TRANSLATE, FaultPlan
from repro.vm import ST80_MODEL, Runtime
from repro.vm import opcodes as op
from repro.vm.dispatch import predecode
from repro.vm.emit import emit_source
from repro.world import World

from .test_golden_determinism import GOLDEN


@pytest.fixture
def forced(monkeypatch):
    """Translate every body on its first activation."""
    monkeypatch.setenv("REPRO_TRANSLATE_THRESHOLD", "1")


def _modeled(result):
    return (
        result.answer, result.cycles, result.instructions,
        result.code_bytes, result.send_hits, result.send_misses,
        result.send_megamorphic,
    )


@pytest.mark.parametrize("name", sorted(all_benchmarks()))
def test_translated_matches_predecoded(name, monkeypatch):
    """Forcing translation changes no observable modeled measurement on
    any workload — answers and the full golden tuple stay identical."""
    benchmark = get_benchmark(name)
    monkeypatch.setenv("REPRO_TRANSLATE_THRESHOLD", "0")
    baseline = run_benchmark(benchmark, "newself")
    monkeypatch.setenv("REPRO_TRANSLATE_THRESHOLD", "1")
    translated = run_benchmark(benchmark, "newself")
    assert translated.verified
    assert _modeled(translated) == _modeled(baseline)
    assert translated.metrics["translate.translated"] > 0, (
        "forced run never promoted a body — the tier was not exercised"
    )
    assert translated.metrics["translate.emit_failed"] == 0


@pytest.mark.parametrize(
    "name,system",
    sorted(pair for pair in GOLDEN if pair[1] == "newself"),
    ids=[f"{n}-{s}" for n, s in sorted(GOLDEN) if s == "newself"],
)
def test_goldens_hold_with_translation_forced(name, system, forced):
    """The frozen golden numbers themselves, re-checked translated."""
    result = run_benchmark(get_benchmark(name), system)
    got = (
        result.cycles, result.instructions, result.code_bytes,
        result.answer, result.send_hits, result.send_misses,
        result.send_megamorphic,
    )
    assert got == GOLDEN[(name, system)]


def test_promotion_at_threshold(monkeypatch, fresh_world):
    monkeypatch.setenv("REPRO_TRANSLATE_THRESHOLD", "3")
    w = fresh_world
    w.add_slots("| triple: n = ( n + n + n ) |")
    rt = Runtime(w, NEW_SELF)
    assert rt.translate_threshold == 3
    for i in range(2):
        assert rt.call(w.lobby, "triple:", [i]) == 3 * i
    assert rt.translate_stats["translated"] == 0, "promoted below threshold"
    assert rt.call(w.lobby, "triple:", [7]) == 21
    assert rt.translate_stats["translated"] >= 1, "threshold crossing missed"


def test_zero_threshold_disables_tier(monkeypatch, fresh_world):
    monkeypatch.setenv("REPRO_TRANSLATE_THRESHOLD", "0")
    rt = Runtime(fresh_world, NEW_SELF)
    for _ in range(3):
        assert rt.run("3 + 4 * 2") == 14
    assert rt.translate_stats["translated"] == 0


def test_nlr_through_block_across_tiers(forced, fresh_world):
    """NLR out of a block whose home is a translated frame, unwinding
    through an untranslated-on-entry iteration helper."""
    w = fresh_world
    w.add_slots(
        """|
        each: v Do: blk = ( | i <- 0 | [ i < v size ] whileTrue: [
            blk value: (v at: i). i: i + 1 ]. nil ).
        findFirstBig: v = ( each: v Do: [ | :e | e > 10 ifTrue: [ ^ e ] ]. -1 ).
        |"""
    )
    rt = Runtime(w, NEW_SELF)
    setup = (
        "| v | v: (vector copySize: 4). v at: 0 Put: 3. v at: 1 Put: 25. "
        "v at: 2 Put: 7. v at: 3 Put: 99. findFirstBig: v"
    )
    # twice: the first run promotes mid-flight, the second enters every
    # body already translated
    assert rt.run(setup) == 25
    assert rt.run(setup) == 25
    assert rt.translate_stats["translated"] > 0


def test_nlr_into_dead_frame_still_raises(forced, fresh_world):
    w = fresh_world
    w.add_slots(
        """|
        holder = (| parent* = traits clonable. blk.
                    make = ( blk: [ ^ 1 ]. self ).
                    fire = ( blk value ) |).
        |"""
    )
    rt = Runtime(w, NEW_SELF)
    rt.run("holder make")
    with pytest.raises(NonLocalReturnFromDeadActivation):
        rt.run("holder fire")


def test_block_values_cross_tier_boundary(forced, fresh_world):
    w = fresh_world
    w.add_slots("| apply: blk To: x = ( blk value: x ) |")
    rt = Runtime(w, NEW_SELF)
    for expect in (42, 42, 42):
        assert rt.run("apply: [ :v | v * 3 ] To: 14") == expect
    assert rt.translate_stats["translated"] > 0


def test_invalidation_retires_translated_body_mid_run(forced):
    """`_SetSlot:` fired from inside a translated activation: the
    dependency registry retires the translation while its frame is still
    live, a deopt storm begins, and the run completes with the storm's
    documented semantics.  (The live frame itself may legally finish
    inside the already-entered host function — the streams are retired,
    not mutated — so no fallback entry is asserted here; that counter is
    pinned by the untranslatable-body test below.)"""
    source = """| counter = (| n = 100.
         bump = ( self _SetSlot: 'n' Value: n + 1. n ).
         spin = ( | total <- 0 |
                  1 to: 5 Do: [ | :i | total: total + self bump ].
                  total ) |) |"""
    world = World()
    world.add_slots(source)
    rt = Runtime(world, NEW_SELF)
    answer = rt.run("counter spin")
    assert rt.translate_stats["translated"] >= 1
    assert rt.translate_stats["retired"] >= 1, (
        "mutation under a live translated frame must retire the body"
    )
    assert rt._deopt_storm is True

    # Differential: the same script on a translation-free runtime built
    # over an identical fresh world answers the same.
    plain_world = World()
    plain_world.add_slots(source)
    plain = Runtime(plain_world, NEW_SELF)
    plain.translate_threshold = 0
    assert answer == plain.run("counter spin")

    # The storm clears at the next quiet top-level entry and both
    # runtimes keep agreeing afterwards.
    assert rt.run("counter n") == plain.run("counter n")
    assert rt._deopt_storm is False


def test_mutation_added_slot_visible_after_retirement(forced, fresh_world):
    w = fresh_world
    w.add_slots(
        """|
        thing = (| x = 1 |).
        grow = ( thing _AddSlot: 'y' Value: 9. 0 ).
        work = ( | s <- 0 | s: grow. s + thing x + thing y ).
        |"""
    )
    rt = Runtime(w, NEW_SELF)
    assert rt.run("work") == 10
    assert rt.translate_stats["retired"] >= 1


@pytest.mark.parametrize("mode", ["raise", "corrupt"])
def test_emit_fault_is_contained(forced, fresh_world, mode):
    w = fresh_world
    w.add_slots("| double: n = ( n + n ) |")
    rt = Runtime(w, NEW_SELF)
    with faults.injected(FaultPlan(site=SITE_VM_TRANSLATE, mode=mode, nth=1)):
        assert rt.call(w.lobby, "double:", [21]) == 42
    assert rt.translate_stats["emit_failed"] == 1
    stages = [event.stage for event in rt.recovery]
    assert "translate" in stages, "containment must log a degradation"
    # untranslatable bodies are never retried; every later activation is
    # a counted fallback onto the predecoded stream
    assert rt.call(w.lobby, "double:", [4]) == 8
    assert rt.translate_stats["emit_failed"] == 1
    assert rt.translate_stats["fallback_entries"] >= 1


def test_factory_reused_across_share_clones(forced, fresh_world):
    """Code sharing hands congruent predecoded streams to both maps; the
    translator compiles the factory once and rebinds constants."""
    w = fresh_world
    w.add_slots(
        """|
        sharedArith = (| parent* = traits clonable.
          double: x = ( x + x ) |).
        pA = (| parent* = sharedArith. kindTag = ( 1 ) |).
        pB = (| parent* = sharedArith. kindTag = ( 2 ) |).
        |"""
    )
    rt = Runtime(w, NEW_SELF)
    a = w.get_global("pA")
    b = w.get_global("pB")
    assert rt.call(a, "double:", [5]) == 10
    assert rt.call(b, "double:", [7]) == 14
    assert rt.share_hits >= 1, "precondition: the body must be shared"
    assert rt.translate_stats["reused"] >= 1, (
        "the share clone should reuse the compiled factory"
    )


def test_translation_survives_repeated_steady_state(forced, fresh_world):
    """A translated body stays installed and keeps answering across many
    entries (no accidental re-emission per activation)."""
    w = fresh_world
    w.add_slots("| sq: n = ( n * n ) |")
    rt = Runtime(w, NEW_SELF)
    for i in range(6):
        assert rt.call(w.lobby, "sq:", [i]) == i * i
    assert rt.translate_stats["translated"] >= 1
    emitted_once = rt.translate_stats["translated"]
    for i in range(6):
        assert rt.call(w.lobby, "sq:", [i]) == i * i
    assert rt.translate_stats["translated"] == emitted_once


def _charges(source):
    return [
        line.strip() for line in source.splitlines()
        if line.strip().startswith(("_cyc +=", "_n +="))
    ]


def test_move_chain_costs_one_charge_statement():
    """With counters on, a MOVE/LOADK run is charged by the next charge
    statement of its block, and a fallthrough into a label pays what is
    still carried; the per-block totals are the threaded loop's."""
    cyc = ST80_MODEL.static_cycle_table()
    insns = [
        (op.CMP_LT, 0, 1, 6),  # else-branch to the label at 6
        (op.MOVE, 2, 0),
        (op.MOVE, 3, 2),
        (op.LOADK, 4, 0),
        (op.ADD, 5, 3, 4),
        (op.MOVE, 6, 5),       # falls through into the label at 6
        (op.RETURN, 6),
    ]
    threaded = predecode(insns, [7], [], ST80_MODEL)
    source, _, _ = emit_source(threaded, counters=True)
    run = 2 * cyc[op.MOVE] + cyc[op.LOADK] + cyc[op.ADD]
    assert _charges(source) == [
        f"_cyc += {cyc[op.CMP_LT]}; _n += 1",
        f"_cyc += {run}; _n += 4",
        f"_cyc += {cyc[op.MOVE]}; _n += 1",
        f"_cyc += {cyc[op.RETURN]}; _n += 1",
    ]
    assert _charges(emit_source(threaded, counters=False)[0]) == []
