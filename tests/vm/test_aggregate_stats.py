"""Regression tests for the runtime's stats aggregation.

``aggregate_compile_stats`` and ``aggregate_dispatch_stats`` share one
deduplicating iterator over the compiled-code caches; these tests pin
the aggregate of a known two-method program and the dedup behavior.
"""

from collections import Counter

from repro.compiler.config import NEW_SELF
from repro.vm.runtime import Runtime
from repro.world.bootstrap import World

# Two methods: ``fib:`` recurses, so it cannot be fully inlined into
# the do-it and must be compiled as its own body — the aggregate then
# genuinely sums over more than one compiled code.
TWO_METHODS = """
| math = (| parent* = traits clonable.
    double: n = ( n + n ).
    fib: n = (
      n < 2 ifTrue: [ n ]
            False: [ (fib: n - 1) + (fib: n - 2) ] ).
  |).
|"""

DOIT = "(math fib: 10) + (math double: 4)"


def run_two_methods() -> Runtime:
    world = World()
    world.add_slots(TWO_METHODS)
    runtime = Runtime(world, NEW_SELF)
    assert runtime.run(DOIT) == 63  # fib(10)=55, double(4)=8
    return runtime


def test_known_program_aggregate_is_pinned():
    # Regression values for the two-method program under new SELF; a
    # change here means the compiler's counting (or the aggregation)
    # changed and must be deliberate.
    runtime = run_two_methods()
    assert runtime.methods_compiled == 2
    assert runtime.aggregate_compile_stats() == {
        "bounds_checks_elided": 0,
        "constant_folds": 5,
        "dynamic_sends": 13,
        "inlined_blocks": 13,
        "inlined_sends": 24,
        "loop_analysis_iterations": 0,
        "loop_versions": 0,
        "nlr_unsafe_materializations": 0,
        "overflow_checks_elided": 2,
        "type_tests": 10,
        "type_tests_elided": 13,
    }


def test_aggregate_equals_the_sum_of_per_code_stats():
    runtime = run_two_methods()
    codes = list(runtime.iter_compiled_codes())
    assert len(codes) == 2  # the do-it and the recursive fib: body
    totals = Counter()
    for code in codes:
        for key, value in code.compile_stats.items():
            totals[key] += value
    assert dict(totals) == runtime.aggregate_compile_stats()


def test_iter_compiled_codes_yields_each_body_once():
    runtime = run_two_methods()
    codes = list(runtime.iter_compiled_codes())
    assert len({id(code) for code in codes}) == len(codes)
    # even if one code ended up in both caches, it must not be counted
    # twice: simulate the sharing and re-aggregate
    (first, *_rest) = codes
    runtime._block_code["shared-alias"] = (object(), first)
    assert len(list(runtime.iter_compiled_codes())) == len(codes)


def test_dispatch_aggregate_matches_per_code_slots():
    runtime = run_two_methods()
    dispatch = runtime.aggregate_dispatch_stats()
    assert dispatch["compiled_bodies"] == 2
    # one threaded slot per architectural instruction
    assert dispatch["threaded_slots"] == sum(
        len(code.insns) for code in runtime.iter_compiled_codes()
    )
