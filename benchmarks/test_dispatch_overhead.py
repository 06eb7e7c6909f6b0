"""Host-speed microbenchmark of the threaded dispatch loop.

These numbers are *informational*: they measure how fast the host
Python interpreter drives the VM's predecoded handler stream
(architectural instructions retired per wall-clock second), not
anything the paper models.  They exist so a regression in the dispatch
machinery — a handler growing an attribute lookup, the predecoder
resolving less of an operand — shows up as a drop in dispatch rate even
though every modeled number stays bit-identical.

Run with ``pytest benchmarks/ --benchmark-only``; the rate appears in
the ``insns_per_sec`` extra-info column.
"""

import time

import pytest

from repro.compiler import NEW_SELF, ST80
from repro.vm import Runtime
from repro.world import World

#: straight-line arithmetic loop: MOVE/LOADK/ADD-dominated stream
SUM_LOOP = """| sum <- 0. i <- 1. n <- 20000 |
[ i < n ] whileTrue: [ sum: sum + i. i: i + 1 ].
sum"""

#: send-heavy recursion: exercises the SEND handler and frame churn
FIB_SLOTS = "| fib: n = ( n < 2 ifTrue: [ ^ n ]. (fib: n - 1) + (fib: n - 2) ) |"
FIB = "fib: 17"


@pytest.fixture(scope="module")
def world():
    return World()


def _measure(benchmark, runtime, source, expected):
    def run():
        runtime.reset_measurements()
        return runtime.run(source)

    result = benchmark(run)
    assert result == expected
    # One extra timed run for the informational dispatch rate; the
    # modeled instruction count is deterministic per run.
    runtime.reset_measurements()
    started = time.perf_counter()
    runtime.run(source)
    elapsed = time.perf_counter() - started
    benchmark.extra_info["instructions"] = runtime.instructions
    benchmark.extra_info["insns_per_sec"] = round(runtime.instructions / elapsed)
    assert runtime.instructions > 0


@pytest.mark.parametrize("config", [NEW_SELF, ST80], ids=lambda c: c.name)
def test_dispatch_rate_arith_loop(benchmark, world, config):
    runtime = Runtime(world, config)
    runtime.run(SUM_LOOP)  # warm the code cache: measure dispatch, not compiles
    _measure(benchmark, runtime, SUM_LOOP, sum(range(1, 20000)))


def test_dispatch_rate_send_heavy(benchmark):
    world = World()
    world.add_slots(FIB_SLOTS)
    runtime = Runtime(world, ST80)
    runtime.run(FIB)
    _measure(benchmark, runtime, FIB, 1597)
