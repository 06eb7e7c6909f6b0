"""Golden determinism: the modeled measurements are frozen numbers.

The threaded-dispatch VM (predecoded handlers, baked static cycles)
and the translated tier above it are host-speed optimizations only:
the modeled quantities — cycles, architectural instruction count,
compiled code bytes, send-cache counters — must stay *bit-identical*
to the measurement model the tables were built on.  These goldens were
recorded from the pre-threading interpreter; any drift here means the
cost model became observable through an execution-engine change, which
is a correctness bug, not a tuning tradeoff.

sumTo exercises the straight-line arithmetic/loop path; towers
exercises recursion, dynamic sends, and the inline caches.
"""

import pytest

from repro.bench.base import get_benchmark
from repro.bench.harness import run_benchmark

#: (benchmark, system) -> (cycles, instructions, code_bytes, answer,
#:                         send_hits, send_misses, send_megamorphic)
GOLDEN = {
    ("sumTo", "st80"): (800231, 330029, 692, 50005000, 0, 2, 0),
    ("sumTo", "oldself89"): (680044, 320026, 1440, 50005000, 0, 0, 0),
    ("sumTo", "oldself90"): (700052, 320026, 1440, 50005000, 0, 0, 0),
    ("sumTo", "newself"): (270024, 260024, 552, 50005000, 0, 0, 0),
    ("sumTo", "static"): (60010, 260024, 204, 50005000, 0, 0, 0),
    ("towers", "st80"): (1950588, 448374, 7916, 2047, 42982, 43, 0),
    ("towers", "oldself89"): (974227, 442596, 35248, 2047, 2042, 4, 0),
    ("towers", "oldself90"): (1027583, 442596, 35248, 2047, 2042, 4, 0),
    ("towers", "newself"): (578591, 422015, 36380, 2047, 2042, 4, 0),
    ("towers", "static"): (153049, 332177, 7816, 2047, 2041, 5, 0),
}


@pytest.mark.parametrize(
    "name,system", sorted(GOLDEN), ids=[f"{n}-{s}" for n, s in sorted(GOLDEN)]
)
def test_modeled_measurements_match_goldens(name, system):
    expected = GOLDEN[(name, system)]
    r = run_benchmark(get_benchmark(name), system)
    got = (
        r.cycles, r.instructions, r.code_bytes, r.answer,
        r.send_hits, r.send_misses, r.send_megamorphic,
    )
    assert got == expected, (
        f"{name}/{system}: modeled measurements drifted from the golden "
        f"baseline (cycles, insns, bytes, answer, hits, misses, mega): "
        f"{got} != {expected}"
    )


def test_back_to_back_runs_are_identical():
    """Two fresh-world runs of the same pair agree exactly (no hidden
    host-dependent state leaks into the model)."""
    a = run_benchmark(get_benchmark("towers"), "newself")
    b = run_benchmark(get_benchmark("towers"), "newself")
    assert (a.cycles, a.instructions, a.code_bytes) == (
        b.cycles, b.instructions, b.code_bytes
    )
