"""Set up, run and check one workload; turn what it measured into metrics.

Every workload drives the program only through its public entry
points (``World``, ``World.add_slots``, ``Zygote.fork``, ``parse_doit``,
``Runtime.run_doit``, ``Service.submit``/``Service.run_once``) and
reads only the counters the program already keeps.  Op timings are
wall clock around those calls; ``gc.collect()`` runs between ops,
outside the timer.

A workload is set up ``setups`` times, half before and half after it
is measured once over its seeded op list (``setup_s`` is the median;
the cheap set-ups repeat more, so their median is not one noisy
sample):

* ``setup(tracer)`` builds the state a run starts from and returns it;
* ``measure(state, ops, tracer, tally)`` runs every op, checks every
  answer, and returns a :class:`Result`;
* ``close(state)`` releases what set-up created on disk.

With tracing off the tracer is ``NULL_TRACER`` and ``tally`` is None;
the traced pass passes an ``obs.trace.Tracer`` through
``Runtime(tracer=...)`` and a :class:`~layers.Tally` that collects the
per-layer split.
"""

from __future__ import annotations

import gc
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field

from repro.bench.base import SYSTEMS, get_benchmark
from repro.lang.parser import parse_doit
from repro.objects.errors import SelfError
from repro.obs.trace import NULL_TRACER
from repro.serve import Service, ServiceConfig, SupervisorPolicy, Zygote
from repro.tools.serve_stress import PROBES, SETUP as KIT_SETUP
from repro.types import lattice
from repro.vm.runtime import Runtime
from repro.world.bootstrap import World

from workloads import PROGRAMS, STEADY_PROGRAMS, program_ops, serve_ops

#: the paper's system (``new SELF``): iterative type analysis plus
#: extended message splitting
CONFIG = SYSTEMS["newself"]

#: statuses of one op: answered correctly, answered wrongly, or (serve
#: only) refused or cut off by the service -- shed, deadline, fault
OK, WRONG, FAILED = "ok", "wrong", "failed"


@dataclass
class Result:
    """What one measured pass produced."""

    #: (kind, latency ms, status) per op, in op order
    ops: list = field(default_factory=list)
    #: serve only: wall seconds of the arrival run (goodput's denominator)
    wall_s: float = 0.0
    #: generated code bytes (deterministic for a given op list)
    code_bytes: int = 0
    #: modeled cycles of every op's answer (deterministic likewise)
    cycles: int = 0
    #: serve only: per-request queue wait, service and generator lag, ms
    queue_wait_ms: list = field(default_factory=list)
    service_ms: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    shed: int = 0
    overload_entered: int = 0
    tenants: int = 0
    #: first wrong answers, for the report
    mismatches: list = field(default_factory=list)

    def record(self, kind: str, ms: float, status: str, detail: str = "") -> None:
        self.ops.append((kind, ms, status))
        if status == WRONG and len(self.mismatches) < 5:
            self.mismatches.append(f"{kind}: {detail}")


def _expected(name: str):
    return get_benchmark(name).expected


# ---------------------------------------------------------------------------
# cold and restart: bootstrap -> first verified answer, per op
# ---------------------------------------------------------------------------


def first_answer(name: str, tracer=NULL_TRACER):
    """One cold op: a fresh world, the program's set-up, parse, run.

    Returns ``(runtime, answer)``.  The spans are the benchmark's own,
    around each call into a layer; ``compile``/``codegen`` spans come
    from inside the program when the tracer is enabled.
    """
    bench = get_benchmark(name)
    with tracer.span("world.bootstrap"):
        world = World()
    with tracer.span("world.add_slots"):
        world.add_slots(bench.setup_source)
    runtime = Runtime(world, CONFIG, tracer=tracer)
    with tracer.span("lang.parse"):
        doit = parse_doit(bench.run_source)
    with tracer.span("vm.run"):
        answer = runtime.run_doit(doit)
    return runtime, answer


def _check(result: Result, kind: str, ms: float, answer, expected) -> None:
    if answer == expected:
        result.record(kind, ms, OK)
    else:
        result.record(kind, ms, WRONG, f"got {answer!r}, expected {expected!r}")


def _measure_first_answers(ops, tracer, tally, expected=_expected) -> Result:
    result = Result()
    code_bytes = {}
    for name in ops:
        # Each op starts from empty process-global lattice tables, so
        # it never inherits the previous op's memo.
        lattice.clear_caches()
        gc.collect()
        started = time.perf_counter()
        runtime, answer = first_answer(name, tracer)
        ms = (time.perf_counter() - started) * 1000
        _check(result, name, ms, answer, expected(name))
        code_bytes.setdefault(name, runtime.code_bytes)
        result.cycles += runtime.cycles
        if tally is not None:
            tally.add_runtime(runtime)
            tally.note_memo()
    result.code_bytes = sum(code_bytes.values())
    return result


#: run in a child interpreter by the cold set-up: what a fresh process
#: pays before its first op (start-up, imports, one bootstrap, one
#: trivial answer)
_COLD_CHILD = """
from repro.bench.base import SYSTEMS
from repro.lang.parser import parse_doit
from repro.vm.runtime import Runtime
from repro.world.bootstrap import World
assert Runtime(World(), SYSTEMS["newself"]).run_doit(parse_doit("3 + 4")) == 7
"""

#: the same for serve: start-up, imports, a zygote, and one tenant
#: answering every probe once
_SERVE_CHILD = """
from repro.serve import Service
from repro.tools.serve_stress import PROBES, SETUP
service = Service(tenant_setup=(SETUP,))
assert all(service.call("warm-up", p).status == "ok" for p in PROBES)
"""


def _run_child(src: str, script: str) -> None:
    """Run ``script`` in a fresh interpreter with ``src`` importable,
    and wait for it."""
    subprocess.run(
        [sys.executable, "-c",
         f"import sys\nsys.path.insert(0, sys.argv[1])\n{script}", src],
        check=True, timeout=120,
    )


class Cold:
    """Cold-to-first-answer: the compiler does most of the work."""

    name = "cold"
    setups = 11

    def __init__(self, src: str) -> None:
        self.src = src

    def ops(self, seed: int, seconds: float) -> list:
        return program_ops(self.name, seed, seconds)

    def setup(self, tracer=NULL_TRACER):
        _run_child(self.src, _COLD_CHILD)
        # The same warm-up in this process, so lazily imported modules
        # are not billed to the first measured op.
        Runtime(World(), CONFIG).run_doit(parse_doit("3 + 4"))
        return None

    def measure(self, state, ops, tracer=NULL_TRACER, tally=None,
                expected=_expected) -> Result:
        return _measure_first_answers(ops, tracer, tally, expected)

    def close(self, state) -> None:
        pass


class Restart(Cold):
    """The cold ops again, over a persistent code cache set-up filled."""

    name = "restart"
    setups = 5

    def __init__(self, src: str, scratch: str) -> None:
        super().__init__(src)
        self.scratch = scratch

    def setup(self, tracer=NULL_TRACER):
        super().setup(tracer)
        os.makedirs(self.scratch, exist_ok=True)
        path = tempfile.mkdtemp(prefix="codecache-", dir=self.scratch)
        os.environ["REPRO_CODE_CACHE"] = path
        for name in PROGRAMS:
            lattice.clear_caches()
            _, answer = first_answer(name)
            if answer != _expected(name):
                raise RuntimeError(
                    f"restart set-up: {name} returned {answer!r}"
                )
        return path

    def close(self, state) -> None:
        os.environ.pop("REPRO_CODE_CACHE", None)
        if state:
            shutil.rmtree(state, ignore_errors=True)


# ---------------------------------------------------------------------------
# steady: parsed do-its re-run on warmed runtimes
# ---------------------------------------------------------------------------


#: cap on warm-up runs per program (a body that never settles still
#: ends set-up)
_MAX_WARM_RUNS = 200


def warm_runtime(name: str, tracer=NULL_TRACER):
    """A runtime whose translation state has settled for ``name``.

    Every run repeats the same activations, so each body activated in
    a run reaches the promotion threshold by run ``translate_threshold
    + 1``.  Set-up runs the do-it at least that often, then until one
    more run leaves ``translate_stats`` unchanged.
    """
    bench = get_benchmark(name)
    world = World()
    world.add_slots(bench.setup_source)
    runtime = Runtime(world, CONFIG, tracer=tracer)
    doit = parse_doit(bench.run_source)
    last = None
    for runs in range(1, _MAX_WARM_RUNS + 1):
        answer = runtime.run_doit(doit)
        if answer != bench.expected:
            raise RuntimeError(f"steady set-up: {name} returned {answer!r}")
        stats = {k: v for k, v in runtime.translate_stats.items()
                 if k != "emit_seconds"}
        if stats == last and runs > runtime.translate_threshold + 1:
            break
        last = stats
    runtime.reset_measurements()
    return runtime, doit


class Steady:
    """Translated execution and dispatch; the compiler is idle."""

    name = "steady"
    setups = 5

    def ops(self, seed: int, seconds: float) -> list:
        return program_ops(self.name, seed, seconds)

    def setup(self, tracer=NULL_TRACER):
        return {name: warm_runtime(name, tracer) for name in STEADY_PROGRAMS}

    def measure(self, state, ops, tracer=NULL_TRACER, tally=None,
                expected=_expected) -> Result:
        result = Result()
        baselines = {}
        if tally is not None:
            baselines = {name: tally.snapshot(rt) for name, (rt, _) in state.items()}
        for name in ops:
            runtime, doit = state[name]
            gc.collect()
            started = time.perf_counter()
            with tracer.span("vm.run"):
                answer = runtime.run_doit(doit)
            ms = (time.perf_counter() - started) * 1000
            _check(result, name, ms, answer, expected(name))
        result.code_bytes = sum(rt.code_bytes for rt, _ in state.values())
        result.cycles = sum(rt.cycles for rt, _ in state.values())
        if tally is not None:
            for name, (runtime, _) in state.items():
                tally.add_runtime(runtime, baselines[name])
            tally.note_memo()
        return result

    def close(self, state) -> None:
        pass


# ---------------------------------------------------------------------------
# serve: open-loop Poisson arrivals into the multi-tenant service
# ---------------------------------------------------------------------------


class TracedZygote(Zygote):
    """A zygote whose tenants run with the benchmark's tracer.

    Applies the stress kit's set-up itself (instead of through
    ``Service(tenant_setup=...)``) so fork and set-up each get a span.
    No code cache is configured (``REPRO_*`` is cleared), so there is no
    shared cache to hand tenants behind the read-only facade.
    """

    def __init__(self, tracer=NULL_TRACER) -> None:
        super().__init__()
        self.tracer = tracer

    def make_runtime(self, universe_id, config=CONFIG,
                     use_polymorphic_caches=True):
        with self.tracer.span("world.fork"):
            world = self.fork(universe_id)
        with self.tracer.span("world.add_slots"):
            world.add_slots(KIT_SETUP)
        return Runtime(world, config,
                       use_polymorphic_caches=use_polymorphic_caches,
                       tracer=self.tracer)


def _render(universe, thunk) -> str:
    """A request's observable answer: its printed value or guest error."""
    try:
        return universe.print_string(thunk())
    except SelfError as error:
        return f"<guest:{type(error).__name__}>"


def reference_answers(served: list) -> list:
    """Replay each tenant's served requests on the reference AST
    interpreter, in serving order; one answer per ``served`` entry."""
    worlds: dict = {}
    answers = []
    for tenant, source in served:
        world = worlds.get(tenant)
        if world is None:
            world = worlds[tenant] = World()
            world.add_slots(KIT_SETUP)
        answers.append(_render(world.universe, lambda: world.eval(source)))
    return answers


def _kind(source: str) -> str:
    try:
        return f"probe{PROBES.index(source)}"
    except ValueError:
        return "mutation"


class Serve:
    """Many small compiles under an open-loop arrival stream."""

    name = "serve"
    setups = 11

    def __init__(self, src: str) -> None:
        self.src = src

    def ops(self, seed: int, seconds: float) -> list:
        return serve_ops(seed, seconds)

    def setup(self, tracer=NULL_TRACER):
        _run_child(self.src, _SERVE_CHILD)
        zygote = TracedZygote(tracer)
        # The same warm-up in this process, so lazily imported modules
        # are not billed to the first measured request.
        warm = Service(zygote=zygote)
        for source in PROBES:
            warm.call("warm-up", source)
        return Service(
            zygote=zygote,
            policy=SupervisorPolicy(),
            config=ServiceConfig(),
        )

    def measure(self, service, ops, tracer=NULL_TRACER, tally=None,
                reference=reference_answers) -> Result:
        result = Result()
        pending: deque = deque()
        served = []
        responses = []
        clock = time.perf_counter
        index = 0
        gc.collect()
        start = clock()
        while index < len(ops) or service.queue:
            now = clock() - start
            while index < len(ops) and ops[index][0] <= now:
                due, tenant, source = ops[index]
                late = now - due
                result.late_ms.append(late * 1000)
                shed = service.submit(tenant, source)
                if shed is None:
                    pending.append((index, now))
                else:
                    result.shed += 1
                    result.record(_kind(source), late * 1000, FAILED)
                index += 1
            if service.queue:
                begun = clock() - start
                response = service.run_once()
                finished = clock() - start
                i, submitted = pending.popleft()
                due, tenant, source = ops[i]
                result.queue_wait_ms.append((begun - submitted) * 1000)
                result.service_ms.append((finished - begun) * 1000)
                responses.append((i, response, (finished - due) * 1000))
            elif index < len(ops):
                time.sleep(max(0.0, ops[index][0] - (clock() - start)))
        result.wall_s = clock() - start
        snapshot = service.registry.snapshot()
        result.overload_entered = int(snapshot.get("serve.overload_entered", 0))
        result.tenants = len(service.tenants)
        result.code_bytes = sum(
            t.runtime.code_bytes for t in service.tenants.values()
        )
        result.cycles = sum(t.runtime.cycles for t in service.tenants.values())
        if tally is not None:
            for t in service.tenants.values():
                tally.add_runtime(t.runtime)
            tally.note_memo()
        # The check runs after the timed window: each tenant's stream
        # replays on the reference interpreter in serving order.
        for i, response, _ in responses:
            if response.status in ("ok", "error"):
                served.append((ops[i][1], ops[i][2]))
        expected = iter(reference(served))
        for i, response, latency in responses:
            kind = _kind(ops[i][2])
            if response.status == "ok":
                answer = response.value
            elif response.status == "error":
                answer = f"<guest:{response.error_kind}>"
            else:
                result.record(kind, latency, FAILED)
                continue
            _check(result, kind, latency, answer, next(expected))
        return result

    def close(self, state) -> None:
        pass


def make_workload(name: str, src: str, scratch: str):
    if name == "cold":
        return Cold(src)
    if name == "restart":
        return Restart(src, scratch)
    if name == "steady":
        return Steady()
    if name == "serve":
        return Serve(src)
    raise ValueError(f"unknown workload {name!r}")
