"""Seeded op lists for the four workloads.

Every op list is a pure function of ``(workload, seed, seconds)``: the
same arguments give the same ops, in the same order, on every host.
Nothing here reads the clock, so a run never stops early or late
because the machine was busy; ``seconds`` only sizes the list, through
per-workload constants calibrated on a 2-core x86-64 VM.

Why these programs (one per group of ``repro.bench.base.GROUPS``, so
the draw is stratified over all five):

* ``richards`` (richards) -- the paper's flagship object-oriented
  benchmark: send-heavy, and its cold answer is mostly compile + emit.
* ``towers`` (stanford) -- its optimizing compile of
  ``move:From:To:Via:`` runs out of node budget and is thrown away
  before a pessimistic recompile, the compiler's wasted-work case.
* ``tree-oo`` (stanford-oo) -- the paper's ``-oo`` rewrite style:
  allocation and small methods, several translated bodies.
* ``sieve`` (small) -- one loop in one method: the compiler's
  iterative loop analysis with almost nothing else.
* ``poly32`` (poly) -- 32 receiver classes at one send site: the
  megamorphic dispatch case (past the 4-row PIC depth).

``steady`` runs ``richards``, ``sieve`` and ``poly32`` only: sends, a
loop and megamorphic dispatch, each translated.  Warming a program
until its translation settles takes ~18 runs, and set-up is repeated
for ``setup_s``, so ``towers`` and ``tree-oo`` (more of the same,
~2 s of warm-up each) are left out to keep a run short.

``puzzle`` is left out because one ~4 s cold op would set the run
length; ``queens`` because its ~5 s emit would.  The program set is
fixed and the seed only shuffles the op order: a seed that changed the
set would change the geomean with the mix, and two runs on two seeds
would no longer measure the same work.
"""

from __future__ import annotations

import random

PROGRAMS = ("richards", "towers", "tree-oo", "sieve", "poly32")

STEADY_PROGRAMS = ("richards", "sieve", "poly32")

WORKLOADS = ("cold", "restart", "steady", "serve")

#: measured seconds one round over a workload's programs takes (sizes
#: the op list from ``--seconds``; calibration, not a time budget)
ROUND_SECONDS = {"cold": 3.0, "restart": 3.0, "steady": 0.12}

#: fewest rounds a run makes: every program's fastest op is taken from
#: at least this many
MIN_ROUNDS = 3

#: serve: open-loop Poisson arrival rate, requests per second: about a
#: fifth of the closed-loop capacity (~450/s) measured on the same VM,
#: so the service stays below saturation even when the host runs 3x
#: slow (it did, for minutes at a time).  At ~half capacity a slow
#: phase would fill the queue, enter overload and shed.
SERVE_RATE = 80.0

#: serve: share of requests that are a tenant's first contact (a fork
#: plus the kit's set-up before the answer), so ``tenants`` = this share
#: of the run's requests: 16 tenants in a 10 s run.  Twice the 1% tail
#: that ``serve.latency_ms_p99`` reads: were first contacts under 1% of
#: requests, a slower fork could not move the p99 at all.
SERVE_FIRST_CONTACT_SHARE = 0.02

#: serve: Zipf exponent of tenant popularity (tenant k gets a share of
#: requests proportional to ``k ** -SERVE_ZIPF``).  Breslau, Cao, Fan,
#: Phillips and Shenker, "Web Caching and Zipf-like Distributions:
#: Evidence and Implications" (INFOCOM 1999), fit exponents of 0.64 to
#: 0.83 to the request popularity of six web proxy traces; 0.8 lies in
#: that range.
SERVE_ZIPF = 0.8

#: latency limit for goodput, ms, per workload
LATENCY_LIMIT_MS = {
    "cold": 10_000.0,
    "restart": 10_000.0,
    "steady": 1_000.0,
    "serve": 100.0,
}


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / ROUND_SECONDS[workload]))


def programs_for(workload: str) -> tuple:
    return STEADY_PROGRAMS if workload == "steady" else PROGRAMS


def program_ops(workload: str, seed: int, seconds: float) -> list:
    """Program names, one per op: every program once per round, each
    round in its own seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for _ in range(rounds_for(workload, seconds)):
        round_ = list(programs_for(workload))
        rng.shuffle(round_)
        ops.extend(round_)
    return ops


def tenant_requests(count: int) -> list:
    """Requests per tenant, most popular first: ``count`` requests over
    ``SERVE_FIRST_CONTACT_SHARE * count`` tenants, split by Zipf weight
    (largest remainder, at least one each).  A function of ``count``
    alone, so every seed serves the same tenants the same requests."""
    tenants = min(count, max(2, round(SERVE_FIRST_CONTACT_SHARE * count)))
    weights = [rank ** -SERVE_ZIPF for rank in range(1, tenants + 1)]
    spare = count - tenants
    shares = [spare * w / sum(weights) for w in weights]
    counts = [1 + int(share) for share in shares]
    by_remainder = sorted(range(tenants),
                          key=lambda k: (int(shares[k]) - shares[k], k))
    for k in by_remainder[:count - sum(counts)]:
        counts[k] += 1
    return counts


def serve_ops(seed: int, seconds: float) -> list:
    """``(due_seconds, tenant_id, source)`` per request, due-ordered.

    Arrivals are Poisson at :data:`SERVE_RATE`, conditioned on their
    count: ``rate * seconds`` arrival times drawn uniformly over the run
    and sorted, so every seed offers the same load over the same span.
    The seed also shuffles which tenant each arrival belongs to; how
    many requests each tenant gets is :func:`tenant_requests`.  Tenant
    k's sources are the stress kit's deterministic traffic (probes plus
    its mutation stream) under a per-tenant seed of its own, the same
    on every run, so the code the service generates does not change
    with the seed.
    """
    from repro.tools.serve_stress import build_workload

    rng = random.Random(f"serve:{seed}")
    count = max(1, round(SERVE_RATE * seconds))
    span = count / SERVE_RATE
    dues = sorted(rng.uniform(0.0, span) for _ in range(count))
    counts = tenant_requests(count)
    picks = [k for k, n in enumerate(counts) for _ in range(n)]
    rng.shuffle(picks)
    streams = [iter(build_workload(n, 1009 + k)) for k, n in enumerate(counts)]
    return [(due, f"tenant-{k}", next(streams[k]))
            for due, k in zip(dues, picks)]
