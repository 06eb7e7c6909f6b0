"""The real dispatch ladder (REPRO_PIC=1): bounded PICs, the
per-selector megamorphic table, and the invariants around them.

The ladder is a *wall-clock* mechanism layered under the modeled IC:
every rung does accounting identical to the modeled relink it
replaces, so the modeled counters are bit-identical with the ladder on
or off.  These tests pin the state machine (mono -> PIC -> table), the
depth bound and its env knobs, the per-selector table sharing, the
counter-identity invariant, the per-site ``reset_measurements`` fix,
and the compiler's fan-out-aware refusal heuristics.
"""

import pytest

from repro.compiler import NEW_SELF
from repro.objects.maps import Map
from repro.vm import Runtime
from repro.world import World

#: six prototypes answering the same selector — enough receiver maps to
#: blow past the default PIC depth of four; ``tagSum:`` keeps the send
#: site alive across do-its (do-its compile fresh sites every run)
SETUP = """|
  pa = (| parent* = traits clonable. k <- 3. tag = ( k + 1 ) |).
  pb = (| parent* = traits clonable. k <- 5. tag = ( k + 2 ) |).
  pc = (| parent* = traits clonable. k <- 7. tag = ( k + 3 ) |).
  pd = (| parent* = traits clonable. k <- 11. tag = ( k + 4 ) |).
  pe = (| parent* = traits clonable. k <- 13. tag = ( k + 5 ) |).
  pf = (| parent* = traits clonable. k <- 17. tag = ( k + 6 ) |).
  tagSum: n = ( | v. s <- 0 |
    v: (vector copySize: 6 FillingWith: 0).
    v at: 0 Put: pa. v at: 1 Put: pb. v at: 2 Put: pc.
    v at: 3 Put: pd. v at: 4 Put: pe. v at: 5 Put: pf.
    1 to: 6 * n Do: [ | :i | s: s + (v at: (i % n)) tag ].
    s ).
|"""

#: one full pass over n receivers sums (k+d) for the first n prototypes
ANSWERS = {2: 6 * (4 + 7), 4: 6 * (4 + 7 + 10 + 15),
           6: 6 * (4 + 7 + 10 + 15 + 18 + 23)}


@pytest.fixture
def world():
    w = World()
    w.add_slots(SETUP)
    return w


def make_runtime(world, monkeypatch, pic="1", depth=None):
    monkeypatch.setenv("REPRO_PIC", pic)
    if depth is not None:
        monkeypatch.setenv("REPRO_PIC_DEPTH", depth)
    return Runtime(world, NEW_SELF)


def tag_sites(runtime):
    return [
        site
        for code in runtime.iter_compiled_codes()
        for site in getattr(code, "ic_sites", ())
        if site.selector == "tag" and (site.entries or site.mega)
    ]


# -- env knobs --------------------------------------------------------------


def test_ladder_is_off_by_default(world, monkeypatch):
    monkeypatch.delenv("REPRO_PIC", raising=False)
    rt = Runtime(world, NEW_SELF)
    assert not rt.pic_enabled
    assert rt.run("tagSum: 6") == ANSWERS[6]
    for site in tag_sites(rt):
        assert site.pic is None and site.mega is None
    assert rt.mega_tables == {} and rt.mega_transitions == 0


def test_env_knobs(world, monkeypatch):
    rt = make_runtime(world, monkeypatch, depth="2")
    assert rt.pic_enabled
    assert rt.pic_depth == 2
    monkeypatch.setenv("REPRO_PIC_DEPTH", "0")  # clamped to >= 1
    assert Runtime(world, NEW_SELF).pic_depth == 1


# -- the ladder state machine ----------------------------------------------


def test_polymorphic_site_grows_a_bounded_pic(world, monkeypatch):
    rt = make_runtime(world, monkeypatch)
    assert rt.run("tagSum: 4") == ANSWERS[4]
    sites = tag_sites(rt)
    assert sites, "the tag send site must be warm"
    for site in sites:
        assert site.mega is None  # fan-out 4 == depth 4: no overflow
        assert site.pic is not None
        assert len(site.pic) <= rt.pic_depth
        for rmap, action, deps in site.pic:
            # rows key on Map identity, carry the consulted-map scope
            assert isinstance(rmap, Map)
            assert deps is None or rmap.map_id in deps
    assert rt.mega_transitions == 0


def test_overflow_transitions_to_shared_selector_table(world, monkeypatch):
    rt = make_runtime(world, monkeypatch)
    assert rt.run("tagSum: 6") == ANSWERS[6]
    sites = tag_sites(rt)
    assert sites
    for site in sites:
        assert site.pic is None  # rows were folded into the table
        assert site.mega is rt.mega_tables["tag"]  # shared, not a copy
    assert rt.mega_transitions >= 1
    assert len(rt.mega_tables["tag"]) == 6
    for rmap in rt.mega_tables["tag"]:
        assert isinstance(rmap, Map)
        assert rmap.map_id in rt.mega_deps["tag"]
    # warm table: the next run dispatches through it
    before = rt.mega_table_hits
    assert rt.run("tagSum: 6") == ANSWERS[6]
    assert rt.mega_table_hits > before


def test_pic_depth_bounds_the_rows(world, monkeypatch):
    rt = make_runtime(world, monkeypatch, depth="2")
    assert rt.run("tagSum: 4") == ANSWERS[4]
    # fan-out 4 > depth 2: already megamorphic at the lower depth
    assert rt.mega_transitions >= 1
    assert len(rt.mega_tables["tag"]) == 4


# -- the accounting-identity invariant -------------------------------------


MODELED = ("cycles", "instructions", "send_hits", "send_misses",
           "send_megamorphic", "send_pic_hits", "code_bytes")


@pytest.mark.parametrize("fanout", [2, 4])
def test_modeled_counters_identical_with_ladder_on_or_off(
    fanout, monkeypatch
):
    """Below the refusal gate (fan-out <= PIC depth) the ladder is
    invisible to the modeled stream: every rung accounts exactly like
    the modeled relink it replaces."""
    src = f"tagSum: {fanout}"
    answers = {}
    counters = {}
    for pic in ("0", "1"):
        monkeypatch.setenv("REPRO_PIC", pic)
        world = World()
        world.add_slots(SETUP)
        rt = Runtime(world, NEW_SELF)
        for _ in range(3):
            answers[pic] = rt.run(src)
        counters[pic] = tuple(getattr(rt, name) for name in MODELED)
    assert answers["0"] == answers["1"] == ANSWERS[fanout]
    assert counters["0"] == counters["1"]


def test_megamorphic_modeled_counters_are_deterministic(monkeypatch):
    """Past the gate, refusal deliberately changes what compiles (one
    shared body instead of per-map copies), so the modeled counters
    legitimately differ from a ladder-off run — but two ladder-on runs
    must be bit-identical, and the answers always agree."""
    monkeypatch.setenv("REPRO_PIC", "1")
    counters = []
    for _ in range(2):
        world = World()
        world.add_slots(SETUP)
        rt = Runtime(world, NEW_SELF)
        for _ in range(3):
            assert rt.run("tagSum: 6") == ANSWERS[6]
        counters.append(tuple(getattr(rt, name) for name in MODELED))
    assert counters[0] == counters[1]


def test_mega_table_hits_are_host_telemetry_not_modeled(world, monkeypatch):
    rt = make_runtime(world, monkeypatch)
    rt.run("tagSum: 6")
    rt.run("tagSum: 6")
    assert rt.mega_table_hits > 0
    # the modeled relink stream already counted those dispatches
    assert rt.send_megamorphic >= rt.mega_table_hits


# -- reset_measurements -----------------------------------------------------


def test_reset_measurements_clears_per_site_counters(world, monkeypatch):
    rt = make_runtime(world, monkeypatch)
    rt.run("tagSum: 6")
    sites = tag_sites(rt)
    assert any(site.relinks or site.misses for site in sites)
    rt.reset_measurements()
    assert rt.cycles == 0 and rt.mega_table_hits == 0
    for code in rt.iter_compiled_codes():
        for site in getattr(code, "ic_sites", ()):
            assert site.hits == site.misses == site.relinks == 0
    # cache *contents* are state, not measurement: they survive
    assert rt.mega_tables["tag"]
    assert any(site.mega is not None for site in tag_sites(rt))


# -- fan-out-aware compiler refusal ----------------------------------------


def test_observed_fanout_counts_distinct_maps(world, monkeypatch):
    rt = make_runtime(world, monkeypatch)
    rt.run("tagSum: 6")
    assert rt.observed_fanout()["tag"] == 6
    assert rt._megamorphic_selector("tag")
    assert not rt._megamorphic_selector("k")


def test_megamorphic_send_compiles_to_refused_dynamic_send(
    world, monkeypatch
):
    rt = make_runtime(world, monkeypatch)
    rt.run("tagSum: 6")  # teach the ladder that tag is megamorphic
    # a *fresh* compile that sends tag must refuse splitting/prediction
    rt.run("| t <- 0 | 1 to: 4 Do: [ | :i | t: t + pa tag ]. t")
    refused = rt.aggregate_compile_stats().get(
        "split_refused_megamorphic", 0
    )
    assert refused > 0


def test_no_refusals_without_the_ladder(world, monkeypatch):
    monkeypatch.setenv("REPRO_PIC", "0")
    rt = Runtime(world, NEW_SELF)
    rt.run("tagSum: 6")
    rt.run("| t <- 0 | 1 to: 4 Do: [ | :i | t: t + pa tag ]. t")
    assert rt.aggregate_compile_stats().get(
        "split_refused_megamorphic", 0
    ) == 0


def test_refused_customization_shares_one_code_across_maps(
    world, monkeypatch
):
    """Past the fan-out gate, method bodies compile receiver-map
    independent (key 0): more maps stop multiplying compiled bytes."""
    rt = make_runtime(world, monkeypatch)
    rt.run("tagSum: 6")
    # the second run pays the one-time transition: bodies recompile
    # once under the shared key now that the selector is megamorphic
    rt.run("tagSum: 6")
    compiled_shared = rt.methods_compiled
    bytes_shared = rt.code_bytes
    # from then on every receiver reuses the one shared body
    rt.run("tagSum: 6")
    assert rt.methods_compiled == compiled_shared + 1  # the fresh do-it
    assert rt.code_bytes == bytes_shared + (
        rt.code_bytes - bytes_shared
    )  # only the do-it's bytes
    do_it_bytes = rt.code_bytes - bytes_shared
    rt.run("tagSum: 6")
    assert rt.code_bytes == bytes_shared + 2 * do_it_bytes
