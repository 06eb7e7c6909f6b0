"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402
from repro.obs.trace import NULL_TRACER  # noqa: E402


def test_one_seed_always_yields_the_same_op_lists():
    for name in ("cold", "restart", "steady"):
        first = workloads.program_ops(name, 7, 15)
        assert first == workloads.program_ops(name, 7, 15)
        assert first != workloads.program_ops(name, 8, 15)
        # every program equally often: the seed only reorders
        assert sorted(first) == sorted(workloads.program_ops(name, 8, 15))
    first = workloads.serve_ops(7, 2)
    assert first == workloads.serve_ops(7, 2)
    assert first != workloads.serve_ops(8, 2)
    assert len(first) == round(workloads.SERVE_RATE * 2)


def test_serve_tenants_follow_zipf_and_not_the_seed():
    counts = workloads.tenant_requests(800)
    assert sum(counts) == 800
    assert len(counts) == round(workloads.SERVE_FIRST_CONTACT_SHARE * 800)
    assert counts == sorted(counts, reverse=True) and counts[-1] >= 1
    # the head-to-tail ratio a Zipf split gives, up to rounding
    assert counts[0] / counts[-1] == pytest.approx(
        len(counts) ** workloads.SERVE_ZIPF, rel=0.1)

    def streams(seed):
        by_tenant: dict = {}
        for _, tenant, source in workloads.serve_ops(seed, 10):
            by_tenant.setdefault(tenant, []).append(source)
        return by_tenant

    # each tenant gets the same requests in the same order on any seed
    assert streams(1) == streams(2)


#: runs one small traced pass in a fresh interpreter and prints the
#: deterministic metrics as JSON
_DETERMINISTIC = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from layers import Tally, layer_metrics
from repro.obs.trace import Tracer
from runner import make_workload
workload = make_workload(sys.argv[3], sys.argv[1], sys.argv[4])
ops = ["sieve", "poly32", "sieve"]
tracer = Tracer()
tally = Tally()
state = workload.setup(tracer)
mark = len(tracer.roots)
result = workload.measure(state, ops, tracer, tally)
workload.close(state)
tally.add_spans(tracer.roots[mark:])
values = layer_metrics(tally, len(ops))
keep = [k for k in values if k in ("vm.cycles", "vm.instructions")
        or (k.startswith(("compiler.", "codecache.")) and not k.endswith("_ms"))]
keep += ["code_bytes", "cycles"]
values["code_bytes"] = result.code_bytes
values["cycles"] = result.cycles
print(json.dumps({k: values[k] for k in keep}, sort_keys=True))
"""


@pytest.mark.parametrize("workload", ["cold", "restart", "steady"])
def test_deterministic_metrics_repeat_exactly(workload, tmp_path):
    outputs = []
    for attempt in range(2):
        done = subprocess.run(
            [sys.executable, "-c", _DETERMINISTIC, str(ROOT / "src"),
             str(BENCH), workload, str(tmp_path / f"scratch{attempt}")],
            capture_output=True, text=True, timeout=300, check=True,
        )
        outputs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    assert outputs[0] == outputs[1]
    assert outputs[0]["code_bytes"] > 0 and outputs[0]["cycles"] > 0
    assert outputs[0]["compiler.compiles"] > 0 or workload == "steady"
    if workload == "restart":
        assert outputs[0]["codecache.hit_share"] > 0


def test_a_planted_wrong_answer_fails_the_check():
    result = runner._measure_first_answers(
        ["sieve"], NULL_TRACER, None, expected=lambda name: -1
    )
    assert [status for _, _, status in result.ops] == [runner.WRONG]
    assert run.verdict(result.ops) == (False, 1, 1)

    steady = runner.Steady()
    state = {"sieve": runner.warm_runtime("sieve")}
    result = steady.measure(state, ["sieve", "sieve"])
    assert run.verdict(result.ops) == (True, 2, 0)
    result = steady.measure(state, ["sieve"], expected=lambda name: 0)
    assert run.verdict(result.ops) == (False, 1, 1)


def test_a_planted_wrong_serve_answer_fails_the_check():
    serve = runner.Serve(str(ROOT / "src"))
    ops = [(0.0, "t0", "shape area"), (0.0, "t1", "shape perim")]
    result = serve.measure(serve.setup(), ops)
    assert run.verdict(result.ops) == (True, 2, 0)

    def planted(served):
        answers = runner.reference_answers(served)
        answers[-1] = "0"
        return answers

    result = serve.measure(serve.setup(), ops, reference=planted)
    assert run.verdict(result.ops) == (False, 2, 1)


def test_serve_code_and_cycles_do_not_change_with_the_seed():
    serve = runner.Serve(str(ROOT / "src"))
    results = [serve.measure(serve.setup(), workloads.serve_ops(seed, 1))
               for seed in (1, 2)]
    assert all(run.verdict(r.ops)[0] for r in results)
    assert results[0].code_bytes == results[1].code_bytes > 0
    assert results[0].cycles == results[1].cycles > 0


def test_a_refused_request_counts_past_the_latency_limit():
    result = runner.Result(late_ms=[0.0, 0.0])
    result.record("probe0", 1.0, runner.OK)
    result.record("probe0", 0.5, runner.FAILED)
    rows = run.serve_rows(result, limit_ms=100.0)
    assert rows["serve.latency_ms_p99"] >= 99.0


def test_serve_answers_replay_each_tenant_in_order():
    # a tenant's mutation changes what its later probes answer, and
    # must not leak into another tenant's replay
    served = [
        ("a", "shape _AddSlot: 'w' Value: 10"),
        ("a", "shape area"),
        ("b", "shape area"),
    ]
    answers = runner.reference_answers(served)
    assert answers[1] != answers[2]


def test_the_command_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
