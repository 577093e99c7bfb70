"""Tier-1 smoke test for the serving benchmark script.

Runs the benchmark at quick scale so ``bench_serving.py`` cannot
silently rot between full runs: checkpoint building, both load arms
(direct queries and the coalescer), the cache sweep, hot-swap under
load and the declared ``metrics`` under the suite's ``check`` rule all
execute.  No throughput assertions —
small machines need not hit any floor; the 3x speedup gate is
scale-gated to ≥ 32 concurrent clients and quick runs stay below it.
The swap gates (zero failed, zero stale-after-cutover) are correctness
properties and hold at every scale.
"""

import json

from benchmarks import suite
from benchmarks.bench_serving import SPEEDUP_GATE_AT, metrics, run_benchmark


def test_quick_benchmark_runs():
    report = run_benchmark(quick=True)

    load = report["load"]
    expected = load["concurrent_clients"] * load["queries_per_client"]
    assert load["unbatched"]["queries"] == expected
    assert load["batched"]["queries"] == expected
    assert load["unbatched"]["qps"] > 0 and load["batched"]["qps"] > 0
    assert load["batched"]["mean_batch"] > 1.0
    assert load["batched_speedup"] == (
        load["batched"]["qps"] / load["unbatched"]["qps"]
    )

    cache = report["cache"]
    assert cache["hit_rate"] == 0.5  # two identical sweeps: miss then hit
    assert cache["cached"]["p50_ms"] <= cache["cold"]["p50_ms"]

    swap = report["swap_under_load"]
    assert swap["swaps"] == 6
    assert swap["failed"] == 0
    assert swap["stale_after_cutover"] == 0
    # v1 -> (v2, v1) x 3: six bumps on top of the initial version.
    assert swap["final_model_version"] == 7

    gates = report["gates"]
    assert load["concurrent_clients"] < SPEEDUP_GATE_AT
    assert gates["batched_speedup_gate_applies"] is False
    assert suite.check(metrics(report))


def test_swap_gates_fail_on_bad_report():
    report = run_benchmark(quick=True)
    broken = json.loads(json.dumps(report))
    broken["gates"]["swap_zero_stale"] = False
    assert not suite.check(metrics(broken))


def test_check_gate_contract():
    report = run_benchmark(quick=True)

    # The gate clears its own baseline...
    baseline = metrics(json.loads(json.dumps(report)))
    assert suite.check(metrics(report), baseline, 0.4)

    # ...a throughput collapse in either arm fails it...
    for arm in ("unbatched", "batched"):
        slow = json.loads(json.dumps(report))
        slow["load"][arm]["qps"] /= 100
        assert not suite.check(metrics(slow), baseline, 0.4)

    # ...and a baseline from a different scale skips the QPS floors.
    full = json.loads(json.dumps(report))
    full["config"]["clients"] = report["config"]["clients"] * 4
    slow = json.loads(json.dumps(report))
    slow["load"]["batched"]["qps"] /= 100
    assert suite.check(metrics(slow), metrics(full), 0.4)
