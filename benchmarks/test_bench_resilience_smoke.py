"""Tier-1 smoke test for the serving-resilience benchmark script.

Runs the benchmark at quick scale so ``bench_serving_resilience.py``
cannot silently rot between full runs: the real-thread graceful-drain
arm, both manual-clock chaos arms (overload with shedding on/off, the
corrupt-swap storm) and the declared ``metrics`` under the suite's
``check`` rule all execute.  The
gates here are correctness properties — zero dropped in-flight, queue
depth bounded, zero bad snapshots served — and hold at every scale, so
unlike the throughput benches nothing is scale-gated away.
"""

import json

from benchmarks import suite
from benchmarks.bench_serving_resilience import (
    DEADLINE_MET_GATE,
    metrics,
    run_benchmark,
)


def test_quick_benchmark_runs():
    report = run_benchmark(quick=True)

    drain = report["graceful_drain"]
    assert drain["dropped_in_flight"] == 0
    assert drain["unexpected_errors"] == 0
    assert drain["admitted"] == drain["completed"]
    assert drain["answered"] > 0

    on = report["overload_burst"]["shedding_on"]
    off = report["overload_burst"]["shedding_off"]
    assert on["deadline_met_fraction"] >= DEADLINE_MET_GATE
    assert on["shed"] > 0
    assert on["max_queue_depth"] <= report["overload_burst"]["depth_bound"]
    # The off arm demonstrates collapse: unbounded depth, blown-out tail.
    assert off["shed"] == 0
    assert off["max_queue_depth"] > on["max_queue_depth"]
    assert off["p99_admitted_ms"] > on["p99_admitted_ms"]

    storm = report["swap_storm"]
    assert storm["bad_snapshots_served"] == 0
    assert storm["corrupt_offered"] > 0
    assert storm["quarantined"] > 0
    assert storm["swaps_succeeded"] > 0

    assert suite.check(metrics(report))


def test_gates_fail_on_bad_report():
    report = run_benchmark(quick=True)
    broken = json.loads(json.dumps(report))
    broken["gates"]["storm_zero_bad_snapshots"] = False
    assert not suite.check(metrics(broken))


def test_check_gate_contract():
    report = run_benchmark(quick=True)

    # The digest gate clears its own baseline...
    baseline = metrics(json.loads(json.dumps(report)))
    assert suite.check(metrics(report), baseline, 1.0)

    # ...a digest drift in either chaos arm fails it...
    for path in (
        ("overload_burst", "shedding_on", "digest"),
        ("swap_storm", "digest"),
    ):
        drifted = json.loads(json.dumps(report))
        node = drifted
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = "0" * 64
        assert not suite.check(metrics(drifted), baseline, 1.0)

    # ...and a baseline from a different scale skips the comparison.
    full = json.loads(json.dumps(report))
    full["config"]["requests"] = report["config"]["requests"] * 3
    drifted = json.loads(json.dumps(report))
    drifted["swap_storm"]["digest"] = "0" * 64
    assert suite.check(metrics(drifted), metrics(full), 1.0)
