"""Tier-1 smoke test for the secure-aggregation benchmark script.

Runs the benchmark at quick scale so ``bench_secure_agg.py`` cannot
silently rot between full runs: the full four-phase protocol, the
dropout-recovery round, the wire accounting and the declared
``metrics`` under the suite's ``check`` rule all execute.  No timing assertions — small machines need not hit any
floor.
"""

import json

from benchmarks import suite
from benchmarks.bench_secure_agg import metrics, run_benchmark
from repro.federated.secure_protocol import PHASES


def test_quick_benchmark_runs():
    report = run_benchmark(quick=True)
    assert [c["num_clients"] for c in report["cohorts"]] == [16, 32]
    for cohort in report["cohorts"]:
        assert cohort["exact"] is True
        assert cohort["clients_per_second"] > 0
        assert cohort["recovery_seconds"] > 0
        assert cohort["recovery_survivors"] == (
            cohort["num_clients"] - cohort["recovery_dropouts"]
        )
        assert set(cohort["phase_wire"]) == set(PHASES)
        assert cohort["protocol_overhead"] > 0
        assert cohort["overhead_ratio"] > 1.0

    # More clients ⇒ more pairwise traffic per shipped scalar.
    ratios = [c["overhead_ratio"] for c in report["cohorts"]]
    assert ratios == sorted(ratios)

    # The gate clears its own baseline...
    baseline = metrics(json.loads(json.dumps(report)))
    assert suite.check(metrics(report), baseline, 0.4)

    # ...an exactness break always fails it...
    broken = json.loads(json.dumps(report))
    broken["cohorts"][0]["exact"] = False
    assert not suite.check(metrics(broken), baseline, 0.4)

    # ...as do a throughput collapse and wire-accounting drift.
    slow = json.loads(json.dumps(report))
    slow["cohorts"][1]["clients_per_second"] /= 100
    assert not suite.check(metrics(slow), baseline, 0.4)
    drifted = json.loads(json.dumps(report))
    drifted["cohorts"][0]["overhead_ratio"] += 0.5
    assert not suite.check(metrics(drifted), baseline, 0.4)


def test_scale_mismatch_skips_floors():
    """A --quick report gated against the committed full-scale baseline
    must not compare throughput across cohort sizes — only exactness."""
    report = run_benchmark(quick=True)
    full_baseline = {
        "benchmark": "secure_agg",
        "config": dict(report["config"], cohorts=[64, 128, 256], quick=False),
        "cohorts": [
            dict(c, num_clients=c["num_clients"] * 1000)
            for c in report["cohorts"]
        ],
    }
    assert suite.check(metrics(report), metrics(full_baseline), 0.4)
