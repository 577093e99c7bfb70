"""Tier-1 smoke test for the simulator benchmark script.

Runs the sim benchmark at quick scale so ``bench_sim.py`` cannot
silently rot between full runs: the scenario run, throughput/RSS
accounting, the determinism probe and the declared ``metrics`` under
the suite's ``check`` rule all execute.
No timing assertions — small machines need not hit any floor.
"""

import json

from benchmarks import suite
from benchmarks.bench_sim import metrics, run_benchmark


def test_quick_benchmark_runs():
    report = run_benchmark(quick=True)
    assert report["deterministic"] is True
    assert report["clients_simulated"] == report["config"]["num_clients"]
    assert report["clients_per_second"] > 0
    assert report["peak_rss_mb"] > 0
    assert report["events_processed"] > report["clients_simulated"]

    # The gate clears its own baseline...
    baseline = metrics(json.loads(json.dumps(report)))
    assert suite.check(metrics(report), baseline, 0.4)

    # ...a determinism break always fails it...
    broken = dict(report, deterministic=False)
    assert not suite.check(metrics(broken), baseline, 0.4)

    # ...and a throughput collapse at comparable scale fails it too.
    slow = dict(report, clients_per_second=report["clients_per_second"] / 100)
    assert not suite.check(metrics(slow), baseline, 0.4)


def test_scale_mismatch_skips_floors():
    """A --quick report gated against a full-scale baseline must not
    compare throughput across scales — only determinism is enforced."""
    report = run_benchmark(quick=True)
    full_baseline = dict(
        report,
        config=dict(report["config"], num_clients=100_000),
        clients_per_second=report["clients_per_second"] * 1e6,
    )
    assert suite.check(metrics(report), metrics(full_baseline), 0.4)
