"""Tier-1 smoke test for the experiment-grid benchmark script.

Runs the grid benchmark at quick scale with a 2-worker pool so
``bench_experiment_grid.py`` cannot silently rot between full runs:
grid construction, all three execution arms, the bitwise-equality
accounting and the declared ``metrics`` under the suite's ``check``
rule all execute.  No timing assertions —
on small machines the pool need not win.
"""

import json

from benchmarks import suite
from benchmarks.bench_experiment_grid import (
    build_grid,
    metrics,
    run_benchmark,
    QUICK_PROFILE,
)


def test_grid_has_cross_consumer_overlap():
    specs = build_grid(QUICK_PROFILE, ("ml",))
    unique = len({spec.key() for spec in specs})
    assert len(specs) > unique  # dedup is load-bearing for the bench
    assert unique >= 2


def test_quick_benchmark_runs():
    report = run_benchmark(jobs=2, quick=True)
    assert report["bitwise_identical"] is True
    assert report["grid"]["dedup_factor"] > 1.0
    assert report["serial_seconds"] > 0
    assert report["parallel_seconds"] > 0
    # The warm replay is pure cache hits — far below a training pass.
    assert report["cache_replay_seconds"] < report["parallel_seconds"]

    # The gate clears its own baseline...
    baseline = metrics(json.loads(json.dumps(report)))
    assert suite.check(metrics(report), baseline, 0.4)

    # ...and result divergence always fails it, regardless of cores.
    broken = dict(report, bitwise_identical=False)
    assert not suite.check(metrics(broken), baseline, 0.4)
