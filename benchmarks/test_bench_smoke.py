"""Tier-1 smoke test for the round-engine benchmark script.

Runs the benchmark entry points at toy scale (4 clients, 50 items, one
local epoch) so ``bench_round_engine.py`` cannot silently rot between
full (``-m slow``) runs: imports, trainer construction, both engines,
the equivalence accounting, the upload stats and the declared
``metrics`` under the suite's ``check`` rule all execute.  No timing
assertions — at this scale the vectorized engine need not win.
"""

import json

import pytest

from benchmarks import suite
from benchmarks.bench_round_engine import (
    metrics,
    run_benchmark,
    run_hetefedrec_benchmark,
)


def test_base_benchmark_runs_at_toy_scale():
    report = run_benchmark(num_clients=4, num_items=50, local_epochs=1)
    assert report["reference"]["round_seconds"] > 0
    assert report["vectorized"]["round_seconds"] > 0
    assert report["equivalence"]["max_abs_item_table_delta"] < 1e-8
    upload = report["vectorized"]["upload"]
    # Sparse uploads must be cheaper than shipping the dense table.
    assert upload["mean_scalars"] < upload["mean_scalars_dense_equiv"]
    assert upload["reduction"] > 1.0


def test_hetefedrec_benchmark_runs_at_toy_scale():
    report = run_hetefedrec_benchmark(num_clients=4, num_items=50, local_epochs=1)
    assert report["reference"]["round_seconds"] > 0
    assert report["vectorized"]["round_seconds"] > 0
    assert report["equivalence"]["max_abs_item_table_delta"] < 1e-8
    assert report["vectorized"]["upload"]["mean_scalars"] <= (
        report["vectorized"]["upload"]["mean_scalars_dense_equiv"]
    )


def test_lightgcn_benchmark_runs_at_toy_scale():
    """LightGCN rides the fused path end to end, training *and*
    evaluation: blocked scoring batches the star-graph propagation, so
    the report's evaluation section is populated like the other archs."""
    report = run_benchmark(num_clients=4, num_items=50, local_epochs=1, arch="lightgcn")
    assert report["config"]["arch"] == "lightgcn"
    assert report["equivalence"]["max_abs_item_table_delta"] < 1e-8
    assert report["evaluation"] is not None
    assert report["evaluation"]["blocked_seconds"] > 0
    # Blocked and per-client evaluation must agree on the metrics (to
    # floating-point summation order, the evaluator's documented bound).
    assert report["equivalence"]["recall_blocked"] == pytest.approx(
        report["equivalence"]["recall_per_client"], abs=1e-12
    )
    assert report["equivalence"]["ndcg_blocked"] == pytest.approx(
        report["equivalence"]["ndcg_per_client"], abs=1e-12
    )
    assert report["vectorized"]["tape_nodes_per_round"] < (
        report["reference"]["tape_nodes_per_round"]
    )


def test_check_gate_passes_and_fails():
    """The --check regression gate: a report always clears its own
    baseline, and fails one whose speedups, or whose threads' gain, it
    cannot reach."""
    report = run_benchmark(num_clients=4, num_items=50, local_epochs=1)
    report["lightgcn"] = run_benchmark(
        num_clients=4, num_items=50, local_epochs=1, arch="lightgcn"
    )
    names = [metric.name for metric in metrics(report)]
    assert names == [
        "base[ncf]", "base.threads[ncf]", "lightgcn[lightgcn]", "lightgcn.threads[lightgcn]"
    ]

    baseline = json.loads(json.dumps(report))
    assert suite.check(metrics(report), metrics(baseline), 0.99)

    inflated = {
        **report,
        "speedup": report["speedup"] * 100.0,
        "lightgcn": {**report["lightgcn"], "speedup": 1e9},
    }
    assert not suite.check(metrics(report), metrics(inflated), 0.99)
    faster_threads = {**report, "threaded_speedup": report["threaded_speedup"] * 100.0}
    assert not suite.check(metrics(report), metrics(faster_threads), 0.99)

    # Sections missing from the baseline are skipped, never failed.
    partial = {"speedup": report["speedup"]}
    assert suite.check(metrics(report), metrics(partial), 0.99)
