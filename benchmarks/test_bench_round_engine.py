"""CI hook for the round-engine benchmark.

The ``slow`` tests run a scaled-down version of ``bench_round_engine.py``
and assert the vectorized engine actually wins.  They are excluded from
tier-1 by the ``slow`` marker (see ``pytest.ini``); select them
explicitly:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_round_engine.py -m slow

The one fast test pins what the gated one-thread ``speedup`` rests on.
"""

import threading

import pytest

from benchmarks.bench_round_engine import (
    build_problem,
    one_thread,
    run_benchmark,
    run_hetefedrec_benchmark,
)
from repro import parallel
from repro.core.grouping import divide_clients
from repro.federated import round_engine
from repro.federated.trainer import FederatedConfig, FederatedTrainer


def test_one_thread_rounds_start_no_worker(monkeypatch):
    """Inside ``one_thread()`` a round starts no worker thread: a patch
    that missed the name the engine reads would time the threaded round
    as the one-thread one."""
    monkeypatch.setattr(parallel, "cpu_count", lambda: 3)
    monkeypatch.setattr(round_engine, "_THREADED_SIZE", 0)  # tiny rounds too
    started = []

    class Recording(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(parallel.threading, "Thread", Recording)
    dataset, clients = build_problem(24, 60)
    config = FederatedConfig(dims={"s": 8, "m": 16, "l": 32}, local_epochs=1, seed=0)
    trainer = FederatedTrainer(dataset.num_items, clients, divide_clients(clients), config)
    users = [client.user_id for client in clients]
    with one_thread():
        trainer._train_clients(users)
    assert started == []
    trainer._train_clients(users)  # outside it, the same round is threaded
    assert started


@pytest.mark.slow
def test_vectorized_round_is_faster_and_equivalent():
    report = run_benchmark(num_clients=64, num_items=200, local_epochs=2)
    assert report["speedup"] > 1.0
    assert report["tape_node_reduction"] >= 5.0
    assert report["equivalence"]["max_abs_item_table_delta"] < 1e-8
    assert report["equivalence"]["ndcg_blocked"] == pytest.approx(
        report["equivalence"]["ndcg_per_client"], abs=1e-8
    )


@pytest.mark.slow
def test_lightgcn_round_is_faster_and_equivalent():
    """The batched local-graph propagation must beat the per-client
    reference, not merely match it."""
    report = run_benchmark(
        num_clients=64, num_items=200, local_epochs=2, arch="lightgcn"
    )
    assert report["speedup"] > 1.0
    assert report["tape_node_reduction"] >= 5.0
    assert report["equivalence"]["max_abs_item_table_delta"] < 1e-8


@pytest.mark.slow
def test_dual_task_round_is_faster_and_equivalent():
    report = run_hetefedrec_benchmark(num_clients=64, num_items=200, local_epochs=2)
    assert report["speedup"] > 1.0
    assert report["tape_node_reduction"] >= 5.0
    assert report["equivalence"]["max_abs_item_table_delta"] < 1e-8
    upload = report["vectorized"]["upload"]
    assert upload["mean_scalars"] < upload["mean_scalars_dense_equiv"]
