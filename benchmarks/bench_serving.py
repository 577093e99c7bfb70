"""Benchmark: the online serving layer under concurrent load.

Trains a small HeteFedRec run, saves two checkpoint generations, then
drives :class:`repro.serving.RecommendationService` the way a deployment
would and measures what the serving design claims:

* ``unbatched`` vs ``batched`` — N concurrent client threads issuing
  top-k queries directly, then through the
  :class:`~repro.serving.coalescer.RequestCoalescer`; per-query p50/p99
  latency and aggregate QPS for both.  The coalescer's whole point is
  turning N python-dispatch-bound single queries into one blocked
  matmul, so ``batched_speedup`` (QPS ratio) is a **hard gate**: ≥ 3x
  at 32 concurrent clients.  No timer forms those batches: they are the
  queries that arrive while the coalescer's flusher scores the previous
  one, so ``mean_batch`` reports how much company the load supplies.
* ``cold`` vs ``cached`` — the same query stream against a cold and a
  hot top-k cache (p50/p99 and hit rate).
* ``swap_under_load`` — checkpoint hot-swaps mid-traffic while client
  threads hammer queries.  **Hard gates**: zero failed responses and
  zero stale-after-cutover responses (a query started after ``swap()``
  returned must carry the new model version).

Results go to ``BENCH_serving.json`` through the one benchmark CLI
(``benchmarks/suite.py``: flags, gate rule, output files):

    PYTHONPATH=src python -m benchmarks.suite serving [--quick] [--check]

``--quick`` shrinks the dataset and client count for CI (the 3x gate is
scale-gated: only enforced at ≥ 32 concurrent clients).  What is gated
is declared in :func:`metrics`: the report's own ``gates`` on every run;
under ``--check`` both arms' QPS as floors, at the baseline's shape only.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

import numpy as np

from benchmarks.suite import Metric

FULL = dict(scale=0.02, item_scale=0.02, epochs=2, clients=32,
            queries_per_client=50)
QUICK = dict(scale=0.01, item_scale=0.02, epochs=2, clients=8,
             queries_per_client=10)
SPEEDUP_GATE = 3.0
SPEEDUP_GATE_AT = 32  # concurrent clients the 3x gate applies from


def build_checkpoints(settings: Dict, tmp_dir: str) -> Dict:
    """Train one run, checkpointing after each epoch: v1 and v2."""
    from repro.api import (
        HeteFedRecConfig,
        SyntheticConfig,
        build_method,
        load_benchmark_dataset,
        save_checkpoint,
        train_test_split_per_user,
    )

    dataset = load_benchmark_dataset(
        "ml",
        SyntheticConfig(
            scale=settings["scale"], item_scale=settings["item_scale"], seed=7
        ),
    )
    clients = train_test_split_per_user(dataset, seed=7)
    config = HeteFedRecConfig(epochs=settings["epochs"], seed=0)
    trainer = build_method("hetefedrec", dataset.num_items, clients, config)
    trainer.run_epoch(1)
    v1 = f"{tmp_dir}/v1.npz"
    save_checkpoint(trainer, v1)
    for epoch in range(2, settings["epochs"] + 1):
        trainer.run_epoch(epoch)
    v2 = f"{tmp_dir}/v2.npz"
    save_checkpoint(trainer, v2)
    return {
        "v1": v1,
        "v2": v2,
        "users": [c.user_id for c in clients],
        "num_users": dataset.num_users,
        "num_items": dataset.num_items,
    }


def _drive(num_threads: int, queries_per_thread: int, users: List[int], issue):
    """N threads × Q queries each; returns (wall_seconds, latencies_ms)."""
    latencies: List[List[float]] = [[] for _ in range(num_threads)]
    errors: List[BaseException] = []
    barrier = threading.Barrier(num_threads + 1)

    def worker(slot: int) -> None:
        rng = np.random.default_rng(slot)
        mine = rng.choice(users, size=queries_per_thread)
        barrier.wait()
        for user in mine:
            start = time.perf_counter()
            try:
                issue(int(user))
            except BaseException as error:  # noqa: BLE001 - recorded below
                errors.append(error)
                return
            latencies[slot].append((time.perf_counter() - start) * 1000.0)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(num_threads)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return wall, [ms for per_thread in latencies for ms in per_thread]


def _latency_summary(wall: float, latencies: List[float]) -> Dict:
    values = np.asarray(latencies)
    return {
        "queries": int(values.size),
        "qps": float(values.size / wall),
        "p50_ms": float(np.percentile(values, 50)),
        "p99_ms": float(np.percentile(values, 99)),
        "mean_ms": float(values.mean()),
    }


def bench_concurrent_load(paths: Dict, settings: Dict) -> Dict:
    """Unbatched direct queries vs the coalescer, cache disabled in both."""
    from repro.serving import RecommendationService, RequestCoalescer

    num_threads = settings["clients"]
    queries = settings["queries_per_client"]
    users = paths["users"]

    service = RecommendationService(paths["v1"], k=20, cache_size=0)
    wall, latencies = _drive(
        num_threads, queries, users, lambda user: service.query(user)
    )
    unbatched = _latency_summary(wall, latencies)

    service = RecommendationService(paths["v1"], k=20, cache_size=0)
    with RequestCoalescer(service, max_batch=num_threads) as co:
        wall, latencies = _drive(
            num_threads, queries, users, lambda user: co.submit(user, timeout=60)
        )
        stats = co.stats()
    batched = _latency_summary(wall, latencies)
    batched["size_flushes"] = stats["size_flushes"]
    batched["deadline_flushes"] = stats["deadline_flushes"]
    flushes = max(1, stats["size_flushes"] + stats["deadline_flushes"])
    batched["mean_batch"] = stats["queries"] / flushes

    return {
        "concurrent_clients": num_threads,
        "queries_per_client": queries,
        "unbatched": unbatched,
        "batched": batched,
        "batched_speedup": batched["qps"] / unbatched["qps"],
    }


def bench_cache(paths: Dict, settings: Dict) -> Dict:
    """The same single-threaded query stream, cold cache then hot."""
    from repro.serving import RecommendationService

    service = RecommendationService(paths["v1"], k=20, cache_size=100_000)
    users = paths["users"][: max(32, settings["clients"] * 4)]

    def sweep() -> List[float]:
        out = []
        for user in users:
            start = time.perf_counter()
            service.query(user)
            out.append((time.perf_counter() - start) * 1000.0)
        return out

    t0 = time.perf_counter()
    cold = sweep()
    cold_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    cached = sweep()
    cached_wall = time.perf_counter() - t0
    stats = service.stats()["cache"]
    return {
        "users_swept": len(users),
        "cold": _latency_summary(cold_wall, cold),
        "cached": _latency_summary(cached_wall, cached),
        "cache_speedup": float(np.median(cold) / max(np.median(cached), 1e-9)),
        "hit_rate": stats["hits"] / max(1, stats["hits"] + stats["misses"]),
    }


def bench_swap_under_load(paths: Dict, settings: Dict) -> Dict:
    """Hot-swap checkpoints mid-traffic; count failures and staleness.

    A response is *stale after cutover* when its model version is older
    than the version the service already reported before the query was
    issued — impossible if the swap rebind is atomic and every query
    reads one snapshot.
    """
    from repro.serving import RecommendationService

    service = RecommendationService(paths["v1"], k=20, cache_size=0)
    users = paths["users"]
    num_threads = settings["clients"]
    counts = {"queries": 0, "failed": 0, "stale_after_cutover": 0}
    lock = threading.Lock()
    stop = threading.Event()
    barrier = threading.Barrier(num_threads + 1)

    def worker(slot: int) -> None:
        rng = np.random.default_rng(slot)
        barrier.wait()
        while not stop.is_set():
            user = int(rng.choice(users))
            floor = service.model_version  # version visible before issuing
            try:
                answer = service.query(user)
            except BaseException:  # noqa: BLE001 - counted, fails the gate
                with lock:
                    counts["failed"] += 1
                    counts["queries"] += 1
                continue
            with lock:
                counts["queries"] += 1
                if answer.model_version < floor:
                    counts["stale_after_cutover"] += 1

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(num_threads)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    swaps = 0
    for target in ("v2", "v1", "v2", "v1", "v2", "v1"):
        time.sleep(0.05)
        version = service.swap(paths[target])
        swaps += 1
        # Immediately after swap() returns, a fresh query must see the
        # new version: the strongest stale-after-cutover probe there is.
        answer = service.query(int(users[0]))
        with lock:
            counts["queries"] += 1
            if answer.model_version != version:
                counts["stale_after_cutover"] += 1
    stop.set()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    return {
        "concurrent_clients": num_threads,
        "swaps": swaps,
        "queries": counts["queries"],
        "failed": counts["failed"],
        "stale_after_cutover": counts["stale_after_cutover"],
        "qps": counts["queries"] / wall,
        "final_model_version": service.model_version,
    }


def run_benchmark(quick: bool = False) -> Dict:
    import tempfile

    settings = QUICK if quick else FULL
    with tempfile.TemporaryDirectory(prefix="bench-serving-") as tmp_dir:
        paths = build_checkpoints(settings, tmp_dir)
        load = bench_concurrent_load(paths, settings)
        cache = bench_cache(paths, settings)
        swap = bench_swap_under_load(paths, settings)
    gate_applies = load["concurrent_clients"] >= SPEEDUP_GATE_AT
    return {
        "benchmark": "serving",
        "config": {
            "quick": quick,
            **settings,
            "num_users": paths["num_users"],
            "num_items": paths["num_items"],
            "k": 20,
        },
        "load": load,
        "cache": cache,
        "swap_under_load": swap,
        "gates": {
            "batched_speedup_floor": SPEEDUP_GATE,
            "batched_speedup_gate_applies": gate_applies,
            "batched_speedup_ok": (
                not gate_applies or load["batched_speedup"] >= SPEEDUP_GATE
            ),
            "swap_zero_failed": swap["failed"] == 0,
            "swap_zero_stale": swap["stale_after_cutover"] == 0,
        },
    }


measure = run_benchmark  # the suite's entry point: measure(quick)


def metrics(report: Dict) -> List[Metric]:
    """The benchmark's own hard gates, plus QPS floors vs a baseline of
    the same shape (concurrent clients and dataset scale)."""
    shape = (report["config"]["clients"], report["config"]["scale"])
    gates = [
        Metric(name, report["gates"][name], "hard")
        for name in ("batched_speedup_ok", "swap_zero_failed", "swap_zero_stale")
    ]
    floors = [
        Metric(f"{arm} qps", report["load"][arm]["qps"], "floor", shape)
        for arm in ("unbatched", "batched")
    ]
    return gates + floors


def summary(report: Dict) -> None:
    load = report["load"]
    print(
        f"load ({load['concurrent_clients']} clients): unbatched "
        f"{load['unbatched']['qps']:,.0f} qps "
        f"(p50 {load['unbatched']['p50_ms']:.2f}ms, "
        f"p99 {load['unbatched']['p99_ms']:.2f}ms), batched "
        f"{load['batched']['qps']:,.0f} qps "
        f"(p50 {load['batched']['p50_ms']:.2f}ms, "
        f"p99 {load['batched']['p99_ms']:.2f}ms, mean batch "
        f"{load['batched']['mean_batch']:.1f}) — speedup "
        f"{load['batched_speedup']:.2f}x"
    )
    cache = report["cache"]
    print(
        f"cache: cold p50 {cache['cold']['p50_ms']:.2f}ms, cached p50 "
        f"{cache['cached']['p50_ms']:.3f}ms ({cache['cache_speedup']:.0f}x, "
        f"hit rate {cache['hit_rate']:.2f})"
    )
    swap = report["swap_under_load"]
    print(
        f"swap under load: {swap['swaps']} swaps over {swap['queries']} "
        f"queries ({swap['qps']:,.0f} qps), failed {swap['failed']}, "
        f"stale after cutover {swap['stale_after_cutover']}"
    )
