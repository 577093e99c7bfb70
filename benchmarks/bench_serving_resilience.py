"""Benchmark: the serving resilience layer at the edge.

Drives the admission / deadline / degradation / guarded-swap stack
through the three failure modes a production deployment actually hits,
and gates the behaviour the resilience design claims:

* ``graceful_drain`` — real client threads hammer the resilient service
  while a drain begins mid-traffic.  **Hard gate**: zero dropped
  in-flight requests — everything admitted before the drain is
  answered; everything after sheds with a clean :class:`ShedError`
  (never a hang, never a stray exception).
* ``overload_burst`` — the deterministic chaos harness fires
  2x-capacity bursts on the manual clock.  **Hard gates**: with
  shedding on, ≥ 99% of *admitted* requests meet their deadline and the
  queue depth stays bounded by capacity + wait room; with shedding off
  (unbounded wait room, no budgets) the same offered load is *shown* to
  collapse — queue depth tracks the burst size and tail latency blows
  through the deadline.
* ``swap_storm`` — hot-swap candidates arrive continuously with 30%
  truncated/corrupt, through the circuit-broken guarded swap.  **Hard
  gate**: the service never serves a corrupt/mismatched snapshot; the
  corrupt candidates end up quarantined as ``*.corrupt`` while pristine
  ones keep swapping in.

The two chaos arms run entirely on the manual clock, so their outcome
counters and answer digests are deterministic: ``--check`` re-asserts
bitwise-identical digests against the committed
``BENCH_serving_resilience.json`` (when the request counts match), which
is what makes the fingerprint reproducibility claim CI-enforceable.
Run through the one benchmark CLI (``benchmarks/suite.py``: flags, gate
rule, output files); what is gated is declared in :func:`metrics`:

    PYTHONPATH=src python -m benchmarks.suite serving_resilience [--quick] [--check]
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Dict, List

import numpy as np

from benchmarks.suite import Metric

FULL = dict(requests=600, drain_threads=16, drain_seconds=0.5)
QUICK = dict(requests=200, drain_threads=8, drain_seconds=0.2)

DEADLINE_MET_GATE = 0.99  # fraction of admitted requests, shedding on


def build_checkpoints(tmp_dir: str) -> Dict[str, str]:
    from repro.serving.chaos import build_chaos_checkpoints

    return build_chaos_checkpoints(tmp_dir)


# ----------------------------------------------------------------------
# Arm 1: graceful drain under real threads
# ----------------------------------------------------------------------
def bench_graceful_drain(paths: Dict[str, str], settings: Dict) -> Dict:
    from repro.serving import (
        RecommendationService,
        ResilienceConfig,
        ResilientService,
        ShedError,
    )

    service = RecommendationService(paths["v1"], k=10, cache_size=2048)
    resilient = ResilientService(
        service,
        ResilienceConfig(admission_capacity=64, max_waiting=128),
    )
    users = service.snapshot.user_ids()
    counts = {"answered": 0, "shed": 0, "unexpected": 0}
    lock = threading.Lock()
    stop = threading.Event()
    barrier = threading.Barrier(settings["drain_threads"] + 1)

    def worker(slot: int) -> None:
        rng = np.random.default_rng(slot)
        barrier.wait()
        while not stop.is_set():
            user = int(users[int(rng.integers(len(users)))])
            try:
                resilient.query(user)
                with lock:
                    counts["answered"] += 1
            except ShedError:
                with lock:
                    counts["shed"] += 1
                return  # drained: a real client would back off
            except BaseException:  # noqa: BLE001 - fails the gate
                with lock:
                    counts["unexpected"] += 1
                return

    threads = [
        threading.Thread(target=worker, args=(i,))
        for i in range(settings["drain_threads"])
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    time.sleep(settings["drain_seconds"])
    resilient.drain()  # mid-traffic: stop admitting, finish the rest
    stop.set()
    for thread in threads:
        thread.join(timeout=30.0)
    stats = resilient.admission.stats()
    # In-flight accounting: everything admitted either completed or is
    # still counted executing/waiting (it must be neither after join).
    dropped = stats["admitted"] - stats["completed"]
    return {
        "threads": settings["drain_threads"],
        "answered": counts["answered"],
        "shed_after_drain": stats["shed_draining"],
        "unexpected_errors": counts["unexpected"],
        "admitted": stats["admitted"],
        "completed": stats["completed"],
        "dropped_in_flight": dropped,
    }


# ----------------------------------------------------------------------
# Arms 2+3: deterministic chaos on the manual clock
# ----------------------------------------------------------------------
def _chaos_base(settings: Dict, **overrides):
    from repro.serving.chaos import ServingChaosConfig

    requests = settings["requests"]
    base = ServingChaosConfig(
        seed=0,
        requests=requests,
        fault_start=requests // 8,
        fault_end=(requests * 5) // 8,
        recovery_requests=max(20, requests // 8),
    )
    return replace(base, **overrides)


def bench_overload_burst(paths: Dict[str, str], settings: Dict, tmp: str) -> Dict:
    from repro.serving.chaos import run_chaos_scenario

    # Shedding ON: bounded wait room + deadline budgets.
    config_on = _chaos_base(
        settings,
        latency_spike_rate=0.0, error_rate=0.0, corrupt_swap_rate=0.0,
        swap_every=0, burst_every=25, burst_size=16,
        admission_capacity=8, max_waiting=4, deadline_ms=250.0,
    )
    on = run_chaos_scenario(config_on, checkpoints=paths, workdir=tmp)
    admitted_finished = on.answered + on.deadline_exceeded
    met = on.answered / max(1, admitted_finished)

    # Shedding OFF: same offered load, unbounded wait room, no budgets.
    config_off = replace(
        config_on, max_waiting=100_000, deadline_ms=None,
        burst_size=20 * config_on.admission_capacity,
    )
    off = run_chaos_scenario(config_off, checkpoints=paths, workdir=tmp)

    bound = config_on.admission_capacity + config_on.max_waiting
    return {
        "shedding_on": {
            "burst_size": config_on.burst_size,
            "capacity": config_on.admission_capacity,
            "max_waiting": config_on.max_waiting,
            "answered": on.answered,
            "shed": on.shed,
            "deadline_exceeded": on.deadline_exceeded,
            "deadline_met_fraction": met,
            "max_queue_depth": on.max_queue_depth,
            "p99_admitted_ms": on.p99_admitted_ms,
            "digest": on.answers_digest,
        },
        "shedding_off": {
            "burst_size": config_off.burst_size,
            "answered": off.answered,
            "shed": off.shed,
            "max_queue_depth": off.max_queue_depth,
            "p99_admitted_ms": off.p99_admitted_ms,
        },
        "depth_bound": bound,
    }


def bench_swap_storm(paths: Dict[str, str], settings: Dict, tmp: str) -> Dict:
    from repro.serving.chaos import run_chaos_scenario

    config = _chaos_base(
        settings,
        latency_spike_rate=0.0, error_rate=0.0,
        corrupt_swap_rate=0.3, swap_every=10,
        burst_every=0,
        fault_start=0, fault_end=settings["requests"],  # storm throughout
    )
    result = run_chaos_scenario(config, checkpoints=paths, workdir=tmp)
    return {
        "swap_attempts": result.swap_attempts,
        "corrupt_offered": result.corrupt_offered,
        "corrupt_rate": 0.3,
        "swaps_succeeded": result.swaps_succeeded,
        "quarantined": result.quarantined,
        "bad_snapshots_served": result.bad_snapshots_served,
        "answered": result.answered,
        "digest": result.answers_digest,
    }


def run_benchmark(quick: bool = False) -> Dict:
    import tempfile

    settings = QUICK if quick else FULL
    with tempfile.TemporaryDirectory(prefix="bench-resilience-") as tmp_dir:
        paths = build_checkpoints(tmp_dir)
        drain = bench_graceful_drain(paths, settings)
        overload = bench_overload_burst(paths, settings, tmp_dir)
        storm = bench_swap_storm(paths, settings, tmp_dir)

    on = overload["shedding_on"]
    off = overload["shedding_off"]
    return {
        "benchmark": "serving_resilience",
        "config": {"quick": quick, **settings},
        "graceful_drain": drain,
        "overload_burst": overload,
        "swap_storm": storm,
        "gates": {
            "drain_zero_dropped_in_flight": (
                drain["dropped_in_flight"] == 0
                and drain["unexpected_errors"] == 0
            ),
            "deadline_met_floor": DEADLINE_MET_GATE,
            "overload_deadline_met_ok": (
                on["deadline_met_fraction"] >= DEADLINE_MET_GATE
            ),
            "overload_depth_bounded": (
                on["max_queue_depth"] <= overload["depth_bound"]
                and on["shed"] > 0
            ),
            "overload_collapse_demonstrated": (
                off["shed"] == 0
                and off["max_queue_depth"] >= 10 * on["max_queue_depth"]
                and off["p99_admitted_ms"] > 3 * on["p99_admitted_ms"]
            ),
            "storm_zero_bad_snapshots": storm["bad_snapshots_served"] == 0,
            "storm_exercised": (
                storm["corrupt_offered"] > 0
                and storm["quarantined"] > 0
                and storm["swaps_succeeded"] > 0
            ),
        },
    }


measure = run_benchmark  # the suite's entry point: measure(quick)


def metrics(report: Dict) -> List[Metric]:
    """The benchmark's own hard gates, plus the chaos digests.

    The chaos arms run on the manual clock, so against a baseline of the
    same request count the outcome digests must be *bitwise identical* —
    any drift means the seeded fault stream or the serving stack changed
    behaviour.
    """
    requests = report["config"]["requests"]
    gates = [
        Metric(name, value, "hard")
        for name, value in report["gates"].items()
        if isinstance(value, bool)
    ]
    return gates + [
        Metric(
            "overload_burst digest",
            report["overload_burst"]["shedding_on"]["digest"], "exact", requests,
        ),
        Metric("swap_storm digest", report["swap_storm"]["digest"], "exact", requests),
    ]


def summary(report: Dict) -> None:
    drain = report["graceful_drain"]
    print(
        f"graceful drain ({drain['threads']} threads): {drain['answered']} "
        f"answered, {drain['shed_after_drain']} shed post-drain, "
        f"{drain['dropped_in_flight']} dropped in-flight, "
        f"{drain['unexpected_errors']} unexpected errors"
    )
    on = report["overload_burst"]["shedding_on"]
    off = report["overload_burst"]["shedding_off"]
    print(
        f"overload (bursts of {on['burst_size']} vs capacity "
        f"{on['capacity']}+{on['max_waiting']}): shedding on -> "
        f"{on['deadline_met_fraction']:.3f} of admitted met deadline, "
        f"depth {on['max_queue_depth']}, p99 {on['p99_admitted_ms']:.0f}ms; "
        f"shedding off (bursts of {off['burst_size']}) -> depth "
        f"{off['max_queue_depth']}, p99 {off['p99_admitted_ms']:.0f}ms"
    )
    storm = report["swap_storm"]
    print(
        f"swap storm: {storm['corrupt_offered']}/{storm['swap_attempts']} "
        f"candidates corrupt -> {storm['quarantined']} quarantined, "
        f"{storm['swaps_succeeded']} swapped, bad snapshots served: "
        f"{storm['bad_snapshots_served']}"
    )
