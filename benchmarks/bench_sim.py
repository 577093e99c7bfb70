"""Benchmark: population-scale throughput of the event-driven simulator.

Pushes a full baseline scenario — dispatch, latency draws, buffered
aggregation, the surrogate fleet's in-memory user table — through
:func:`repro.sim.scenarios.run_scenario` at :math:`10^5` clients and
reports client throughput plus peak resident memory:

* ``clients_per_second`` — simulated clients divided by wall-clock time
  of the scenario run (what the vectorized surrogate fleet exists to
  keep high);
* ``peak_rss_mb``        — ``ru_maxrss`` after the run: the whole-process
  high-water mark (the fleet's user table is 3.2 MB of it at
  :math:`10^5` clients × dim 8 in float32);
* ``deterministic``      — two same-seed small-scale runs must produce
  identical :meth:`ScenarioResult.fingerprint` payloads (hard gate).

Results go to ``BENCH_sim.json`` through the one benchmark CLI
(``benchmarks/suite.py``: flags, gate rule, output files):

    PYTHONPATH=src python -m benchmarks.suite sim [--quick] [--check]

``--quick`` shrinks the population for CI.  What is gated is declared in
:func:`metrics`: determinism on every run; under ``--check`` throughput
as a floor and peak RSS as a ceiling, at the baseline's population only.
"""

from __future__ import annotations

import resource
import time
from typing import Dict, List

from repro.sim.config import SimulationConfig
from repro.sim.scenarios import run_scenario

from benchmarks.suite import Metric

FULL_CLIENTS = 100_000
QUICK_CLIENTS = 5_000


def scale_config(num_clients: int) -> SimulationConfig:
    return SimulationConfig(
        num_clients=num_clients, num_items=500, dim=8, items_per_client=16,
        clients_per_round=512, epochs=1, seed=0,
    )


def peak_rss_mb() -> float:
    """Process high-water resident set, in MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_benchmark(quick: bool = False) -> Dict:
    # Determinism first, at small scale: same seed ⇒ identical fingerprint.
    small = SimulationConfig(
        num_clients=400, num_items=200, dim=8, items_per_client=8,
        clients_per_round=32, epochs=1, seed=0,
    )
    deterministic = (
        run_scenario("baseline", small).fingerprint()
        == run_scenario("baseline", small).fingerprint()
    )

    num_clients = QUICK_CLIENTS if quick else FULL_CLIENTS
    config = scale_config(num_clients)
    start = time.perf_counter()
    result = run_scenario("baseline", config)
    wall_seconds = time.perf_counter() - start

    return {
        "benchmark": "sim",
        "config": {
            "num_clients": num_clients,
            "num_items": config.num_items,
            "dim": config.dim,
            "items_per_client": config.items_per_client,
            "clients_per_round": config.clients_per_round,
            "quick": quick,
        },
        "clients_simulated": result.clients_simulated,
        "events_processed": result.events_processed,
        "rounds_applied": result.rounds_applied,
        "wall_seconds": wall_seconds,
        "clients_per_second": result.clients_simulated / wall_seconds,
        "peak_rss_mb": peak_rss_mb(),
        "deterministic": deterministic,
    }


measure = run_benchmark  # the suite's entry point: measure(quick)


def metrics(report: Dict) -> List[Metric]:
    """Determinism is a hard requirement; throughput a floor, RSS a ceiling.

    Both compare only against a baseline of the same population (a
    --quick run is not comparable to the committed full-scale numbers).
    """
    population = report["config"]["num_clients"]
    return [
        Metric("deterministic", report["deterministic"], "hard"),
        Metric("clients_per_second", report["clients_per_second"], "floor", population),
        Metric("peak_rss_mb", report["peak_rss_mb"], "ceiling", population),
    ]


def summary(report: Dict) -> None:
    print(
        f"simulated {report['clients_simulated']:,} clients "
        f"({report['events_processed']:,} events, "
        f"{report['rounds_applied']:,} rounds) in "
        f"{report['wall_seconds']:.2f}s — "
        f"{report['clients_per_second']:,.0f} clients/sec, peak RSS "
        f"{report['peak_rss_mb']:.1f} MiB; deterministic: "
        f"{report['deterministic']}"
    )
