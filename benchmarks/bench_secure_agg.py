"""Benchmark: throughput and wire overhead of the phased masking protocol.

Drives :func:`repro.federated.secure_protocol.run_secure_round` — the
full advertise → shares → masked_input → unmask state machine — over
dense uploads on a small catalogue (500 items × dim 8, bounding the
O(n² · size) pairwise-masking cost) at paper-scale cohorts:

* ``clients_per_second``  — cohort size over the wall-clock of one
  clean (zero-fault) round: key agreement, Shamir sharing, double
  masking, consistency check and unmasking end to end;
* ``recovery_seconds``    — the same round with 10 % of the cohort
  dropped at the masked-input phase, exercising the expensive path
  (pairwise-secret reconstruction for every dropout);
* ``protocol_overhead``   — per-phase key/share/MAC wire beyond the
  masked vectors, and ``overhead_ratio`` vs a plain dense upload of the
  same vectors (the honest Table III cost of the protocol);
* ``exact``               — hard gate: the decoded masked sum must be
  **bitwise identical** to the survivors' plain fixed-point sum at
  every scale.

Results go to ``BENCH_secure_agg.json`` through the one benchmark CLI
(``benchmarks/suite.py``: flags, gate rule, output files):

    PYTHONPATH=src python -m benchmarks.suite secure_agg [--quick] [--check]

``--quick`` shrinks the cohorts for CI.  What is gated is declared in
:func:`metrics`: exactness on every run; under ``--check`` throughput as
a floor and the wire accounting as an exact match, per cohort size the
baseline also ran.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.federated.payload import ClientUpdate
from repro.federated.secure_agg import (
    PRECISION_BITS,
    FixedPointCodec,
    SecureAggregationConfig,
)
from repro.federated.secure_protocol import (
    MASKED_INPUT,
    THRESHOLD_FRACTION,
    FaultPlan,
    run_secure_round,
)

from benchmarks.suite import Metric

FULL_COHORTS = (64, 128, 256)
QUICK_COHORTS = (16, 32)
NUM_ITEMS = 500
DIM = 8
DROP_FRACTION = 10  # every 10th client drops in the recovery round


def make_updates(num_clients: int, seed: int = 0) -> List[ClientUpdate]:
    rng = np.random.default_rng(seed)
    return [
        ClientUpdate(
            user_id=uid,
            group="s",
            embedding_delta=rng.normal(scale=0.1, size=(NUM_ITEMS, DIM)),
            head_deltas={},
        )
        for uid in range(num_clients)
    ]


def plain_fixed_point_sum(
    updates: List[ClientUpdate], config: SecureAggregationConfig
) -> np.ndarray:
    """The reference the decoded masked sum must match bitwise."""
    codec = FixedPointCodec()
    total = np.zeros((NUM_ITEMS, DIM), dtype=np.uint64)
    for update in updates:
        total += codec.encode(np.asarray(update.embedding_delta))
    return codec.decode(total)


def bench_cohort(num_clients: int, config: SecureAggregationConfig) -> Dict:
    updates = make_updates(num_clients)
    vector_size = NUM_ITEMS * DIM

    start = time.perf_counter()
    embeddings, _, report = run_secure_round(updates, {"s": DIM}, config, 1)
    clean_seconds = time.perf_counter() - start
    exact = bool(
        np.array_equal(embeddings["s"], plain_fixed_point_sum(updates, config))
    )

    drops = frozenset(range(0, num_clients, DROP_FRACTION))
    faults = FaultPlan(drops={MASKED_INPUT: drops})
    start = time.perf_counter()
    emb_faulted, _, faulted = run_secure_round(updates, {"s": DIM}, config, 2, faults)
    recovery_seconds = time.perf_counter() - start
    survivors = [u for u in updates if int(u.user_id) in set(faulted.survivors)]
    exact = exact and bool(
        np.array_equal(emb_faulted["s"], plain_fixed_point_sum(survivors, config))
    )

    # Honest wire: every survivor ships a dense masked vector, plus the
    # protocol's key/share/MAC traffic; plain is the same dense upload
    # without the protocol.
    plain_wire = float(num_clients * vector_size)
    secure_wire = plain_wire + report.protocol_overhead
    return {
        "num_clients": num_clients,
        "vector_size": vector_size,
        "clean_seconds": clean_seconds,
        "clients_per_second": num_clients / clean_seconds,
        "recovery_seconds": recovery_seconds,
        "recovery_dropouts": len(drops),
        "recovery_survivors": len(faulted.survivors),
        "phase_wire": {k: float(v) for k, v in report.phase_wire.items()},
        "protocol_overhead": report.protocol_overhead,
        "overhead_ratio": secure_wire / plain_wire,
        "exact": exact,
    }


def run_benchmark(quick: bool = False) -> Dict:
    cohorts = QUICK_COHORTS if quick else FULL_COHORTS
    config = SecureAggregationConfig()
    return {
        "benchmark": "secure_agg",
        "config": {
            "cohorts": list(cohorts),
            "num_items": NUM_ITEMS,
            "dim": DIM,
            "precision_bits": PRECISION_BITS,
            "threshold_fraction": THRESHOLD_FRACTION,
            "quick": quick,
        },
        "cohorts": [bench_cohort(n, config) for n in cohorts],
    }


measure = run_benchmark  # the suite's entry point: measure(quick)


def metrics(report: Dict) -> List[Metric]:
    """Exactness is a hard requirement at every scale.

    At cohort sizes the baseline also ran, throughput is a floor and the
    (deterministic) wire accounting must match exactly — any drift is an
    accounting change that needs a deliberate baseline regeneration.
    """
    found = []
    for cohort in report["cohorts"]:
        n = cohort["num_clients"]
        found += [
            Metric(f"n={n} exact", cohort["exact"], "hard"),
            Metric(f"n={n} clients_per_second", cohort["clients_per_second"], "floor", n),
            Metric(f"n={n} overhead_ratio", cohort["overhead_ratio"], "exact", n),
        ]
    return found


def summary(report: Dict) -> None:
    for cohort in report["cohorts"]:
        print(
            f"n={cohort['num_clients']:>4}: clean "
            f"{cohort['clean_seconds']:.2f}s "
            f"({cohort['clients_per_second']:,.1f} clients/sec), recovery "
            f"{cohort['recovery_seconds']:.2f}s "
            f"({cohort['recovery_dropouts']} dropouts), overhead ratio "
            f"{cohort['overhead_ratio']:.3f}, exact: {cohort['exact']}"
        )
