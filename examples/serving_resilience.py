"""Resilient serving: shed, degrade, quarantine, recover.

Run:
    python examples/serving_resilience.py
    python examples/serving_resilience.py --scale 0.008 --epochs 1  # smoke

The online layer's failure-mode walkthrough, end to end on one trained
HeteFedRec checkpoint:

1. **Admission control** — a deadline-budgeted query is shed up front
   (HTTP 503 + Retry-After in the server) when the estimated wait
   cannot fit its budget, instead of queueing to time out later.
2. **The degradation ladder** — when live scoring starts failing, the
   service steps down through fresh cache → stale cache → the
   popularity-prior fallback, and ``/healthz`` tracks healthy →
   degraded → unhealthy instead of flipping to dead.
3. **Guarded hot-swap** — a truncated checkpoint offered for swap is
   quarantined as ``*.corrupt`` and the last-good snapshot keeps
   serving; a pristine candidate then swaps in cleanly.
4. **Recovery** — once scoring works again, probe traffic climbs the
   service back to healthy on its own.
5. **Chaos fingerprint** — a seeded mini chaos storm
   (``repro simulate serving_chaos``) replays all of the above
   deterministically and prints its bitwise-reproducible digest.
"""

import argparse
import os
import shutil
import tempfile

from repro.api import (
    DeadlineExceededError,
    HeteFedRec,
    HeteFedRecConfig,
    ResilienceConfig,
    ServingChaosConfig,
    ShedError,
    SyntheticConfig,
    fit,
    load_benchmark_dataset,
    run_chaos_scenario,
    save_checkpoint,
    serve,
    train_test_split_per_user,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.02,
                        help="user-count scale of the synthetic dataset")
    parser.add_argument("--epochs", type=int, default=2)
    args = parser.parse_args()

    workdir = tempfile.mkdtemp(prefix="serving-resilience-")
    dataset = load_benchmark_dataset("ml", SyntheticConfig(scale=args.scale, seed=0))
    clients = train_test_split_per_user(dataset, seed=0)
    trainer = HeteFedRec(
        dataset.num_items, clients, HeteFedRecConfig(epochs=args.epochs, seed=0)
    )
    fit(trainer)
    checkpoint = os.path.join(workdir, "model_v1.npz")
    save_checkpoint(trainer, checkpoint)

    # serve(..., resilience=...) wraps the service in the full ladder:
    # admission queue, health state machine, circuit-broken swap.  A
    # small queue makes the shedding demo below immediate.
    service = serve(
        checkpoint, k=10,
        resilience=ResilienceConfig(admission_capacity=8, max_waiting=8),
    )
    users = service.snapshot.user_ids()
    user = users[0]

    # --- 1. Deadline budgets: overruns 504, hopeless waits shed --------
    answer = service.query(user, deadline_ms=1000.0)
    print(f"admitted within budget: tier={answer.tier} "
          f"items={list(answer.items[:5])}")
    try:
        service.query(user, deadline_ms=0.001)
    except DeadlineExceededError as exc:
        print(f"1µs-budget query refused: {exc}")
    # Fill the admission queue (two-phase tickets, no work yet): the
    # next budgeted arrival's estimated wait exceeds its budget -> shed.
    tickets = [service.try_admit() for _ in range(12)]
    try:
        service.query(user, deadline_ms=1.0)
    except ShedError as exc:
        print(f"under backlog, 1ms-budget query shed up front "
              f"(retry after {exc.retry_after:.2f}s)")
    for ticket in tickets:
        service.admission.release(ticket)

    # --- 2. The degradation ladder under a scoring outage --------------
    inner = service.service
    working_query_batch = inner.query_batch

    def broken_query_batch(requests):
        raise RuntimeError("simulated scoring outage")

    inner.query_batch = broken_query_batch
    tiers = []
    for _ in range(12):
        tiers.append(service.query(user).tier)
    print(f"during the outage the ladder answered from: "
          f"{sorted(set(tiers))} (health={service.health.state})")
    print(f"healthz: {service.healthz()}")

    # --- 3. Guarded hot-swap: corrupt quarantined, pristine swaps ------
    corrupt = os.path.join(workdir, "candidate_bad.npz")
    with open(checkpoint, "rb") as fh:
        blob = fh.read()
    with open(corrupt, "wb") as fh:
        fh.write(blob[: len(blob) // 2])
    try:
        service.swap(corrupt)
    except Exception as exc:
        print(f"corrupt candidate rejected ({type(exc).__name__}); "
              f"quarantined: {os.path.exists(corrupt + '.corrupt') or os.path.exists(corrupt[:-4] + '.corrupt')}")
    good = os.path.join(workdir, "candidate_good.npz")
    shutil.copyfile(checkpoint, good)
    # Still serving the last-good snapshot throughout.
    assert service.query(user) is not None

    # --- 4. Recovery: scoring returns, probes climb back to healthy ----
    inner.query_batch = working_query_batch
    while service.health.state != "healthy":
        service.query(user)
    version = service.swap(good)
    print(f"recovered: health={service.health.state}, "
          f"hot-swapped to version {version}")

    # --- 5. A seeded mini chaos storm, bitwise-reproducible ------------
    result = run_chaos_scenario(
        ServingChaosConfig(seed=0, requests=120, fault_start=15,
                           fault_end=75, recovery_requests=30),
        workdir=os.path.join(workdir, "chaos"),
    )
    for line in result.summary_lines():
        print(line)

    shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
