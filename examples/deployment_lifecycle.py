"""A deployment lifecycle: flaky devices, preemption, serving, a user quits.

Run:
    python examples/deployment_lifecycle.py
    python examples/deployment_lifecycle.py --scale 0.01 --epochs 2  # smoke

Five production concerns the paper's epoch-based evaluation abstracts
away, exercised end to end on one HeteFedRec deployment:

1. **Availability** — 15% of selected devices are offline each round and
   10% straggle (their updates apply a round late, down-weighted).
2. **Preemption** — the coordinator is killed mid-schedule; the
   full-state checkpoint autosaved every epoch restores *everything*
   (straggler buffer, RNG streams, unlearning ledger, counters), so the
   resumed run finishes bitwise-identical to the uninterrupted one.
3. **Wall-clock** — the analytic systems model converts payload sizes
   and device speeds into round times, showing what heterogeneous sizing
   buys in time-to-accuracy terms.
4. **Serving** — the final checkpoint goes straight into the online
   :class:`RecommendationService`: top-k queries off the warm-loaded
   models, then a zero-downtime hot-swap to a fresher checkpoint.
5. **The right to be forgotten** — one user quits; contribution-ledger
   unlearning subtracts their recorded influence exactly and a recovery
   epoch smooths the remainder.
"""

import argparse
import os
import tempfile

import numpy as np

from repro.api import (
    AvailabilityConfig,
    Evaluator,
    HeteFedRecConfig,
    load_benchmark_dataset,
    recommend,
    resume,
    round_time_summary,
    save_checkpoint,
    serve,
    simulate_round_times,
    SyntheticConfig,
    SystemProfile,
    time_to_accuracy,
    train_test_split_per_user,
    UnlearningHeteFedRec,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.02,
                        help="user-count scale of the synthetic dataset")
    parser.add_argument("--epochs", type=int, default=6,
                        help="training schedule length (kill point: half)")
    args = parser.parse_args()

    dataset = load_benchmark_dataset("ml", SyntheticConfig(scale=args.scale, seed=0))
    clients = train_test_split_per_user(dataset, seed=0)
    evaluator = Evaluator(clients, k=20)
    print(f"{dataset}\n")

    # --- 1. Train under realistic availability --------------------------
    config = HeteFedRecConfig(
        epochs=args.epochs,
        seed=0,
        enable_reskd=False,  # keeps unlearning subtraction exact
        availability=AvailabilityConfig(
            offline_rate=0.15, straggler_rate=0.10, seed=1
        ),
    )
    trainer = UnlearningHeteFedRec(dataset.num_items, clients, config)
    trainer.fit(evaluator)
    result = trainer.evaluate_with(evaluator)
    print(f"trained under 15% offline / 10% stragglers: {result}")

    # --- 2. Survive a preemption: kill mid-schedule, resume, finish -----
    # The same schedule, but the coordinator "dies" half-way.  The
    # per-epoch autosave captures straggler buffer, ledger, RNG streams
    # and counters, so the resumed run replays the exact same stream.
    kill_at = max(1, args.epochs // 2)
    workdir = tempfile.mkdtemp(prefix="lifecycle-")
    ckpt = os.path.join(workdir, "run.ckpt.npz")
    preempted = UnlearningHeteFedRec(
        dataset.num_items, clients,
        config.copy_with(epochs=kill_at, checkpoint_path=ckpt, checkpoint_every=1),
    )
    preempted.fit(evaluator)  # stops at the kill point
    resumed = UnlearningHeteFedRec(
        dataset.num_items, clients,
        config.copy_with(checkpoint_path=ckpt, checkpoint_every=1),
    )
    resume(resumed, ckpt)
    resumed.fit(evaluator)  # continues past the kill, finishes the schedule
    bitwise = all(
        np.array_equal(resumed.score_item_matrix([c]), trainer.score_item_matrix([c]))
        for c in clients[:5]
    )
    print(
        f"killed at epoch {kill_at}, resumed from {os.path.basename(ckpt)}: "
        f"bitwise-identical finish = {bitwise}"
    )

    # --- 3. What would those epochs cost on real devices? ---------------
    # A bandwidth-constrained fleet (20 kB/s median uplink) — the regime
    # the paper's Table III is about, where payload size dominates.
    profile = SystemProfile(seed=2, median_bandwidth=2e4, bandwidth_sigma=1.0)
    group_of = dict(trainer.group_of)
    sizes = {c.user_id: c.num_train for c in trainer.clients}
    dims = dict(config.dims)
    for method in ("all_large", "hetefedrec"):
        times = simulate_round_times(
            method, group_of, sizes, dataset.num_items, dims, profile,
            clients_per_round=64, num_rounds=40,
        )
        summary = round_time_summary(times)
        curve = time_to_accuracy(trainer.history.ndcg_curve(), times)
        total = curve[-1][0] if curve else 0.0
        print(
            f"{method:<12} median round {summary['median']:6.1f}s  "
            f"p95 {summary['p95']:6.1f}s  "
            f"whole schedule ≈ {total / 60:5.1f} min"
        )
    print("(same NDCG schedule, cheaper rounds: heterogeneous sizing cuts "
          "the straggler tail)\n")

    # --- 4. Deploy the checkpoint: serve queries, hot-swap an update ----
    # The interrupted run's checkpoint goes live first; the finished
    # run's checkpoint then hot-swaps in with zero downtime — in-flight
    # queries complete on the old model, new queries see the new one.
    final_ckpt = os.path.join(workdir, "final.ckpt.npz")
    save_checkpoint(resumed, final_ckpt)
    service = serve(ckpt, k=10)  # host=None: in-process service
    user = clients[0].user_id
    before = recommend(service, user, k=5)
    version = service.swap(final_ckpt)
    after = recommend(service, user, k=5)
    print(
        f"serving model v{before.model_version}: top-5 for user {user} = "
        f"{before.items.tolist()}"
    )
    print(
        f"hot-swapped to {os.path.basename(final_ckpt)} (v{version}) "
        f"mid-traffic: top-5 now {after.items.tolist()}"
    )
    stats = service.stats()
    print(
        f"service stats: {stats['queries']} queries, {stats['swaps']} swap, "
        f"cache {stats['cache']['hits']} hits / {stats['cache']['misses']} "
        f"misses\n"
    )

    # --- 5. A user exercises the right to be forgotten -------------------
    quitter = trainer.clients[0].user_id
    contribution = trainer.ledger.embedding_contribution(quitter)
    norm = float(
        np.sqrt(sum(np.sum(np.asarray(v) ** 2) for v in contribution.values()))
    )
    print(f"user {quitter} quits; recorded influence norm {norm:.4f}")
    trainer.unlearn(quitter, recovery_epochs=1)
    after_unlearn = trainer.evaluate_with(
        evaluator, user_subset=[c.user_id for c in trainer.clients]
    )
    print(f"after exact unlearning + 1 recovery epoch: {after_unlearn}")
    print(f"population: {len(clients)} -> {len(trainer.clients)} clients")


if __name__ == "__main__":
    main()
