"""Quickstart: train HeteFedRec on a MovieLens-like dataset in ~a minute.

Run:
    python examples/quickstart.py

Walks the shortest path through the public API: generate data, split it
per user (one user = one federated client), train HeteFedRec, evaluate
Recall@20 / NDCG@20, and compare against the strongest homogeneous
baseline.  ``--scale`` / ``--epochs`` shrink the run (the CI smoke test
uses tiny values); the defaults reproduce the documented walkthrough.
"""

import argparse

from repro.api import (
    build_method,
    Evaluator,
    HeteFedRecConfig,
    load_benchmark_dataset,
    SyntheticConfig,
    train_test_split_per_user,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.03,
                        help="synthetic dataset scale (fraction of paper size)")
    parser.add_argument("--epochs", type=int, default=10)
    args = parser.parse_args()

    # 1. A scaled-down MovieLens analogue (long-tailed user activity).
    dataset = load_benchmark_dataset("ml", SyntheticConfig(scale=args.scale, seed=0))
    print(f"dataset: {dataset}")

    # 2. Per-user 80/20 split; each user is one client.
    clients = train_test_split_per_user(dataset, seed=0)
    evaluator = Evaluator(clients, k=20)

    # 3. HeteFedRec with the paper's defaults: dims {8, 16, 32} assigned
    #    5:3:2 by data size, unified dual-task learning, decorrelation,
    #    and relation-based ensemble distillation.
    config = HeteFedRecConfig(
        epochs=args.epochs, seed=0, eval_every=max(args.epochs // 5, 1)
    )
    trainer = build_method("hetefedrec", dataset.num_items, clients, config)

    print(f"client groups: {trainer.group_sizes()}")
    print("training", config.epochs, "federated epochs ...")
    history = trainer.fit(evaluator)
    for epoch, ndcg in history.ndcg_curve():
        print(f"  epoch {epoch:>3}: NDCG@20 = {ndcg:.4f}")

    result = trainer.evaluate_with(evaluator)
    print(f"\nHeteFedRec final: {result}")

    # 4. Compare with the homogeneous status quo.
    baseline = build_method("all_small", dataset.num_items, clients, config)
    baseline.fit()
    base_result = baseline.evaluate_with(evaluator)
    print(f"All Small final:  {base_result}")

    verdict = "beats" if result.ndcg > base_result.ndcg else "trails"
    print(f"\nHeteFedRec {verdict} the homogeneous baseline on NDCG@20.")


if __name__ == "__main__":
    main()
