"""Bring your own data: run HeteFedRec on any (user, item) interaction log.

Run:
    python examples/custom_dataset.py

Demonstrates the two ingestion paths a downstream user has:
1. ``InteractionDataset.from_pairs`` for in-memory interaction lists;
2. the MovieLens ``ratings.dat`` parser for on-disk dumps (this example
   writes one and reads it back, standing in for a real download).
"""

import os
import tempfile

import numpy as np

from repro.api import (
    build_method,
    dataset_statistics,
    Evaluator,
    HeteFedRecConfig,
    InteractionDataset,
    load_movielens,
    save_ratings,
    train_test_split_per_user,
)


def synthesize_interaction_log(num_users=120, num_items=300, seed=0):
    """Stand-in for an application's own interaction log."""
    rng = np.random.default_rng(seed)
    pairs = []
    for user in range(num_users):
        count = int(rng.pareto(2.0) * 10) + 5
        items = rng.choice(num_items, size=min(count, num_items // 2), replace=False)
        pairs.extend((user, int(item)) for item in items)
    return pairs


def main() -> None:
    # Path 1: in-memory pairs.
    pairs = synthesize_interaction_log()
    dataset = InteractionDataset.from_pairs(pairs, name="my-app-log")
    print("from_pairs:", dataset)
    print("stats:", dataset_statistics(dataset).as_row())

    # Path 2: MovieLens-format file round trip (what you'd do with a real
    # ml-1m/ratings.dat on disk).
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ratings.dat")
        save_ratings(dataset, path)
        reloaded = load_movielens(path, min_interactions=5)
        print("from ratings.dat:", reloaded)

    # Train HeteFedRec on the custom data exactly as on the benchmarks.
    clients = train_test_split_per_user(dataset, seed=0)
    config = HeteFedRecConfig(epochs=8, seed=0)
    trainer = build_method("hetefedrec", dataset.num_items, clients, config)
    trainer.fit()
    result = trainer.evaluate_with(Evaluator(clients, k=20))
    print(f"\nHeteFedRec on custom data: {result}")
    print("group sizes:", trainer.group_sizes())


if __name__ == "__main__":
    main()
