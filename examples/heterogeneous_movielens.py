"""The paper's headline scenario: heterogeneous clients on MovieLens.

Run:
    python examples/heterogeneous_movielens.py

Reproduces the Table II / Fig. 6 story on one dataset: seven methods
(HeteFedRec + six baselines), overall metrics and the per-group
breakdown that shows *who* benefits from model-size heterogeneity.
``--scale`` / ``--epochs`` shrink the run (the CI smoke test uses tiny
values); the defaults reproduce the documented comparison.
"""

import argparse

from repro.api import (
    build_method,
    DISPLAY_NAMES,
    divide_clients,
    Evaluator,
    format_table,
    group_counts,
    HeteFedRecConfig,
    load_benchmark_dataset,
    per_group_metrics,
    SyntheticConfig,
    TABLE2_ORDER,
    train_test_split_per_user,
)

EPOCHS = 12


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.035,
                        help="synthetic dataset scale (fraction of paper size)")
    parser.add_argument("--epochs", type=int, default=EPOCHS)
    args = parser.parse_args()

    dataset = load_benchmark_dataset("ml", SyntheticConfig(scale=args.scale, seed=0))
    clients = train_test_split_per_user(dataset, seed=0)
    evaluator = Evaluator(clients, k=20)
    division = divide_clients(clients, ratios=(5, 3, 2))
    print(f"{dataset}")
    print(f"client division (5:3:2): {group_counts(division)}\n")

    rows = []
    group_rows = []
    for method in TABLE2_ORDER:
        config = HeteFedRecConfig(epochs=args.epochs, seed=0)
        trainer = build_method(method, dataset.num_items, clients, config)
        trainer.fit()
        result = trainer.evaluate_with(evaluator)
        groups = per_group_metrics(result, division)
        name = DISPLAY_NAMES[method]
        rows.append([name, result.recall, result.ndcg])
        group_rows.append(
            [name, groups["s"].ndcg, groups["m"].ndcg, groups["l"].ndcg]
        )
        print(f"finished {name}: {result}")

    print()
    print(format_table(["Method", "Recall@20", "NDCG@20"], rows,
                       title="Overall comparison (Table II scenario)"))
    print()
    print(format_table(
        ["Method", "U_s NDCG", "U_m NDCG", "U_l NDCG"], group_rows,
        title="Per-group breakdown (Fig. 6 scenario)",
    ))


if __name__ == "__main__":
    main()
