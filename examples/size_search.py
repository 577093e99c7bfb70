"""Automatic ratio/size selection — the paper's stated future work.

Run:
    python examples/size_search.py

The paper's conclusion: "how to find the optimal solution of client
group division and model sizes for each group is also non-trivial as
HeteFedRec's performance is very sensitive to these settings.  In future
work, we would like to explore [...]".  This example runs the
successive-halving search (``repro.core.size_search``) over the joint
Table VI × Table VII grid on a validation signal, then trains the winner
to full length and compares it to the paper's default setting.
"""

from repro.api import (
    build_method,
    Candidate,
    Evaluator,
    HeteFedRecConfig,
    load_benchmark_dataset,
    successive_halving,
    SyntheticConfig,
    train_test_split_per_user,
)

CANDIDATES = [
    Candidate.make(ratios, dims)
    for ratios in [(5, 3, 2), (1, 1, 1), (2, 3, 5)]
    for dims in [{"s": 4, "m": 8, "l": 16}, {"s": 8, "m": 16, "l": 32}]
]


def main() -> None:
    dataset = load_benchmark_dataset("ml", SyntheticConfig(scale=0.02, seed=0))
    clients = train_test_split_per_user(dataset, seed=0)
    evaluator = Evaluator(clients, k=20)
    print(f"{dataset}\n")

    search_config = HeteFedRecConfig(seed=0, clients_per_round=64)
    result = successive_halving(
        dataset.num_items, clients, search_config,
        candidates=CANDIDATES, epochs_per_rung=2,
    )

    print("search trace:")
    for record in result.rungs:
        print(f"  rung {record.rung} ({record.epochs_each} epoch(s) each):")
        for candidate, score in sorted(record.scores, key=lambda p: -p[1]):
            print(f"    valid-NDCG={score:.5f}  {candidate.describe()}")
    print(f"\nwinner: {result.best.describe()}")
    print(f"pilot budget spent: {result.total_epochs_trained} candidate-epochs\n")

    # Full-length comparison: searched setting vs the paper default.
    for label, config in [
        ("paper default", HeteFedRecConfig(epochs=8, seed=0)),
        ("searched", result.best_config(HeteFedRecConfig(epochs=8, seed=0))),
    ]:
        trainer = build_method("hetefedrec", dataset.num_items, clients, config)
        trainer.fit()
        evaluation = trainer.evaluate_with(evaluator)
        print(f"{label:<14} {evaluation}")


if __name__ == "__main__":
    main()
