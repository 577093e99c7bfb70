"""Model-size sweep: when does heterogeneity pay? (Table VII scenario)

Run:
    python examples/model_size_sweep.py

Trains All Small, All Large and HeteFedRec under three {N_s, N_m, N_l}
settings on the MovieLens analogue.  The paper's finding: quality is
non-monotone in model size, and HeteFedRec wins when the size range
brackets the data's sweet spot.
"""

from repro.api import (
    build_method,
    Evaluator,
    format_table,
    HeteFedRecConfig,
    load_benchmark_dataset,
    SyntheticConfig,
    train_test_split_per_user,
)

SETTINGS = [
    ("{2,4,8}", {"s": 2, "m": 4, "l": 8}),
    ("{8,16,32}", {"s": 8, "m": 16, "l": 32}),
    ("{16,32,64}", {"s": 16, "m": 32, "l": 64}),
]
METHODS = ("all_small", "all_large", "hetefedrec")


def main() -> None:
    dataset = load_benchmark_dataset("ml", SyntheticConfig(scale=0.03, seed=0))
    clients = train_test_split_per_user(dataset, seed=0)
    evaluator = Evaluator(clients, k=20)
    print(f"{dataset}\n")

    table = {method: [] for method in METHODS}
    for label, dims in SETTINGS:
        for method in METHODS:
            config = HeteFedRecConfig(epochs=10, seed=0, dims=dims)
            trainer = build_method(method, dataset.num_items, clients, config)
            trainer.fit()
            result = trainer.evaluate_with(evaluator)
            table[method].append(result.ndcg)
        print(f"finished size setting {label}")

    rows = [
        [method] + table[method]
        for method in METHODS
    ]
    print()
    print(
        format_table(
            ["Method"] + [label for label, _ in SETTINGS],
            rows,
            title="NDCG@20 by model-size setting (Table VII scenario)",
            float_format="{:.4f}",
        )
    )


if __name__ == "__main__":
    main()
