"""Ablating HeteFedRec's three components (the Table IV / V scenario).

Run:
    python examples/ablation_study.py

Removes RESKD, DDR and UDL one at a time and reports both the
recommendation quality and the dimensional-collapse diagnostic
(singular-value variance of cov(V_l)) — showing *why* each component is
there, not just *that* it helps.
"""

from repro.api import (
    Evaluator,
    format_table,
    HeteFedRec,
    HeteFedRecConfig,
    load_benchmark_dataset,
    SyntheticConfig,
    train_test_split_per_user,
)

VARIANTS = [
    ("HeteFedRec (full)", {}),
    ("- RESKD", {"enable_reskd": False}),
    ("- RESKD, DDR", {"enable_reskd": False, "enable_ddr": False}),
    (
        "- RESKD, DDR, UDL (= Directly Aggregate)",
        {"enable_reskd": False, "enable_ddr": False, "enable_udl": False},
    ),
]


def main() -> None:
    dataset = load_benchmark_dataset("ml", SyntheticConfig(scale=0.035, seed=0))
    clients = train_test_split_per_user(dataset, seed=0)
    evaluator = Evaluator(clients, k=20)
    print(f"{dataset}\n")

    rows = []
    for label, flags in VARIANTS:
        config = HeteFedRecConfig(epochs=12, seed=0, **flags)
        trainer = HeteFedRec(dataset.num_items, clients, config)
        trainer.fit()
        result = trainer.evaluate_with(evaluator)
        collapse = trainer.collapse_diagnostics()["l"]
        rows.append([label, result.recall, result.ndcg, collapse])
        print(f"finished: {label}")

    print()
    print(
        format_table(
            ["Variant", "Recall@20", "NDCG@20", "SV-var of cov(V_l)"],
            rows,
            title="Ablation (Table IV) with collapse diagnostic (Table V)",
            float_format="{:.4f}",
        )
    )
    print(
        "\nReading the last column: a large singular-value variance means the\n"
        "large table's spectrum is dominated by few directions — dimensional\n"
        "collapse.  DDR (rows 1-2) keeps it an order of magnitude lower than\n"
        "the unregularised variants (rows 3-4)."
    )


if __name__ == "__main__":
    main()
