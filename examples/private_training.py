"""Privacy-protected uploads: the utility cost of clipping and noise.

Run:
    python examples/private_training.py

The paper's threat model keeps user embeddings on-device, but uploaded
item-embedding deltas still expose the client's interaction support.
This example trains HeteFedRec with row clipping and local DP noise
(`repro.federated.privacy`) at increasing strength and reports the
privacy-utility trade-off.
"""

from repro.api import (
    build_method,
    Evaluator,
    format_table,
    HeteFedRecConfig,
    load_benchmark_dataset,
    PrivacyConfig,
    SyntheticConfig,
    train_test_split_per_user,
)

LEVELS = [
    ("no protection", None),
    ("clip only", PrivacyConfig(clip_norm=0.5)),
    ("clip + LDP noise", PrivacyConfig(clip_norm=0.5, noise_std=0.05)),
    ("strong LDP", PrivacyConfig(clip_norm=0.25, noise_std=0.2)),
]


def main() -> None:
    dataset = load_benchmark_dataset("ml", SyntheticConfig(scale=0.03, seed=0))
    clients = train_test_split_per_user(dataset, seed=0)
    evaluator = Evaluator(clients, k=20)
    print(f"{dataset}\n")

    rows = []
    for label, privacy in LEVELS:
        config = HeteFedRecConfig(epochs=8, seed=0, privacy=privacy)
        trainer = build_method("hetefedrec", dataset.num_items, clients, config)
        trainer.fit()
        result = trainer.evaluate_with(evaluator)
        rows.append([label, result.recall, result.ndcg])
        print(f"finished: {label}")

    print()
    print(
        format_table(
            ["Protection level", "Recall@20", "NDCG@20"],
            rows,
            title="Privacy-utility trade-off (HeteFedRec, Fed-NCF)",
        )
    )
    print(
        "\nClipping is nearly free; aggressive LDP noise\n"
        "costs accuracy — the standard trade-off, now measurable per level."
    )


if __name__ == "__main__":
    main()
