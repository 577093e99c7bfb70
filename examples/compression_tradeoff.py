"""Update compression: accuracy vs bytes-on-the-wire.

Run:
    python examples/compression_tradeoff.py

HeteFedRec already shrinks communication structurally (small clients
move small tables — Table III).  Compression (``repro.compression``) is
the orthogonal lever: sparsify or quantise whatever is uploaded.  This
example sweeps codecs and reports upload volume next to ranking quality,
with error feedback on and off for the aggressive top-k setting.
"""

from repro.api import (
    build_method,
    CompressionConfig,
    Evaluator,
    format_table,
    HeteFedRecConfig,
    load_benchmark_dataset,
    SyntheticConfig,
    train_test_split_per_user,
)

CODECS = [
    ("dense uploads", None),
    ("top-k 25%", CompressionConfig(kind="topk", ratio=0.25)),
    ("top-k 10% + EF", CompressionConfig(kind="topk", ratio=0.10, error_feedback=True)),
    ("top-k 10%, no EF", CompressionConfig(kind="topk", ratio=0.10, error_feedback=False)),
    ("random-k 25%", CompressionConfig(kind="randomk", ratio=0.25)),
    ("8-bit quantise", CompressionConfig(kind="quantize", bits=8)),
    ("4-bit quantise", CompressionConfig(kind="quantize", bits=4)),
]


def main() -> None:
    dataset = load_benchmark_dataset("ml", SyntheticConfig(scale=0.02, seed=0))
    clients = train_test_split_per_user(dataset, seed=0)
    evaluator = Evaluator(clients, k=20)
    print(f"{dataset}\n")

    rows = []
    baseline_upload = None
    for label, compression in CODECS:
        config = HeteFedRecConfig(epochs=6, seed=0, compression=compression)
        trainer = build_method("hetefedrec", dataset.num_items, clients, config)
        trainer.fit()
        result = trainer.evaluate_with(evaluator)
        upload = trainer.meter.total_upload
        if baseline_upload is None:
            baseline_upload = upload
        rows.append(
            [label, f"{upload / baseline_upload:.2f}x", result.recall, result.ndcg]
        )
        print(f"finished: {label}")

    print()
    print(
        format_table(
            ["Codec", "Upload vol.", "Recall@20", "NDCG@20"],
            rows,
            title="Compression trade-off (HeteFedRec, Fed-NCF)",
        )
    )
    print(
        "\nQuantisation is nearly free; aggressive sparsification needs\n"
        "error feedback to stay close to the dense baseline."
    )


if __name__ == "__main__":
    main()
