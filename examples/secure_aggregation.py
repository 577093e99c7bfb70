"""Secure aggregation: the server learns only sums, training is unchanged.

Run:
    python examples/secure_aggregation.py

HeteFedRec's aggregation (Eq. 8/15) only ever consumes *sums* of client
updates.  Secure aggregation (the four-phase masking protocol behind
``run_secure_round``) makes that privacy argument concrete: every upload
is double-masked so it looks uniformly random to the server, yet the
per-round sums — and therefore the trained model — are exactly those of
plaintext training.  This example verifies both halves of that claim
and demonstrates dropout recovery.
"""

import numpy as np

from repro.api import (
    build_method,
    Evaluator,
    FaultPlan,
    HeteFedRecConfig,
    load_benchmark_dataset,
    run_secure_round,
    SecureAggregationConfig,
    SyntheticConfig,
    train_test_split_per_user,
)


def train(label: str, config: HeteFedRecConfig, dataset, clients, evaluator):
    trainer = build_method("hetefedrec", dataset.num_items, clients, config)
    trainer.fit()
    result = trainer.evaluate_with(evaluator)
    print(f"{label:<22} {result}")
    return trainer


def main() -> None:
    dataset = load_benchmark_dataset("ml", SyntheticConfig(scale=0.02, seed=0))
    clients = train_test_split_per_user(dataset, seed=0)
    evaluator = Evaluator(clients, k=20)
    print(f"{dataset}\n")

    base = HeteFedRecConfig(epochs=5, seed=0)
    plain = train("plaintext", base, dataset, clients, evaluator)
    secure = train(
        "secure aggregation",
        base.copy_with(secure_aggregation=SecureAggregationConfig()),
        dataset,
        clients,
        evaluator,
    )

    drift = max(
        float(
            np.max(
                np.abs(
                    plain.models[g].item_embedding.weight.data
                    - secure.models[g].item_embedding.weight.data
                )
            )
        )
        for g in plain.groups
    )
    print(f"\nmax parameter drift plaintext vs secure: {drift:.2e}")
    print(
        "(each round's sum matches to ~1e-7 fixed-point precision; over\n"
        " many epochs those rounding differences compound through local\n"
        " training, so trajectories drift while quality stays equal)"
    )

    # One protocol round by hand, over the four uploads of one training
    # round: client `gone` advertises keys and shares its secrets, then
    # drops before it delivers its masked input.
    users = sorted(secure.runtimes)[:4]
    uploads = secure._train_clients(users)
    gone = users[2]
    dims = {group: secure.config.dims[group] for group in secure.groups}
    sums, _, report = run_secure_round(
        uploads, dims, SecureAggregationConfig(), round_id=0,
        faults=FaultPlan(drops={"masked_input": frozenset({gone})}),
    )
    print(f"\ninvited {users}, client {gone} drops before uploading")
    print(f"survivors               : {report.survivors}")
    print(f"dropouts by phase       : {report.dropouts_by_phase}")
    # A client masks and uploads its own model's prefix of the round's
    # vector, so the wire cost follows the model size it was assigned.
    for upload in uploads:
        note = ", dropped before sending" if upload.user_id == gone else ""
        print(
            f"masked vector, client {upload.user_id:<3} : "
            f"{report.masked_lengths[upload.user_id]:>6} scalars "
            f"(group {upload.group!r}, d={dims[upload.group]}{note})"
        )
    print(
        f"widest model's vector   : {report.masked_vector_scalars:>6} scalars; "
        f"keys/shares add {report.protocol_overhead / len(users):.0f} per client"
    )

    # The survivors reveal shares of the dropout's key, the server strips
    # its dangling masks, and the decoded sum is the survivors' plaintext
    # sum — compared here on the columns every group trains.
    narrowest = min(dims, key=dims.get)
    expected = sum(
        upload.embedding_delta.dense()[:, : dims[narrowest]]
        for upload in uploads
        if upload.user_id != gone
    )
    error = float(np.max(np.abs(sums[narrowest] - expected)))
    print(f"max |secure − plain sum| : {error:.1e} (fixed-point precision)")
    assert error < 1e-5


if __name__ == "__main__":
    main()
