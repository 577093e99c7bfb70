"""Train → checkpoint → serve differential across the layer boundary.

Each layer is pinned against itself elsewhere; this pins the seam: the
top-k a served checkpoint returns is the top-k the evaluator's blocked
path scores on the live trainer, for every method that trains shared
models, every architecture and both parameter dtypes, with the seen-item
exclusion going through the one shared mask on both sides.  Standalone
trains one model per client, which a shared snapshot cannot hold: its
checkpoint is refused at the serving door.
"""

import pytest

from repro.api import (
    CheckpointMismatchError,
    HeteFedRecConfig,
    build_method,
    fit,
    save_checkpoint,
    serve,
)
from repro.eval.metrics import blocked_top_k, mask_scored_items

K = 10


def config(arch="ncf", dtype="float64"):
    return HeteFedRecConfig(
        arch=arch, dtype=dtype, dims={"s": 4, "m": 6, "l": 8},
        epochs=1, local_epochs=1, seed=0,
    )


@pytest.mark.parametrize("method", ["hetefedrec", "all_small", "clustered", "directly_aggregate"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("arch", ["ncf", "mf", "lightgcn"])
def test_served_top_k_is_the_trainers_top_k(
    tiny_dataset, tiny_clients, tmp_path, arch, dtype, method
):
    trainer = build_method(method, tiny_dataset.num_items, tiny_clients, config(arch, dtype))
    fit(trainer)
    path = str(tmp_path / "model.npz")
    save_checkpoint(trainer, path)

    scores = trainer.score_item_matrix(tiny_clients)
    mask_scored_items(scores, [client.train_items for client in tiny_clients])
    expected = blocked_top_k(scores, K)

    history = {client.user_id: client.train_items for client in tiny_clients}
    service = serve(path, k=K, cache_size=0, history=history, exclude_seen=True)
    for client, top in zip(tiny_clients, expected):
        answer = service.query(client.user_id)
        assert answer.model_version == 1
        assert set(answer.items.tolist()) == set(top.tolist()), (method, client.user_id)
        assert not set(answer.items.tolist()) & set(client.train_items.tolist())


def test_standalone_checkpoint_is_refused(tiny_dataset, tiny_clients, tmp_path):
    trainer = build_method("standalone", tiny_dataset.num_items, tiny_clients, config())
    fit(trainer)
    path = str(tmp_path / "standalone.npz")
    save_checkpoint(trainer, path)
    with pytest.raises(CheckpointMismatchError, match="standalone"):
        serve(path, k=K)
