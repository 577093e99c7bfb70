"""Tests for upload protection: clipping and LDP noise."""

import numpy as np
import pytest

from repro.core import HeteFedRec, HeteFedRecConfig
from repro.federated.payload import ClientUpdate
from repro.federated.privacy import (
    PrivacyConfig,
    clip_rows,
    gaussian_noise_like,
    protect_update,
    touched_rows,
)


def sparse_update(num_items=20, dim=4, touched=(1, 5, 9), seed=0):
    rng = np.random.default_rng(seed)
    delta = np.zeros((num_items, dim))
    for row in touched:
        delta[row] = rng.normal(0, 0.5, dim)
    return ClientUpdate(
        user_id=0,
        group="s",
        embedding_delta=delta,
        head_deltas={"s": {"w": rng.normal(0, 0.1, 6)}},
    )


class TestPrivacyConfig:
    def test_disabled_by_default(self):
        assert not PrivacyConfig().enabled

    def test_enabled_when_any_set(self):
        assert PrivacyConfig(clip_norm=1.0).enabled
        assert PrivacyConfig(noise_std=0.1).enabled

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PrivacyConfig(clip_norm=-1.0)
        with pytest.raises(ValueError):
            PrivacyConfig(noise_std=-1.0)


class TestClipping:
    def test_rows_bounded(self):
        delta = np.array([[3.0, 4.0], [0.3, 0.4]])
        clipped = clip_rows(delta, max_norm=1.0)
        norms = np.linalg.norm(clipped, axis=1)
        assert norms[0] == pytest.approx(1.0)
        assert norms[1] == pytest.approx(0.5)  # already under the bound

    def test_direction_preserved(self):
        delta = np.array([[3.0, 4.0]])
        clipped = clip_rows(delta, max_norm=1.0)
        assert np.allclose(clipped / np.linalg.norm(clipped), delta / 5.0)

    def test_zero_norm_disables(self):
        delta = np.array([[10.0, 0.0]])
        assert np.array_equal(clip_rows(delta, 0.0), delta)


class TestProtectUpdate:
    def test_disabled_passthrough(self):
        update = sparse_update()
        out = protect_update(update, PrivacyConfig(), np.random.default_rng(0))
        assert out is update

    def test_noise_perturbs_support_only(self):
        update = sparse_update()
        config = PrivacyConfig(clip_norm=1.0, noise_std=0.1)
        out = protect_update(update, config, np.random.default_rng(0))
        before, after = update.embedding_delta.dense(), out.embedding_delta.dense()
        untouched = np.setdiff1d(np.arange(20), touched_rows(before))
        assert np.allclose(after[untouched], 0.0)
        support = touched_rows(before)
        assert not np.allclose(after[support], before[support])

    def test_heads_also_noised(self):
        update = sparse_update()
        config = PrivacyConfig(noise_std=0.5)
        out = protect_update(update, config, np.random.default_rng(0))
        assert not np.allclose(out.head_deltas["s"]["w"], update.head_deltas["s"]["w"])

    def test_original_never_mutated(self):
        update = sparse_update()
        snapshot = update.embedding_delta.copy()
        protect_update(
            update,
            PrivacyConfig(clip_norm=0.1, noise_std=1.0),
            np.random.default_rng(0),
        )
        assert np.array_equal(update.embedding_delta, snapshot)


class TestTrainerIntegration:
    def test_private_training_runs_and_obfuscates(self, tiny_dataset, tiny_clients):
        config = HeteFedRecConfig(
            dims={"s": 4, "m": 6, "l": 8},
            epochs=1,
            local_epochs=1,
            lr=0.01,
            seed=0,
            privacy=PrivacyConfig(clip_norm=0.5, noise_std=0.05),
        )
        trainer = HeteFedRec(tiny_dataset.num_items, tiny_clients, config)
        (update,) = trainer._train_clients([next(iter(trainer.runtimes))])
        support = touched_rows(update.embedding_delta)
        # The noised upload keeps the client's true support (batch =
        # train items + sampled negatives).
        assert support.size > 0
        assert np.isfinite(trainer.run_epoch(1))

    def test_privacy_off_is_exact_baseline(self, tiny_dataset, tiny_clients):
        base_cfg = HeteFedRecConfig(
            dims={"s": 4, "m": 6, "l": 8}, epochs=1, local_epochs=1, lr=0.01, seed=0
        )
        private_cfg = base_cfg.copy_with(privacy=PrivacyConfig())
        a = HeteFedRec(tiny_dataset.num_items, tiny_clients, base_cfg)
        b = HeteFedRec(tiny_dataset.num_items, tiny_clients, private_cfg)
        a.run_epoch(1)
        b.run_epoch(1)
        assert np.allclose(
            a.models["l"].item_embedding.weight.data,
            b.models["l"].item_embedding.weight.data,
        )


@pytest.mark.parametrize("protection", ["clip", "noise", "topk", "quantize"])
def test_float32_uploads_stay_float32(protection, tiny_dataset, tiny_clients):
    """Protection and compression keep the trained dtype: every array a
    float32 client uploads is float32, the Gaussian head noise and both
    codecs (which compute in float64) included."""
    from repro.compression.codecs import CompressionConfig

    options = {
        "clip": dict(privacy=PrivacyConfig(clip_norm=0.5)),
        "noise": dict(privacy=PrivacyConfig(clip_norm=0.5, noise_std=0.1)),
        "topk": dict(compression=CompressionConfig(kind="topk", ratio=0.3)),
        "quantize": dict(compression=CompressionConfig(kind="quantize", bits=4)),
    }[protection]
    trainer = HeteFedRec(
        tiny_dataset.num_items,
        tiny_clients,
        HeteFedRecConfig(
            dims={"s": 4, "m": 6, "l": 8}, epochs=1, clients_per_round=12,
            local_epochs=1, dtype="float32", **options,
        ),
    )
    updates = trainer._train_clients([client.user_id for client in tiny_clients[:12]])
    for update in updates:
        assert update.embedding_delta.values.dtype == np.float32
        for state in update.head_deltas.values():
            for name, values in state.items():
                assert values.dtype == np.float32, (update.user_id, name)
