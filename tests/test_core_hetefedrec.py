"""Tests for the HeteFedRec trainer (Algorithm 1) and its ablation flags."""

import numpy as np
import pytest
import reference_trainer
from reference_trainer import tape_scores

from repro.core import HeteFedRec, HeteFedRecConfig
from repro.core.grouping import group_counts
from repro.nn.module import Parameter


def config(**overrides):
    base = dict(
        arch="ncf",
        dims={"s": 4, "m": 6, "l": 8},
        epochs=1,
        clients_per_round=32,
        local_epochs=1,
        lr=0.01,
        seed=0,
    )
    base.update(overrides)
    return HeteFedRecConfig(**base)


@pytest.fixture()
def trainer(tiny_dataset, tiny_clients):
    return HeteFedRec(tiny_dataset.num_items, tiny_clients, config())


class TestConstruction:
    def test_automatic_division(self, trainer, tiny_clients):
        counts = group_counts(trainer.group_of)
        assert sum(counts.values()) == len(tiny_clients)
        assert counts["s"] > counts["l"]

    def test_explicit_division_respected(self, tiny_dataset, tiny_clients):
        group_of = {c.user_id: "m" for c in tiny_clients}
        trainer = HeteFedRec(
            tiny_dataset.num_items, tiny_clients, config(), group_of=group_of
        )
        assert trainer.groups == ["m"]


class TestUDLWiring:
    def test_head_groups_with_udl(self, trainer):
        assert trainer.trained_head_groups("s") == ["s"]
        assert trainer.trained_head_groups("m") == ["s", "m"]
        assert trainer.trained_head_groups("l") == ["s", "m", "l"]

    def test_head_groups_without_udl(self, tiny_dataset, tiny_clients):
        trainer = HeteFedRec(
            tiny_dataset.num_items, tiny_clients, config(enable_udl=False)
        )
        assert trainer.trained_head_groups("l") == ["l"]

    def test_large_client_uploads_all_heads(self, trainer):
        large_users = [u for u, g in trainer.group_of.items() if g == "l"]
        (update,) = trainer._train_clients(large_users[:1])
        assert set(update.head_deltas) == {"s", "m", "l"}

    def test_small_client_uploads_one_head(self, trainer):
        small_users = [u for u, g in trainer.group_of.items() if g == "s"]
        (update,) = trainer._train_clients(small_users[:1])
        assert set(update.head_deltas) == {"s"}


def oracle_loss(trainer, user, negative_ratio=1):
    """The per-client reference loss of ``user`` on a fresh batch, with
    this round's DDR rows drawn the way the round engine draws them."""
    runtime = trainer.runtimes[user]
    batch = runtime.sample_batch(negative_ratio)
    loss = reference_trainer.client_loss(
        trainer,
        runtime,
        Parameter(runtime.user_embedding),
        batch,
        trainer.presample_ddr_rows([user]),
    )
    return float(loss.data)


class TestDDRWiring:
    def test_ddr_changes_large_client_loss(self, tiny_dataset, tiny_clients):
        with_ddr = HeteFedRec(tiny_dataset.num_items, tiny_clients, config(alpha=5.0))
        without = HeteFedRec(
            tiny_dataset.num_items, tiny_clients, config(enable_ddr=False)
        )
        user = next(u for u, g in with_ddr.group_of.items() if g == "l")
        assert oracle_loss(with_ddr, user) > oracle_loss(without, user)

    def test_ddr_not_applied_to_small_clients(self, trainer):
        """Paper Eq. 14 adds the penalty to L_m and L_l only."""
        user = next(u for u, g in trainer.group_of.items() if g == "s")
        base = HeteFedRec(trainer.num_items, trainer.clients, config(enable_ddr=False))
        assert user not in trainer.presample_ddr_rows([user])
        assert oracle_loss(trainer, user) == pytest.approx(oracle_loss(base, user))

    def test_collapse_diagnostics_keys(self, trainer):
        diag = trainer.collapse_diagnostics()
        assert set(diag) == {"s", "m", "l"}
        assert all(np.isfinite(v) for v in diag.values())


class TestRESKDWiring:
    def test_reskd_moves_tables_after_aggregation(self, tiny_dataset, tiny_clients):
        trainer = HeteFedRec(
            tiny_dataset.num_items,
            tiny_clients,
            config(enable_udl=False, enable_ddr=False),
        )
        before = trainer.models["l"].item_embedding.weight.data.copy()
        trainer.post_aggregate(1)
        after = trainer.models["l"].item_embedding.weight.data
        assert not np.allclose(before, after)

    def test_disabled_reskd_is_noop(self, tiny_dataset, tiny_clients):
        trainer = HeteFedRec(
            tiny_dataset.num_items, tiny_clients, config(enable_reskd=False)
        )
        before = trainer.models["l"].item_embedding.weight.data.copy()
        trainer.post_aggregate(1)
        assert np.array_equal(
            before, trainer.models["l"].item_embedding.weight.data
        )

    def test_nesting_holds_without_reskd_only(self, tiny_dataset, tiny_clients):
        """Padding aggregation preserves Eq. 10; RESKD (which updates each
        table independently) intentionally relaxes it."""
        no_kd = HeteFedRec(
            tiny_dataset.num_items, tiny_clients, config(enable_reskd=False)
        )
        no_kd.run_epoch(1)
        vs = no_kd.models["s"].item_embedding.weight.data
        vl = no_kd.models["l"].item_embedding.weight.data
        assert np.allclose(vs, vl[:, :4], atol=1e-12)

        with_kd = HeteFedRec(tiny_dataset.num_items, tiny_clients, config())
        with_kd.run_epoch(1)
        vs = with_kd.models["s"].item_embedding.weight.data
        vl = with_kd.models["l"].item_embedding.weight.data
        assert not np.allclose(vs, vl[:, :4], atol=1e-12)


class TestAblationEquivalence:
    def test_all_off_equals_directly_aggregate(self, tiny_dataset, tiny_clients):
        """Removing UDL+DDR+RESKD must reproduce Directly Aggregate exactly
        (same seeds → same trained parameters)."""
        from repro.baselines.direct import DirectAggregateTrainer

        stripped = HeteFedRec(
            tiny_dataset.num_items,
            tiny_clients,
            config(enable_udl=False, enable_ddr=False, enable_reskd=False),
        )
        direct = DirectAggregateTrainer(
            tiny_dataset.num_items, tiny_clients, config()
        )
        stripped.run_epoch(1)
        direct.run_epoch(1)
        for group in ("s", "m", "l"):
            assert np.allclose(
                stripped.models[group].item_embedding.weight.data,
                direct.models[group].item_embedding.weight.data,
            )

    def test_ablation_names(self):
        assert config().ablation_name() == "HeteFedRec"
        assert config(enable_reskd=False).ablation_name() == "HeteFedRec - RESKD"
        assert (
            config(enable_reskd=False, enable_ddr=False, enable_udl=False).ablation_name()
            == "HeteFedRec - RESKD,DDR,UDL"
        )


class TestEndToEnd:
    def test_one_epoch_trains_and_scores(self, trainer, tiny_clients):
        loss = trainer.run_epoch(1)
        assert loss > 0
        scores = tape_scores(trainer, tiny_clients[0])
        assert scores.shape == (trainer.num_items,)

    def test_lightgcn_variant(self, tiny_dataset, tiny_clients):
        trainer = HeteFedRec(
            tiny_dataset.num_items, tiny_clients, config(arch="lightgcn")
        )
        loss = trainer.run_epoch(1)
        assert np.isfinite(loss)
