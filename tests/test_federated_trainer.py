"""Integration-level tests of the federated training loop."""

import numpy as np
import pytest
from reference_trainer import tape_scores

from repro.core.grouping import divide_clients, homogeneous_assignment
from repro.federated.trainer import FederatedConfig, FederatedTrainer
from repro.eval.evaluator import Evaluator


def small_config(**overrides):
    base = dict(
        arch="ncf",
        dims={"s": 4, "m": 6, "l": 8},
        epochs=1,
        clients_per_round=16,
        local_epochs=1,
        lr=0.01,
        seed=0,
    )
    base.update(overrides)
    return FederatedConfig(**base)


@pytest.fixture()
def hetero_trainer(tiny_dataset, tiny_clients):
    group_of = divide_clients(tiny_clients)
    return FederatedTrainer(
        tiny_dataset.num_items, tiny_clients, group_of, small_config()
    )


@pytest.fixture()
def homog_trainer(tiny_dataset, tiny_clients):
    config = small_config(dims={"all": 6})
    group_of = homogeneous_assignment(tiny_clients, group="all")
    return FederatedTrainer(tiny_dataset.num_items, tiny_clients, group_of, config)


class TestConstruction:
    def test_groups_sorted_by_width(self, hetero_trainer):
        assert hetero_trainer.groups == ["s", "m", "l"]

    def test_nested_initialisation(self, hetero_trainer):
        vs = hetero_trainer.models["s"].item_embedding.weight.data
        vm = hetero_trainer.models["m"].item_embedding.weight.data
        vl = hetero_trainer.models["l"].item_embedding.weight.data
        assert np.array_equal(vs, vm[:, :4])
        assert np.array_equal(vm, vl[:, :6])

    def test_runtime_dims_match_groups(self, hetero_trainer):
        for user, group in hetero_trainer.group_of.items():
            runtime = hetero_trainer.runtimes[user]
            assert runtime.embedding_dim == hetero_trainer.config.dims[group]

    def test_missing_group_assignment_rejected(self, tiny_dataset, tiny_clients):
        with pytest.raises(KeyError):
            FederatedTrainer(tiny_dataset.num_items, tiny_clients, {}, small_config())


class TestLocalTraining:
    def test_globals_unchanged_by_single_client(self, homog_trainer):
        """A client session must not leak into global state before
        aggregation — all clients in a round start from one snapshot."""
        before = {g: m.state_dict() for g, m in homog_trainer.models.items()}
        runtime = next(iter(homog_trainer.runtimes.values()))
        homog_trainer._train_clients([runtime.user_id])
        for group, state in before.items():
            after = homog_trainer.models[group].state_dict()
            for key in state:
                assert np.array_equal(state[key], after[key]), key

    def test_update_has_movement(self, homog_trainer):
        runtime = next(iter(homog_trainer.runtimes.values()))
        (update,) = homog_trainer._train_clients([runtime.user_id])
        assert np.abs(update.embedding_delta).sum() > 0
        assert update.train_loss > 0
        assert update.num_examples > 0

    def test_user_embedding_updated_locally(self, homog_trainer):
        runtime = next(iter(homog_trainer.runtimes.values()))
        before = runtime.user_embedding.copy()
        homog_trainer._train_clients([runtime.user_id])
        assert not np.allclose(runtime.user_embedding, before)

    def test_embedding_delta_sparse_on_untouched_items(self, homog_trainer):
        """Only items in the client's batch can receive updates."""
        runtime = next(iter(homog_trainer.runtimes.values()))
        (update,) = homog_trainer._train_clients([runtime.user_id])
        moved_rows = np.abs(update.embedding_delta).sum(axis=1) > 0
        # Strictly fewer rows moved than the catalogue (client data sparse).
        assert moved_rows.sum() < homog_trainer.num_items


class TestAggregation:
    def test_apply_updates_moves_globals(self, homog_trainer):
        users = list(homog_trainer.runtimes)[:4]
        before = homog_trainer.models["all"].item_embedding.weight.data.copy()
        updates = homog_trainer._train_clients(users)
        homog_trainer.apply_updates(updates)
        after = homog_trainer.models["all"].item_embedding.weight.data
        assert not np.allclose(before, after)

    def test_sum_mode_is_additive(self, homog_trainer):
        users = list(homog_trainer.runtimes)[:2]
        updates = homog_trainer._train_clients(users)
        before = homog_trainer.models["all"].item_embedding.weight.data.copy()
        homog_trainer.apply_updates(updates)
        after = homog_trainer.models["all"].item_embedding.weight.data
        expected = before + sum(u.embedding_delta for u in updates)
        assert np.allclose(after, expected)

    def test_excluded_uploaders_are_dropped(self, tiny_dataset, tiny_clients):
        excluded = {c.user_id for c in tiny_clients}
        trainer = FederatedTrainer(
            tiny_dataset.num_items,
            tiny_clients,
            homogeneous_assignment(tiny_clients, "all"),
            small_config(dims={"all": 4}),
            excluded_uploaders=excluded,
        )
        before = trainer.models["all"].item_embedding.weight.data.copy()
        trainer.run_epoch(1)
        after = trainer.models["all"].item_embedding.weight.data
        assert np.allclose(before, after)  # every update rejected

    def test_nesting_invariant_preserved_over_rounds(self, hetero_trainer):
        """Eq. 10: padding aggregation keeps V_s = V_m[:, :Ns] = V_l[:, :Ns]."""
        hetero_trainer.run_epoch(1)
        hetero_trainer.run_epoch(2)
        vs = hetero_trainer.models["s"].item_embedding.weight.data
        vm = hetero_trainer.models["m"].item_embedding.weight.data
        vl = hetero_trainer.models["l"].item_embedding.weight.data
        assert np.allclose(vs, vm[:, :4], atol=1e-12)
        assert np.allclose(vm, vl[:, :6], atol=1e-12)


class TestFit:
    def test_history_and_eval(self, tiny_dataset, tiny_clients, homog_trainer):
        evaluator = Evaluator(tiny_clients, k=5)
        history = homog_trainer.fit(evaluator)
        assert len(history.records) == homog_trainer.config.epochs
        assert history.final().ndcg is not None

    def test_communication_recorded(self, homog_trainer):
        homog_trainer.run_epoch(1)
        assert homog_trainer.meter.client_rounds == len(homog_trainer.clients)
        expected_download = (
            homog_trainer.num_items * 6
            + homog_trainer.models["all"].head.parameter_count()
        )
        # The download always ships the dense public parameters; the
        # upload is row-sparse — a client only pays for the item rows it
        # touched, id + values each — so it is strictly cheaper than the
        # dense table but still carries every head scalar.
        assert homog_trainer.meter.total_download == expected_download * len(
            homog_trainer.clients
        )
        head_size = homog_trainer.models["all"].head.parameter_count()
        per_client_upload = (
            homog_trainer.meter.total_upload / homog_trainer.meter.client_rounds
        )
        assert head_size < per_client_upload < expected_download

    def test_score_all_items_shape(self, homog_trainer, tiny_clients):
        scores = tape_scores(homog_trainer, tiny_clients[0])
        assert scores.shape == (homog_trainer.num_items,)
        assert np.all(np.isfinite(scores))

    def test_group_sizes(self, hetero_trainer, tiny_clients):
        sizes = hetero_trainer.group_sizes()
        assert sum(sizes.values()) == len(tiny_clients)
        assert sizes["s"] >= sizes["l"]  # 5:3:2 division

    def test_public_parameter_counts(self, hetero_trainer):
        counts = hetero_trainer.public_parameter_counts()
        assert counts["s"] < counts["m"] < counts["l"]
