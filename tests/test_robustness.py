"""Tests for the poisoning attacks, robust aggregators, and the trainer's
``attack`` / ``defense`` config features."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import HeteFedRecConfig
from repro.federated.aggregation import padded_embedding_aggregate
from repro.federated.payload import ClientUpdate
from repro.robustness import (
    AttackConfig,
    RobustAggregationConfig,
    choose_malicious,
    krum_select,
    poison_update,
    robust_embedding_aggregate,
    server_clip_updates,
)
from repro.robustness import defenses
from repro.robustness.attacks import TARGET_ITEM

DIMS = {"s": 2, "m": 3, "l": 4}


def honest_update(user_id=0, group="s", rows=10, seed=0, touched=(0, 1, 2)):
    rng = np.random.default_rng(seed)
    delta = np.zeros((rows, DIMS[group]))
    for row in touched:
        delta[row] = rng.normal(0, 0.1, size=DIMS[group])
    return ClientUpdate(
        user_id=user_id,
        group=group,
        embedding_delta=delta,
        head_deltas={group: {"w": rng.normal(0, 0.1, size=(3, 2))}},
    )


class TestAttackConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AttackConfig(kind="ddos")
        with pytest.raises(ValueError):
            AttackConfig(fraction=1.5)
        with pytest.raises(ValueError):
            AttackConfig(scale=0.0)


class TestChooseMalicious:
    def test_fraction_respected(self, tiny_clients):
        malicious = choose_malicious(tiny_clients, 0.25, seed=1)
        assert len(malicious) == round(len(tiny_clients) * 0.25)

    def test_zero_fraction_empty(self, tiny_clients):
        assert choose_malicious(tiny_clients, 0.0) == set()

    def test_deterministic_per_seed(self, tiny_clients):
        assert choose_malicious(tiny_clients, 0.2, seed=5) == choose_malicious(
            tiny_clients, 0.2, seed=5
        )
        assert choose_malicious(tiny_clients, 0.2, seed=5) != choose_malicious(
            tiny_clients, 0.2, seed=6
        )


class TestPoisonUpdate:
    def test_signflip_negates_and_scales(self):
        update = honest_update(seed=1)
        poisoned = poison_update(update, AttackConfig(kind="signflip", scale=5.0),
                                 np.random.default_rng(0))
        assert np.allclose(poisoned.embedding_delta, -5.0 * update.embedding_delta)
        assert np.allclose(
            poisoned.head_deltas["s"]["w"], -5.0 * update.head_deltas["s"]["w"]
        )

    def test_noise_replaces_payload(self):
        update = honest_update(seed=2)
        poisoned = poison_update(update, AttackConfig(kind="noise", scale=10.0),
                                 np.random.default_rng(0))
        # Garbage over the *same* touched rows: the attacker controls its
        # values, not its wire format.
        honest, garbage = update.embedding_delta, poisoned.embedding_delta
        assert np.array_equal(garbage.rows, honest.rows)
        assert np.abs(garbage.values).mean() > 3 * np.abs(honest.values).mean()
        assert not np.allclose(
            poisoned.head_deltas["s"]["w"], update.head_deltas["s"]["w"]
        )

    def test_promote_boosts_target_row(self):
        update = honest_update(seed=3, touched=(1, 2, 3))
        config = AttackConfig(kind="promote", scale=10.0)
        poisoned = poison_update(update, config, np.random.default_rng(0))
        target_norm = np.linalg.norm(poisoned.embedding_delta.dense()[TARGET_ITEM])
        honest_norms = np.linalg.norm(update.embedding_delta.dense()[[1, 2, 3]], axis=1)
        # The crafted row is exactly scale × the typical honest row norm.
        assert np.isclose(target_norm, 10.0 * honest_norms.mean())
        assert target_norm > honest_norms.max()

    def test_promote_preserves_metadata(self):
        update = honest_update(user_id=42, group="m", seed=4)
        poisoned = poison_update(
            update, AttackConfig(kind="promote"),
            np.random.default_rng(0),
        )
        assert poisoned.user_id == 42 and poisoned.group == "m"
        assert poisoned.embedding_delta.shape == update.embedding_delta.shape

    @pytest.mark.parametrize("kind", ["noise", "signflip", "promote"])
    def test_poisoning_keeps_the_metered_wire_cost(self, kind):
        """Poisoning runs on the finished (compressed, metered) upload:
        the compressed-size override must survive every attack."""
        from repro.compression.client import ClientCompressor
        from repro.compression.codecs import CompressionConfig

        honest = honest_update(seed=5)
        compressed = ClientCompressor(
            CompressionConfig(kind="topk", ratio=0.25)
        ).apply(honest)
        assert compressed.upload_size < honest.upload_size
        poisoned = poison_update(
            compressed, AttackConfig(kind=kind),
            np.random.default_rng(0),
        )
        assert poisoned.upload_size == compressed.upload_size

    def test_promote_with_empty_support_still_works(self):
        update = ClientUpdate(
            user_id=0, group="s", embedding_delta=np.zeros((5, 2)), head_deltas={}
        )
        poisoned = poison_update(
            update, AttackConfig(kind="promote"),
            np.random.default_rng(0),
        )
        assert np.linalg.norm(poisoned.embedding_delta.dense()[TARGET_ITEM]) > 0


class TestServerClip:
    def test_outlier_norm_bounded(self):
        honest = [honest_update(user_id=i, seed=i) for i in range(5)]
        attacker = honest_update(user_id=99, seed=99).scaled(1000.0)
        everyone = honest + [attacker]
        clipped = server_clip_updates(everyone, headroom=3.0)
        norms = [np.linalg.norm(u.embedding_delta) for u in clipped]
        # The bound is headroom × the median over the *round* (attacker included).
        bound = np.median([np.linalg.norm(u.embedding_delta) for u in everyone]) * 3.0
        assert max(norms) <= bound * 1.01
        # The attacker's 1000× amplification is gone.
        attacker_norm = np.linalg.norm(clipped[-1].embedding_delta)
        assert attacker_norm < 0.01 * np.linalg.norm(attacker.embedding_delta)

    def test_honest_updates_untouched(self):
        honest = [honest_update(user_id=i, seed=i) for i in range(5)]
        clipped = server_clip_updates(honest, headroom=3.0)
        for before, after in zip(honest, clipped):
            assert after is before

    def test_empty_round(self):
        assert server_clip_updates([]) == []


class TestRobustEmbeddingAggregate:
    def test_honest_only_close_to_plain_sum(self):
        """With identical honest updates, median·count equals the sum."""
        updates = [honest_update(user_id=i, seed=7) for i in range(5)]
        robust = robust_embedding_aggregate(updates, DIMS, kind="median")
        plain = padded_embedding_aggregate(updates, DIMS)
        assert np.allclose(robust["l"], plain["l"])

    def test_median_resists_minority_outlier(self):
        honest = [honest_update(user_id=i, seed=7) for i in range(4)]
        attacker = honest_update(user_id=9, seed=7).scaled(-100.0)
        robust = robust_embedding_aggregate(honest + [attacker], DIMS, kind="median")
        clean = padded_embedding_aggregate(honest, DIMS)
        # Median of 5 values with 1 outlier is an honest value; scaled by 5
        # contributors instead of 4, so compare directions not magnitudes.
        honest_dir = clean["s"][0] / np.linalg.norm(clean["s"][0])
        robust_dir = robust["s"][0] / np.linalg.norm(robust["s"][0])
        assert np.dot(honest_dir, robust_dir) > 0.99

    def test_trimmed_mean_resists_outliers_both_tails(self):
        honest = [honest_update(user_id=i, seed=7) for i in range(6)]
        low = honest_update(user_id=90, seed=7).scaled(-50.0)
        high = honest_update(user_id=91, seed=7).scaled(50.0)
        robust = robust_embedding_aggregate(
            honest + [low, high], DIMS, kind="trimmed_mean"
        )
        clean = padded_embedding_aggregate(honest, DIMS)
        honest_dir = clean["s"][0] / np.linalg.norm(clean["s"][0])
        robust_dir = robust["s"][0] / np.linalg.norm(robust["s"][0])
        assert np.dot(honest_dir, robust_dir) > 0.99

    def test_untouched_rows_stay_zero(self):
        updates = [honest_update(user_id=i, seed=i, touched=(0, 1)) for i in range(3)]
        robust = robust_embedding_aggregate(updates, DIMS, kind="median")
        assert np.allclose(robust["l"][5:], 0.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            robust_embedding_aggregate([honest_update()], DIMS, kind="mode")

    def test_empty_round(self):
        assert robust_embedding_aggregate([], DIMS) == {}


class TestKrum:
    def test_outlier_dropped(self):
        honest = [honest_update(user_id=i, seed=7, touched=(0, 1, 2)) for i in range(6)]
        # A noise attacker is geometrically far from the honest cluster.
        attacker = poison_update(
            honest_update(user_id=99, seed=99, touched=(0, 1, 2)),
            AttackConfig(kind="noise", scale=50.0),
            np.random.default_rng(3),
        )
        survivors = krum_select(honest + [attacker], DIMS)
        assert all(u.user_id != 99 for u in survivors)

    def test_keep_fraction_respected(self, monkeypatch):
        monkeypatch.setattr(defenses, "KRUM_KEEP", 0.5)
        updates = [honest_update(user_id=i, seed=i) for i in range(10)]
        survivors = krum_select(updates, DIMS)
        assert len(survivors) == 5

    def test_tiny_rounds_pass_through(self):
        updates = [honest_update(user_id=i) for i in range(2)]
        assert krum_select(updates, DIMS) == updates

    @given(keep=st.floats(min_value=0.1, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_survivors_are_subset_in_order(self, keep):
        updates = [honest_update(user_id=i, seed=i) for i in range(8)]
        with mock.patch.object(defenses, "KRUM_KEEP", keep):
            survivors = krum_select(updates, DIMS)
        ids = [u.user_id for u in survivors]
        assert ids == sorted(ids)
        assert set(ids) <= set(range(8))


class TestDefenseConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RobustAggregationConfig(kind="firewall")
        with pytest.raises(ValueError):
            RobustAggregationConfig(clip_headroom=-1)


class TestAdversarialHarness:
    """Poisoning and robust aggregation ride any trainer through
    ``FederatedConfig.attack`` / ``.defense``."""

    def _config(self, **overrides):
        defaults = dict(epochs=1, clients_per_round=16, local_epochs=2, seed=3)
        defaults.update(overrides)
        return HeteFedRecConfig(**defaults)

    def _build(self, dataset, clients, **overrides):
        from repro.core.hetefedrec import HeteFedRec

        return HeteFedRec(dataset.num_items, clients, self._config(**overrides))

    def test_clean_run_matches_hetefedrec(self, tiny_dataset, tiny_clients):
        clean = self._build(tiny_dataset, tiny_clients)
        adversarial = self._build(tiny_dataset, tiny_clients, attack=None)
        clean.fit()
        adversarial.fit()
        for group in clean.groups:
            assert np.allclose(
                clean.models[group].item_embedding.weight.data,
                adversarial.models[group].item_embedding.weight.data,
            )

    def test_attack_degrades_training(self, tiny_dataset, tiny_clients):
        attacked = self._build(
            tiny_dataset,
            tiny_clients,
            attack=AttackConfig(kind="signflip", fraction=0.3, scale=20.0),
        )
        attacked.fit()
        # The attack must have registered some malicious population.
        assert len(attacked.malicious) == round(len(tiny_clients) * 0.3)
        assert attacked.config.attack.kind == "signflip"
        assert attacked.config.defense is None

    def test_clip_defense_bounds_damage(self, tiny_dataset, tiny_clients):
        """Under a scale attack, clipping must keep the model closer to the
        clean one than no defence does."""
        clean = self._build(tiny_dataset, tiny_clients)
        clean.fit()
        attack = AttackConfig(kind="signflip", fraction=0.2, scale=50.0, seed=1)
        undefended = self._build(tiny_dataset, tiny_clients, attack=attack)
        defended = self._build(
            tiny_dataset,
            tiny_clients,
            attack=attack,
            defense=RobustAggregationConfig(kind="clip", clip_headroom=2.0),
        )
        undefended.fit()
        defended.fit()
        reference = clean.models["l"].item_embedding.weight.data

        def distance(trainer):
            return float(
                np.linalg.norm(
                    trainer.models["l"].item_embedding.weight.data - reference
                )
            )

        assert distance(defended) < distance(undefended)

    def test_defense_with_secure_aggregation_rejected(self, tiny_dataset, tiny_clients):
        from repro.federated.secure_agg import SecureAggregationConfig

        with pytest.raises(ValueError):
            self._build(
                tiny_dataset,
                tiny_clients,
                secure_aggregation=SecureAggregationConfig(),
                attack=AttackConfig(),
                defense=RobustAggregationConfig(kind="median"),
            )

    @pytest.mark.parametrize("kind", ["median", "trimmed_mean"])
    def test_row_defense_with_custom_aggregation_rejected(
        self, kind, tiny_dataset, tiny_clients
    ):
        """A median / trimmed-mean defense replaces the padded sum, so a
        trainer with its own embedding aggregation (Clustered) is refused
        the way secure aggregation refuses it; the upload-level defences
        leave aggregation alone and are accepted."""
        from repro.baselines.registry import build_method

        def build(defense):
            return build_method(
                "clustered", tiny_dataset.num_items, tiny_clients,
                self._config(defense=defense),
            )

        with pytest.raises(ValueError, match=f"{kind} defense"):
            build(RobustAggregationConfig(kind=kind))
        for accepted in ("clip", "krum"):
            build(RobustAggregationConfig(kind=accepted))

    @pytest.mark.parametrize("kind", ["median", "trimmed_mean", "krum"])
    def test_every_defense_trains_finite(self, kind, tiny_dataset, tiny_clients):
        trainer = self._build(
            tiny_dataset,
            tiny_clients,
            attack=AttackConfig(kind="noise", fraction=0.2, scale=5.0),
            defense=RobustAggregationConfig(kind=kind),
        )
        trainer.fit()
        for model in trainer.models.values():
            assert np.all(np.isfinite(model.item_embedding.weight.data))

    def test_honest_clients_listed(self, tiny_dataset, tiny_clients):
        trainer = self._build(
            tiny_dataset, tiny_clients, attack=AttackConfig(fraction=0.25, seed=2)
        )
        honest = set(trainer.honest_clients())
        assert honest.isdisjoint(trainer.malicious)
        assert len(honest) + len(trainer.malicious) == len(tiny_clients)

    def test_evaluation_scores_honest_clients_only(self, tiny_dataset, tiny_clients):
        from repro.eval.evaluator import Evaluator

        trainer = self._build(
            tiny_dataset, tiny_clients, attack=AttackConfig(fraction=0.25, seed=2)
        )
        evaluator = Evaluator(tiny_clients)
        scored = set(trainer.evaluate_with(evaluator).evaluated_users.tolist())
        assert scored and scored.isdisjoint(trainer.malicious)
        everyone = trainer.evaluate_with(
            evaluator, user_subset=[c.user_id for c in tiny_clients]
        )
        assert set(everyone.evaluated_users.tolist()) & trainer.malicious


class TestAttackRngCheckpoint:
    """The poison stream must survive checkpoint/resume bitwise.

    A trainer under ``config.attack`` owns ``_attack_rng``; left out of
    ``_checkpoint_rngs``, a resumed attack run would replay fresh noise
    and silently diverge from the uninterrupted one — exactly the defect
    class the ``rng-registration`` lint rule catches at diff time.
    """

    def _attack(self):
        # "noise" draws from the rng every poisoned upload, so stream
        # position is observable in the aggregated tables.
        return AttackConfig(kind="noise", fraction=0.3, scale=2.0, seed=1)

    def _config(self, epochs):
        return HeteFedRecConfig(
            epochs=epochs, clients_per_round=16, local_epochs=1, seed=3,
            attack=self._attack(),
        )

    def _build(self, dataset, clients, epochs):
        from repro.core.hetefedrec import HeteFedRec

        return HeteFedRec(dataset.num_items, clients, self._config(epochs))

    def test_attack_stream_is_registered(self, tiny_dataset, tiny_clients):
        trainer = self._build(tiny_dataset, tiny_clients, epochs=1)
        rngs = trainer._checkpoint_rngs()
        assert rngs["attack"] is trainer._attack_rng
        # Without an attack there is no stream: a plain run's manifest
        # carries the same streams as before the config field existed.
        from repro.core.hetefedrec import HeteFedRec

        plain = HeteFedRec(
            tiny_dataset.num_items, tiny_clients,
            self._config(epochs=1).copy_with(attack=None),
        )
        assert "attack" not in plain._checkpoint_rngs()

    def test_bitwise_resume_under_attack(self, tiny_dataset, tiny_clients, tmp_path):
        from repro.federated.checkpoint import (
            load_checkpoint_impl,
            save_checkpoint_impl,
        )

        full = self._build(tiny_dataset, tiny_clients, epochs=2)
        full.fit()

        first = self._build(tiny_dataset, tiny_clients, epochs=1)
        first.fit()
        path = str(tmp_path / "attack_ckpt.npz")
        save_checkpoint_impl(first, path)

        resumed = self._build(tiny_dataset, tiny_clients, epochs=2)
        load_checkpoint_impl(resumed, path)
        assert resumed.epochs_completed == 1
        resumed.fit()

        for group in full.groups:
            state_a = full.models[group].state_dict()
            state_b = resumed.models[group].state_dict()
            for key in state_a:
                assert np.array_equal(state_a[key], state_b[key]), (group, key)
