"""Tests for the offline/straggler availability simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import HeteFedRecConfig
from repro.core.hetefedrec import HeteFedRec
from repro.federated.availability import (
    OFFLINE,
    OK,
    STRAGGLER,
    AvailabilityConfig,
    StragglerBuffer,
    client_fate,
    merge_duplicate_users,
    split_round,
)
from repro.federated.payload import ClientUpdate


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AvailabilityConfig(offline_rate=1.0)
        with pytest.raises(ValueError):
            AvailabilityConfig(straggler_rate=-0.1)
        with pytest.raises(ValueError):
            AvailabilityConfig(offline_rate=0.6, straggler_rate=0.5)

    def test_enabled_flag(self):
        assert not AvailabilityConfig(offline_rate=0.0, straggler_rate=0.0).enabled
        assert AvailabilityConfig(offline_rate=0.1, straggler_rate=0.0).enabled


class TestClientFate:
    def test_deterministic(self):
        config = AvailabilityConfig(offline_rate=0.3, straggler_rate=0.3)
        assert client_fate(config, 1, 2, 3) == client_fate(config, 1, 2, 3)

    def test_varies_with_round(self):
        config = AvailabilityConfig(offline_rate=0.45, straggler_rate=0.45)
        fates = {client_fate(config, 1, r, 7) for r in range(30)}
        assert len(fates) >= 2

    def test_rates_respected_statistically(self):
        config = AvailabilityConfig(offline_rate=0.2, straggler_rate=0.1, seed=1)
        fates = [client_fate(config, e, 0, u) for e in range(40) for u in range(100)]
        offline = fates.count(OFFLINE) / len(fates)
        straggler = fates.count(STRAGGLER) / len(fates)
        assert abs(offline - 0.2) < 0.03
        assert abs(straggler - 0.1) < 0.03

    def test_zero_rates_always_ok(self):
        config = AvailabilityConfig(offline_rate=0.0, straggler_rate=0.0)
        assert all(client_fate(config, e, 0, u) == OK
                   for e in range(5) for u in range(50))


class TestSplitRound:
    def test_partition_complete_and_disjoint(self):
        config = AvailabilityConfig(offline_rate=0.3, straggler_rate=0.3, seed=2)
        users = list(range(200))
        on_time, stragglers, offline = split_round(config, 0, 0, users)
        assert sorted(on_time + stragglers + offline) == users
        assert not (set(on_time) & set(stragglers))
        assert not (set(on_time) & set(offline))


def make_update(user_id, value, group="s", heads=True):
    head_deltas = {}
    if heads:
        head_deltas = {group: {"w": np.full((2, 2), float(value))}}
    return ClientUpdate(
        user_id=user_id,
        group=group,
        embedding_delta=np.full((4, 2), float(value)),
        head_deltas=head_deltas,
        num_examples=5,
    )


class TestMergeDuplicateUsers:
    def test_no_duplicates_is_identity(self):
        updates = [make_update(1, 1.0), make_update(2, 2.0)]
        merged = merge_duplicate_users(updates)
        assert [u.user_id for u in merged] == [1, 2]
        assert merged[0] is updates[0]

    def test_duplicates_sum(self):
        merged = merge_duplicate_users([make_update(1, 1.0), make_update(1, 2.0)])
        assert len(merged) == 1
        assert np.allclose(merged[0].embedding_delta, 3.0)
        assert np.allclose(merged[0].head_deltas["s"]["w"], 3.0)
        assert merged[0].num_examples == 10

    def test_order_preserved(self):
        merged = merge_duplicate_users(
            [make_update(5, 1.0), make_update(1, 1.0), make_update(5, 1.0)]
        )
        assert [u.user_id for u in merged] == [5, 1]

    def test_disjoint_heads_union(self):
        a = ClientUpdate(1, "m", np.ones((4, 3)),
                         head_deltas={"s": {"w": np.ones((2, 2))}})
        b = ClientUpdate(1, "m", np.ones((4, 3)),
                         head_deltas={"m": {"w": np.ones((2, 2))}})
        merged = merge_duplicate_users([a, b])[0]
        assert set(merged.head_deltas) == {"s", "m"}

    def test_merged_wire_cost_is_the_sum_of_both_uploads(self):
        """Two uploads really crossed the wire (buffered straggler + fresh
        one); recomputing the size from the merged union under-counts."""
        from repro.federated.payload import SparseRowDelta

        a = ClientUpdate(
            1, "s",
            SparseRowDelta(10, np.array([0, 1, 2]), np.ones((3, 2))),
            num_examples=4,
        )
        b = ClientUpdate(
            1, "s",
            SparseRowDelta(10, np.array([1, 2, 3]), np.ones((3, 2))),
            num_examples=4,
        )
        merged = merge_duplicate_users([a, b])[0]
        # Overlapping rows: the union covers 4 rows (12 scalars on the
        # wire by recomputation) but 6 row-uploads actually happened.
        assert merged.upload_size == a.upload_size + b.upload_size
        assert merged.upload_size > SparseRowDelta(
            10, np.array([0, 1, 2, 3]), np.ones((4, 2))
        ).wire_size

    def test_merged_wire_cost_keeps_compression_overrides(self):
        a = make_update(1, 1.0)
        b = make_update(1, 2.0)
        b.upload_size_override = 3.0  # compressed upload's true cost
        merged = merge_duplicate_users([a, b])[0]
        assert merged.upload_size == a.upload_size + 3.0

    def test_merged_train_loss_is_example_weighted(self):
        a = make_update(1, 1.0)
        b = make_update(2, 2.0)  # different user: untouched
        c = make_update(1, 3.0)
        a.num_examples, a.train_loss = 10, 1.0
        c.num_examples, c.train_loss = 5, 0.4
        merged = merge_duplicate_users([a, b, c])
        assert merged[0].train_loss == pytest.approx((10 * 1.0 + 5 * 0.4) / 15)
        assert merged[1].train_loss == b.train_loss

    def test_merged_train_loss_with_zero_examples(self):
        a = make_update(1, 1.0)
        b = make_update(1, 2.0)
        a.num_examples = b.num_examples = 0
        a.train_loss, b.train_loss = 0.7, 0.9
        merged = merge_duplicate_users([a, b])[0]
        assert merged.train_loss == pytest.approx(0.9)


class TestStragglerBuffer:
    def test_scaled_on_add(self):
        buffer = StragglerBuffer(staleness_weight=0.5)
        buffer.add([make_update(1, 2.0)])
        drained = buffer.drain()
        assert np.allclose(drained[0].embedding_delta, 1.0)

    def test_drain_empties(self):
        buffer = StragglerBuffer()
        buffer.add([make_update(1, 1.0)])
        assert len(buffer) == 1
        buffer.drain()
        assert len(buffer) == 0
        assert buffer.drain() == []

    def test_discard_user(self):
        buffer = StragglerBuffer()
        buffer.add([make_update(1, 1.0), make_update(2, 1.0)])
        buffer.discard_user(1)
        assert [u.user_id for u in buffer.drain()] == [2]

    def test_unit_weight_stores_object_untouched(self):
        # The async server's zero-staleness path relies on this for its
        # bitwise sync-mirror contract: no .scaled(1.0) float churn.
        buffer = StragglerBuffer(staleness_weight=0.5)
        update = make_update(1, 2.0)
        buffer.add([update], weight=1.0)
        assert buffer.drain()[0] is update

    def test_per_add_weight_overrides_default(self):
        buffer = StragglerBuffer(staleness_weight=0.5)
        buffer.add([make_update(1, 8.0)], weight=0.25)
        assert np.allclose(buffer.drain()[0].embedding_delta, 2.0)

    def test_tick_ages_without_max_age(self):
        buffer = StragglerBuffer()
        buffer.add([make_update(1, 1.0)])
        for _ in range(5):
            assert buffer.tick() == []
        assert buffer.export_ages() == [5]
        assert buffer.dropped_updates == 0
        assert len(buffer) == 1

    def test_tick_evicts_beyond_max_age(self):
        buffer = StragglerBuffer(max_age_rounds=1)
        old, fresh = make_update(1, 1.0), make_update(2, 1.0)
        buffer.add([old], weight=1.0)
        assert buffer.tick() == []          # age 1 == max: still held
        buffer.add([fresh], weight=1.0)
        evicted = buffer.tick()             # old hits age 2 > max
        assert [u.user_id for u in evicted] == [1]
        assert buffer.dropped_updates == 1
        assert [u.user_id for u in buffer.drain()] == [2]

    def test_max_age_zero_discards_stragglers_outright(self):
        buffer = StragglerBuffer(max_age_rounds=0)
        buffer.add([make_update(1, 1.0), make_update(2, 1.0)])
        assert len(buffer.tick()) == 2
        assert buffer.dropped_updates == 2
        assert buffer.drain() == []

    def test_restore_pending_preserves_eviction_clocks(self):
        buffer = StragglerBuffer(max_age_rounds=2)
        buffer.add([make_update(1, 1.0), make_update(2, 1.0)], weight=1.0)
        buffer.tick()
        buffer.tick()
        restored = StragglerBuffer(max_age_rounds=2)
        restored.restore_pending(buffer.export_pending(), buffer.export_ages())
        # One more round expires both, exactly as without the round-trip.
        assert len(restored.tick()) == 2

    def test_restore_pending_rejects_misaligned_ages(self):
        buffer = StragglerBuffer()
        with pytest.raises(ValueError):
            buffer.restore_pending([make_update(1, 1.0)], ages=[0, 1])


class TestTrainerIntegration:
    def test_training_survives_availability(self, tiny_dataset, tiny_clients):
        config = HeteFedRecConfig(
            epochs=2, clients_per_round=16, local_epochs=1, seed=0,
            availability=AvailabilityConfig(
                offline_rate=0.2, straggler_rate=0.2, seed=3
            ),
        )
        trainer = HeteFedRec(tiny_dataset.num_items, tiny_clients, config)
        history = trainer.fit()
        assert np.isfinite(history.records[-1].train_loss)
        # The nesting invariant holds regardless of who showed up (RESKD on
        # perturbs it, so check the structural property via aggregation by
        # re-running with RESKD off).
        config_no_kd = config.copy_with(enable_reskd=False)
        trainer2 = HeteFedRec(tiny_dataset.num_items, tiny_clients, config_no_kd)
        trainer2.fit()
        v_s = trainer2.models["s"].item_embedding.weight.data
        v_l = trainer2.models["l"].item_embedding.weight.data
        assert np.allclose(v_s, v_l[:, : v_s.shape[1]])

    def test_disabled_availability_matches_baseline(self, tiny_dataset, tiny_clients):
        base = HeteFedRecConfig(epochs=1, clients_per_round=16, local_epochs=1, seed=0)
        with_zero = base.copy_with(
            availability=AvailabilityConfig(offline_rate=0.0, straggler_rate=0.0)
        )
        a = HeteFedRec(tiny_dataset.num_items, tiny_clients, base)
        b = HeteFedRec(tiny_dataset.num_items, tiny_clients, with_zero)
        a.fit()
        b.fit()
        for group in a.groups:
            assert np.allclose(
                a.models[group].item_embedding.weight.data,
                b.models[group].item_embedding.weight.data,
            )

    def test_availability_with_secure_aggregation(self, tiny_dataset, tiny_clients):
        """Stragglers + secure agg: duplicate users are merged pre-masking."""
        from repro.federated.secure_agg import SecureAggregationConfig

        config = HeteFedRecConfig(
            epochs=2, clients_per_round=8, local_epochs=1, seed=0,
            availability=AvailabilityConfig(
                offline_rate=0.1, straggler_rate=0.3, seed=5
            ),
            secure_aggregation=SecureAggregationConfig(),
        )
        trainer = HeteFedRec(tiny_dataset.num_items, tiny_clients, config)
        history = trainer.fit()
        assert np.isfinite(history.records[-1].train_loss)

    def test_max_age_eviction_counts_dropped_updates(
        self, tiny_dataset, tiny_clients
    ):
        """A buffer of max age 0 discards every straggler before it can
        apply — accountably, via ``meter.dropped_updates``."""
        config = HeteFedRecConfig(
            epochs=2, clients_per_round=16, local_epochs=1, seed=0,
            availability=AvailabilityConfig(offline_rate=0.0, straggler_rate=0.4, seed=3),
        )
        trainer = HeteFedRec(tiny_dataset.num_items, tiny_clients, config)
        trainer._straggler_buffer = StragglerBuffer(max_age_rounds=0)
        trainer.fit()
        assert trainer.meter.dropped_updates > 0
        # Only the final round's fresh stragglers may linger (no later
        # round ever ticked them out); nothing older survives max_age 0.
        assert all(age == 0 for age in trainer._straggler_buffer.export_ages())
        state = trainer.meter.export_state()
        assert state["dropped_updates"] == trainer.meter.dropped_updates
