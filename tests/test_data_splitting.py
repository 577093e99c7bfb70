"""Tests for per-user train/valid/test splitting."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import InteractionDataset
from repro.data import splitting
from repro.data.splitting import train_test_split_per_user


class TestSplitInvariants:
    def test_partition_is_exact(self, tiny_dataset, tiny_clients):
        for client, items in zip(tiny_clients, tiny_dataset.user_items):
            combined = np.concatenate(
                [client.train_items, client.valid_items, client.test_items]
            )
            assert np.array_equal(np.sort(combined), np.sort(items))

    def test_no_overlap(self, tiny_clients):
        for client in tiny_clients:
            train = set(client.train_items)
            valid = set(client.valid_items)
            test = set(client.test_items)
            assert not train & valid
            assert not train & test
            assert not valid & test

    def test_every_user_has_training_data(self, tiny_clients):
        assert all(client.num_train >= 1 for client in tiny_clients)

    def test_fractions_roughly_respected(self, tiny_dataset, tiny_clients):
        total = tiny_dataset.num_interactions
        train = sum(c.train_items.size for c in tiny_clients)
        test = sum(c.test_items.size for c in tiny_clients)
        assert 0.6 < train / total < 0.85
        assert 0.1 < test / total < 0.3

    def test_deterministic(self, tiny_dataset):
        a = train_test_split_per_user(tiny_dataset, seed=5)
        b = train_test_split_per_user(tiny_dataset, seed=5)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.train_items, cb.train_items)
            assert np.array_equal(ca.test_items, cb.test_items)

    def test_seed_changes_split(self, tiny_dataset):
        a = train_test_split_per_user(tiny_dataset, seed=5)
        b = train_test_split_per_user(tiny_dataset, seed=6)
        different = any(
            not np.array_equal(ca.train_items, cb.train_items) for ca, cb in zip(a, b)
        )
        assert different


class TestEdgeCases:
    def test_single_interaction_user(self):
        ds = InteractionDataset(1, 5, [np.array([2])])
        clients = train_test_split_per_user(ds)
        assert clients[0].train_items.tolist() == [2]
        assert clients[0].test_items.size == 0

    def test_no_validation(self, tiny_dataset, monkeypatch):
        monkeypatch.setattr(splitting, "VALID_FRACTION", 0.0)
        clients = train_test_split_per_user(tiny_dataset)
        assert all(c.valid_items.size == 0 for c in clients)

    @given(st.integers(1, 60), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_partition_property(self, count, seed):
        items = np.arange(count)
        ds = InteractionDataset(1, count, [items])
        client = train_test_split_per_user(ds, seed=seed)[0]
        combined = np.sort(
            np.concatenate([client.train_items, client.valid_items, client.test_items])
        )
        assert np.array_equal(combined, items)
        assert client.num_train >= 1
