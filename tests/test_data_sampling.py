"""Tests for negative sampling and local batch construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import ClientData
from repro.data.sampling import NegativeSampler, TrainingBatch


class TestNegativeSampler:
    def test_negatives_avoid_positives(self):
        sampler = NegativeSampler(50, seed=0)
        positives = np.array([1, 5, 9])
        negatives = sampler.sample(positives, 100)
        assert not set(negatives) & set(positives)
        assert negatives.size == 100

    def test_dense_fallback(self):
        """User has interacted with >50% of a tiny catalogue."""
        sampler = NegativeSampler(10, seed=0)
        positives = np.arange(8)
        negatives = sampler.sample(positives, 20)
        assert set(negatives) <= {8, 9}
        assert negatives.size == 20

    def test_all_items_interacted_raises(self):
        sampler = NegativeSampler(4, seed=0)
        with pytest.raises(ValueError):
            sampler.sample(np.arange(4), 1)

    def test_zero_count(self):
        sampler = NegativeSampler(10, seed=0)
        assert sampler.sample(np.array([0]), 0).size == 0

    def test_invalid_catalogue(self):
        with pytest.raises(ValueError):
            NegativeSampler(0)

    def test_deterministic_with_seed(self):
        a = NegativeSampler(100, seed=9).sample(np.array([0]), 20)
        b = NegativeSampler(100, seed=9).sample(np.array([0]), 20)
        assert np.array_equal(a, b)

    @given(
        st.sets(st.integers(0, 29), min_size=0, max_size=15),
        st.integers(1, 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_avoidance_property(self, positives, count):
        sampler = NegativeSampler(30, seed=1)
        negatives = sampler.sample(np.array(sorted(positives), dtype=np.int64), count)
        assert negatives.size == count
        assert not set(int(n) for n in negatives) & positives
        assert all(0 <= n < 30 for n in negatives)


class TestTrainingBatch:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            TrainingBatch(items=np.arange(3), labels=np.zeros(2))

    def test_len(self):
        batch = TrainingBatch(items=np.arange(4), labels=np.zeros(4))
        assert len(batch) == 4


def test_client_batches_are_pinned():
    """``ClientRuntime.sample_batch`` computes a client's exclusion set
    once and labels the shuffle from its permutation; every draw and
    every batch must stay what the per-call ``np.unique`` path produced
    (digest recorded with it), the dense-complement fallback included."""
    import hashlib

    from repro.data.splitting import train_test_split_per_user
    from repro.data.synthetic import SyntheticConfig, load_benchmark_dataset
    from repro.federated.client import ClientRuntime

    dataset = load_benchmark_dataset("ml", SyntheticConfig(scale=0.03, item_scale=0.1, seed=4))
    clients = train_test_split_per_user(dataset, seed=4)
    dense = ClientData(999, np.array([0, 1, 2, 4, 6, 7]), np.array([8]), np.array([9]))
    digest = hashlib.sha256()
    for client, num_items in [(c, dataset.num_items) for c in clients[:6]] + [(dense, 12)]:
        runtime = ClientRuntime(client, embedding_dim=8, num_items=num_items, seed=5)
        for _ in range(3):
            batch = runtime.sample_batch(4)
            digest.update(batch.items.astype(np.int64).tobytes())
            digest.update(batch.labels.tobytes())
            digest.update(str((batch.items.dtype, batch.labels.dtype)).encode())
    assert digest.hexdigest() == (
        "fe1b7b66a2920f6a6caed7e7b8a8642eb7ad1865891520fd9d55e093d8562222"
    )


def test_exclusion_draws_match_sample():
    """``sample_excluding`` on a precomputed exclusion draws exactly what
    ``sample`` draws from the raw positives."""
    positives = np.array([7, 3, 3, 11])
    direct = NegativeSampler(40, seed=2)
    planned = NegativeSampler(40, seed=2)
    exclusion = planned.exclusion(positives)
    for count in (5, 0, 9):
        np.testing.assert_array_equal(
            direct.sample(positives, count), planned.sample_excluding(exclusion, count)
        )
