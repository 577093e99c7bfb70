"""Tests for payloads, communication accounting, history and client runtime."""

import numpy as np
import pytest

from repro.data.dataset import ClientData
from repro.federated.client import ClientRuntime
from repro.federated.communication import (
    CommunicationMeter,
    embedding_parameter_count,
    head_parameter_count,
    transmission_cost,
)
from repro.federated.history import TrainingHistory
from repro.federated.payload import ClientUpdate, state_delta, state_size
from repro.models.base import ScoringHead


class TestPayload:
    def test_state_delta(self):
        before = {"a": np.array([1.0]), "b": np.array([2.0])}
        after = {"a": np.array([3.0]), "b": np.array([2.5])}
        delta = state_delta(after, before)
        assert np.allclose(delta["a"], [2.0])
        assert np.allclose(delta["b"], [0.5])

    def test_state_delta_key_mismatch(self):
        with pytest.raises(KeyError):
            state_delta({"a": np.zeros(1)}, {"b": np.zeros(1)})

    def test_state_size(self):
        assert state_size({"a": np.zeros((2, 3)), "b": np.zeros(4)}) == 10

    def test_upload_size(self):
        delta = np.zeros((5, 3))
        delta[[1, 3]] = 1.0
        u = ClientUpdate(
            user_id=0,
            group="m",
            embedding_delta=delta,
            head_deltas={"s": {"w": np.zeros(4)}, "m": {"w": np.zeros(6)}},
        )
        # Two touched rows ship id + 3 values each; heads ship in full.
        assert u.upload_size == 2 * (1 + 3) + 4 + 6

    def test_scaled(self):
        u = ClientUpdate(
            user_id=0,
            group="s",
            embedding_delta=np.ones((2, 2)),
            head_deltas={"s": {"w": np.ones(2)}},
        )
        half = u.scaled(0.5)
        assert np.allclose(half.embedding_delta, 0.5)
        assert np.allclose(half.head_deltas["s"]["w"], 0.5)
        assert np.allclose(u.embedding_delta, 1.0)  # original untouched


class TestCommunicationCounts:
    def test_head_count_matches_actual_model(self):
        """The analytic formula must agree with the real ScoringHead."""
        for dim in (2, 8, 16, 32):
            head = ScoringHead(dim, hidden=(8, 8), rng=np.random.default_rng(0))
            assert head.parameter_count() == head_parameter_count(dim, (8, 8))

    def test_embedding_count(self):
        assert embedding_parameter_count(100, 8) == 800

    def test_table3_formulas(self):
        dims = {"s": 8, "m": 16, "l": 32}
        items = 1000
        # All Small: V_s + Θ_s for every client type.
        for group in ("s", "m", "l"):
            assert transmission_cost("all_small", group, items, dims) == (
                items * 8 + head_parameter_count(8)
            )
        # HeteFedRec: V_a plus heads of all widths ≤ a.
        assert transmission_cost("hetefedrec", "s", items, dims) == (
            items * 8 + head_parameter_count(8)
        )
        assert transmission_cost("hetefedrec", "m", items, dims) == (
            items * 16 + head_parameter_count(8) + head_parameter_count(16)
        )
        assert transmission_cost("hetefedrec", "l", items, dims) == (
            items * 32
            + head_parameter_count(8)
            + head_parameter_count(16)
            + head_parameter_count(32)
        )

    def test_hetefedrec_overhead_is_negligible(self):
        """Paper claim: extra head costs ≪ the embedding table."""
        dims = {"s": 8, "m": 16, "l": 32}
        items = 1000
        hete_l = transmission_cost("hetefedrec", "l", items, dims)
        large_l = transmission_cost("all_large", "l", items, dims)
        assert (hete_l - large_l) / large_l < 0.05

    def test_invalid_inputs(self):
        dims = {"s": 8, "m": 16, "l": 32}
        with pytest.raises(ValueError):
            transmission_cost("all_small", "xl", 10, dims)
        with pytest.raises(ValueError):
            transmission_cost("fedavg", "s", 10, dims)


class TestCommunicationMeter:
    def test_accumulation(self):
        meter = CommunicationMeter()
        meter.record("s", download=100, upload=100)
        meter.record("l", download=400, upload=400)
        meter.record("s", download=100, upload=100)
        assert meter.total_download == 600
        assert meter.total_upload == 600
        assert meter.total == 1200
        assert meter.client_rounds == 3
        assert meter.per_client_round() == pytest.approx(400.0)
        assert meter.summary() == {"s": (200, 200), "l": (400, 400)}

    def test_empty(self):
        meter = CommunicationMeter()
        assert meter.per_client_round() == 0.0


class TestTrainingHistory:
    def test_curves_and_best(self):
        h = TrainingHistory()
        h.log(1, 0.9, recall=0.1, ndcg=0.05)
        h.log(2, 0.7)
        h.log(3, 0.5, recall=0.2, ndcg=0.15)
        h.log(4, 0.4, recall=0.19, ndcg=0.14)
        assert h.ndcg_curve() == [(1, 0.05), (3, 0.15), (4, 0.14)]
        assert h.best_epoch().epoch == 3
        assert h.final().epoch == 4
        assert h.epochs_to_reach(0.10) == 3
        assert h.epochs_to_reach(0.99) is None

    def test_empty(self):
        h = TrainingHistory()
        assert h.best_epoch() is None
        assert h.final() is None


class TestClientRuntime:
    def make(self, dim=4):
        data = ClientData(
            user_id=3,
            train_items=np.array([0, 1, 2]),
            valid_items=np.array([3]),
            test_items=np.array([4]),
        )
        return ClientRuntime(data, embedding_dim=dim, num_items=20, seed=0)

    def test_user_embedding_is_a_copy(self):
        runtime = self.make()
        embedding = runtime.user_embedding
        embedding[...] = 99.0
        assert not np.allclose(runtime.user_embedding, 99.0)

    def test_commit(self):
        runtime = self.make()
        runtime.table.put([runtime.user_id], np.full((1, 4), 7.0))
        assert np.allclose(runtime.user_embedding, 7.0)

    def test_commit_shape_check(self):
        runtime = self.make()
        with pytest.raises(ValueError):
            runtime.table.put([runtime.user_id], np.zeros((1, 5)))

    def test_sample_batch_ratio(self):
        runtime = self.make()
        batch = runtime.sample_batch(negative_ratio=4)
        assert len(batch) == 3 * 5
        assert batch.labels.sum() == 3

    def test_deterministic_init_per_user(self):
        a = self.make()
        b = self.make()
        assert np.allclose(a.user_embedding, b.user_embedding)
