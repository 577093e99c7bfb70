"""Tests for the GMF base model and its factory/trainer integration."""

import numpy as np
import pytest
from reference_trainer import tape_scores
from tape_models import logits as tape_logits

from repro.autograd.tensor import Tensor
from repro.core.config import HeteFedRecConfig
from repro.core.hetefedrec import HeteFedRec
from repro.models import GMF, MODEL_REGISTRY, build_model
from repro.nn.optim import Adam
from repro.autograd import ops


@pytest.fixture()
def gmf():
    return build_model("mf", num_items=12, dim=4, rng=np.random.default_rng(0))


class TestFactory:
    def test_registered(self):
        assert MODEL_REGISTRY["mf"] is GMF

    def test_build(self, gmf):
        assert isinstance(gmf, GMF)
        assert gmf.arch == "mf"
        assert gmf.item_embedding.weight.data.shape == (12, 4)


class TestScoring:
    def test_initial_logit_is_inner_product(self, gmf):
        """The GMF weight starts at all-ones, so the logit is u·v."""
        user = Tensor(np.array([1.0, 2.0, 0.0, -1.0]))
        items = np.array([0, 5], dtype=np.int64)
        logits = tape_logits(gmf, user, items)
        table = gmf.item_embedding.weight.data
        expected = table[items] @ user.data
        assert np.allclose(logits.data, expected)

    def test_prefix_scoring_uses_prefix_head(self, gmf):
        small_head = build_model("mf", num_items=12, dim=2).head
        user = Tensor(np.array([1.0, 1.0, 1.0, 1.0]))
        logits = tape_logits(gmf, user, np.array([0, 1]), width=2, head=small_head)
        table = gmf.item_embedding.weight.data
        expected = table[:2, :2] @ np.ones(2)
        assert np.allclose(logits.data, expected)

    def test_score_independent_of_mlp(self, gmf):
        """GMF must route around the MLP path entirely."""
        user = Tensor(np.ones(4))
        before = tape_logits(gmf, user, np.array([0, 1, 2])).data.copy()
        for param in gmf.head.ffn.parameters():
            param.data += 100.0
        after = tape_logits(gmf, user, np.array([0, 1, 2])).data
        assert np.allclose(before, after)

    def test_gradients_reach_embedding_and_gmf_weight_only(self, gmf):
        user = Tensor(np.ones(4), requires_grad=True)
        logits = tape_logits(gmf, user, np.array([0, 1]))
        loss = ops.bce_with_logits(logits, np.array([1.0, 0.0]))
        loss.backward()
        assert gmf.item_embedding.weight.grad is not None
        assert np.any(gmf.item_embedding.weight.grad != 0)
        assert gmf.head.gmf.weight.grad is not None
        for param in gmf.head.ffn.parameters():
            assert param.grad is None or not np.any(param.grad != 0)

    def test_learns_a_simple_preference(self):
        """A few steps of Adam should separate a liked from a disliked item."""
        model = build_model("mf", num_items=4, dim=4, rng=np.random.default_rng(1))
        user = Tensor(np.random.default_rng(2).normal(0, 0.1, size=4), requires_grad=True)
        params = [user, model.item_embedding.weight, *model.head.parameters()]
        optimizer = Adam(params, lr=0.05)
        items = np.array([0, 1], dtype=np.int64)
        labels = np.array([1.0, 0.0])
        for _ in range(120):
            optimizer.zero_grad()
            loss = ops.bce_with_logits(tape_logits(model, user, items), labels)
            loss.backward()
            optimizer.step()
        logits = tape_logits(model, user, items).data
        assert logits[0] > logits[1]


class TestFederatedIntegration:
    def test_hetefedrec_trains_with_mf(self, tiny_dataset, tiny_clients):
        config = HeteFedRecConfig(
            arch="mf", epochs=1, clients_per_round=16, local_epochs=2, seed=0
        )
        trainer = HeteFedRec(tiny_dataset.num_items, tiny_clients, config)
        history = trainer.fit()
        assert np.isfinite(history.records[-1].train_loss)
        scores = tape_scores(trainer, tiny_clients[0])
        assert scores.shape == (tiny_dataset.num_items,)
