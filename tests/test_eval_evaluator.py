"""Tests for the full-ranking evaluator and per-group breakdowns."""

import numpy as np
import pytest
from ranking_oracle import assert_matches_oracle, held_out_and_masked, oracle_metrics

from repro.baselines.registry import METHODS, build_method
from repro.core.config import HeteFedRecConfig
from repro.data.dataset import ClientData
from repro.eval import evaluator as evaluator_module
from repro.eval.evaluator import Evaluator
from repro.eval.groups import per_group_metrics


def make_client(user_id, train, valid, test):
    return ClientData(
        user_id=user_id,
        train_items=np.array(train, dtype=np.int64),
        valid_items=np.array(valid, dtype=np.int64),
        test_items=np.array(test, dtype=np.int64),
    )


def per_row(score_fn):
    """A block scorer built from a one-client scoring function."""
    return lambda block: np.stack([score_fn(client) for client in block])


@pytest.fixture()
def clients():
    return [
        make_client(0, [0, 1], [], [2]),
        make_client(1, [3], [4], [5]),
        make_client(2, [6], [], []),  # no test items → skipped
    ]


class TestEvaluator:
    def test_oracle_scores_perfect(self, clients):
        """Scoring the test item highest gives recall = ndcg = 1."""
        def oracle(client):
            scores = np.zeros(10)
            scores[client.test_items] = 1.0
            return scores

        result = Evaluator(clients, k=5).evaluate(per_row(oracle))
        assert result.recall == 1.0
        assert result.ndcg == 1.0
        assert result.evaluated_users.tolist() == [0, 1]

    def test_known_items_are_masked(self, clients):
        """Even a huge score on a train item cannot displace test items,
        because train/valid items are excluded from the ranking."""
        def adversarial(client):
            scores = np.zeros(10)
            scores[client.known_items()] = 100.0
            scores[client.test_items] = 1.0
            return scores

        result = Evaluator(clients, k=2).evaluate(per_row(adversarial))
        assert result.recall == 1.0

    def test_worst_case_scores(self, clients):
        def inverse(client):
            scores = np.ones(10)
            scores[client.test_items] = -100.0
            return scores

        result = Evaluator(clients, k=2).evaluate(per_row(inverse))
        assert result.recall == 0.0

    def test_user_subset(self, clients):
        def oracle(client):
            scores = np.zeros(10)
            scores[client.test_items] = 1.0
            return scores

        result = Evaluator(clients, k=5).evaluate(per_row(oracle), user_subset=[1])
        assert result.evaluated_users.tolist() == [1]

    def test_no_evaluable_users(self):
        lonely = [make_client(0, [1], [], [])]
        result = Evaluator(lonely).evaluate(lambda block: np.zeros((len(block), 5)))
        assert result.recall == 0.0
        assert result.evaluated_users.size == 0

    def test_valid_split_masks_train_only(self, clients):
        """``split="valid"`` ranks validation items and masks only train
        items: a huge score on a test item can displace them."""
        def test_first(client):
            scores = np.zeros(10)
            scores[client.test_items] = 100.0
            scores[client.valid_items] = 1.0
            return scores

        evaluator = Evaluator(clients, k=1, split="valid")
        result = evaluator.evaluate(per_row(test_first))
        assert result.evaluated_users.tolist() == [1]
        assert result.recall == 0.0
        result = Evaluator(clients, k=2, split="valid").evaluate(per_row(test_first))
        assert result.recall == 1.0

    def test_unknown_split_rejected(self, clients):
        with pytest.raises(ValueError, match="split"):
            Evaluator(clients, split="train")

    def test_str(self, clients):
        result = Evaluator(clients, k=7).evaluate(lambda block: np.zeros((len(block), 10)))
        assert "Recall@7" in str(result)


class TestPerGroupMetrics:
    def test_group_split(self, clients):
        def oracle(client):
            scores = np.zeros(10)
            if client.user_id == 0:
                scores[client.test_items] = 1.0   # user 0: perfect
            else:
                scores[client.test_items] = -1.0  # others: guaranteed miss
            return scores

        result = Evaluator(clients, k=5).evaluate(per_row(oracle))
        groups = per_group_metrics(result, {0: "s", 1: "l"})
        assert groups["s"].ndcg == 1.0
        assert groups["l"].ndcg == 0.0
        assert groups["s"].num_users == 1
        assert groups["m"].num_users == 0

    def test_unknown_users_ignored(self, clients):
        result = Evaluator(clients, k=5).evaluate(lambda block: np.zeros((len(block), 10)))
        groups = per_group_metrics(result, {})
        assert all(g.num_users == 0 for g in groups.values())


# ---------------------------------------------------------------------------
# Differential: the blocked loop against the per-user oracle
# ---------------------------------------------------------------------------
K_CASES = (1, 20, 10_000)  # 10_000 exceeds every catalogue below
EDGE_NUM_ITEMS = 12


def edge_clients():
    return [
        make_client(0, [0, 1], [2], [3, 3, 7]),  # duplicate test ids
        make_client(1, [4], [5, 5], [6]),  # duplicate validation ids
        make_client(2, [8], [9], [10, 11]),
        make_client(3, [0], [1], [2]),
        make_client(4, [], [], [5]),  # nothing to mask
    ]


def edge_scores(kind):
    scores = np.random.default_rng(3).normal(size=(5, EDGE_NUM_ITEMS))
    if kind == "nan":
        scores[0, [3, 6]] = np.nan
        scores[2] = np.nan
    elif kind == "tied":
        scores[1] = 0.5
        scores[3] = 0.0
        scores[4, :6] = 1.0
    return scores


@pytest.fixture(scope="module")
def trained(tiny_dataset, tiny_clients):
    """Every stock method after one epoch, built on first use."""
    cache = {}

    def get(method):
        if method not in cache:
            config = HeteFedRecConfig(
                dims={"s": 4, "m": 6, "l": 8},
                epochs=1,
                clients_per_round=16,
                local_epochs=1,
                seed=0,
            )
            trainer = build_method(method, tiny_dataset.num_items, tiny_clients, config)
            trainer.run_epoch(1)
            cache[method] = trainer
        return cache[method]

    return get


@pytest.mark.parametrize("split", Evaluator.SPLITS)
@pytest.mark.parametrize("k", K_CASES)
class TestBlockedEqualsOracle:
    @pytest.mark.parametrize("kind", ["plain", "nan", "tied"])
    def test_edge_scores(self, kind, k, split, monkeypatch):
        monkeypatch.setattr(evaluator_module, "BLOCK_SIZE", 2)
        clients = edge_clients()
        scores = edge_scores(kind)
        result = Evaluator(clients, k=k, split=split).evaluate(
            lambda block: scores[[c.user_id for c in block]]
        )
        oracle = oracle_metrics(clients, lambda c: scores[c.user_id], k, split)
        assert_matches_oracle(result, oracle)
        assert result.ndcg == pytest.approx(oracle[2].mean(), rel=0, abs=1e-12)

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_stock_method(self, trained, tiny_clients, method, k, split):
        trainer = trained(method)
        evaluator = Evaluator(tiny_clients, k=k, split=split)
        result = trainer.evaluate_with(evaluator)
        # The oracle ranks the very rows the evaluator was handed: one
        # score_item_matrix call over the same (single) block of users.
        ranked_for = [
            c for c in tiny_clients if held_out_and_masked(c, split)[0].size
        ]
        rows = dict(
            zip([c.user_id for c in ranked_for], trainer.score_item_matrix(ranked_for))
        )
        oracle = oracle_metrics(tiny_clients, lambda c: rows[c.user_id], k, split)
        assert_matches_oracle(result, oracle)
        assert result.recall == pytest.approx(oracle[1].mean(), rel=0, abs=1e-12)
