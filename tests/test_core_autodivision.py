"""Tests for the pilot search over division ratios and model sizes.

A grid of fixed-length pilot runs is a one-rung successive halving
(``ETA = len(candidates)``); every pilot is scored on the *validation*
split through ``Evaluator(..., split="valid")``.
"""

from unittest import mock

import numpy as np

from repro.core import HeteFedRec, HeteFedRecConfig
from repro.core import size_search
from repro.core.size_search import Candidate, successive_halving
from repro.eval.evaluator import Evaluator

DIMS = {"s": 4, "m": 6, "l": 8}


def config(**overrides):
    base = dict(
        dims=DIMS,
        epochs=1,
        local_epochs=1,
        lr=0.01,
        seed=0,
    )
    base.update(overrides)
    return HeteFedRecConfig(**base)


def pilot_search(num_items, clients, candidates, pilot_epochs=1):
    """The grid of pilot runs: every candidate trains once, then the best wins."""
    with mock.patch.object(size_search, "ETA", max(len(candidates), 2)):
        return successive_halving(
            num_items,
            clients,
            config(),
            candidates=candidates,
            epochs_per_rung=pilot_epochs,
        )


class TestValidationNDCG:
    def test_uses_validation_not_test(self, tiny_dataset, tiny_clients):
        trainer = HeteFedRec(tiny_dataset.num_items, tiny_clients, config())
        trainer.run_epoch(1)
        result = trainer.evaluate_with(Evaluator(tiny_clients, k=10, split="valid"))
        assert 0.0 <= result.ndcg <= 1.0
        ranked = {c.user_id for c in tiny_clients if c.valid_items.size}
        assert set(result.evaluated_users.tolist()) == ranked

    def test_empty_validation_sets(self, tiny_dataset, monkeypatch):
        from repro.data import splitting

        monkeypatch.setattr(splitting, "VALID_FRACTION", 0.0)
        clients = splitting.train_test_split_per_user(tiny_dataset, seed=0)
        trainer = HeteFedRec(tiny_dataset.num_items, clients, config())
        result = trainer.evaluate_with(Evaluator(clients, split="valid"))
        assert result.ndcg == 0.0
        assert result.evaluated_users.size == 0


class TestRatioSearch:
    def test_scores_every_candidate(self, tiny_dataset, tiny_clients):
        candidates = [Candidate.make(r, DIMS) for r in ((5, 3, 2), (1, 1, 1))]
        result = pilot_search(tiny_dataset.num_items, tiny_clients, candidates)
        (rung,) = result.rungs
        assert len(rung.scores) == 2
        assert result.best in candidates
        assert dict(rung.scores)[result.best] == max(s for _, s in rung.scores)
        assert result.total_epochs_trained == len(candidates)


class TestSizeSearch:
    def test_returns_dims_dict(self, tiny_dataset, tiny_clients):
        candidates = [
            Candidate.make((5, 3, 2), dims)
            for dims in ({"s": 2, "m": 4, "l": 6}, {"s": 4, "m": 6, "l": 8})
        ]
        result = pilot_search(tiny_dataset.num_items, tiny_clients, candidates)
        assert set(result.best.dims_dict()) == {"s", "m", "l"}
        for _, score in result.rungs[0].scores:
            assert np.isfinite(score)
