"""Tests for the automatic division/size search (future-work extension)."""

import pytest

from repro.core import HeteFedRec, HeteFedRecConfig
from repro.core.autodivision import (
    SearchResult,
    search_division_ratio,
    search_model_sizes,
    validation_ndcg,
)


def config(**overrides):
    base = dict(
        dims={"s": 4, "m": 6, "l": 8},
        epochs=1,
        local_epochs=1,
        lr=0.01,
        seed=0,
    )
    base.update(overrides)
    return HeteFedRecConfig(**base)


class TestValidationNDCG:
    def test_uses_validation_not_test(self, tiny_dataset, tiny_clients):
        trainer = HeteFedRec(tiny_dataset.num_items, tiny_clients, config())
        trainer.run_epoch(1)
        value = validation_ndcg(trainer, tiny_clients, k=10)
        assert 0.0 <= value <= 1.0

    def test_empty_validation_sets(self, tiny_dataset):
        from repro.data.splitting import train_test_split_per_user

        clients = train_test_split_per_user(tiny_dataset, valid_fraction=0.0, seed=0)
        trainer = HeteFedRec(tiny_dataset.num_items, clients, config())
        assert validation_ndcg(trainer, clients) == 0.0


class TestRatioSearch:
    def test_scores_every_candidate(self, tiny_dataset, tiny_clients):
        candidates = ((5, 3, 2), (1, 1, 1))
        result = search_division_ratio(
            tiny_dataset.num_items,
            tiny_clients,
            config(),
            candidates=candidates,
            pilot_epochs=1,
        )
        assert isinstance(result, SearchResult)
        assert len(result.scores) == 2
        assert result.best in [tuple(c) for c in candidates]
        assert result.score_of(result.best) == max(s for _, s in result.scores)

    def test_score_of_unknown_candidate(self, tiny_dataset, tiny_clients):
        result = search_division_ratio(
            tiny_dataset.num_items, tiny_clients, config(),
            candidates=((5, 3, 2),), pilot_epochs=1,
        )
        with pytest.raises(KeyError):
            result.score_of((9, 9, 9))


class TestSizeSearch:
    def test_returns_dims_dict(self, tiny_dataset, tiny_clients):
        candidates = ({"s": 2, "m": 4, "l": 6}, {"s": 4, "m": 6, "l": 8})
        result = search_model_sizes(
            tiny_dataset.num_items,
            tiny_clients,
            config(),
            candidates=candidates,
            pilot_epochs=1,
        )
        assert set(result.best) == {"s", "m", "l"}
