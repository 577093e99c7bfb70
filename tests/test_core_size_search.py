"""Tests for the successive-halving ratio/size search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import HeteFedRecConfig
from repro.core.size_search import (
    Candidate,
    HalvingResult,
    RungRecord,
    default_candidate_grid,
    halving_schedule,
    successive_halving,
)


class TestCandidate:
    def test_make_normalises_dims_order(self):
        a = Candidate.make((5, 3, 2), {"l": 8, "s": 2, "m": 4})
        b = Candidate.make((5, 3, 2), {"s": 2, "m": 4, "l": 8})
        assert a == b

    def test_dims_round_trip(self):
        candidate = Candidate.make((1, 1, 1), {"s": 2, "m": 4, "l": 8})
        assert candidate.dims_dict() == {"s": 2, "m": 4, "l": 8}

    def test_describe_human_readable(self):
        candidate = Candidate.make((5, 3, 2), {"s": 2, "m": 4, "l": 8})
        assert "5:3:2" in candidate.describe()
        assert "8" in candidate.describe()

    def test_hashable(self):
        grid = default_candidate_grid()
        assert len(set(grid)) == len(grid)


class TestDefaultGrid:
    def test_is_cross_product(self):
        from repro.core.size_search import (
            DEFAULT_RATIO_CANDIDATES,
            DEFAULT_SIZE_CANDIDATES,
        )

        grid = default_candidate_grid()
        assert len(grid) == len(DEFAULT_RATIO_CANDIDATES) * len(DEFAULT_SIZE_CANDIDATES)


class TestHalvingSchedule:
    def test_example(self):
        assert halving_schedule(12, eta=2) == [12, 6, 3, 2, 1]

    def test_single_candidate(self):
        assert halving_schedule(1) == [1]

    def test_eta_three(self):
        assert halving_schedule(9, eta=3) == [9, 3, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            halving_schedule(0)
        with pytest.raises(ValueError):
            halving_schedule(4, eta=1)

    @given(n=st.integers(min_value=1, max_value=200), eta=st.integers(min_value=2, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_schedule_properties(self, n, eta):
        schedule = halving_schedule(n, eta)
        assert schedule[0] == n
        assert schedule[-1] == 1
        # Strictly decreasing after the first rung (until 1).
        for before, after in zip(schedule, schedule[1:]):
            assert after < before or before == 1
            assert after >= int(np.ceil(before / eta)) - 1


class TestRungRecord:
    def test_survivors_keep_top_scores(self):
        c1 = Candidate.make((5, 3, 2), {"s": 2, "m": 4, "l": 8})
        c2 = Candidate.make((1, 1, 1), {"s": 2, "m": 4, "l": 8})
        c3 = Candidate.make((2, 3, 5), {"s": 2, "m": 4, "l": 8})
        record = RungRecord(rung=0, epochs_each=1,
                            scores=[(c1, 0.1), (c2, 0.9), (c3, 0.5)])
        assert record.survivors(2) == [c2, c3]
        assert record.survivors(1) == [c2]


class TestSuccessiveHalving:
    @pytest.fixture(scope="class")
    def search(self, tiny_dataset, tiny_clients):
        config = HeteFedRecConfig(
            epochs=1, clients_per_round=16, local_epochs=1, seed=0
        )
        candidates = [
            Candidate.make((5, 3, 2), {"s": 2, "m": 4, "l": 8}),
            Candidate.make((1, 1, 1), {"s": 2, "m": 4, "l": 8}),
            Candidate.make((2, 3, 5), {"s": 2, "m": 4, "l": 8}),
            Candidate.make((5, 3, 2), {"s": 4, "m": 8, "l": 16}),
        ]
        return (
            candidates,
            successive_halving(
                tiny_dataset.num_items,
                tiny_clients,
                config,
                candidates=candidates,
                epochs_per_rung=1,
            ),
        )

    def test_winner_is_a_candidate(self, search):
        candidates, result = search
        assert result.best in candidates

    def test_rung_populations_halve(self, search):
        candidates, result = search
        populations = [len(record.scores) for record in result.rungs]
        assert populations[0] == len(candidates)
        for before, after in zip(populations, populations[1:]):
            assert after <= max(int(np.ceil(before / 2)), 1)

    def test_budget_accounting(self, search):
        _, result = search
        expected = sum(len(record.scores) * record.epochs_each for record in result.rungs)
        assert result.total_epochs_trained == expected

    def test_scores_are_finite(self, search):
        _, result = search
        for record in result.rungs:
            for _, score in record.scores:
                assert np.isfinite(score) and score >= 0.0

    def test_best_config_substitutes_winner(self, search):
        _, result = search
        config = result.best_config(HeteFedRecConfig(epochs=9))
        assert config.epochs == 9
        assert tuple(config.ratios) == result.best.ratios
        assert config.dims == result.best.dims_dict()

    def test_empty_pool_rejected(self, tiny_dataset, tiny_clients):
        with pytest.raises(ValueError):
            successive_halving(
                tiny_dataset.num_items, tiny_clients, HeteFedRecConfig(), candidates=[]
            )

    def test_bad_epochs_rejected(self, tiny_dataset, tiny_clients):
        with pytest.raises(ValueError):
            successive_halving(
                tiny_dataset.num_items,
                tiny_clients,
                HeteFedRecConfig(),
                candidates=[Candidate.make((5, 3, 2), {"s": 2, "m": 4, "l": 8})],
                epochs_per_rung=0,
            )

    def test_duplicate_candidate_rejected(self, tiny_dataset, tiny_clients):
        """A repeated candidate names one trainer; searching it would train
        and score that trainer twice per rung."""
        a = Candidate.make((5, 3, 2), {"s": 2, "m": 4, "l": 8})
        b = Candidate.make((1, 1, 1), {"s": 2, "m": 4, "l": 8})
        with pytest.raises(ValueError, match="5:3:2"):
            successive_halving(
                tiny_dataset.num_items,
                tiny_clients,
                HeteFedRecConfig(epochs=1, clients_per_round=16, local_epochs=1),
                candidates=[a, a, b],
            )

    def test_single_candidate_trains_once(self, tiny_dataset, tiny_clients):
        config = HeteFedRecConfig(epochs=1, clients_per_round=16, local_epochs=1, seed=0)
        only = Candidate.make((5, 3, 2), {"s": 2, "m": 4, "l": 8})
        result = successive_halving(
            tiny_dataset.num_items, tiny_clients, config, candidates=[only]
        )
        assert result.best == only
        assert result.total_epochs_trained == 1
