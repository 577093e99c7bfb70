"""Tests for padding aggregation (Eq. 7–9) and head aggregation (Eq. 15)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federated.aggregation import (
    AggregationConfig,
    aggregate_head_updates,
    pad_columns,
    padded_embedding_aggregate,
)
from repro.federated.payload import ClientUpdate


def update(user_id, group, delta, heads=None):
    return ClientUpdate(
        user_id=user_id,
        group=group,
        embedding_delta=np.asarray(delta, dtype=np.float64),
        head_deltas=heads or {},
    )


class TestPadColumns:
    def test_zero_fill(self):
        delta = np.ones((3, 2))
        padded = pad_columns(delta, 5)
        assert padded.shape == (3, 5)
        assert np.allclose(padded[:, :2], 1.0)
        assert np.allclose(padded[:, 2:], 0.0)

    def test_identity_when_already_wide(self):
        delta = np.ones((2, 4))
        assert pad_columns(delta, 4) is delta

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError):
            pad_columns(np.ones((2, 4)), 2)


class TestPaddedEmbeddingAggregate:
    DIMS = {"s": 2, "m": 3, "l": 4}

    def test_eq8_sum_semantics(self):
        """Hand-check Eq. 8: pad, sum, slice prefixes."""
        updates = [
            update(0, "s", np.full((2, 2), 1.0)),
            update(1, "m", np.full((2, 3), 10.0)),
            update(2, "l", np.full((2, 4), 100.0)),
        ]
        agg = padded_embedding_aggregate(updates, self.DIMS)
        assert np.allclose(agg["l"][0], [111.0, 111.0, 110.0, 100.0])
        assert np.allclose(agg["m"], agg["l"][:, :3])
        assert np.allclose(agg["s"], agg["l"][:, :2])

    def test_prefix_consistency_is_structural(self):
        """Each group's aggregated delta is exactly the wider one's prefix
        (the mechanism behind the Eq. 10 nesting invariant)."""
        rng = np.random.default_rng(0)
        updates = [
            update(i, g, rng.normal(size=(5, self.DIMS[g])))
            for i, g in enumerate(["s", "s", "m", "l", "l"])
        ]
        agg = padded_embedding_aggregate(updates, self.DIMS)
        assert np.allclose(agg["s"], agg["m"][:, :2])
        assert np.allclose(agg["m"], agg["l"][:, :3])

    def test_empty_updates(self):
        assert padded_embedding_aggregate([], self.DIMS) == {}

    @given(st.lists(st.sampled_from(["s", "m", "l"]), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_sum_linearity_property(self, groups):
        """Aggregating a batch equals the sum of aggregating singletons."""
        rng = np.random.default_rng(1)
        updates = [
            update(i, g, rng.normal(size=(3, self.DIMS[g])))
            for i, g in enumerate(groups)
        ]
        whole = padded_embedding_aggregate(updates, self.DIMS)
        parts = [
            padded_embedding_aggregate([u], self.DIMS) for u in updates
        ]
        for group in self.DIMS:
            summed = sum(p[group] for p in parts)
            assert np.allclose(whole[group], summed)


class TestHeadAggregation:
    def test_sum_and_mean(self):
        updates = [
            update(0, "s", np.zeros((1, 2)), heads={"s": {"w": np.array([2.0])}}),
            update(1, "m", np.zeros((1, 3)), heads={"s": {"w": np.array([4.0])},
                                                    "m": {"w": np.array([6.0])}}),
        ]
        summed = aggregate_head_updates(updates, mode="sum")
        assert np.allclose(summed["s"]["w"], [6.0])
        assert np.allclose(summed["m"]["w"], [6.0])
        averaged = aggregate_head_updates(updates, mode="mean")
        assert np.allclose(averaged["s"]["w"], [3.0])
        assert np.allclose(averaged["m"]["w"], [6.0])

    def test_does_not_mutate_inputs(self):
        delta = {"s": {"w": np.array([1.0])}}
        updates = [
            update(0, "s", np.zeros((1, 2)), heads=delta),
            update(1, "s", np.zeros((1, 2)), heads={"s": {"w": np.array([1.0])}}),
        ]
        aggregate_head_updates(updates, mode="sum")
        assert delta["s"]["w"][0] == 1.0

    def test_empty(self):
        assert aggregate_head_updates([]) == {}


class TestAggregationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AggregationConfig(theta_mode="median")
        with pytest.raises(ValueError):
            AggregationConfig(theta_mode="max")

    def test_defaults(self):
        config = AggregationConfig()
        assert config.theta_mode == "mean"
