"""Tests for Recall@K / NDCG@K and the ranking helper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.eval import Evaluator
from repro.eval.metrics import blocked_top_k, ndcg_at_k, rank_items, recall_at_k


class TestRankItems:
    def test_descending_order(self):
        ranked = rank_items(np.array([0.1, 0.9, 0.5]))
        assert ranked.tolist() == [1, 2, 0]

    def test_exclusion_masks_items(self):
        ranked = rank_items(np.array([0.1, 0.9, 0.5]), exclude=np.array([1]))
        assert ranked[0] == 2
        assert ranked.tolist()[-1] == 1  # masked to -inf, sinks to bottom

    def test_truncation(self):
        ranked = rank_items(np.arange(10.0), k=3)
        assert ranked.tolist() == [9, 8, 7]

    def test_does_not_mutate_input(self):
        scores = np.array([0.1, 0.9])
        rank_items(scores, exclude=np.array([1]))
        assert scores[1] == 0.9

    def test_stable_ties(self):
        ranked = rank_items(np.zeros(4))
        assert ranked.tolist() == [0, 1, 2, 3]


class TestRecall:
    def test_perfect(self):
        assert recall_at_k([1, 2, 3], [1, 2, 3], k=3) == 1.0

    def test_partial(self):
        assert recall_at_k([1, 9, 8], [1, 2], k=3) == 0.5

    def test_miss(self):
        assert recall_at_k([7, 8, 9], [1], k=3) == 0.0

    def test_empty_relevant(self):
        assert recall_at_k([1, 2], [], k=2) == 0.0

    def test_k_cutoff(self):
        # Relevant item at position 3 does not count for k=2.
        assert recall_at_k([9, 8, 1], [1], k=2) == 0.0

    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=30, unique=True),
        st.sets(st.integers(0, 50), min_size=1, max_size=10),
        st.integers(1, 30),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, ranked, relevant, k):
        value = recall_at_k(ranked, relevant, k=k)
        assert 0.0 <= value <= 1.0


class TestNDCG:
    def test_perfect_ranking_is_one(self):
        assert ndcg_at_k([5, 3], [5, 3], k=2) == pytest.approx(1.0)

    def test_position_discount(self):
        # One relevant item at rank 1 vs rank 2.
        first = ndcg_at_k([5, 0], [5], k=2)
        second = ndcg_at_k([0, 5], [5], k=2)
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(np.log(2) / np.log(3))
        assert first > second

    def test_hand_computed_case(self):
        # Relevant {a, b}; ranking hits a at pos 0, b at pos 2.
        ranked = ["a", "x", "b"]
        relevant = ["a", "b"]
        dcg = 1 / np.log2(2) + 1 / np.log2(4)
        idcg = 1 / np.log2(2) + 1 / np.log2(3)
        # item ids are ints in the real system; strings work via int()... use ints
        ranked = [0, 7, 1]
        relevant = [0, 1]
        assert ndcg_at_k(ranked, relevant, k=3) == pytest.approx(dcg / idcg)

    def test_empty_relevant(self):
        assert ndcg_at_k([1], [], k=5) == 0.0

    def test_idcg_caps_at_k(self):
        # More relevant items than K: perfect top-K still scores 1.
        assert ndcg_at_k([0, 1], [0, 1, 2, 3], k=2) == pytest.approx(1.0)

    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=30, unique=True),
        st.sets(st.integers(0, 50), min_size=1, max_size=10),
        st.integers(1, 30),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounds_and_consistency(self, ranked, relevant, k):
        value = ndcg_at_k(ranked, relevant, k=k)
        assert 0.0 <= value <= 1.0 + 1e-12
        # NDCG positive iff recall positive.
        assert (value > 0) == (recall_at_k(ranked, relevant, k=k) > 0)


class TestTopKWithNaN:
    """NaN scores (diverged models) must rank last, as the historical
    full stable argsort did, in both partial and blocked top-k."""

    def test_partial_top_k_nan_matches_argsort(self):
        from repro.eval.metrics import partial_top_k

        scores = np.array([1.0, np.nan, 3.0, np.nan, 2.0])
        for k in (1, 2, 3, 5):
            expect = np.argsort(-scores, kind="stable")[:k]
            assert np.array_equal(partial_top_k(scores, k), expect), k

    def test_blocked_top_k_nan_rows(self):
        from repro.eval.metrics import blocked_top_k

        scores = np.array(
            [[1.0, np.nan, 3.0, 0.0], [4.0, 2.0, 1.0, 3.0]]
        )
        expect = np.stack(
            [np.argsort(-row, kind="stable")[:2] for row in scores]
        )
        assert np.array_equal(blocked_top_k(scores, 2), expect)

    def test_rank_items_all_nan(self):
        from repro.eval.metrics import rank_items

        scores = np.full(4, np.nan)
        ranked = rank_items(scores, k=2)
        assert ranked.size == 2


@st.composite
def float32_blocks(draw):
    """(B, I) float32 blocks with forced ties, -inf-masked columns and NaN
    rows, plus a k in [1, I]."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 30))
    # A small palette forces duplicates inside the top-k and ties at the
    # k-th value; free draws keep distinct values in the mix.
    palette = draw(st.lists(st.floats(-1e3, 1e3, width=32), min_size=1, max_size=4))
    free = st.floats(width=32, allow_nan=False, allow_infinity=False)
    elements = st.one_of(st.sampled_from(palette), free)
    block = draw(hnp.arrays(np.float32, (rows, cols), elements=elements))
    block[:, draw(st.lists(st.integers(0, cols - 1), max_size=3))] = -np.inf
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    for row, col in draw(st.lists(cells, max_size=2)):
        block[row, col] = np.nan
    return block, draw(st.integers(1, cols))


class TestSelectionDtype:
    """``blocked_top_k`` ranks a floating block in its own dtype; widening
    float32 to float64 is exact and order-preserving, so the selection is
    the float64 one, bit for bit."""

    @given(float32_blocks())
    @settings(max_examples=200, deadline=None)
    def test_float32_selection_equals_float64(self, case):
        block, k = case
        top = blocked_top_k(block, k)
        assert top.dtype == np.int64
        assert np.array_equal(top, blocked_top_k(block.astype(np.float64), k))
        for row, expect in zip(block, top):
            assert np.array_equal(expect, np.argsort(-row, kind="stable")[:k])

    def test_unsigned_block_is_widened_before_negation(self):
        block = np.array([[3, 250, 7, 250], [0, 1, 255, 2]], dtype=np.uint8)
        assert blocked_top_k(block, 2).tolist() == [[1, 3], [2, 3]]


class TestKBelowOne:
    """A cut-off below 1 selects nothing in ``blocked_top_k`` (as in
    ``partial_top_k``) and is refused by the evaluator up front."""

    @pytest.mark.parametrize("k", [0, -1])
    def test_blocked_top_k_selects_nothing(self, k):
        top = blocked_top_k(np.arange(15.0).reshape(3, 5), k)
        assert top.shape == (3, 0) and top.dtype == np.int64

    @pytest.mark.parametrize("k", [0, -3])
    def test_evaluator_refuses(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            Evaluator([], k=k)
