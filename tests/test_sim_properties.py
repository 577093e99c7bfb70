"""Property-based tests: merge accounting is order-invariant.

The async server delivers uploads in whatever order the event queue
dictates; stragglers and duplicates interleave with fresh cohorts
arbitrarily.  These properties pin the accounting laws that make the
simulator's ledgers trustworthy: however a batch of uploads is permuted
or split across a straggler buffer, the merged aggregation preserves
total wire cost, total example-weighted loss, and the summed deltas.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.federated.availability import StragglerBuffer, merge_duplicate_users
from repro.federated.payload import ClientUpdate, SparseRowDelta

NUM_ROWS, DIM = 8, 3


@st.composite
def updates_batch(draw, max_size=10):
    """A batch of sparse updates over a small user pool (duplicates likely).

    Values are small integers stored as floats, so sums are exact and the
    order-invariance assertions can be equality, not tolerance.
    """
    count = draw(st.integers(min_value=1, max_value=max_size))
    batch = []
    for _ in range(count):
        user = draw(st.integers(min_value=0, max_value=4))
        rows = draw(
            st.sets(st.integers(min_value=0, max_value=NUM_ROWS - 1), min_size=1)
        )
        rows = np.array(sorted(rows), dtype=np.int64)
        values = np.array(
            draw(
                st.lists(
                    st.lists(
                        st.integers(min_value=-8, max_value=8),
                        min_size=DIM, max_size=DIM,
                    ),
                    min_size=rows.size, max_size=rows.size,
                )
            ),
            dtype=np.float64,
        )
        batch.append(
            ClientUpdate(
                user_id=user,
                group="s",
                embedding_delta=SparseRowDelta(NUM_ROWS, rows, values),
                num_examples=draw(st.integers(min_value=0, max_value=16)),
                train_loss=float(draw(st.integers(min_value=0, max_value=8))) / 4.0,
            )
        )
    return batch


def zero_delta_update(num_examples, train_loss):
    """User 0 touching row 0 with a zero delta: only the loss ledger moves."""
    return ClientUpdate(
        user_id=0,
        group="s",
        embedding_delta=SparseRowDelta(NUM_ROWS, np.array([0]), np.zeros((1, DIM))),
        num_examples=num_examples,
        train_loss=train_loss,
    )


def total_delta(updates):
    out = np.zeros((NUM_ROWS, DIM))
    for update in updates:
        out += update.embedding_delta.dense()
    return out


def total_wire(updates):
    return sum(update.upload_size for update in updates)


def total_weighted_loss(updates):
    return sum(update.num_examples * update.train_loss for update in updates)


class TestMergeOrderInvariance:
    @given(batch=updates_batch(), seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant_totals(self, batch, seed):
        """Any delivery order merges to the same users, wire total,
        example-weighted loss mass, and summed delta."""
        permuted = list(np.random.default_rng(seed).permutation(len(batch)))
        shuffled = [batch[i] for i in permuted]
        merged_a = merge_duplicate_users(batch)
        merged_b = merge_duplicate_users(shuffled)
        assert {u.user_id for u in merged_a} == {u.user_id for u in merged_b}
        assert total_wire(merged_a) == total_wire(batch)
        assert total_wire(merged_b) == total_wire(batch)
        assert np.array_equal(total_delta(merged_a), total_delta(batch))
        assert np.array_equal(total_delta(merged_b), total_delta(batch))
        # Loss mass is conserved by example-weighting.  Not exact: the
        # merged update stores the weighted *mean*, and mean × count
        # does not round-trip when the division is inexact (e.g. a loss
        # mass of 11.5 over 21 examples), so compare to 1 ulp-scale.
        assert total_weighted_loss(merged_a) == pytest.approx(
            total_weighted_loss(batch), rel=1e-12, abs=1e-12
        )
        assert total_weighted_loss(merged_b) == pytest.approx(
            total_weighted_loss(batch), rel=1e-12, abs=1e-12
        )

    @given(batch=updates_batch())
    @settings(max_examples=40, deadline=None)
    def test_merge_is_idempotent(self, batch):
        merged = merge_duplicate_users(batch)
        again = merge_duplicate_users(merged)
        assert [u.user_id for u in again] == [u.user_id for u in merged]
        assert total_wire(again) == total_wire(merged)
        assert np.array_equal(total_delta(again), total_delta(merged))


class TestBufferedMergeInterleavings:
    @given(
        batch=updates_batch(),
        split_seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(
        # Hypothesis found this shape: merging three uploads of one user
        # in buffer-first order stores the mean loss as 1.032608695652174,
        # in delivery order as 1.0326086956521738 — 23.750000000000004 vs
        # 23.75 once multiplied back by the 23 examples.
        batch=[
            zero_delta_update(15, 1.25),
            zero_delta_update(2, 1.0),
            zero_delta_update(6, 0.5),
        ],
        split_seed=1,
    )
    @settings(max_examples=60, deadline=None)
    def test_buffer_interleaving_preserves_totals(self, batch, split_seed):
        """Routing a random subset through the straggler buffer (at unit
        weight) and merging it with the rest — in any interleaving —
        changes nothing about the aggregate totals (the loss mass to
        1 ulp-scale: the two sides sum the same terms in different
        orders, see ``test_permutation_invariant_totals``)."""
        rng = np.random.default_rng(split_seed)
        through_buffer = rng.random(len(batch)) < 0.5
        buffer = StragglerBuffer(staleness_weight=1.0)
        buffer.add(
            [u for u, late in zip(batch, through_buffer) if late], weight=1.0
        )
        fresh = [u for u, late in zip(batch, through_buffer) if not late]
        merged = merge_duplicate_users(buffer.drain() + fresh)

        direct = merge_duplicate_users(batch)
        assert {u.user_id for u in merged} == {u.user_id for u in direct}
        assert total_wire(merged) == total_wire(direct)
        assert np.array_equal(total_delta(merged), total_delta(direct))
        assert total_weighted_loss(merged) == pytest.approx(
            total_weighted_loss(direct), rel=1e-12, abs=1e-12
        )

    @given(
        batch=updates_batch(),
        weight_quarters=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_staleness_weight_scales_deltas_only(self, batch, weight_quarters):
        """A staleness discount scales the delta mass linearly and leaves
        the wire accounting untouched (the bytes already crossed)."""
        weight = weight_quarters / 4.0
        buffer = StragglerBuffer()
        buffer.add(batch, weight=weight)
        buffered = buffer.drain()
        assert total_wire(buffered) == total_wire(batch)
        assert np.array_equal(total_delta(buffered), weight * total_delta(batch))
