"""Sparse-vs-dense upload equivalence suite.

Every sparse update must behave exactly (to the operation's own
arithmetic, i.e. equality — untouched rows contribute exact zeros) like
its densified twin through every server-side consumer: padding
aggregation, privacy protection, secure aggregation and availability
merging; plus the payload-level contracts (wire cost, scaling, the
``dense()``/``__array__`` escape hatch).
"""

import numpy as np
import pytest

from repro.federated.aggregation import padded_embedding_aggregate
from repro.federated.availability import merge_duplicate_users
from repro.federated.payload import ClientUpdate, SparseRowDelta, as_dense_delta
from repro.federated.privacy import PrivacyConfig, protect_update
from repro.federated.secure_agg import SecureAggregationConfig
from repro.federated.secure_protocol import run_secure_round
from repro.robustness.attacks import AttackConfig, poison_update
from repro.robustness.defenses import (
    robust_embedding_aggregate,
    server_clip_updates,
)

NUM_ITEMS = 40
DIMS = {"s": 2, "m": 3, "l": 4}


def sparse_update(user_id, group, rng, touched=6, heads=True):
    """A random sparse upload for ``group`` plus its densified twin."""
    width = DIMS[group]
    rows = np.sort(rng.choice(NUM_ITEMS, size=touched, replace=False))
    values = rng.normal(size=(touched, width))
    delta = SparseRowDelta(NUM_ITEMS, rows, values)
    head_deltas = (
        {group: {"w": rng.normal(size=(width, 2)), "b": rng.normal(size=(2,))}}
        if heads
        else {}
    )
    make = lambda emb: ClientUpdate(
        user_id=user_id,
        group=group,
        embedding_delta=emb,
        head_deltas={g: {k: v.copy() for k, v in s.items()} for g, s in head_deltas.items()},
        num_examples=5,
    )
    return make(delta), make(delta.dense())


def paired_round(rng, n=6):
    """A mixed-group round in both encodings, same values."""
    groups = ["s", "m", "l"]
    sparse, dense = [], []
    for user in range(n):
        s, d = sparse_update(user, groups[user % 3], rng)
        sparse.append(s)
        dense.append(d)
    return sparse, dense


class TestSparseRowDelta:
    def test_dense_round_trip(self, rng):
        dense = np.zeros((10, 3))
        dense[[2, 5, 7]] = rng.normal(size=(3, 3))
        delta = SparseRowDelta.from_dense(dense)
        assert delta.rows.tolist() == [2, 5, 7]
        np.testing.assert_array_equal(delta.dense(), dense)
        np.testing.assert_array_equal(np.asarray(delta), dense)

    def test_from_dense_drops_zero_rows(self):
        dense = np.zeros((4, 2))
        dense[1] = [1.0, -1.0]
        assert SparseRowDelta.from_dense(dense).rows.tolist() == [1]

    def test_wire_size_and_upload_size(self):
        delta = SparseRowDelta(100, np.array([3, 9]), np.ones((2, 4)))
        assert delta.wire_size == 2 * (1 + 4)
        update = ClientUpdate(
            user_id=0,
            group="l",
            embedding_delta=delta,
            head_deltas={"l": {"w": np.ones((2, 3))}},
        )
        # True wire cost: touched rows × (id + values) + every head scalar
        # — not O(num_rows).
        assert update.upload_size == 2 * (1 + 4) + 6

    def test_scaled_preserves_sparse_form(self):
        delta = SparseRowDelta(10, np.array([1, 4]), np.full((2, 2), 2.0))
        update = ClientUpdate(user_id=0, group="s", embedding_delta=delta)
        half = update.scaled(0.5)
        assert isinstance(half.embedding_delta, SparseRowDelta)
        np.testing.assert_array_equal(half.embedding_delta.values, 1.0)
        np.testing.assert_array_equal(delta.values, 2.0)  # original untouched

    def test_add_merges_rows(self):
        a = SparseRowDelta(8, np.array([1, 3]), np.ones((2, 2)))
        b = SparseRowDelta(8, np.array([3, 6]), np.full((2, 2), 2.0))
        merged = a + b
        assert merged.rows.tolist() == [1, 3, 6]
        np.testing.assert_array_equal(merged.dense(), a.dense() + b.dense())

    def test_sum_builtin(self):
        deltas = [
            SparseRowDelta(5, np.array([i]), np.full((1, 2), float(i)))
            for i in range(1, 4)
        ]
        total = sum(deltas)
        np.testing.assert_array_equal(
            total.dense(), sum(d.dense() for d in deltas)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseRowDelta(5, np.array([3, 1]), np.ones((2, 2)))  # unsorted
        with pytest.raises(ValueError):
            SparseRowDelta(5, np.array([1, 1]), np.ones((2, 2)))  # duplicate
        with pytest.raises(ValueError):
            SparseRowDelta(5, np.array([0, 7]), np.ones((2, 2)))  # out of range
        with pytest.raises(ValueError):
            SparseRowDelta(5, np.array([0, 1]), np.ones(2))  # not 2D

    def test_as_dense_delta_passthrough(self):
        dense = np.ones((3, 2))
        assert as_dense_delta(dense) is dense

    def test_mixed_dtype_add_promotes(self):
        """float32 + float64 must not silently downcast the f64 operand."""
        a = SparseRowDelta(6, np.array([0]), np.ones((1, 2), dtype=np.float32))
        b = SparseRowDelta(6, np.array([1]), np.full((1, 2), 1e-200))
        for merged in (a + b, b + a):
            assert merged.values.dtype == np.float64
            # 1e-200 underflows float32 to zero; it must survive exactly.
            np.testing.assert_array_equal(merged.dense()[1], 1e-200)
        same = a + SparseRowDelta(6, np.array([0]), np.ones((1, 2), np.float32))
        assert same.values.dtype == np.float32

    def test_mixed_dtype_mul_promotes(self):
        a = SparseRowDelta(6, np.array([2]), np.ones((1, 3), dtype=np.float32))
        # Python scalars stay weak: float32 sweeps keep their precision...
        assert (a * 0.5).values.dtype == np.float32
        assert (0.5 * a).values.dtype == np.float32
        # ...but a typed float64 factor must win.
        scaled = a * np.float64(1e-200)
        assert scaled.values.dtype == np.float64
        np.testing.assert_array_equal(scaled.values, 1e-200)


class TestAggregationEquivalence:
    def test_padded_aggregate_sum(self, rng):
        sparse, dense = paired_round(rng)
        out_sparse = padded_embedding_aggregate(sparse, DIMS, mode="sum")
        out_dense = padded_embedding_aggregate(dense, DIMS, mode="sum")
        for group in DIMS:
            np.testing.assert_array_equal(out_sparse[group], out_dense[group])

    def test_padded_aggregate_mean(self, rng):
        sparse, dense = paired_round(rng)
        out_sparse = padded_embedding_aggregate(sparse, DIMS, mode="mean")
        out_dense = padded_embedding_aggregate(dense, DIMS, mode="mean")
        for group in DIMS:
            np.testing.assert_array_equal(out_sparse[group], out_dense[group])

    def test_mixed_encodings_aggregate_together(self, rng):
        sparse, dense = paired_round(rng)
        mixed = [s if i % 2 else d for i, (s, d) in enumerate(zip(sparse, dense))]
        out_mixed = padded_embedding_aggregate(mixed, DIMS, mode="sum")
        out_dense = padded_embedding_aggregate(dense, DIMS, mode="sum")
        for group in DIMS:
            np.testing.assert_array_equal(out_mixed[group], out_dense[group])


class TestPrivacyEquivalence:
    @pytest.mark.parametrize(
        "config",
        [
            PrivacyConfig(clip_norm=0.5),
            PrivacyConfig(clip_norm=0.5, noise_std=0.1),
            PrivacyConfig(pseudo_items=4),
            PrivacyConfig(clip_norm=0.5, noise_std=0.1, pseudo_items=4),
        ],
        ids=["clip", "clip+noise", "pseudo", "all"],
    )
    def test_protection_matches_dense(self, rng, config):
        sparse, dense = sparse_update(0, "l", rng)
        out_sparse = protect_update(sparse, config, np.random.default_rng(123))
        out_dense = protect_update(dense, config, np.random.default_rng(123))
        assert isinstance(out_sparse.embedding_delta, SparseRowDelta)
        np.testing.assert_array_equal(
            out_sparse.embedding_delta.dense(), out_dense.embedding_delta
        )
        for head_group in out_dense.head_deltas:
            for name, value in out_dense.head_deltas[head_group].items():
                np.testing.assert_array_equal(
                    out_sparse.head_deltas[head_group][name], value
                )

    def test_pseudo_rows_join_the_sparse_support(self, rng):
        sparse, _ = sparse_update(0, "m", rng, touched=5)
        config = PrivacyConfig(pseudo_items=7)
        out = protect_update(sparse, config, np.random.default_rng(9))
        assert out.embedding_delta.rows.size == 12
        # Wire cost grows with the obfuscated support, as it should.
        assert out.embedding_delta.wire_size > sparse.embedding_delta.wire_size


class TestSecureAggregationEquivalence:
    def test_masked_sum_matches_dense(self, rng):
        sparse, dense = paired_round(rng)
        config = SecureAggregationConfig(seed=3)
        emb_sparse, heads_sparse, _ = run_secure_round(
            sparse, DIMS, config, round_id=1
        )
        emb_dense, heads_dense, _ = run_secure_round(
            dense, DIMS, config, round_id=1
        )
        for group in DIMS:
            np.testing.assert_array_equal(emb_sparse[group], emb_dense[group])
        for head_group in heads_dense:
            for name in heads_dense[head_group]:
                np.testing.assert_array_equal(
                    heads_sparse[head_group][name], heads_dense[head_group][name]
                )


class TestAvailabilityEquivalence:
    def test_duplicate_merge_matches_dense(self, rng):
        sparse_a, dense_a = sparse_update(1, "m", rng, touched=5)
        sparse_b, dense_b = sparse_update(1, "m", rng, touched=8)
        merged_sparse = merge_duplicate_users([sparse_a, sparse_b])
        merged_dense = merge_duplicate_users([dense_a, dense_b])
        assert len(merged_sparse) == 1
        assert isinstance(merged_sparse[0].embedding_delta, SparseRowDelta)
        np.testing.assert_array_equal(
            merged_sparse[0].embedding_delta.dense(),
            merged_dense[0].embedding_delta,
        )
        assert merged_sparse[0].num_examples == merged_dense[0].num_examples

    def test_staleness_scaling_stays_sparse(self, rng):
        from repro.federated.availability import StragglerBuffer

        sparse, dense = sparse_update(2, "s", rng)
        buffer = StragglerBuffer(staleness_weight=0.5)
        buffer.add([sparse])
        (drained,) = buffer.drain()
        assert isinstance(drained.embedding_delta, SparseRowDelta)
        np.testing.assert_array_equal(
            drained.embedding_delta.dense(), dense.embedding_delta * 0.5
        )


class TestRobustnessPaths:
    def test_noise_attack_preserves_sparse_form(self, rng):
        sparse, _ = sparse_update(0, "l", rng)
        poisoned = poison_update(
            sparse, AttackConfig(kind="noise", fraction=1.0, scale=5.0), rng
        )
        delta = poisoned.embedding_delta
        assert isinstance(delta, SparseRowDelta)
        np.testing.assert_array_equal(delta.rows, sparse.embedding_delta.rows)
        assert not np.allclose(delta.values, sparse.embedding_delta.values)

    def test_signflip_preserves_sparse_form(self, rng):
        sparse, dense = sparse_update(0, "m", rng)
        config = AttackConfig(kind="signflip", fraction=1.0, scale=4.0)
        out_sparse = poison_update(sparse, config, rng)
        out_dense = poison_update(dense, config, rng)
        assert isinstance(out_sparse.embedding_delta, SparseRowDelta)
        np.testing.assert_array_equal(
            out_sparse.embedding_delta.dense(), out_dense.embedding_delta
        )

    def test_promote_attack_adds_target_row(self, rng):
        sparse, dense = sparse_update(0, "l", rng)
        target = int(
            np.setdiff1d(np.arange(NUM_ITEMS), sparse.embedding_delta.rows)[0]
        )
        config = AttackConfig(kind="promote", fraction=1.0, target_item=target)
        out_sparse = poison_update(sparse, config, rng)
        out_dense = poison_update(dense, config, rng)
        assert isinstance(out_sparse.embedding_delta, SparseRowDelta)
        assert target in out_sparse.embedding_delta.rows
        np.testing.assert_array_equal(
            out_sparse.embedding_delta.dense(), out_dense.embedding_delta
        )

    def test_server_clip_matches_dense(self, rng):
        sparse, dense = paired_round(rng)
        # Make one upload an outlier so clipping actually fires.
        sparse[0] = sparse[0].scaled(100.0)
        dense[0] = dense[0].scaled(100.0)
        out_sparse = server_clip_updates(sparse, headroom=2.0)
        out_dense = server_clip_updates(dense, headroom=2.0)
        for s, d in zip(out_sparse, out_dense):
            np.testing.assert_allclose(
                as_dense_delta(s.embedding_delta),
                as_dense_delta(d.embedding_delta),
                atol=1e-12,
            )

    def test_robust_aggregate_matches_dense(self, rng):
        sparse, dense = paired_round(rng)
        for kind in ("median", "trimmed_mean"):
            out_sparse = robust_embedding_aggregate(sparse, DIMS, kind=kind)
            out_dense = robust_embedding_aggregate(dense, DIMS, kind=kind)
            for group in DIMS:
                np.testing.assert_array_equal(out_sparse[group], out_dense[group])


class TestCompressionPath:
    def test_sparse_in_sparse_out_with_row_cost(self, rng):
        from repro.compression.client import ClientCompressor
        from repro.compression.codecs import CompressionConfig

        sparse, _ = sparse_update(0, "l", rng, heads=False)
        compressor = ClientCompressor(
            CompressionConfig(kind="topk", ratio=0.5, error_feedback=True)
        )
        out = compressor.apply(sparse)
        delta = out.embedding_delta
        assert isinstance(delta, SparseRowDelta)
        np.testing.assert_array_equal(delta.rows, sparse.embedding_delta.rows)
        kept = np.count_nonzero(delta.values)
        # top-k cost (2 per kept entry) plus one scalar per row id.
        assert out.upload_size == 2.0 * kept + delta.rows.size

    def test_error_feedback_debiases_sparse(self, rng):
        from repro.compression.client import ClientCompressor
        from repro.compression.codecs import CompressionConfig

        compressor = ClientCompressor(
            CompressionConfig(kind="topk", ratio=0.3, error_feedback=True)
        )
        rows = np.arange(4)
        true_total = np.zeros((10, 2))
        sent_total = np.zeros((10, 2))
        for _ in range(40):
            delta = SparseRowDelta(10, rows, rng.normal(size=(4, 2)))
            update = ClientUpdate(user_id=0, group="s", embedding_delta=delta)
            true_total += delta.dense()
            sent_total += compressor.apply(update).embedding_delta.dense()
        residual = compressor.residual_norm(0)
        np.testing.assert_allclose(
            sent_total, true_total, atol=residual + 1e-9
        )
        assert np.abs(sent_total - true_total).max() < np.abs(true_total).max()
