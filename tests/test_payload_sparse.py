"""Upload-payload equivalence suite.

``ClientUpdate.embedding_delta`` is always a :class:`SparseRowDelta`.
Every server-side consumer — padding aggregation, privacy protection,
secure aggregation, availability merging, robust defences — must
produce exactly (to the operation's own arithmetic, i.e. equality —
untouched rows contribute exact zeros) what a plain-numpy oracle
computes on ``delta.dense()``; plus the payload-level contracts (the
constructor's coercion, wire cost, scaling, the ``dense()``/``__array__``
escape hatch).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federated.aggregation import pad_columns, padded_embedding_aggregate
from repro.federated.availability import merge_duplicate_users
from repro.federated.payload import ClientUpdate, SparseRowDelta, touched_rows
from repro.federated.privacy import (
    PrivacyConfig,
    clip_rows,
    gaussian_noise_like,
    protect_update,
)
from repro.federated.secure_agg import (
    FixedPointCodec,
    SecureAggregationConfig,
    _flatten_update,
    _round_layout,
)
from repro.federated.secure_protocol import run_secure_round
from repro.robustness import attacks
from repro.robustness.attacks import AttackConfig, poison_update
from repro.robustness.defenses import (
    robust_embedding_aggregate,
    server_clip_updates,
)

NUM_ITEMS = 40
DIMS = {"s": 2, "m": 3, "l": 4}
WIDEST = max(DIMS.values())


def sparse_update(user_id, group, rng, touched=6, heads=True):
    """A random upload for ``group`` plus its dense ``(NUM_ITEMS, d)`` table."""
    width = DIMS[group]
    rows = np.sort(rng.choice(NUM_ITEMS, size=touched, replace=False))
    values = rng.normal(size=(touched, width))
    delta = SparseRowDelta(NUM_ITEMS, rows, values)
    head_deltas = (
        {group: {"w": rng.normal(size=(width, 2)), "b": rng.normal(size=(2,))}}
        if heads
        else {}
    )
    update = ClientUpdate(
        user_id=user_id,
        group=group,
        embedding_delta=delta,
        head_deltas=head_deltas,
        num_examples=5,
    )
    return update, delta.dense()


def paired_round(rng, n=6):
    """A mixed-group round: the uploads and their dense tables."""
    groups = ["s", "m", "l"]
    pairs = [sparse_update(user, groups[user % 3], rng) for user in range(n)]
    return [u for u, _ in pairs], [d for _, d in pairs]


def padded_sum(tables, widest=WIDEST):
    """Eq. 8 on plain arrays: zero-pad to the widest width and add."""
    total = np.zeros((tables[0].shape[0], widest))
    for table in tables:
        total += pad_columns(table, widest)
    return total


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

    def test_add_rejects_dense_operand(self):
        """No silent O(catalogue) densification: ``+`` takes a sparse
        operand or the literal 0."""
        delta = SparseRowDelta(4, np.array([1]), np.ones((1, 2)))
        for other in (np.ones((4, 2)), delta.dense(), 1.0):
            with pytest.raises(TypeError):
                delta + other

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseRowDelta(5, np.array([3, 1]), np.ones((2, 2)))  # unsorted
        with pytest.raises(ValueError):
            SparseRowDelta(5, np.array([1, 1]), np.ones((2, 2)))  # duplicate
        with pytest.raises(ValueError):
            SparseRowDelta(5, np.array([0, 7]), np.ones((2, 2)))  # out of range
        with pytest.raises(ValueError):
            SparseRowDelta(5, np.array([0, 1]), np.ones(2))  # not 2D

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


class TestClientUpdateConstructor:
    """The single door: whatever is handed in, consumers see sparse."""

    def test_ndarray_is_coerced_with_zero_rows_dropped(self, rng):
        dense = np.zeros((12, 3))
        dense[[1, 4, 9]] = rng.normal(size=(3, 3))
        update = ClientUpdate(user_id=0, group="m", embedding_delta=dense)
        delta = update.embedding_delta
        assert isinstance(delta, SparseRowDelta)
        assert delta.shape == (12, 3)
        assert delta.rows.tolist() == [1, 4, 9]
        np.testing.assert_array_equal(delta.dense(), dense)
        # Wire cost is the touched rows', not the table's.
        assert update.upload_size == 3 * (1 + 3)

    def test_sparse_delta_passes_through_untouched(self):
        delta = SparseRowDelta(5, np.array([2]), np.ones((1, 2)))
        assert ClientUpdate(0, "s", delta).embedding_delta is delta

    def test_empty_placeholder(self):
        update = ClientUpdate(user_id=0, group="s", embedding_delta=np.zeros((0, 0)))
        assert update.embedding_delta.shape == (0, 0)
        assert update.upload_size == 0.0

    @pytest.mark.parametrize("bad", [np.ones(3), np.ones((2, 2, 2)), 1.0])
    def test_non_2d_array_raises(self, bad):
        with pytest.raises(ValueError):
            ClientUpdate(user_id=0, group="s", embedding_delta=bad)


class TestAggregationEquivalence:
    def test_padded_aggregate_sum(self, rng):
        updates, tables = paired_round(rng)
        out = padded_embedding_aggregate(updates, DIMS)
        expected = padded_sum(tables)
        for group, width in DIMS.items():
            np.testing.assert_array_equal(out[group], expected[:, :width])

    def test_mixed_encodings_aggregate_together(self, rng):
        """Hand-built dense tables enter through the constructor and sum
        with trainer-emitted sparse uploads to the padded numpy total."""
        updates, tables = paired_round(rng)
        mixed = [
            u
            if i % 2
            else ClientUpdate(user_id=u.user_id, group=u.group, embedding_delta=t)
            for i, (u, t) in enumerate(zip(updates, tables))
        ]
        out = padded_embedding_aggregate(mixed, DIMS)
        expected = padded_sum(tables)
        for group, width in DIMS.items():
            np.testing.assert_array_equal(out[group], expected[:, :width])


def protect_dense_oracle(table, heads, config, rng):
    """clip → noise on the dense table, heads noised after."""
    sigma = config.noise_std * (config.clip_norm if config.clip_norm else 1.0)
    table = clip_rows(table, config.clip_norm)
    if sigma > 0:
        support = touched_rows(table)
        table = table.copy()
        table[support] += rng.normal(0.0, sigma, size=(support.size, table.shape[1]))
        heads = {g: gaussian_noise_like(s, sigma, rng) for g, s in heads.items()}
    return table, heads


class TestPrivacyEquivalence:
    @pytest.mark.parametrize(
        "config",
        [PrivacyConfig(clip_norm=0.5), PrivacyConfig(clip_norm=0.5, noise_std=0.1)],
        ids=["clip", "clip+noise"],
    )
    def test_protection_matches_dense(self, rng, config):
        update, table = sparse_update(0, "l", rng)
        out = protect_update(update, config, np.random.default_rng(123))
        expected, expected_heads = protect_dense_oracle(
            table, update.head_deltas, config, np.random.default_rng(123)
        )
        assert isinstance(out.embedding_delta, SparseRowDelta)
        np.testing.assert_array_equal(out.embedding_delta.dense(), expected)
        for head_group in expected_heads:
            for name, value in expected_heads[head_group].items():
                np.testing.assert_array_equal(
                    out.head_deltas[head_group][name], value
                )


def fixed_point_sum(blocks, config):
    """encode → add in uint64 → decode: the secure sum with no masks."""
    codec = FixedPointCodec()
    total = np.zeros(blocks[0].size, dtype=np.uint64)
    for block in blocks:
        total = total + codec.encode(block.ravel())
    return codec.decode(total).reshape(blocks[0].shape)


class TestSecureAggregationEquivalence:
    def test_masked_sum_matches_dense(self, rng):
        updates, tables = paired_round(rng)
        config = SecureAggregationConfig(seed=3)
        emb, heads, _ = run_secure_round(updates, DIMS, config, round_id=1)
        expected = fixed_point_sum(
            [pad_columns(table, WIDEST) for table in tables], config
        )
        for group, width in DIMS.items():
            np.testing.assert_array_equal(emb[group], expected[:, :width])
        for head_group in DIMS:
            senders = [u for u in updates if head_group in u.head_deltas]
            for name in ("w", "b"):
                np.testing.assert_array_equal(
                    heads[head_group][name],
                    fixed_point_sum(
                        [u.head_deltas[head_group][name] for u in senders], config
                    ),
                )


class TestAvailabilityEquivalence:
    def test_duplicate_merge_matches_dense(self, rng):
        first, table_a = sparse_update(1, "m", rng, touched=5)
        second, table_b = sparse_update(1, "m", rng, touched=8)
        merged = merge_duplicate_users([first, second])
        assert len(merged) == 1
        assert isinstance(merged[0].embedding_delta, SparseRowDelta)
        np.testing.assert_array_equal(
            merged[0].embedding_delta.dense(), table_a + table_b
        )
        assert merged[0].num_examples == first.num_examples + second.num_examples

    def test_staleness_scaling_stays_sparse(self, rng):
        from repro.federated.availability import StragglerBuffer

        sparse, table = sparse_update(2, "s", rng)
        buffer = StragglerBuffer(staleness_weight=0.5)
        buffer.add([sparse])
        (drained,) = buffer.drain()
        assert isinstance(drained.embedding_delta, SparseRowDelta)
        np.testing.assert_array_equal(drained.embedding_delta.dense(), table * 0.5)


def robust_oracle(tables, kind, trim_fraction=0.2):
    """Per-row median / trimmed mean over the touching clients × count."""
    stacked = np.stack([pad_columns(t, WIDEST) for t in tables])
    total = np.zeros(stacked.shape[1:])
    for row in range(stacked.shape[1]):
        block = stacked[np.abs(stacked[:, row]).sum(axis=1) > 0, row]
        if not block.shape[0]:
            continue
        k = int(np.floor(block.shape[0] * trim_fraction))
        if kind == "median" or 2 * k >= block.shape[0]:
            statistic = np.median(block, axis=0)
        else:
            statistic = np.sort(block, axis=0)[k : block.shape[0] - k].mean(axis=0)
        total[row] = statistic * block.shape[0]
    return total


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
        update, table = sparse_update(0, "m", rng)
        config = AttackConfig(kind="signflip", fraction=1.0, scale=4.0)
        out = poison_update(update, config, rng)
        assert isinstance(out.embedding_delta, SparseRowDelta)
        np.testing.assert_array_equal(out.embedding_delta.dense(), table * -4.0)

    def test_promote_attack_adds_target_row(self, rng, monkeypatch):
        update, table = sparse_update(0, "l", rng)
        target = int(
            np.setdiff1d(np.arange(NUM_ITEMS), update.embedding_delta.rows)[0]
        )
        monkeypatch.setattr(attacks, "TARGET_ITEM", target)
        config = AttackConfig(kind="promote", fraction=1.0)
        out = poison_update(update, config, rng)
        assert isinstance(out.embedding_delta, SparseRowDelta)
        assert target in out.embedding_delta.rows
        # Oracle: the target row becomes scale × typical honest row norm
        # along the centroid of the honestly touched rows.
        support = touched_rows(table)
        centroid = table[support].mean(axis=0)
        typical = np.linalg.norm(table[support], axis=1).mean()
        expected = table.copy()
        direction = centroid / np.linalg.norm(centroid)
        expected[target] = config.scale * typical * direction
        np.testing.assert_array_equal(out.embedding_delta.dense(), expected)

    def test_server_clip_matches_dense(self, rng):
        updates, tables = paired_round(rng)
        # Make one upload an outlier so clipping actually fires.
        updates[0] = updates[0].scaled(100.0)
        tables[0] = tables[0] * 100.0
        out = server_clip_updates(updates, headroom=2.0)
        norms = np.array([np.linalg.norm(t) for t in tables])
        bound = np.median(norms) * 2.0
        assert norms[0] > bound
        for clipped, table, norm in zip(out, tables, norms):
            expected = table * (bound / norm) if norm > bound else table
            np.testing.assert_allclose(
                clipped.embedding_delta.dense(), expected, atol=1e-12
            )

    def test_robust_aggregate_matches_dense(self, rng):
        updates, tables = paired_round(rng)
        for kind in ("median", "trimmed_mean"):
            out = robust_embedding_aggregate(updates, DIMS, kind=kind)
            expected = robust_oracle(tables, kind)
            for group, width in DIMS.items():
                np.testing.assert_array_equal(out[group], expected[:, :width])


@st.composite
def random_round(draw):
    """A round of uploads over random supports, widths and dtypes,
    each paired with its dense table.

    Values are small integers stored as floats, so every sum is exact
    and the oracles can be compared by equality whatever the dtype.  A
    user id is tied to its group, so duplicate uploads share a width.
    """
    num_rows = draw(st.integers(min_value=1, max_value=12))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    groups = sorted(DIMS)
    pairs = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        group = draw(st.sampled_from(groups))
        width = DIMS[group]
        rows = sorted(
            draw(st.sets(st.integers(min_value=0, max_value=num_rows - 1)))
        )
        values = draw(
            st.lists(
                st.lists(
                    st.integers(min_value=-8, max_value=8),
                    min_size=width, max_size=width,
                ),
                min_size=len(rows), max_size=len(rows),
            )
        )
        delta = SparseRowDelta(
            num_rows,
            np.array(rows, dtype=np.int64),
            np.array(values, dtype=dtype).reshape(len(rows), width),
        )
        update = ClientUpdate(
            user_id=groups.index(group),
            group=group,
            embedding_delta=delta,
            head_deltas={group: {"b": np.array([1, 2], dtype=dtype)}},
            num_examples=1,
        )
        pairs.append((update, delta.dense()))
    return pairs


class TestConsumersMatchNumpyOracle:
    @given(pairs=random_round(), factor=st.sampled_from([-2.0, 0.5, 4.0]))
    @settings(max_examples=60, deadline=None)
    def test_every_consumer_equals_its_oracle(self, pairs, factor):
        updates = [u for u, _ in pairs]
        tables = [t for _, t in pairs]

        out = padded_embedding_aggregate(updates, DIMS)
        expected = padded_sum(tables)
        for group, width in DIMS.items():
            np.testing.assert_array_equal(out[group], expected[:, :width])

        # Secure flatten: nested segments, narrowest group first — each
        # group's new columns, then its head slot if the round saw that
        # head — cut off after the uploader's own segment.
        layout = _round_layout(updates, DIMS)
        order = sorted(DIMS, key=DIMS.get)
        seen_heads = {u.group for u in updates}
        for update, table in pairs:
            pieces, low = [], 0
            for group in order[: order.index(update.group) + 1]:
                pieces.append(table[:, low : DIMS[group]].ravel())
                low = DIMS[group]
                if group == update.group:
                    pieces.append(update.head_deltas[group]["b"])
                elif group in seen_heads:
                    pieces.append(np.zeros(2))
            flat = _flatten_update(update, layout)
            assert flat.size == layout.length_of(update) <= layout.total
            np.testing.assert_array_equal(flat, np.concatenate(pieces))

        per_user = {}
        for update, table in pairs:
            seen = per_user.get(update.user_id)
            per_user[update.user_id] = table if seen is None else seen + table
        for merged in merge_duplicate_users(updates):
            np.testing.assert_array_equal(
                merged.embedding_delta.dense(), per_user[merged.user_id]
            )

        for update, table in pairs:
            scaled = update.scaled(factor).embedding_delta
            assert scaled.dtype == table.dtype
            np.testing.assert_array_equal(scaled.dense(), table * factor)

        norms = np.array([np.linalg.norm(t) for t in tables], dtype=np.float64)
        bound = float(np.median(norms)) * 1.5
        for clipped, table, norm in zip(
            server_clip_updates(updates, headroom=1.5), tables, norms
        ):
            expected = table * (bound / norm) if 0 < bound < norm else table
            np.testing.assert_allclose(
                clipped.embedding_delta.dense(), expected, rtol=1e-6
            )


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
