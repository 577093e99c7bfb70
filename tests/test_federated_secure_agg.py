"""Tests for secure aggregation: codec, masking, dropout, heterogeneity.

The building blocks (:mod:`repro.federated.secure_agg`) are tested
directly; everything about *sums* is tested on the one path that
computes them, :func:`repro.federated.secure_protocol.run_secure_round`.
``TestSecureAggregationSession`` / ``TestSecureAggregateUpdates`` keep
the names of the one-shot session API they used to drive (retired in
PR 14) because the behaviours they pin — exact sums, hidden uploads,
dropout recovery, heterogeneous padding — are the protocol's contract
too, and the tier-1 floor tracks them by id.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federated.aggregation import (
    aggregate_head_updates,
    padded_embedding_aggregate,
)
from repro.federated import secure_agg
from repro.federated.payload import ClientUpdate
from repro.federated.secure_agg import (
    FixedPointCodec,
    MaskPRG,
    SecureAggregationConfig,
)
from repro.federated.secure_protocol import (
    FaultPlan,
    ProtocolError,
    SecureAggregationClient,
    SecureAggregationServer,
    run_secure_round,
)


def keyed_clients(ids, seed=0, round_id=1, size=16):
    """Server + clients walked up to the masked-input phase: keys
    advertised, Shamir shares exchanged, pair seeds agreed."""
    config = SecureAggregationConfig(seed=seed)
    server = SecureAggregationServer(ids, {u: size for u in ids}, round_id, config)
    clients = {u: SecureAggregationClient(u, round_id, config) for u in ids}
    for client in clients.values():
        server.receive_advertisement(client.advertise())
    roster = server.close_advertise()
    adverts = {u: server._advertisements[u] for u in roster}
    for u, client in clients.items():
        server.receive_shares(u, client.make_shares(roster, server.threshold, adverts))
    share_roster = server.close_shares()
    for u, client in clients.items():
        client.receive_shares(server.shares_for(u), share_roster)
    return server, clients


def pairwise_mask(pair_seed, round_id, size):
    """The mask ``pair_seed`` stands for in ``round_id`` (fresh endpoint)."""
    return MaskPRG(round_id).expand(pair_seed, size)


def flat_updates(vectors):
    """One single-column ``ClientUpdate`` per ``{user_id: vector}`` entry."""
    return [
        ClientUpdate(
            user_id=uid, group="s",
            embedding_delta=np.asarray(vector, dtype=np.float64).reshape(-1, 1),
        )
        for uid, vector in vectors.items()
    ]


def secure_sum(vectors, round_id=0, drops=(), seed=5):
    """The protocol's decoded sum over ``vectors`` (flat, one column)."""
    faults = FaultPlan(drops={"masked_input": frozenset(drops)}) if drops else None
    emb, _, report = run_secure_round(
        flat_updates(vectors), {"s": 1}, SecureAggregationConfig(seed=seed),
        round_id, faults,
    )
    assert not report.aborted
    return emb["s"].ravel(), report


@pytest.fixture()
def narrow_codec(monkeypatch):
    """An 8-bit codec that clamps at ±2."""
    monkeypatch.setattr(secure_agg, "PRECISION_BITS", 8)
    monkeypatch.setattr(secure_agg, "CLIP_RANGE", 2.0)
    return FixedPointCodec()


class TestFixedPointCodec:
    def test_round_trip_within_error_bound(self):
        codec = FixedPointCodec()
        values = np.array([0.0, 1.0, -1.0, 3.14159, -2.71828, 63.999])
        decoded = codec.decode(codec.encode(values))
        assert np.max(np.abs(decoded - values)) <= codec.quantisation_error_bound()

    def test_clipping_applies(self, narrow_codec):
        codec = narrow_codec
        with pytest.warns(RuntimeWarning, match="saturated 2 scalar"):
            decoded = codec.decode(codec.encode(np.array([100.0, -100.0])))
        assert np.allclose(decoded, [2.0, -2.0])
        assert codec.saturated_total == 2

    def test_in_range_values_do_not_warn_or_count(self, narrow_codec):
        codec = narrow_codec
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codec.encode(np.array([1.5, -1.99, 0.0]))
        assert codec.saturated_total == 0

    def test_negative_values_survive_field_representation(self):
        codec = FixedPointCodec()
        values = np.array([-0.5, -1e-3, -10.0])
        assert np.all(codec.decode(codec.encode(values)) < 0)

    def test_field_addition_matches_real_addition(self, monkeypatch):
        monkeypatch.setattr(secure_agg, "PRECISION_BITS", 20)
        codec = FixedPointCodec()
        a, b = np.array([1.25, -3.5]), np.array([2.75, 1.5])
        total = codec.decode(codec.encode(a) + codec.encode(b))
        assert np.allclose(total, a + b, atol=2 * codec.quantisation_error_bound())

    @given(
        st.lists(
            st.floats(min_value=-60, max_value=60, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, floats):
        codec = FixedPointCodec()
        values = np.array(floats)
        decoded = codec.decode(codec.encode(values))
        assert np.max(np.abs(decoded - values)) <= codec.quantisation_error_bound()


class TestPairSeedsAndMasks:
    """Pair seeds come from Diffie–Hellman agreement between clients."""

    def test_pair_seed_is_order_independent(self):
        _, clients = keyed_clients([3, 9])
        assert clients[3].pair_seed(9) == clients[9].pair_seed(3)

    def test_pair_seed_depends_on_root(self):
        _, first = keyed_clients([3, 9], seed=0)
        _, second = keyed_clients([3, 9], seed=1)
        assert first[3].pair_seed(9) != second[3].pair_seed(9)

    def test_pair_seed_depends_on_pair(self):
        _, clients = keyed_clients([3, 9, 10])
        assert clients[3].pair_seed(9) != clients[3].pair_seed(10)

    def test_mask_is_deterministic_per_round(self):
        assert np.array_equal(pairwise_mask(42, 1, 8), pairwise_mask(42, 1, 8))

    def test_mask_changes_across_rounds(self):
        assert not np.array_equal(pairwise_mask(42, 1, 64), pairwise_mask(42, 2, 64))

    def test_mask_values_cover_field(self):
        mask = pairwise_mask(7, 0, 10_000)
        # A uniform 64-bit sample should populate the upper half too.
        assert mask.max() > np.uint64(2**63)


class TestSecureAggregationSession:
    """One masking round over a fixed participant set, on the protocol."""

    def test_sum_recovered_exactly_up_to_quantisation(self):
        rng = np.random.default_rng(0)
        vectors = {i: rng.normal(size=16) for i in (1, 2, 3)}
        total, _ = secure_sum(vectors)
        assert np.allclose(total, sum(vectors.values()), atol=1e-5)

    def test_single_upload_is_statistically_hidden(self):
        """A masked vector must not correlate with its plaintext."""
        _, clients = keyed_clients([1, 2, 3], seed=5, size=4096)
        plain = np.ones(4096)
        masked = clients[1].masked_input(plain).vector
        masked = masked.view(np.int64).astype(np.float64)
        corr = np.corrcoef(masked, plain + np.random.default_rng(1).normal(size=4096))[0, 1]
        assert abs(corr) < 0.1

    def test_masks_cancel_pairwise(self):
        total, _ = secure_sum({10: np.zeros(16), 20: np.zeros(16)})
        assert np.allclose(total, 0.0, atol=1e-6)

    def test_dropout_recovery(self):
        vectors = {i: np.full(16, float(i)) for i in (1, 2, 3, 4)}
        total, report = secure_sum(vectors, drops=[3])
        assert report.survivors == [1, 2, 4]
        assert np.allclose(total, 1 + 2 + 4, atol=1e-5)

    def test_multiple_dropouts(self):
        vectors = {i: np.full(16, 1.0) for i in (1, 2, 3, 4, 5)}
        total, report = secure_sum(vectors, drops=[3, 4])
        assert report.survivors == [1, 2, 5]
        assert np.allclose(total, 3.0, atol=1e-5)

    def test_unknown_client_rejected(self):
        server, _ = keyed_clients([1, 2, 3])
        stranger = SecureAggregationClient(99, 1, SecureAggregationConfig())
        with pytest.raises(ProtocolError):
            server.receive_advertisement(stranger.advertise())

    def test_wrong_vector_size_rejected(self):
        server, clients = keyed_clients([1, 2, 3])
        assert not server.receive_masked_input(clients[1].masked_input(np.zeros(5)))
        assert server.rejected_inputs == 1
        for uid in (2, 3):
            assert server.receive_masked_input(clients[uid].masked_input(np.zeros(16)))
        # The mis-sized upload never counted: its sender is a dropout.
        assert server.close_masked_inputs() == ([2, 3], [1])

    def test_duplicate_participants_rejected(self):
        with pytest.raises(ValueError):
            SecureAggregationServer(
                [1, 1, 2], {1: 4, 2: 4}, 0, SecureAggregationConfig()
            )
        twice = flat_updates({1: np.zeros(4)}) * 2
        with pytest.raises(ValueError, match="duplicate user ids"):
            run_secure_round(twice, {"s": 1}, SecureAggregationConfig(), 0)

    @given(
        n_clients=st.integers(min_value=2, max_value=6),
        size=st.integers(min_value=1, max_value=32),
        round_id=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_sum_property(self, n_clients, size, round_id):
        rng = np.random.default_rng(round_id)
        vectors = {
            i: rng.uniform(-10, 10, size=size) for i in range(1, n_clients + 1)
        }
        total, _ = secure_sum(vectors, round_id=round_id, seed=0)
        assert np.allclose(total, sum(vectors.values()), atol=1e-4)


class TestSecureAggregateUpdates:
    """A full round over heterogeneous (width, heads) uploads."""

    DIMS = {"s": 2, "m": 3, "l": 4}

    def _updates(self, seed=0):
        rng = np.random.default_rng(seed)
        updates = []
        for user_id, group in [(3, "s"), (9, "m"), (1, "l"), (5, "s")]:
            width = self.DIMS[group]
            heads = {
                group: {
                    "w": rng.normal(size=(3, 2)),
                    "b": rng.normal(size=(2,)),
                }
            }
            updates.append(
                ClientUpdate(
                    user_id=user_id,
                    group=group,
                    embedding_delta=rng.normal(size=(6, width)),
                    head_deltas=heads,
                )
            )
        return updates

    def test_matches_plain_padded_sum(self):
        updates = self._updates()
        config = SecureAggregationConfig(seed=11)
        secure_emb, secure_heads, _ = run_secure_round(
            updates, self.DIMS, config, round_id=3
        )
        plain_emb = padded_embedding_aggregate(updates, self.DIMS)
        plain_heads = aggregate_head_updates(updates, mode="sum")
        for group in self.DIMS:
            assert np.allclose(secure_emb[group], plain_emb[group], atol=1e-5)
        for head_group, state in plain_heads.items():
            for name, values in state.items():
                assert np.allclose(secure_heads[head_group][name], values, atol=1e-5)

    def test_head_counts_reproduce_mean_mode(self):
        """The server knows who uploaded which head (public metadata), so
        dividing the secure sums by those counts is the 'mean' Θ mode."""
        updates = self._updates()
        counts = {}
        for update in updates:
            for head_group in update.head_deltas:
                counts[head_group] = counts.get(head_group, 0) + 1
        _, secure_heads, _ = run_secure_round(
            updates, self.DIMS, SecureAggregationConfig(), round_id=0
        )
        plain_heads = aggregate_head_updates(updates, mode="mean")
        for head_group, state in plain_heads.items():
            for name, values in state.items():
                assert np.allclose(
                    secure_heads[head_group][name] / counts[head_group],
                    values, atol=1e-5,
                )

    def test_dropout_drops_that_clients_contribution(self):
        updates = self._updates()
        config = SecureAggregationConfig(seed=2)
        emb, _, report = run_secure_round(
            updates, self.DIMS, config, round_id=1,
            faults=FaultPlan(drops={"masked_input": frozenset({9})}),
        )
        assert report.dropouts_by_phase["masked_input"] == [9]
        survivors = [u for u in updates if u.user_id != 9]
        plain = padded_embedding_aggregate(survivors, self.DIMS)
        assert np.allclose(emb["l"], plain["l"], atol=1e-5)

    def test_empty_round(self):
        """No uploads, no masking slots: the caller must not start a round."""
        with pytest.raises(ValueError, match="at least one update"):
            run_secure_round([], self.DIMS, SecureAggregationConfig(), 0)

    def test_different_rounds_use_different_masks(self):
        """The same upload masked in two rounds must differ (no mask reuse)."""
        ids = [u.user_id for u in self._updates()]
        vector = np.zeros(16)
        _, round_one = keyed_clients(ids, seed=1, round_id=1)
        _, round_two = keyed_clients(ids, seed=1, round_id=2)
        assert not np.array_equal(
            round_one[3].masked_input(vector).vector,
            round_two[3].masked_input(vector).vector,
        )
