"""Tests for the phased secure-aggregation protocol.

Covers the Shamir primitive, both state machines' fault handling
(drops, duplicates, late and malformed messages at every phase), the
never-both reveal rule, below-threshold aborts into the availability
path, exactness of the masked sum under arbitrary fault plans
(property-based), uniformity of the masked wire bytes, and the honest
per-phase wire metering.
"""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federated.availability import AvailabilityConfig
from repro.federated.payload import ClientUpdate, SparseRowDelta
from repro.federated.secure_agg import FixedPointCodec, SecureAggregationConfig
from repro.federated.secure_protocol import (
    ADVERTISE,
    MASKED_INPUT,
    PHASES,
    SHAMIR_PRIME,
    SHARES,
    UNMASK,
    FaultPlan,
    ProtocolError,
    SecureAggregationClient,
    SecureAggregationServer,
    SecureRoundAbort,
    run_secure_round,
    shamir_reconstruct,
    shamir_share,
)
from repro.federated.trainer import FederatedConfig, FederatedTrainer

NUM_ITEMS = 12
DIMS = {"s": 4}
CFG = SecureAggregationConfig()


def make_updates(ids, dim=4, num_items=NUM_ITEMS, seed=0):
    rng = np.random.default_rng(seed)
    return [
        ClientUpdate(
            user_id=uid,
            group="s",
            embedding_delta=rng.normal(0, 0.5, size=(num_items, dim)),
        )
        for uid in ids
    ]


def plain_fixed_point_sum(updates, ids, dim=4):
    """What the survivors' exact fixed-point sum should decode to."""
    codec = FixedPointCodec(CFG.precision_bits, CFG.clip_range)
    chosen = [u for u in updates if int(u.user_id) in set(ids)]
    total = np.zeros(NUM_ITEMS * dim, dtype=np.uint64)
    for update in chosen:
        flat = np.asarray(update.embedding_delta, dtype=np.float64).ravel()
        total = total + codec.encode(flat)
    return codec.decode(total).reshape(NUM_ITEMS, dim)


class TestShamir:
    def test_round_trip_exactly_threshold_shares(self):
        secret = 0xDEADBEEFCAFE
        shares = shamir_share(secret, [1, 2, 3, 4, 5], threshold=3, salt="t")
        for subset in ([1, 2, 3], [2, 4, 5], [1, 3, 5]):
            assert shamir_reconstruct({x: shares[x] for x in subset}) == secret

    def test_below_threshold_reveals_nothing(self):
        secret = 123456789
        shares = shamir_share(secret, [1, 2, 3, 4], threshold=3, salt="t")
        assert shamir_reconstruct({1: shares[1], 2: shares[2]}) != secret

    def test_sharing_is_deterministic(self):
        a = shamir_share(42, [1, 2, 3], threshold=2, salt="s")
        b = shamir_share(42, [1, 2, 3], threshold=2, salt="s")
        assert a == b
        assert shamir_share(42, [1, 2, 3], threshold=2, salt="other") != a

    def test_validation(self):
        with pytest.raises(ValueError):
            shamir_share(1, [1, 1, 2], threshold=2, salt="t")
        with pytest.raises(ValueError):
            shamir_share(1, [0], threshold=1, salt="t")
        with pytest.raises(ValueError):
            shamir_share(1, [1], threshold=0, salt="t")
        with pytest.raises(ValueError):
            shamir_reconstruct({})

    def test_large_secret_stays_in_field(self):
        secret = SHAMIR_PRIME - 2
        shares = shamir_share(secret, [7, 9, 11], threshold=3, salt="t")
        assert shamir_reconstruct(shares) == secret


class TestClientStateMachine:
    def test_phases_enforced_in_order(self):
        client = SecureAggregationClient(1, 5, CFG)
        with pytest.raises(ProtocolError):
            client.masked_input(np.zeros(4))
        client.advertise()
        with pytest.raises(ProtocolError):
            client.advertise()

    def test_pair_seed_symmetry(self):
        a = SecureAggregationClient(1, 3, CFG)
        b = SecureAggregationClient(2, 3, CFG)
        adverts = {1: a.advertise(), 2: b.advertise()}
        a.make_shares([1, 2], 1, adverts)
        b.make_shares([1, 2], 1, adverts)
        assert a.pair_seed(2) == b.pair_seed(1)

    def test_unmask_refuses_survivor_dropout_overlap(self):
        """The never-both rule: revealing both mask kinds for one id
        would let the server unmask a delivered input."""
        client = _client_at_unmask(1, roster=[1, 2, 3])
        with pytest.raises(ProtocolError, match="both survivor"):
            client.unmask_response(survivors=[1, 2], dropouts=[2, 3])

    def test_unmask_refuses_unknown_ids(self):
        client = _client_at_unmask(1, roster=[1, 2, 3])
        with pytest.raises(ProtocolError, match="outside the share roster"):
            client.unmask_response(survivors=[1, 2, 99], dropouts=[3])


def _client_at_unmask(uid, roster):
    clients = {u: SecureAggregationClient(u, 1, CFG) for u in roster}
    adverts = {u: c.advertise() for u, c in clients.items()}
    bundles = {u: c.make_shares(roster, 2, adverts) for u, c in clients.items()}
    target = clients[uid]
    target.receive_shares(
        [s for b in bundles.values() for s in b if s.receiver == uid], roster
    )
    target.masked_input(np.zeros(4))
    return target


class TestServerStateMachine:
    def _server(self, ids=(1, 2, 3, 4), size=8):
        return SecureAggregationServer(ids, size, round_id=1, config=CFG)

    def test_unknown_sender_raises(self):
        server = self._server()
        advert = SecureAggregationClient(99, 1, CFG).advertise()
        with pytest.raises(ProtocolError, match="unknown client"):
            server.receive_advertisement(advert)

    def test_duplicates_first_message_wins(self):
        server = self._server()
        advert = SecureAggregationClient(1, 1, CFG).advertise()
        assert server.receive_advertisement(advert)
        assert not server.receive_advertisement(advert)
        assert server.duplicates_ignored == 1

    def test_late_messages_rejected_and_counted(self):
        server = self._server(ids=(1, 2))
        clients = {u: SecureAggregationClient(u, 1, CFG) for u in (1, 2)}
        assert server.receive_advertisement(clients[1].advertise())
        late = clients[2].advertise()
        server.close_advertise()
        assert not server.receive_advertisement(late)
        assert server.late_rejected == 1

    def test_wrong_round_advertisement_rejected(self):
        server = self._server()
        stale = SecureAggregationClient(1, 99, CFG).advertise()
        assert not server.receive_advertisement(stale)
        assert server.late_rejected == 1

    def test_below_threshold_roster_aborts(self):
        server = SecureAggregationServer(
            range(6), 8, 1, SecureAggregationConfig(threshold_fraction=0.5)
        )
        assert server.threshold == 3
        server.receive_advertisement(SecureAggregationClient(0, 1, CFG).advertise())
        with pytest.raises(SecureRoundAbort) as info:
            server.close_advertise()
        assert info.value.phase == ADVERTISE
        assert info.value.survivors == 1 and info.value.threshold == 3

    def test_spoofed_share_bundle_raises(self):
        server = self._server(ids=(1, 2))
        clients = {u: SecureAggregationClient(u, 1, CFG) for u in (1, 2)}
        for c in clients.values():
            server.receive_advertisement(c.advertise())
        roster = server.close_advertise()
        adverts = {u: server._advertisements[u] for u in roster}
        bundle = clients[1].make_shares(roster, server.threshold, adverts)
        with pytest.raises(ProtocolError, match="spoofs"):
            server.receive_shares(2, bundle)

    def test_corrupted_masked_input_treated_as_dropout(self):
        ids = [1, 2, 3]
        server = SecureAggregationServer(ids, NUM_ITEMS * 4, 1, CFG)
        clients = {u: SecureAggregationClient(u, 1, CFG) for u in ids}
        for c in clients.values():
            server.receive_advertisement(c.advertise())
        roster = server.close_advertise()
        adverts = {u: server._advertisements[u] for u in roster}
        for u, c in clients.items():
            server.receive_shares(u, c.make_shares(roster, server.threshold, adverts))
        share_roster = server.close_shares()
        for u, c in clients.items():
            c.receive_shares(server.shares_for(u), share_roster)
        good = {
            u: c.masked_input(np.full(NUM_ITEMS * 4, 0.25))
            for u, c in clients.items()
        }
        # Client 3's vector is tampered in flight: MAC check must fail.
        tampered = type(good[3])(
            client_id=3, round_id=1,
            vector=good[3].vector + np.uint64(1), mac=good[3].mac,
        )
        assert server.receive_masked_input(good[1])
        assert server.receive_masked_input(good[2])
        assert not server.receive_masked_input(tampered)
        assert server.rejected_inputs == 1
        survivors, dropouts = server.close_masked_inputs()
        assert survivors == [1, 2] and dropouts == [3]


class TestRunSecureRound:
    def test_zero_faults_bitwise_equal_plain_fixed_point_sum(self):
        """The zero-fault pin: every mask cancels, so the decoded sum is
        the true oracle — encode, add in uint64, decode — bit for bit."""
        ids = [3, 7, 11, 19]
        updates = make_updates(ids, seed=1)
        emb, heads, report = run_secure_round(updates, DIMS, CFG, round_id=1)
        assert not report.aborted
        assert report.survivors == ids
        np.testing.assert_array_equal(emb["s"], plain_fixed_point_sum(updates, ids))
        assert heads == {}

    @pytest.mark.parametrize("phase", PHASES)
    def test_dropout_at_each_phase_conserves_survivor_sum(self, phase):
        ids = [1, 2, 3, 4, 5, 6]
        updates = make_updates(ids, seed=2)
        faults = FaultPlan(drops={phase: frozenset({2, 5})})
        emb, _, report = run_secure_round(updates, DIMS, CFG, 1, faults)
        assert not report.aborted
        assert sorted(report.dropouts_by_phase[phase]) == [2, 5]
        if phase == UNMASK:
            # Unmask-droppers delivered masked input: still survivors.
            expected_survivors = ids
        else:
            expected_survivors = [1, 3, 4, 6]
        assert report.survivors == expected_survivors
        np.testing.assert_array_equal(
            emb["s"], plain_fixed_point_sum(updates, report.survivors)
        )

    @pytest.mark.parametrize("phase", PHASES)
    def test_duplicates_at_each_phase_are_ignored(self, phase):
        updates = make_updates([1, 2, 3, 4], seed=3)
        clean_emb, _, _ = run_secure_round(updates, DIMS, CFG, 1)
        faults = FaultPlan(duplicates={phase: frozenset({1, 3})})
        emb, _, report = run_secure_round(updates, DIMS, CFG, 1, faults)
        assert report.duplicates_ignored == 2
        np.testing.assert_array_equal(emb["s"], clean_emb["s"])

    def test_sequential_multi_phase_faults(self):
        """Drops and duplicates landing at different phases in one round."""
        ids = list(range(1, 9))
        updates = make_updates(ids, seed=4)
        faults = FaultPlan(
            drops={ADVERTISE: frozenset({1}), SHARES: frozenset({2}),
                   MASKED_INPUT: frozenset({3}), UNMASK: frozenset({4})},
            duplicates={SHARES: frozenset({5}), UNMASK: frozenset({6})},
        )
        emb, _, report = run_secure_round(updates, DIMS, CFG, 1, faults)
        assert not report.aborted
        assert report.survivors == [4, 5, 6, 7, 8]
        assert report.duplicates_ignored == 2
        np.testing.assert_array_equal(
            emb["s"], plain_fixed_point_sum(updates, report.survivors)
        )

    def test_below_threshold_abort_reports_cleanly(self):
        updates = make_updates([1, 2, 3, 4, 5, 6], seed=5)
        faults = FaultPlan(drops={MASKED_INPUT: frozenset({1, 2, 3, 4})})
        emb, heads, report = run_secure_round(updates, DIMS, CFG, 1, faults)
        assert report.aborted and report.abort_phase == MASKED_INPUT
        assert emb == {} and heads == {}
        assert report.survivors == []

    def test_duplicate_user_ids_rejected(self):
        updates = make_updates([1, 1], seed=6)
        with pytest.raises(ValueError, match="duplicate user ids"):
            run_secure_round(updates, DIMS, CFG, 1)

    def test_empty_round_rejected(self):
        with pytest.raises(ValueError):
            run_secure_round([], DIMS, CFG, 1)

    def test_sparse_and_dense_updates_agree(self):
        dense = make_updates([1, 2, 3], seed=7)
        sparse = [
            ClientUpdate(
                user_id=u.user_id, group=u.group,
                embedding_delta=SparseRowDelta.from_dense(u.embedding_delta),
            )
            for u in dense
        ]
        emb_dense, _, _ = run_secure_round(dense, DIMS, CFG, 1)
        emb_sparse, _, _ = run_secure_round(sparse, DIMS, CFG, 1)
        np.testing.assert_array_equal(emb_dense["s"], emb_sparse["s"])

    def test_wire_accounting_covers_every_phase(self):
        updates = make_updates([1, 2, 3, 4, 5], seed=8)
        _, _, report = run_secure_round(updates, DIMS, CFG, 1)
        for phase in PHASES:
            assert report.phase_wire[phase] > 0.0, phase
        assert report.protocol_overhead == pytest.approx(
            sum(report.phase_wire.values())
        )
        assert report.masked_vector_scalars == NUM_ITEMS * 4
        payload = report.as_dict()
        assert payload["survivors"] == [1, 2, 3, 4, 5]

    def test_aborted_round_charges_wasted_masked_vectors(self):
        updates = make_updates([1, 2, 3, 4, 5, 6], seed=9)
        faults = FaultPlan(drops={UNMASK: frozenset({1, 2, 3, 4, 5})})
        _, _, report = run_secure_round(updates, DIMS, CFG, 1, faults)
        assert report.aborted and report.abort_phase == UNMASK
        # All six masked vectors hit the wire before the abort.
        assert report.phase_wire[MASKED_INPUT] >= 6 * NUM_ITEMS * 4


class TestMaskedSumProperties:
    @settings(deadline=None, max_examples=25)
    @given(
        n=st.integers(min_value=2, max_value=7),
        drop_bits=st.integers(min_value=0, max_value=127),
        phase=st.sampled_from(PHASES),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_masked_sum_equals_plain_sum_exactly(self, n, drop_bits, phase, seed):
        """For any participant set and any dropout subset at any phase,
        the decoded sum equals the plain fixed-point sum of the
        survivors bit for bit (or the round aborts cleanly)."""
        ids = list(range(1, n + 1))
        drops = frozenset(uid for uid in ids if (drop_bits >> (uid - 1)) & 1)
        updates = make_updates(ids, seed=seed)
        faults = FaultPlan(drops={phase: drops})
        emb, _, report = run_secure_round(updates, DIMS, CFG, 1, faults)
        if report.aborted:
            assert len(ids) - len(drops) < report.threshold or report.aborted
            return
        np.testing.assert_array_equal(
            emb["s"], plain_fixed_point_sum(updates, report.survivors)
        )

    def test_masked_bytes_are_uniform(self):
        """Chi-square over the byte histogram of one masked upload: the
        wire image of a constant vector must be indistinguishable from
        uniform (fixed seed, so the statistic is deterministic)."""
        size = 4096
        ids = [1, 2, 3]
        clients = {u: SecureAggregationClient(u, 1, CFG) for u in ids}
        adverts = {u: c.advertise() for u, c in clients.items()}
        bundles = {u: c.make_shares(ids, 2, adverts) for u, c in clients.items()}
        target = clients[1]
        target.receive_shares(
            [s for b in bundles.values() for s in b if s.receiver == 1], ids
        )
        message = target.masked_input(np.full(size, 0.125))
        data = np.frombuffer(
            np.ascontiguousarray(message.vector).tobytes(), dtype=np.uint8
        )
        counts = np.bincount(data, minlength=256)
        expected = data.size / 256.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # df = 255; critical value at p = 0.999 is ≈ 330.
        assert chi2 < 330.0, f"masked bytes not uniform: chi2 = {chi2:.1f}"

    def test_plaintext_bytes_are_not_uniform(self):
        """Control: the unmasked encoding of the same vector is wildly
        non-uniform — the masking, not the codec, provides the hiding."""
        codec = FixedPointCodec(CFG.precision_bits, CFG.clip_range)
        encoded = codec.encode(np.full(4096, 0.125))
        data = np.frombuffer(encoded.tobytes(), dtype=np.uint8)
        counts = np.bincount(data, minlength=256)
        expected = data.size / 256.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 > 330.0


class TestTrainerIntegration:
    def _config(self, **overrides):
        base = dict(
            arch="ncf",
            dims={"s": 4, "m": 6, "l": 8},
            epochs=1,
            clients_per_round=16,
            local_epochs=1,
            lr=0.05,
            seed=0,
        )
        base.update(overrides)
        return FederatedConfig(**base)

    def _trainer(self, dataset, clients, **overrides):
        from repro.core.grouping import divide_clients

        group_of = divide_clients(clients)
        return FederatedTrainer(
            dataset.num_items, clients, group_of, self._config(**overrides)
        )

    def test_zero_dropout_secure_matches_plain_within_bound(
        self, tiny_dataset, tiny_clients
    ):
        plain = self._trainer(tiny_dataset, tiny_clients)
        secure = self._trainer(
            tiny_dataset, tiny_clients,
            secure_aggregation=SecureAggregationConfig(),
        )
        plain.fit()
        secure.fit()
        codec = FixedPointCodec(CFG.precision_bits, CFG.clip_range)
        # Per aggregated scalar: one quantisation error per contributor
        # per round; this loose bound is the documented guarantee.
        bound = codec.quantisation_error_bound() * 16 * plain._round_counter * 10
        for group in plain.groups:
            a = plain.models[group].item_embedding.weight.data
            b = secure.models[group].item_embedding.weight.data
            assert np.max(np.abs(a - b)) <= bound, f"group {group}"

    def test_fault_hook_dropouts_still_train(self, tiny_dataset, tiny_clients):
        trainer = self._trainer(
            tiny_dataset, tiny_clients,
            secure_aggregation=SecureAggregationConfig(),
        )
        injected = []

        def faults(round_id, ids):
            victims = frozenset(sorted(ids)[:2])
            injected.append(victims)
            return FaultPlan(drops={PHASES[round_id % 4]: victims})

        trainer._secure_fault_plan = faults
        history = trainer.fit()
        assert injected, "fault hook never consulted"
        assert np.isfinite(history.records[-1].train_loss)

    def test_abort_routes_into_straggler_buffer(self, tiny_dataset, tiny_clients):
        trainer = self._trainer(
            tiny_dataset, tiny_clients,
            secure_aggregation=SecureAggregationConfig(),
            availability=AvailabilityConfig(straggler_rate=0.01, seed=1),
        )
        trainer._secure_fault_plan = lambda round_id, ids: FaultPlan(
            drops={ADVERTISE: frozenset(ids)}
        )
        buffered = []
        updates = trainer._train_clients(
            trainer.participation_rounds(1)[0]
        )
        trainer.apply_updates(updates)
        buffered = trainer._straggler_buffer.drain()
        assert len(buffered) == len(updates), "aborted round lost updates"

    def test_abort_without_buffer_counts_dropped(self, tiny_dataset, tiny_clients):
        trainer = self._trainer(
            tiny_dataset, tiny_clients,
            secure_aggregation=SecureAggregationConfig(),
        )
        trainer._secure_fault_plan = lambda round_id, ids: FaultPlan(
            drops={ADVERTISE: frozenset(ids)}
        )
        updates = trainer._train_clients(trainer.participation_rounds(1)[0])
        with pytest.warns(RuntimeWarning, match="aborted"):
            trainer.apply_updates(updates)
        assert trainer.meter.dropped_updates == len(updates)

    def test_secure_uploads_metered_dense_plus_protocol(
        self, tiny_dataset, tiny_clients
    ):
        """Satellite: Table III honesty — the secure run's wire cost is
        the dense masked vectors plus per-phase key/share traffic, which
        must exceed the plain sparse-upload accounting."""
        plain = self._trainer(tiny_dataset, tiny_clients)
        secure = self._trainer(
            tiny_dataset, tiny_clients,
            secure_aggregation=SecureAggregationConfig(),
        )
        plain.fit()
        secure.fit()
        assert secure.meter.protocol, "per-phase protocol ledger missing"
        assert set(secure.meter.protocol) == set(PHASES)
        assert secure.meter.total_upload > plain.meter.total_upload
        assert secure.meter.total > plain.meter.total
        # Downloads are identical: the protocol only changes uploads.
        assert secure.meter.total_download == plain.meter.total_download
        state = secure.meter.export_state()
        assert state["protocol"] == secure.meter.protocol
