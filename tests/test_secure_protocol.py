"""Tests for the phased secure-aggregation protocol.

Covers the Shamir primitive, both state machines' fault handling
(drops, duplicates, late and malformed messages at every phase), the
never-both reveal rule, below-threshold aborts into the availability
path, exactness of the masked sum under arbitrary fault plans
(property-based), uniformity of the masked wire bytes, the honest
per-phase wire metering, the pair-mask ledger against the per-endpoint
derivation it replaced, and Hypothesis mutation of every message.
"""


import builtins

import numpy as np
import pytest
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federated.aggregation import (
    AggregationConfig,
    mean_over_head_contributors,
)
from repro.federated.availability import AvailabilityConfig
from repro.federated.payload import ClientUpdate, SparseRowDelta
from repro.federated.secure_agg import (
    FixedPointCodec,
    MaskPRG,
    SecureAggregationConfig,
    _round_layout,
)
from repro.federated import secure_protocol
from repro.federated.secure_protocol import (
    ADVERTISE,
    MASKED_INPUT,
    PHASES,
    SHAMIR_PRIME,
    SHARES,
    UNMASK,
    FaultPlan,
    MaskedInput,
    PairMaskLedger,
    ProtocolError,
    SecureAggregationClient,
    SecureAggregationServer,
    SecureRoundAbort,
    _digest_int,
    _prg_seed,
    _vector_mac,
    run_secure_round,
    shamir_reconstruct,
    shamir_share,
)
from repro.core.config import HeteFedRecConfig
from repro.core.hetefedrec import HeteFedRec
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
    codec = FixedPointCodec()
    chosen = [u for u in updates if int(u.user_id) in set(ids)]
    total = np.zeros(NUM_ITEMS * dim, dtype=np.uint64)
    for update in chosen:
        flat = np.asarray(update.embedding_delta, dtype=np.float64).ravel()
        total = total + codec.encode(flat)
    return codec.decode(total).reshape(NUM_ITEMS, dim)


HET_DIMS = {"s": 2, "m": 4, "l": 8}
HET_ORDER = ["s", "m", "l"]


def het_updates(group_of, seed=0, num_items=NUM_ITEMS):
    """One upload per ``{user_id: group}`` entry with HeteFedRec's nested
    heads: a client trains the head of every group up to its own."""
    rng = np.random.default_rng(seed)
    updates = []
    for uid, group in group_of.items():
        heads = {
            head_group: {
                "w": rng.normal(0, 0.5, size=(2 * HET_DIMS[head_group], 3)),
                "b": rng.normal(0, 0.5, size=3),
            }
            for head_group in HET_ORDER[: HET_ORDER.index(group) + 1]
        }
        updates.append(
            ClientUpdate(
                user_id=uid,
                group=group,
                embedding_delta=rng.normal(0, 0.5, size=(num_items, HET_DIMS[group])),
                head_deltas=heads,
            )
        )
    return updates


def plain_padded_fixed_point_sums(updates, ids, dims=HET_DIMS):
    """Eq. 8 / Eq. 15 on the fixed-point field: encode every chosen
    upload, add it into the widest table's column prefix (and into its
    heads' slots) in uint64, decode, slice per group."""
    codec = FixedPointCodec()
    chosen = {int(uid) for uid in ids}
    rows = updates[0].embedding_delta.num_rows
    table = np.zeros((rows, max(dims.values())), dtype=np.uint64)
    heads = {}
    for update in updates:
        survived = int(update.user_id) in chosen
        if survived:
            dense = np.asarray(update.embedding_delta.dense(), dtype=np.float64)
            table[:, : dense.shape[1]] += codec.encode(dense)
        # Slots exist for every head the round saw, survivor's or not.
        for head_group, state in update.head_deltas.items():
            for name, values in state.items():
                slot = heads.setdefault(head_group, {}).setdefault(
                    name, np.zeros(values.shape, dtype=np.uint64)
                )
                if survived:
                    slot += codec.encode(values)
    embeddings = {g: codec.decode(table[:, :w]) for g, w in dims.items()}
    heads = {
        g: {name: codec.decode(slot) for name, slot in state.items()}
        for g, state in heads.items()
    }
    return embeddings, heads


def assert_sums_bitwise(embeddings, heads, expected_embeddings, expected_heads):
    assert set(embeddings) == set(expected_embeddings)
    for group, expected in expected_embeddings.items():
        np.testing.assert_array_equal(embeddings[group], expected, err_msg=group)
    assert set(heads) == set(expected_heads)
    for group, state in expected_heads.items():
        assert set(heads[group]) == set(state)
        for name, expected in state.items():
            np.testing.assert_array_equal(
                heads[group][name], expected, err_msg=f"{group}.{name}"
            )


def walk_to_masked_input(sizes, round_id=1, config=CFG, ledger_of=None):
    """Server + clients walked up to the masked-input phase over the
    given ``{client_id: vector length}`` table.  ``ledger_of(share_roster)``
    is the pair-mask ledger handed to every client (``PairMaskLedger``
    shares one as a round does); without it each client masks alone."""
    ids = sorted(sizes)
    server = SecureAggregationServer(ids, sizes, round_id, config)
    clients = {u: SecureAggregationClient(u, round_id, config) for u in ids}
    for client in clients.values():
        server.receive_advertisement(client.advertise())
    roster = server.close_advertise()
    adverts = {u: server._advertisements[u] for u in roster}
    for u, client in clients.items():
        server.receive_shares(u, client.make_shares(roster, server.threshold, adverts))
    share_roster = server.close_shares()
    ledger = ledger_of(share_roster) if ledger_of else None
    for u, client in clients.items():
        client.receive_shares(server.shares_for(u), share_roster, ledger)
    return server, clients


def unmask_and_decode(server, clients):
    """Close the masked-input phase and run the unmask phase cleanly."""
    survivors, dropouts = server.close_masked_inputs()
    for u in survivors:
        server.receive_unmask(clients[u].unmask_response(survivors, dropouts))
    return server.finalize()


def plain_prefix_sum(vectors, ids):
    """Each chosen vector encoded and added into ``total[:len]``."""
    codec = FixedPointCodec()
    total = np.zeros(max(v.size for v in vectors.values()), dtype=np.uint64)
    for uid in ids:
        total[: vectors[uid].size] += codec.encode(vectors[uid])
    return codec.decode(total)


def _shamir_share_horner(secret, xs, threshold, salt):
    """The reference formula: one Horner chain per share holder, reduced
    at every step."""
    coefficients = [secret % SHAMIR_PRIME] + [
        _digest_int(salt, secret, "coeff", index, bits=128) % SHAMIR_PRIME
        for index in range(1, threshold)
    ]
    shares = {}
    for x in xs:
        value = 0
        for coefficient in reversed(coefficients):
            value = (value * int(x) + coefficient) % SHAMIR_PRIME
        shares[int(x)] = value
    return shares


def _shamir_reconstruct_direct(shares):
    """The pre-cache formula: Lagrange weights rebuilt for every call."""
    points = sorted(shares.items())
    total = 0
    for i, (xi, yi) in enumerate(points):
        numerator = denominator = 1
        for j, (xj, _) in enumerate(points):
            if i != j:
                numerator = (numerator * (-xj)) % SHAMIR_PRIME
                denominator = (denominator * (xi - xj)) % SHAMIR_PRIME
        total = (
            total + yi * numerator * pow(denominator, -1, SHAMIR_PRIME)
        ) % SHAMIR_PRIME
    return total


class TestShamir:
    @settings(deadline=None, max_examples=40)
    @given(
        secret=st.integers(min_value=0, max_value=SHAMIR_PRIME - 1),
        n=st.integers(min_value=1, max_value=9),
        data=st.data(),
    )
    def test_cached_tables_reproduce_the_direct_formulas(self, secret, n, data):
        """Reducing once per Horner chain and caching Lagrange weights
        are arithmetic savings only: shares and reconstructed secrets are
        the values the step-reduced chain and the per-call interpolation
        produce."""
        threshold = data.draw(st.integers(min_value=1, max_value=n))
        xs = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=300),
                min_size=n, max_size=n, unique=True,
            )
        )
        shares = shamir_share(secret, xs, threshold, salt="pin")
        assert shares == _shamir_share_horner(secret, xs, threshold, "pin")
        subset = {x: shares[x] for x in xs[:threshold]}
        assert shamir_reconstruct(subset) == _shamir_reconstruct_direct(subset)
        assert shamir_reconstruct(subset) == secret
        # A second call is served from the caches and must not differ.
        assert shamir_share(secret, xs, threshold, salt="pin") == shares

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
        [s for b in bundles.values() for s in b if s.receiver == uid],
        {u: 4 for u in roster},
    )
    target.masked_input(np.zeros(4))
    return target


class TestServerStateMachine:
    def _server(self, ids=(1, 2, 3, 4), size=8):
        return SecureAggregationServer(
            ids, {u: size for u in ids}, round_id=1, config=CFG
        )

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
            range(6), {u: 8 for u in range(6)}, 1, CFG
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
        server, clients = walk_to_masked_input({u: NUM_ITEMS * 4 for u in (1, 2, 3)})
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


#: Eight clients over three model sizes, ids interleaved across groups.
COHORT = {2: "s", 3: "l", 5: "m", 7: "s", 11: "l", 13: "m", 17: "s", 19: "m"}


class TestHeterogeneousRounds:
    """s/m/l cohorts with nested heads: every client masks only its own
    model's prefix, and the decoded sums are still bitwise the survivors'
    plain fixed-point padded sum (Eq. 8) and per-head sums (Eq. 15)."""

    def test_zero_faults_bitwise_equal_plain_padded_sum(self):
        updates = het_updates(COHORT, seed=1)
        emb, heads, report = run_secure_round(updates, HET_DIMS, CFG, round_id=1)
        assert report.survivors == sorted(COHORT)
        assert_sums_bitwise(
            emb, heads, *plain_padded_fixed_point_sums(updates, report.survivors)
        )

    @pytest.mark.parametrize("duplicated", [False, True])
    @pytest.mark.parametrize("phase", PHASES)
    def test_dropout_at_each_phase_with_duplicates(self, phase, duplicated):
        """One dropout per model size at the phase, optionally beside
        duplicated messages from a small and a large client."""
        updates = het_updates(COHORT, seed=2)
        faults = FaultPlan(
            drops={phase: frozenset({3, 5, 17})},
            duplicates={phase: frozenset({2, 11})} if duplicated else {},
        )
        emb, heads, report = run_secure_round(updates, HET_DIMS, CFG, 1, faults)
        assert not report.aborted
        assert sorted(report.dropouts_by_phase[phase]) == [3, 5, 17]
        assert report.duplicates_ignored == (2 if duplicated else 0)
        expected = sorted(COHORT) if phase == UNMASK else [2, 7, 11, 13, 19]
        assert report.survivors == expected
        assert_sums_bitwise(
            emb, heads, *plain_padded_fixed_point_sums(updates, report.survivors)
        )

    @pytest.mark.parametrize("dropped", [1, 2])
    @pytest.mark.parametrize("first_two", [("s", "l"), ("l", "s"), ("m", "l")])
    def test_dropout_and_survivor_of_different_sizes_in_both_id_orders(
        self, first_two, dropped
    ):
        """The dangling pair mask spans ``min(len_survivor, len_dropout)``
        and carries the sign of the id order: the shorter endpoint may be
        the dropout or the survivor, the smaller or the larger id."""
        group_of = {1: first_two[0], 2: first_two[1], 3: "m", 4: "s"}
        updates = het_updates(group_of, seed=3)
        faults = FaultPlan(drops={MASKED_INPUT: frozenset({dropped})})
        emb, heads, report = run_secure_round(updates, HET_DIMS, CFG, 1, faults)
        assert report.survivors == sorted(set(group_of) - {dropped})
        assert_sums_bitwise(
            emb, heads, *plain_padded_fixed_point_sums(updates, report.survivors)
        )

    def test_only_large_survivor_tail_decodes_to_its_own_value(self):
        """When a single large client survives, the segment only it
        reaches (columns d_m..d_l and the large head) decodes to exactly
        its own encoded value.  That is not a leak of the span rule: it
        is what Eq. 8's padded sum already reveals whenever one client
        of the widest group is in the round — the sum over one
        contributor *is* the contribution."""
        group_of = {1: "s", 2: "s", 3: "m", 4: "l", 5: "l"}
        updates = het_updates(group_of, seed=4)
        faults = FaultPlan(drops={MASKED_INPUT: frozenset({5})})
        emb, heads, report = run_secure_round(updates, HET_DIMS, CFG, 1, faults)
        assert report.survivors == [1, 2, 3, 4]
        codec = FixedPointCodec()
        lone = next(u for u in updates if u.user_id == 4)
        own = lone.embedding_delta.dense()[:, HET_DIMS["m"] :]
        np.testing.assert_array_equal(
            emb["l"][:, HET_DIMS["m"] :], codec.decode(codec.encode(own))
        )
        for name, values in lone.head_deltas["l"].items():
            np.testing.assert_array_equal(
                heads["l"][name], codec.decode(codec.encode(values))
            )
        assert_sums_bitwise(
            emb, heads, *plain_padded_fixed_point_sums(updates, report.survivors)
        )

    def test_round_without_the_widest_group_decodes_zero_tail(self):
        updates = het_updates({1: "s", 2: "m", 3: "s"}, seed=5)
        emb, heads, report = run_secure_round(updates, HET_DIMS, CFG, 1)
        assert max(report.masked_lengths.values()) < report.masked_vector_scalars
        assert not emb["l"][:, HET_DIMS["m"] :].any()
        assert_sums_bitwise(
            emb, heads, *plain_padded_fixed_point_sums(updates, report.survivors)
        )

    def test_report_carries_per_client_masked_lengths(self):
        updates = het_updates(COHORT, seed=6)
        _, _, report = run_secure_round(updates, HET_DIMS, CFG, 1)
        layout = _round_layout(updates, HET_DIMS)
        small, medium, large = layout.ends
        assert small < medium < large == report.masked_vector_scalars
        assert report.masked_lengths == {
            uid: {"s": small, "m": medium, "l": large}[group]
            for uid, group in COHORT.items()
        }
        assert report.as_dict()["masked_lengths"] == report.masked_lengths
        # The size table rides the share relay: one more scalar per
        # roster entry per member than ids alone.
        n = len(COHORT)
        assert report.phase_wire[SHARES] == n * 5.0 * (n - 1) * 2 + n * 2 * n

    def test_aborted_round_charges_the_delivered_lengths(self):
        updates = het_updates(COHORT, seed=7)
        faults = FaultPlan(drops={UNMASK: frozenset(sorted(COHORT)[:6])})
        _, _, report = run_secure_round(updates, HET_DIMS, CFG, 1, faults)
        assert report.aborted and report.abort_phase == UNMASK
        macs = 4.0 * len(COHORT)
        assert report.phase_wire[MASKED_INPUT] == macs + sum(
            report.masked_lengths.values()
        )

    @settings(deadline=None, max_examples=25)
    @given(
        groups=st.lists(st.sampled_from(HET_ORDER), min_size=2, max_size=7),
        drop_bits=st.integers(min_value=0, max_value=127),
        phase=st.sampled_from(PHASES),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_any_cohort_any_dropout_is_conservation_exact(
        self, groups, drop_bits, phase, seed
    ):
        group_of = {uid + 1: group for uid, group in enumerate(groups)}
        drops = frozenset(uid for uid in group_of if (drop_bits >> (uid - 1)) & 1)
        updates = het_updates(group_of, seed=seed, num_items=5)
        emb, heads, report = run_secure_round(
            updates, HET_DIMS, CFG, 1, FaultPlan(drops={phase: drops})
        )
        if report.aborted:
            assert len(group_of) - len(drops) < report.threshold
            return
        assert_sums_bitwise(
            emb, heads, *plain_padded_fixed_point_sums(updates, report.survivors)
        )


class TestRoundLayoutValidation:
    """``_round_layout`` checks every upload, not just the first."""

    def test_catalogue_size_mismatch_names_the_user(self):
        updates = make_updates([1, 2, 3], seed=0)
        updates[2] = ClientUpdate(
            user_id=3, group="s", embedding_delta=np.ones((NUM_ITEMS + 1, 4))
        )
        with pytest.raises(ValueError, match="user 3 covers 13 catalogue rows"):
            run_secure_round(updates, DIMS, CFG, 1)

    def test_unplaceable_embedding_width_names_the_user(self):
        updates = het_updates({1: "s", 2: "m"}, seed=0)
        updates.append(
            ClientUpdate(user_id=9, group="m", embedding_delta=np.ones((NUM_ITEMS, 3)))
        )
        with pytest.raises(ValueError, match="user 9 has embedding width 3"):
            run_secure_round(updates, HET_DIMS, CFG, 1)

    def test_unknown_head_group_names_the_user(self):
        updates = het_updates({1: "s", 2: "m"}, seed=0)
        updates[1].head_deltas["xl"] = {"b": np.zeros(3)}
        with pytest.raises(ValueError, match="user 2 carries head group 'xl'"):
            run_secure_round(updates, HET_DIMS, CFG, 1)

    def test_threshold_reads_the_config_field(self, monkeypatch):
        """The threshold is read from ``THRESHOLD_FRACTION`` at
        construction."""
        sizes = {u: 4 for u in range(10)}
        assert SecureAggregationServer(range(10), sizes, 1, CFG).threshold == 5
        monkeypatch.setattr(secure_protocol, "THRESHOLD_FRACTION", 0.75)
        assert SecureAggregationServer(range(10), sizes, 1, CFG).threshold == 8


#: Three vector lengths over five clients, as a server would assign them.
DOOR_SIZES = {1: 6, 2: 12, 3: 24, 4: 6, 5: 12}


def door_vectors(seed=0):
    rng = np.random.default_rng(seed)
    return {u: rng.normal(0, 0.5, size=n) for u, n in DOOR_SIZES.items()}


class TestMaskedInputDoor:
    """The masked-input message is the one untrusted payload that reaches
    the sum: anything but the sender's own vector, length and MAC for
    this round is refused and the sender counts as a dropout."""

    def test_another_groups_length_is_rejected_and_round_stays_exact(self):
        vectors = door_vectors()
        server, clients = walk_to_masked_input(DOOR_SIZES)
        # Client 2 (a medium model) sends a validly MACed vector of a
        # small client's length.
        assert not server.receive_masked_input(
            clients[2].masked_input(vectors[2][: DOOR_SIZES[1]])
        )
        assert server.rejected_inputs == 1
        for u in (1, 3, 4, 5):
            assert server.receive_masked_input(clients[u].masked_input(vectors[u]))
        decoded = unmask_and_decode(server, clients)
        assert server.survivors == [1, 3, 4, 5] and server.dropouts == [2]
        np.testing.assert_array_equal(
            decoded, plain_prefix_sum(vectors, [1, 3, 4, 5])
        )

    def test_stale_round_masked_input_rejected(self):
        """Pinned from the fuzz pass below: the message's own round id
        was never compared — a replayed field went unnoticed."""
        server, clients = walk_to_masked_input(DOOR_SIZES)
        genuine = clients[1].masked_input(door_vectors()[1])
        assert not server.receive_masked_input(replace(genuine, round_id=2))
        assert server.late_rejected == 1
        assert server.receive_masked_input(genuine)

    @settings(deadline=None, max_examples=60)
    @given(
        victim=st.sampled_from(sorted(DOOR_SIZES)),
        mutated_field=st.sampled_from(["client_id", "round_id", "mac", "length"]),
        salt=st.integers(min_value=0, max_value=2**16),
        redeliver=st.booleans(),
    )
    def test_mutated_masked_input_never_reaches_the_sum(
        self, victim, mutated_field, salt, redeliver
    ):
        """Mutate one field of one genuine message: the server refuses
        it (an unknown sender raises), a genuine retry is still accepted,
        and the decoded sum is bitwise the plain sum of whoever delivered."""
        vectors = door_vectors(seed=salt)
        server, clients = walk_to_masked_input(DOOR_SIZES)
        messages = {u: clients[u].masked_input(vectors[u]) for u in DOOR_SIZES}
        genuine = messages[victim]
        if mutated_field == "client_id":
            others = [u for u in DOOR_SIZES if u != victim] + [99]
            mutated = replace(genuine, client_id=others[salt % len(others)])
        elif mutated_field == "round_id":
            mutated = replace(genuine, round_id=genuine.round_id + 1 + salt % 7)
        elif mutated_field == "mac":
            at = salt % len(genuine.mac)
            flipped = "0" if genuine.mac[at] != "0" else "1"
            mutated = replace(genuine, mac=genuine.mac[:at] + flipped + genuine.mac[at + 1 :])
        else:
            lengths = sorted(
                {*DOOR_SIZES.values(), genuine.vector.size - 1, genuine.vector.size + 1}
                - {genuine.vector.size}
            )
            mutated = replace(
                genuine, vector=np.resize(genuine.vector, lengths[salt % len(lengths)])
            )

        if mutated.client_id not in DOOR_SIZES:
            with pytest.raises(ProtocolError, match="unknown client"):
                server.receive_masked_input(mutated)
        else:
            assert not server.receive_masked_input(mutated)
            assert server.rejected_inputs + server.late_rejected == 1

        delivered = [u for u in sorted(DOOR_SIZES) if u != victim or redeliver]
        for u in delivered:
            assert server.receive_masked_input(messages[u])
        decoded = unmask_and_decode(server, clients)
        assert server.survivors == delivered
        np.testing.assert_array_equal(decoded, plain_prefix_sum(vectors, delivered))


def per_endpoint_masked_input(self, vector):
    """The derivation :class:`PairMaskLedger` replaced: every endpoint
    agrees on and expands every pair it belongs to, so each pair's
    ``pow`` and mask are paid twice."""
    self._require_phase(MASKED_INPUT)
    flat = np.asarray(vector, dtype=np.float64).ravel()
    total = self.codec.encode(flat)
    total += self._prg.expand(_prg_seed("selfmask", self.self_seed), flat.size)
    for other in self._share_roster:
        if other == self.client_id:
            continue
        span = total[: min(flat.size, self._share_roster[other])]
        mask = self._prg.expand(self.pair_seed(other), span.size)
        if self.client_id < other:
            np.add(span, mask, out=span)
        else:
            np.subtract(span, mask, out=span)
    self.phase = UNMASK
    return MaskedInput(
        client_id=self.client_id,
        round_id=self.round_id,
        vector=total,
        mac=_vector_mac(self.mac_key, self.round_id, total),
    )


def recorded_round(monkeypatch, masked_input, updates, faults):
    """``run_secure_round`` with ``masked_input`` as every client's
    phase-2 body; returns ``(messages by client, embeddings, heads,
    report)``."""
    sent = {}

    def recording(self, vector):
        message = masked_input(self, vector)
        sent.setdefault(self.client_id, message)
        return message

    with monkeypatch.context() as patch:
        patch.setattr(SecureAggregationClient, "masked_input", recording)
        embeddings, heads, report = run_secure_round(
            updates, HET_DIMS, CFG, 1, faults
        )
    return sent, embeddings, heads, report


#: The fault plans the oracle comparison covers: none, one dropout per
#: model size at each phase, a small and a large duplicate at each phase.
LEDGER_FAULTS = [None] + [
    FaultPlan(drops={phase: frozenset({3, 5, 17})}) for phase in PHASES
] + [
    FaultPlan(duplicates={phase: frozenset({2, 11})}) for phase in PHASES
]


class TestPairMaskLedger:
    """Each pair's agreement and mask are derived once per round, by the
    endpoint that masks first; the peer adds the half left for it.  The
    field is commutative, so nothing on the wire may change."""

    @pytest.mark.parametrize(
        "faults", LEDGER_FAULTS,
        ids=["clean"] + [f"drop-{p}" for p in PHASES] + [f"dup-{p}" for p in PHASES],
    )
    def test_masked_inputs_match_the_per_endpoint_oracle(self, monkeypatch, faults):
        updates = het_updates(COHORT, seed=12)
        oracle = recorded_round(monkeypatch, per_endpoint_masked_input, updates, faults)
        ledger = recorded_round(
            monkeypatch, SecureAggregationClient.masked_input, updates, faults
        )
        sent, expected_sent = ledger[0], oracle[0]
        assert sorted(sent) == sorted(expected_sent)
        assert {m.vector.size for m in sent.values()} == set(
            _round_layout(updates, HET_DIMS).ends
        )
        for uid, message in sent.items():
            expected = expected_sent[uid]
            assert message.vector.dtype == expected.vector.dtype == np.uint64
            assert message.vector.tobytes() == expected.vector.tobytes(), uid
            assert message.mac == expected.mac, uid
        assert_sums_bitwise(ledger[1], ledger[2], oracle[1], oracle[2])
        assert ledger[3].as_dict() == oracle[3].as_dict()

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_clean_round_derives_each_pair_once(self, monkeypatch, n):
        """``n(n−1)/2`` pair agreements (one ``pow`` each) and
        ``n(n−1)/2 + n`` client-side expansions — the per-endpoint
        derivation paid ``n(n−1)`` and ``n(n−1) + n``."""
        calls = {"pair_seed": 0, "pow": 0, "expand": 0}
        masking = []
        pair_seed = SecureAggregationClient.pair_seed
        masked_input = SecureAggregationClient.masked_input
        expand = MaskPRG.expand

        def counted_pair_seed(self, other_id):
            calls["pair_seed"] += 1
            return pair_seed(self, other_id)

        def counted_masked_input(self, vector):
            masking.append(self.client_id)
            try:
                return masked_input(self, vector)
            finally:
                masking.pop()

        def counted_expand(self, seed, size):
            calls["expand"] += bool(masking)
            return expand(self, seed, size)

        def counted_pow(*args):
            calls["pow"] += bool(masking)
            return builtins.pow(*args)

        monkeypatch.setattr(SecureAggregationClient, "pair_seed", counted_pair_seed)
        monkeypatch.setattr(SecureAggregationClient, "masked_input", counted_masked_input)
        monkeypatch.setattr(MaskPRG, "expand", counted_expand)
        monkeypatch.setattr(secure_protocol, "pow", counted_pow, raising=False)
        ids = list(range(1, n + 1))
        updates = make_updates(ids, seed=n)
        emb, _, report = run_secure_round(updates, DIMS, CFG, round_id=1)
        assert report.survivors == ids
        np.testing.assert_array_equal(emb["s"], plain_fixed_point_sum(updates, ids))
        pairs = n * (n - 1) // 2
        assert calls == {"pair_seed": pairs, "pow": pairs, "expand": pairs + n}

    def test_pending_memory_stays_below_the_roster_total(self):
        """One pending vector per client still to mask, at most its own
        length, freed when it masks: below ``Σ len_u`` words throughout,
        and only the dropout's is left once everyone else has masked."""
        vectors = door_vectors(seed=3)
        server, clients = walk_to_masked_input(DOOR_SIZES, ledger_of=PairMaskLedger)
        ledger = clients[1]._ledger
        assert all(c._ledger is ledger for c in clients.values())
        bound = sum(DOOR_SIZES.values())
        for uid in (3, 1, 5, 2):  # client 4 drops before masking
            assert server.receive_masked_input(clients[uid].masked_input(vectors[uid]))
            held = ledger._pending
            assert sum(p.size for p in held.values()) < bound
            assert all(p.size <= DOOR_SIZES[v] for v, p in held.items())
            assert uid not in held
        assert sorted(ledger._pending) == [4]
        decoded = unmask_and_decode(server, clients)
        assert server.dropouts == [4]
        np.testing.assert_array_equal(decoded, plain_prefix_sum(vectors, [1, 2, 3, 5]))

    def test_wrong_length_input_masks_alone_and_round_stays_exact(self):
        """A vector not of the sender's announced length masks with a
        private ledger: its pair halves were cut for another length, so
        depositing them would leave its peers a mask the server cannot
        strip when it refuses the vector."""
        vectors = door_vectors()
        server, clients = walk_to_masked_input(DOOR_SIZES, ledger_of=PairMaskLedger)
        assert not server.receive_masked_input(
            clients[2].masked_input(vectors[2][: DOOR_SIZES[1]])
        )
        assert not clients[1]._ledger._pending
        for u in (1, 3, 4, 5):
            assert server.receive_masked_input(clients[u].masked_input(vectors[u]))
        decoded = unmask_and_decode(server, clients)
        assert server.dropouts == [2]
        np.testing.assert_array_equal(decoded, plain_prefix_sum(vectors, [1, 3, 4, 5]))

    def test_a_ledger_of_another_roster_view_is_not_shared(self):
        """Clients whose relayed roster differs from the ledger's each
        keep a private ledger and derive every pair: their vectors are the
        oracle's, and the foreign ledger is never written."""
        vectors = door_vectors(seed=5)
        foreign = PairMaskLedger({1: 6, 2: 12})
        foreign.take(1)  # would hide every pair with 1 if it were used
        server, clients = walk_to_masked_input(
            DOOR_SIZES, ledger_of=lambda roster: foreign
        )
        _, twins = walk_to_masked_input(DOOR_SIZES)
        for uid in sorted(DOOR_SIZES):
            assert clients[uid]._ledger is not foreign
            message = clients[uid].masked_input(vectors[uid])
            expected = per_endpoint_masked_input(twins[uid], vectors[uid])
            assert message.vector.tobytes() == expected.vector.tobytes(), uid
            assert message.mac == expected.mac, uid
            assert server.receive_masked_input(message)
        assert not foreign._pending
        np.testing.assert_array_equal(
            unmask_and_decode(server, clients),
            plain_prefix_sum(vectors, sorted(DOOR_SIZES)),
        )


def _nudge(value, salt):
    """An integer field value moved by a nonzero amount."""
    return int(value) + 1 + salt % 997


def mutate_advertisement(message, field_name, salt):
    if field_name == "client_id":
        others = [u for u in DOOR_SIZES if u != message.client_id] + [99]
        return replace(message, client_id=others[salt % len(others)])
    return replace(message, **{field_name: _nudge(getattr(message, field_name), salt)})


def mutate_share_bundle(bundle, field_name, salt):
    """One share of the bundle with one field moved."""
    at = salt % len(bundle)
    share = bundle[at]
    if field_name in ("sender", "receiver"):
        others = [u for u in DOOR_SIZES if u != getattr(share, field_name)] + [99]
        value = others[salt % len(others)]
    else:
        value = _nudge(getattr(share, field_name), salt)
    return bundle[:at] + [replace(share, **{field_name: value})] + bundle[at + 1 :]


def mutate_unmask(message, field_name, salt):
    if field_name == "client_id":
        others = [u for u in DOOR_SIZES if u != message.client_id] + [99]
        return replace(message, client_id=others[salt % len(others)])
    if field_name == "survivor_signature":
        at = salt % len(message.survivor_signature)
        flipped = "0" if message.survivor_signature[at] != "0" else "1"
        signature = message.survivor_signature
        return replace(
            message, survivor_signature=signature[:at] + flipped + signature[at + 1 :]
        )
    kind, part = field_name.split(".")  # e.g. "self_shares.y"
    reveals = dict(getattr(message, kind))
    if not reveals:
        return None
    target = sorted(reveals)[salt % len(reveals)]
    x, y = reveals[target]
    if part == "x":
        reveals[target] = (_nudge(x, salt), y)
    elif part == "y":
        reveals[target] = (x, _nudge(y, salt))
    elif part == "shape":
        reveals[target] = [(x,), (x, y, salt), (str(x), y)][salt % 3]
    elif part == "drop":
        del reveals[target]
    else:  # "swap": reveal the other kind of share for this id
        del reveals[target]
        other = "key_shares" if kind == "self_shares" else "self_shares"
        moved = dict(getattr(message, other))
        moved[target] = (x, y)
        return replace(message, **{kind: reveals, other: moved})
    return replace(message, **{kind: reveals})


def fuzzed_round(
    phase, victim, mutated_of, redeliver, late, drop=None, seed=0, shared=True
):
    """A DOOR_SIZES round walked by hand with a pair-mask ledger.

    At ``phase`` the victim sends ``mutated_of(genuine)`` first (unless
    ``late``), then its genuine message when ``redeliver``; with ``late``
    the genuine message arrives only after the phase closed.  ``drop``
    leaves one client out from the masked-input phase on, so dropout key
    shares are revealed too.  With ``shared`` the clients hold one
    pair-mask ledger, as in a round; without it each derives every pair.
    Returns ``(server, decoded, refused)`` —
    ``refused`` counts mutated messages the server turned away.
    """
    vectors = door_vectors(seed=seed)
    ids = sorted(DOOR_SIZES)
    server = SecureAggregationServer(ids, DOOR_SIZES, 1, CFG)
    clients = {u: SecureAggregationClient(u, 1, CFG) for u in ids}
    refused = 0

    def deliver(current, uid, genuine, receive):
        nonlocal refused
        if uid != victim or current != phase:
            receive(genuine)
            return
        if late:
            return
        mutated = mutated_of(genuine)
        if mutated is not None and not receive(mutated):
            refused += 1
        if redeliver:
            receive(genuine)

    held = {}
    for uid in ids:
        advert = clients[uid].advertise()
        held[uid] = advert
        deliver(ADVERTISE, uid, advert, server.receive_advertisement)
    roster = server.close_advertise()
    if late and phase == ADVERTISE:
        assert not server.receive_advertisement(held[victim])
    adverts = {u: server._advertisements[u] for u in roster}
    for uid in roster:
        bundle = clients[uid].make_shares(roster, server.threshold, adverts)
        held[uid] = bundle
        deliver(SHARES, uid, bundle, lambda b, u=uid: server.receive_shares(u, b))
    share_roster = server.close_shares()
    if late and phase == SHARES and victim in roster:
        assert not server.receive_shares(victim, held[victim])
    ledger = PairMaskLedger(share_roster) if shared else None
    for uid in share_roster:
        clients[uid].receive_shares(server.shares_for(uid), share_roster, ledger)
    for uid in share_roster:
        if uid != drop:
            server.receive_masked_input(clients[uid].masked_input(vectors[uid]))
    survivors, dropouts = server.close_masked_inputs()
    for uid in survivors:
        response = clients[uid].unmask_response(survivors, dropouts)
        deliver(UNMASK, uid, response, server.receive_unmask)
    return server, server.finalize(), refused, vectors


def assert_fails_closed(run, *args, **kwargs):
    """A mutated message is refused and counted, raises ProtocolError
    or aborts the round — it never decodes a wrong sum."""
    try:
        server, decoded, refused, vectors = run(*args, **kwargs)
    except (ProtocolError, SecureRoundAbort):
        return "raised"
    counted = server.rejected_inputs + server.late_rejected + server.duplicates_ignored
    assert counted >= refused
    np.testing.assert_array_equal(decoded, plain_prefix_sum(vectors, server.survivors))
    return "refused" if refused else "survived"


FUZZ = dict(
    victim=st.sampled_from(sorted(DOOR_SIZES)),
    salt=st.integers(min_value=0, max_value=2**16),
    redeliver=st.booleans(),
    late=st.booleans(),
    shared=st.booleans(),
)


class TestProtocolMessageFuzz:
    """The three messages ``TestMaskedInputDoor`` does not mutate: the
    key advertisement, the share bundle and the unmask reveal.  A bad
    sender, phase, MAC or share field is refused and counted, raises
    :class:`ProtocolError` or aborts; survivors stay conservation-exact."""

    @settings(deadline=None, max_examples=60)
    @given(
        field_name=st.sampled_from(
            ["client_id", "round_id", "dh_public", "self_commitment", "mac_key"]
        ),
        **FUZZ,
    )
    def test_mutated_advertisement(
        self, field_name, victim, salt, redeliver, late, shared
    ):
        assert_fails_closed(
            fuzzed_round, ADVERTISE, victim,
            lambda m: mutate_advertisement(m, field_name, salt), redeliver, late,
            seed=salt, shared=shared,
        )

    @pytest.mark.parametrize("shared", [False, True])
    def test_relayed_advertisement_with_another_key_is_refused(self, shared):
        """Pinned from the fuzz pass above (``dh_public``, victim 1, salt
        0, no redelivery): the server relayed a forged public key for a
        client, its peers agreed pair seeds with a key it does not hold,
        and the round decoded a sum off by ~10^11 with no error.  The
        client now checks that the roster relays its own advertisement."""
        with pytest.raises(ProtocolError, match="did not send"):
            fuzzed_round(
                ADVERTISE, 1, lambda m: replace(m, dh_public=m.dh_public + 1),
                redeliver=False, late=False, shared=shared,
            )

    @settings(deadline=None, max_examples=60)
    @given(
        field_name=st.sampled_from(["sender", "receiver", "x", "key_share", "self_share"]),
        drop=st.sampled_from([None, 1, 3, 5]),
        **FUZZ,
    )
    def test_mutated_share_bundle(
        self, field_name, drop, victim, salt, redeliver, late, shared
    ):
        assert_fails_closed(
            fuzzed_round, SHARES, victim,
            lambda b: mutate_share_bundle(b, field_name, salt), redeliver, late,
            drop=drop, seed=salt, shared=shared,
        )

    @pytest.mark.parametrize("field_name", ["x", "receiver"])
    @pytest.mark.parametrize("shared", [False, True])
    def test_misaddressed_share_bundle_is_refused_and_counted(self, field_name, shared):
        """Pinned from the fuzz pass above (``x``, victim 1, salt 1, no
        redelivery): a bundle whose x-coordinates do not match the roster
        was accepted, and ``finalize`` ended the whole round with a
        ``ProtocolError``.  Receivers and x-coordinates are public, so the
        server refuses such a bundle on arrival and counts it; its sender
        leaves the share roster like a shares-phase dropout, and the round
        decodes the survivors' exact sum."""
        server, decoded, refused, vectors = fuzzed_round(
            SHARES, 1, lambda b: mutate_share_bundle(b, field_name, 1),
            redeliver=False, late=False, seed=1, shared=shared,
        )
        assert refused == 1 and server.rejected_inputs == 1
        assert server.share_roster == [2, 3, 4, 5] and 1 not in server.survivors
        np.testing.assert_array_equal(
            decoded, plain_prefix_sum(vectors, server.survivors)
        )

    @pytest.mark.parametrize("salt", range(6))
    def test_tampered_self_share_aborts_at_unmask(self, salt, monkeypatch):
        """Pinned from the fuzz pass above (``self_share``, victim 1, no
        redelivery): a tampered share *value* passes every arrival check,
        and the self-mask seed reconstructed from it failed its commitment
        in ``finalize`` with a ``ProtocolError`` that ``run_secure_round``
        did not catch, so it ended ``fit``.  It is an abort at unmask now,
        and the round's updates take the abort path.  The tampered share
        is used when its receiver is among the first ``threshold`` (3)
        responders, bundle positions 0–2 (salts 0, 1, 2, 5); otherwise the
        round decodes the survivors' exact sum."""
        def tamper(bundle):
            return mutate_share_bundle(bundle, "self_share", salt)

        used = salt % len(DOOR_SIZES) < 3
        if not used:
            server, decoded, _, vectors = fuzzed_round(
                SHARES, 1, tamper, redeliver=False, late=False, seed=salt
            )
            np.testing.assert_array_equal(
                decoded, plain_prefix_sum(vectors, server.survivors)
            )
            return
        with pytest.raises(SecureRoundAbort) as info:
            fuzzed_round(SHARES, 1, tamper, redeliver=False, late=False, seed=salt)
        assert info.value.phase == UNMASK

        genuine = SecureAggregationClient.make_shares

        def tampered(client, *args, **kwargs):
            bundle = genuine(client, *args, **kwargs)
            return tamper(bundle) if client.client_id == 1 else bundle

        monkeypatch.setattr(SecureAggregationClient, "make_shares", tampered)
        embeddings, heads, report = run_secure_round(
            make_updates(sorted(DOOR_SIZES), seed=salt), {"s": 4}, CFG, 1
        )
        assert report.aborted and report.abort_phase == UNMASK
        assert embeddings == {} and heads == {}

    @settings(deadline=None, max_examples=60)
    @given(
        field_name=st.sampled_from([
            "client_id", "survivor_signature",
            "self_shares.x", "self_shares.y", "self_shares.shape",
            "self_shares.drop", "self_shares.swap",
            "key_shares.x", "key_shares.y", "key_shares.shape",
            "key_shares.drop", "key_shares.swap",
        ]),
        drop=st.sampled_from([None, 1, 3, 5]),
        victim=st.sampled_from(sorted(DOOR_SIZES)),
        salt=st.integers(min_value=0, max_value=2**16),
        redeliver=st.booleans(),
        shared=st.booleans(),
    )
    def test_mutated_unmask_reveal(
        self, field_name, drop, victim, salt, redeliver, shared
    ):
        assert_fails_closed(
            fuzzed_round, UNMASK, victim,
            lambda m: mutate_unmask(m, field_name, salt), redeliver, False,
            drop=drop, seed=salt, shared=shared,
        )

    @pytest.mark.parametrize("shape", [0, 1, 2])
    def test_malformed_reveal_is_refused_and_counted(self, shape):
        """Pinned from the fuzz pass above (``self_shares.shape``, victim
        1, salt 0, no redelivery): a reveal that is not an ``(x, y)`` pair
        of integers was accepted and ``finalize`` died with a bare
        ``ValueError``.  The server now refuses it at the door and counts
        it; the round completes without that responder."""
        server, decoded, refused, vectors = fuzzed_round(
            UNMASK, 1, lambda m: mutate_unmask(m, "self_shares.shape", shape),
            redeliver=False, late=False,
        )
        assert refused == 1 and server.rejected_inputs == 1
        assert 1 not in server.responders
        np.testing.assert_array_equal(
            decoded, plain_prefix_sum(vectors, server.survivors)
        )


class TestMaskPRG:
    """The re-keyed expander behaves like a pure function of
    ``(seed, round)``: uniformity and endpoint agreement are pinned in
    ``TestMaskedSumProperties`` / ``TestClientStateMachine``."""

    def test_shorter_mask_is_a_prefix_of_the_longer(self):
        long, short = MaskPRG(3).expand(42, 64), MaskPRG(3).expand(42, 17)
        assert long.dtype == np.uint64
        np.testing.assert_array_equal(long[:17], short)

    def test_rekeying_leaves_no_trace_of_earlier_seeds(self):
        prg = MaskPRG(3)
        prg.expand(7, 1000)
        prg.expand(8, 3)
        np.testing.assert_array_equal(prg.expand(42, 64), MaskPRG(3).expand(42, 64))

    def test_seed_and_round_both_key_the_stream(self):
        base = MaskPRG(3).expand(42, 64)
        assert not np.array_equal(base, MaskPRG(4).expand(42, 64))
        assert not np.array_equal(base, MaskPRG(3).expand(43, 64))


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
            [s for b in bundles.values() for s in b if s.receiver == 1],
            {u: size for u in ids},
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
        codec = FixedPointCodec()
        encoded = codec.encode(np.full(4096, 0.125))
        data = np.frombuffer(encoded.tobytes(), dtype=np.uint8)
        counts = np.bincount(data, minlength=256)
        expected = data.size / 256.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 > 330.0


TRAINER_DIMS = {"s": 4, "m": 6, "l": 8}


def hetefedrec_round(dataset, clients, mode="sum", dtype="float64"):
    """A HeteFedRec trainer (nested heads), its first round's uploads and
    the survivor ids once one client per model size drops before
    delivering masked input."""
    config = HeteFedRecConfig(
        dims=TRAINER_DIMS, epochs=1, clients_per_round=24, local_epochs=1,
        lr=0.05, seed=0, dtype=dtype,
        aggregation=AggregationConfig(theta_mode=mode),
        secure_aggregation=SecureAggregationConfig(),
    )
    trainer = HeteFedRec(dataset.num_items, clients, config)
    updates = trainer._train_clients(trainer.participation_rounds(1)[0])
    victims = {
        group: min(int(u.user_id) for u in updates if u.group == group)
        for group in trainer.groups
    }
    assert len(victims) == 3, "the round must mix all three model sizes"
    trainer._secure_fault_plan = lambda round_id, ids: FaultPlan(
        drops={MASKED_INPUT: frozenset(victims.values())}
    )
    survivors = sorted({int(u.user_id) for u in updates} - set(victims.values()))
    return trainer, updates, survivors


def plain_round_deltas(updates, survivors, mode):
    """What the trainer should step by: the survivors' plain fixed-point
    padded sums, the heads divided by their public contributor counts in
    mean mode (item embeddings always sum)."""
    embeddings, heads = plain_padded_fixed_point_sums(updates, survivors, TRAINER_DIMS)
    if mode == "mean":
        surviving = [u for u in updates if int(u.user_id) in set(survivors)]
        mean_over_head_contributors(surviving, heads)
    return embeddings, heads


class TestFloat32SecureRound:
    """The float32 knob on the secure path (CI dtype step): uploads are
    float32, the field arithmetic is not, and the decoded sums land in
    float32 tables exactly as the plain fixed-point sums would."""

    def test_decoded_sums_applied_to_float32_tables_bitwise(
        self, tiny_dataset, tiny_clients
    ):
        trainer, updates, survivors = hetefedrec_round(
            tiny_dataset, tiny_clients, dtype="float32"
        )
        assert all(u.embedding_delta.dtype == np.float32 for u in updates)
        tables = {g: trainer.models[g].item_embedding.weight.data.copy()
                  for g in trainer.groups}
        heads = {g: {n: p.data.copy() for n, p in trainer.models[g].head.named_parameters()}
                 for g in trainer.groups}
        trainer.apply_updates(updates)
        embedding_deltas, head_deltas = plain_round_deltas(updates, survivors, "sum")
        for group in trainer.groups:
            tables[group] += embedding_deltas[group]
            after = trainer.models[group].item_embedding.weight.data
            assert after.dtype == np.float32
            np.testing.assert_array_equal(after, tables[group], err_msg=group)
            for name, param in trainer.models[group].head.named_parameters():
                heads[group][name] += head_deltas[group][name]
                assert param.data.dtype == np.float32
                np.testing.assert_array_equal(param.data, heads[group][name])


class TestTrainerIntegration:
    @pytest.mark.parametrize("mode", ["sum", "mean"])
    def test_hetefedrec_round_decodes_the_survivors_plain_sum(
        self, tiny_dataset, tiny_clients, mode
    ):
        """s/m/l cohort with nested heads through the trainer, one
        dropout per model size: sum and mean modes both rest on decoded
        sums that are bitwise the survivors' plain fixed-point sums."""
        trainer, updates, survivors = hetefedrec_round(
            tiny_dataset, tiny_clients, mode=mode
        )
        embeddings, heads = trainer._secure_aggregate(updates)
        assert_sums_bitwise(
            embeddings, heads, *plain_round_deltas(updates, survivors, mode)
        )
        # Survivors were charged their own prefix; the dropouts nothing.
        assert trainer.meter.total_upload == sum(
            _round_layout(updates, TRAINER_DIMS).length_of(u)
            for u in updates if int(u.user_id) in set(survivors)
        )

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
        codec = FixedPointCodec()
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
        must exceed the plain sparse-upload accounting.  Each survivor is
        charged its *own* model's masked length, so a small client's
        metered upload sits strictly below a large client's."""
        plain = self._trainer(tiny_dataset, tiny_clients)
        secure = self._trainer(
            tiny_dataset, tiny_clients,
            secure_aggregation=SecureAggregationConfig(),
        )
        plain.fit()
        secure.fit()
        # One epoch, no faults: every client delivered exactly one masked
        # vector of its own prefix (columns up to its width, plus the
        # head slots of the groups its round saw up to its own).
        dims, items = secure.config.dims, tiny_dataset.num_items
        head = {g: sum(p.data.size for p in secure.models[g].head.parameters())
                for g in secure.groups}
        members = {g: sum(1 for v in secure.group_of.values() if v == g)
                   for g in secure.groups}
        per_client = {g: secure.meter.uploads[g] / members[g] for g in secure.groups}
        for group in secure.groups:
            own_columns_and_head = items * dims[group] + head[group]
            reachable_heads = sum(head[g] for g in secure.groups if dims[g] <= dims[group])
            assert own_columns_and_head <= per_client[group] <= (
                items * dims[group] + reachable_heads
            ), group
        assert per_client["s"] < per_client["m"] < per_client["l"]
        assert secure.meter.protocol, "per-phase protocol ledger missing"
        assert set(secure.meter.protocol) == set(PHASES)
        assert secure.meter.total_upload > plain.meter.total_upload
        assert secure.meter.total > plain.meter.total
        # Downloads are identical: the protocol only changes uploads.
        assert secure.meter.total_download == plain.meter.total_download
        state = secure.meter.export_state()
        assert state["protocol"] == secure.meter.protocol
