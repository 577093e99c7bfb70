"""Phased secure aggregation: explicit server/client state machines.

The one secure-sum path: every trainer and simulator round that enables
``FederatedConfig.secure_aggregation`` goes through
:func:`run_secure_round`.  It implements the protocol the paper's
privacy argument needs — Bonawitz et al. (CCS 2017) — as four explicit
phases with separate :class:`SecureAggregationClient` and
:class:`SecureAggregationServer` state machines (built on the codec,
mask PRG and nested wire layout of :mod:`repro.federated.secure_agg`), so
clients can fail at *any* point and the server must resolve every case
deterministically:

``advertise``
    Every invited client publishes its per-round public keys: a
    Diffie–Hellman mask key over the Shamir prime field (``g^k mod p``),
    a commitment to its self-mask seed, and a MAC verification key
    (stdlib ``hashlib``/``hmac`` stand-in for the signing keypair).
``shares``
    Each roster member splits its DH secret *and* its self-mask seed
    into Shamir t-of-n shares (pure-python over ``p = 2^127 − 1``) and
    sends one pair of shares per fellow member through the server (the
    real protocol encrypts these; the server here relays them opaquely
    and only ever reconstructs through :meth:`~SecureAggregationServer.
    finalize`, which enforces the reveal rules).  With the shares the
    server relays the share roster *and each member's vector length*.
``masked_input``
    Each client that received shares uploads its update as a
    double-masked fixed-point vector over its own prefix of the nested
    wire layout (``len_u`` scalars):
    ``encode(x_u) + PRG(b_u) + Σ_{u<v} PRG(s_uv) − Σ_{v<u} PRG(s_uv)``
    with pairwise seeds ``s_uv`` from DH key agreement and a per-client
    self-mask seed ``b_u``, plus an HMAC over the vector.  The self-mask
    spans ``len_u`` words; the pair mask with ``v`` spans
    ``min(len_u, len_v)`` — both endpoints expand the same prefix of the
    same stream, so it still cancels.  The server accepts a vector only
    at its sender's own length.

    Each pair's agreement and mask are derived once per round, not once
    per endpoint.  The round's :class:`PairMaskLedger`, bound to the
    relayed share roster, holds for every client yet to mask the sum of
    the pair masks its earlier peers derived, with the sign it must
    apply: one ``uint64`` vector of at most ``len_v`` words per such
    client, freed when it masks, so below ``Σ len_u`` words in all.  A
    client that never masks leaves nothing, so its peers derive their
    pair with it themselves.  The masked bytes are those of every
    endpoint deriving every pair itself: each pair contributes the same
    mask with the same sign, and addition in the 2^64 field does not
    care who added it or in which order.
``unmask``
    The server announces the survivor set; each responding survivor
    signs it (consistency check) and reveals, per fellow participant,
    *either* the self-mask share (survivors) *or* the DH-secret share
    (dropouts) — never both, enforced on the client.  With ≥ t
    responses the server reconstructs dropouts' pairwise seeds and
    survivors' self-masks, strips the dangling masks and decodes the
    exact fixed-point sum of the survivors' updates.

Dropping below the survivor threshold at any phase raises no further
work: the round reports ``aborted`` and the caller (the trainer) routes
the updates into the availability/straggler path instead of crashing.

Duplicates are resolved first-message-wins; messages arriving after a
phase closed are rejected and counted, never applied.  All derived
secrets are hash-derived from ``(config.seed, round_id, client_id)`` —
the protocol consumes **no** RNG streams, so enabling it leaves every
checkpointed generator untouched and the bitwise-resume contract holds.

Size-proportional cost: a client of a small model masks and uploads a
small model's vector, not the widest one's.  Privacy is unchanged by the
``min`` span rule: every coordinate of a segment is covered by the pair
masks of *all* roster members whose model reaches that segment, plus the
sender's self-mask — the members that do not reach it hold no value
there to hide among.  Lengths leak nothing new, the server assigned the
model sizes.  What Eq. 8's sum itself reveals is also unchanged: a
segment only one survivor reaches decodes to that survivor's own value.

Exactness: the decoded sum is bitwise-identical to the survivors' plain
fixed-point sum (encode each flat update, add into ``total[:len]`` in
uint64, decode) — the same codec quantises, and every mask cancels
exactly in the 2^64 field over the span it was added on.
``tests/test_secure_protocol.py`` and the ``BENCH_secure_agg.json``
exactness gate pin it against that oracle, with and without faults.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.federated.payload import ClientUpdate
from repro.federated.secure_agg import (
    FixedPointCodec,
    MaskPRG,
    SecureAggregationConfig,
    _flatten_update,
    _round_layout,
    _unflatten_sum,
)

_FIELD_DTYPE = np.uint64

#: Protocol phases, in wire order.
ADVERTISE, SHARES, MASKED_INPUT, UNMASK = (
    "advertise", "shares", "masked_input", "unmask",
)
PHASES = (ADVERTISE, SHARES, MASKED_INPUT, UNMASK)

#: Minimum fraction of the invited participants that must survive every
#: phase: a round below ``max(1, ceil(THRESHOLD_FRACTION · n))`` survivors
#: aborts into the availability path instead of unmasking.
THRESHOLD_FRACTION = 0.5

#: Shamir/DH field: the 12th Mersenne prime.  Big enough to hold any
#: 64-bit secret, small enough that pure-python modexp stays cheap.
SHAMIR_PRIME = 2**127 - 1
#: Diffie–Hellman generator (any small primitive-ish element works for
#: the simulation; security is not load-bearing at this field size).
DH_GENERATOR = 5

# Wire costs in scalar-equivalents (the unit every accounting surface of
# this repo uses; one scalar = 8 bytes).  A 127-bit field element is two
# scalars, a share is (x, y) with a shared 64-bit x coordinate, a MAC /
# signature is four scalars (SHA-256).
_WIRE_PUBKEYS = 5.0        # DH pubkey (2) + seed commitment (1) + MAC key (2)
_WIRE_SHARE_PAIR = 5.0     # x (1) + key share y (2) + self share y (2)
_WIRE_MAC = 4.0
_WIRE_SIGNATURE = 4.0


class ProtocolError(RuntimeError):
    """A message or reveal request that violates the protocol rules."""


class SecureRoundAbort(RuntimeError):
    """Survivors fell below the reconstruction threshold mid-round."""

    def __init__(self, phase: str, survivors: int, threshold: int) -> None:
        super().__init__(
            f"secure round aborted at phase {phase!r}: "
            f"{survivors} survivors < threshold {threshold}"
        )
        self.phase = phase
        self.survivors = survivors
        self.threshold = threshold


class TamperedRevealAbort(SecureRoundAbort):
    """A secret reconstructed at unmask fails its advertised commitment.

    Some revealed share was tampered with, so the masks cannot be
    stripped: the round aborts like one short of survivors, and its
    updates take the same availability path instead of ending the run.
    """

    def __init__(self, reason: str, survivors: int, threshold: int) -> None:
        RuntimeError.__init__(self, f"secure round aborted at phase {UNMASK!r}: {reason}")
        self.phase = UNMASK
        self.survivors = survivors
        self.threshold = threshold


# ----------------------------------------------------------------------
# Hash-derived secrets and Shamir sharing over the prime field
# ----------------------------------------------------------------------
def _digest_int(*parts: object, bits: int = 64) -> int:
    """Deterministic integer from a labelled SHA-256 digest."""
    data = ":".join(str(part) for part in parts).encode()
    digest = hashlib.sha256(data).digest()
    return int.from_bytes(digest[: bits // 8], "little")


def _prg_seed(*parts: object) -> int:
    """64-bit PRG seed from protocol material (feeds ``MaskPRG.expand``)."""
    return _digest_int("prg", *parts, bits=64)


@lru_cache(maxsize=64)
def _lagrange_at_zero(xs: Tuple[int, ...]) -> Tuple[int, ...]:
    """Lagrange basis values at 0 for one x-coordinate set.

    Every survivor of a round reconstructs from the same responder
    prefix, so the t² products and t inverses are paid once per set.
    """
    weights = []
    for i, xi in enumerate(xs):
        numerator = denominator = 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            numerator = (numerator * (-xj)) % SHAMIR_PRIME
            denominator = (denominator * (xi - xj)) % SHAMIR_PRIME
        weights.append(numerator * pow(denominator, -1, SHAMIR_PRIME) % SHAMIR_PRIME)
    return tuple(weights)


def shamir_share(
    secret: int, xs: Sequence[int], threshold: int, salt: str
) -> Dict[int, int]:
    """t-of-n shares of ``secret`` at x-coordinates ``xs``.

    Polynomial coefficients are hash-derived from the secret itself (the
    dealer's entropy), not from an RNG stream — sharing is a pure
    function, which keeps checkpoint/resume oblivious to the protocol.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    if len(set(xs)) != len(xs):
        raise ValueError("share x-coordinates must be unique")
    # Coefficient j is _digest_int(salt, secret, "coeff", j, bits=128):
    # the shared label prefix is hashed once and extended per j.
    prefix = hashlib.sha256(f"{salt}:{secret}:coeff:".encode())
    highest_first = []
    for index in range(threshold - 1, 0, -1):
        digest = prefix.copy()
        digest.update(str(index).encode())
        highest_first.append(
            int.from_bytes(digest.digest()[:16], "little") % SHAMIR_PRIME
        )
    highest_first.append(secret % SHAMIR_PRIME)
    shares: Dict[int, int] = {}
    for x in map(int, xs):
        if not 1 <= x < SHAMIR_PRIME:
            raise ValueError(f"share x-coordinate must be in [1, p), got {x}")
        # Horner at a small x: the value grows by log2(x) bits a step,
        # far cheaper than a reduction per step, so reduce once.
        value = 0
        for coefficient in highest_first:
            value = value * x + coefficient
        shares[x] = value % SHAMIR_PRIME
    return shares


def shamir_reconstruct(shares: Mapping[int, int]) -> int:
    """Lagrange interpolation at 0 over the prime field."""
    if not shares:
        raise ValueError("cannot reconstruct from zero shares")
    xs = tuple(sorted(shares))
    weights = _lagrange_at_zero(xs)
    return sum(shares[x] * weight for x, weight in zip(xs, weights)) % SHAMIR_PRIME


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KeyAdvertisement:
    """Round 0: one client's per-round public material."""

    client_id: int
    round_id: int
    dh_public: int          # g^k mod p — pairwise seed agreement
    self_commitment: int    # H(self-mask seed) — integrity of recovery
    mac_key: int            # verification key stand-in (see module doc)


@dataclass(frozen=True)
class SeedShare:
    """Round 1: one sender→receiver pair of Shamir shares (server-relayed)."""

    sender: int
    receiver: int
    x: int
    key_share: int   # share of the sender's DH secret
    self_share: int  # share of the sender's self-mask seed


@dataclass(frozen=True)
class MaskedInput:
    """Round 2: the double-masked fixed-point vector plus its MAC."""

    client_id: int
    round_id: int
    vector: np.ndarray
    mac: str


@dataclass(frozen=True)
class UnmaskShares:
    """Round 3: a survivor's consistency signature and share reveals."""

    client_id: int
    survivor_signature: str
    #: ``{survivor_id: self-mask share}`` — only for clients that delivered.
    self_shares: Mapping[int, Tuple[int, int]]
    #: ``{dropout_id: DH-secret share}`` — only for clients that vanished.
    key_shares: Mapping[int, Tuple[int, int]]


def _survivor_digest(mac_key: int, round_id: int, survivors: Sequence[int]) -> str:
    payload = f"{round_id}:" + ",".join(str(s) for s in sorted(survivors))
    return hmac.new(
        str(mac_key).encode(), payload.encode(), hashlib.sha256
    ).hexdigest()


def _vector_mac(mac_key: int, round_id: int, vector: np.ndarray) -> str:
    mac = hmac.new(str(mac_key).encode(), digestmod=hashlib.sha256)
    mac.update(str(round_id).encode())
    mac.update(np.ascontiguousarray(vector).tobytes())
    return mac.hexdigest()


# ----------------------------------------------------------------------
# Pair masks, derived once per pair
# ----------------------------------------------------------------------
class PairMaskLedger:
    """Each pair's mask of one round, derived by one endpoint only.

    Bound to the relayed share roster (``{id: vector length}``); see the
    module docstring's ``masked_input`` for what it holds and why the
    masked bytes do not change.  The first endpoint of a pair to mask
    deposits the opposite sign into the peer's pending prefix, which the
    peer takes instead of deriving the pair again.
    """

    def __init__(self, share_roster: Mapping[int, int]) -> None:
        self.roster = {int(u): int(share_roster[u]) for u in sorted(share_roster)}
        self._masked: Set[int] = set()
        self._pending: Dict[int, np.ndarray] = {}

    def take(self, client_id: int) -> Optional[np.ndarray]:
        """Mark ``client_id`` as masking; the masks earlier endpoints left
        for it (None if none did)."""
        self._masked.add(client_id)
        return self._pending.pop(client_id, None)

    def unmasked(self) -> List[int]:
        """Roster members that have not masked yet."""
        return [uid for uid in self.roster if uid not in self._masked]

    def deposit(self, peer: int, mask: np.ndarray, negate: bool) -> None:
        """Leave ``peer`` its half of a pair mask: ``−mask`` if ``negate``."""
        pending = self._pending.get(peer)
        if pending is None:
            pending = self._pending[peer] = np.zeros(self.roster[peer], _FIELD_DTYPE)
        span = pending[: mask.size]
        (np.subtract if negate else np.add)(span, mask, out=span)


# ----------------------------------------------------------------------
# Client state machine
# ----------------------------------------------------------------------
class SecureAggregationClient:
    """One client's view of a masking round.

    All secrets derive from ``(config.seed, round_id, client_id)`` —
    ``config.seed`` models the client's long-term key material (the
    server classes never touch it).  The client walks the same phase
    ladder as the server and refuses out-of-order calls.
    """

    def __init__(
        self, client_id: int, round_id: int, config: SecureAggregationConfig
    ) -> None:
        self.client_id = int(client_id)
        self.round_id = int(round_id)
        self.config = config
        root = config.seed
        # Nonzero DH exponent below the prime.
        self.dh_secret = (
            _digest_int(root, "dh", round_id, client_id, bits=120) % (SHAMIR_PRIME - 2)
        ) + 1
        self.self_seed = _digest_int(root, "self", round_id, client_id, bits=64)
        self.mac_key = _digest_int(root, "mac", round_id, client_id, bits=128)
        self.codec = FixedPointCodec()
        self._prg = MaskPRG(round_id)
        self.phase = ADVERTISE
        self._roster: List[int] = []
        self._threshold = 0
        self._x_of: Dict[int, int] = {}
        self._share_roster: Dict[int, int] = {}  # member id → vector length
        self._received_shares: Dict[int, SeedShare] = {}
        self._dh_publics: Dict[int, int] = {}
        self._ledger: Optional[PairMaskLedger] = None
        self._advertisement: Optional[KeyAdvertisement] = None

    # -- round 0 -------------------------------------------------------
    def advertise(self) -> KeyAdvertisement:
        self._require_phase(ADVERTISE)
        self.phase = SHARES
        self._advertisement = KeyAdvertisement(
            client_id=self.client_id,
            round_id=self.round_id,
            dh_public=pow(DH_GENERATOR, self.dh_secret, SHAMIR_PRIME),
            self_commitment=_digest_int("commit", self.self_seed, bits=64),
            mac_key=self.mac_key,
        )
        return self._advertisement

    # -- round 1 -------------------------------------------------------
    def make_shares(
        self,
        roster: Sequence[int],
        threshold: int,
        advertisements: Mapping[int, KeyAdvertisement],
    ) -> List[SeedShare]:
        """Split both secrets t-of-n across the advertised roster."""
        self._require_phase(SHARES)
        if self.client_id not in roster:
            raise ProtocolError(
                f"client {self.client_id} asked to share outside its roster"
            )
        if advertisements.get(self.client_id) != self._advertisement:
            # Peers would agree pair seeds with keys this client does not
            # hold, and its masks would never cancel.
            raise ProtocolError(
                f"the roster relays an advertisement for client "
                f"{self.client_id} that it did not send"
            )
        self._roster = sorted(int(r) for r in roster)
        self._threshold = int(threshold)
        # x-coordinates from roster order: both endpoints compute the
        # same mapping, so shares line up without extra wire traffic.
        self._x_of = {uid: i + 1 for i, uid in enumerate(self._roster)}
        self._dh_publics = {
            uid: advertisements[uid].dh_public for uid in self._roster
        }
        key_shares = shamir_share(
            self.dh_secret, [self._x_of[u] for u in self._roster], threshold,
            salt=f"key:{self.round_id}:{self.client_id}",
        )
        self_shares = shamir_share(
            self.self_seed, [self._x_of[u] for u in self._roster], threshold,
            salt=f"self:{self.round_id}:{self.client_id}",
        )
        return [
            SeedShare(
                sender=self.client_id,
                receiver=uid,
                x=self._x_of[uid],
                key_share=key_shares[self._x_of[uid]],
                self_share=self_shares[self._x_of[uid]],
            )
            for uid in self._roster
        ]

    def receive_shares(
        self,
        shares: Sequence[SeedShare],
        share_roster: Mapping[int, int],
        ledger: Optional[PairMaskLedger] = None,
    ) -> None:
        """Store the shares addressed to this client; learn who shared.

        ``share_roster`` maps each sharing member to the (public) length
        of the vector the server expects from it.  ``ledger`` is the
        round's :class:`PairMaskLedger`; one bound to another roster view
        (or none) leaves this client a private one, deriving every pair.
        """
        self._require_phase(SHARES)
        for share in shares:
            if share.receiver != self.client_id:
                raise ProtocolError(
                    f"client {self.client_id} received a share addressed "
                    f"to {share.receiver}"
                )
            self._received_shares[share.sender] = share
        self._share_roster = {int(u): int(share_roster[u]) for u in sorted(share_roster)}
        if ledger is None or ledger.roster != self._share_roster:
            ledger = PairMaskLedger(self._share_roster)
        self._ledger = ledger
        self.phase = MASKED_INPUT

    # -- round 2 -------------------------------------------------------
    def pair_seed(self, other_id: int) -> int:
        """DH agreement with ``other_id``: ``pk_other^k_self`` folded to 64 bits."""
        shared = pow(self._dh_publics[other_id], self.dh_secret, SHAMIR_PRIME)
        return _prg_seed(shared)

    def masked_input(self, vector: np.ndarray) -> MaskedInput:
        """Encode, double-mask and authenticate this client's flat update."""
        self._require_phase(MASKED_INPUT)
        flat = np.asarray(vector, dtype=np.float64).ravel()
        total = self.codec.encode(flat)
        total += self._prg.expand(_prg_seed("selfmask", self.self_seed), flat.size)
        ledger = self._ledger
        if flat.size != self._share_roster.get(self.client_id):
            # Not the length the roster announced: the pending prefixes
            # were cut for that length, so mask alone.
            ledger = PairMaskLedger(self._share_roster)
        pending = ledger.take(self.client_id)
        if pending is not None:
            np.add(total, pending, out=total)
        for other in ledger.unmasked():
            # A pair's mask covers the shorter endpoint's prefix only.
            span = total[: min(flat.size, self._share_roster[other])]
            mask = self._prg.expand(self.pair_seed(other), span.size)
            smaller = self.client_id < other
            (np.add if smaller else np.subtract)(span, mask, out=span)
            ledger.deposit(other, mask, negate=smaller)
        self.phase = UNMASK
        return MaskedInput(
            client_id=self.client_id,
            round_id=self.round_id,
            vector=total,
            mac=_vector_mac(self.mac_key, self.round_id, total),
        )

    # -- round 3 -------------------------------------------------------
    def unmask_response(
        self, survivors: Sequence[int], dropouts: Sequence[int]
    ) -> UnmaskShares:
        """Reveal self-mask shares for survivors, key shares for dropouts.

        The never-both rule lives here: a client id appearing in both
        lists would let the server recover a *delivered* input (subtract
        the self-mask AND strip the pairwise masks), so the client
        refuses the request outright.
        """
        self._require_phase(UNMASK)
        survivor_set = set(int(s) for s in survivors)
        dropout_set = set(int(d) for d in dropouts)
        overlap = survivor_set & dropout_set
        if overlap:
            raise ProtocolError(
                "refusing unmask request naming clients as both survivor "
                f"and dropout: {sorted(overlap)[:5]}"
            )
        unknown = (survivor_set | dropout_set) - set(self._share_roster)
        if unknown:
            raise ProtocolError(
                f"unmask request names clients outside the share roster: "
                f"{sorted(unknown)[:5]}"
            )
        self_shares = {
            uid: (self._received_shares[uid].x, self._received_shares[uid].self_share)
            for uid in sorted(survivor_set)
            if uid in self._received_shares
        }
        key_shares = {
            uid: (self._received_shares[uid].x, self._received_shares[uid].key_share)
            for uid in sorted(dropout_set)
            if uid in self._received_shares
        }
        return UnmaskShares(
            client_id=self.client_id,
            survivor_signature=_survivor_digest(
                self.mac_key, self.round_id, sorted(survivor_set)
            ),
            self_shares=self_shares,
            key_shares=key_shares,
        )

    def _require_phase(self, phase: str) -> None:
        if self.phase != phase:
            raise ProtocolError(
                f"client {self.client_id} is in phase {self.phase!r}, "
                f"cannot run {phase!r}"
            )


# ----------------------------------------------------------------------
# Server state machine
# ----------------------------------------------------------------------
class SecureAggregationServer:
    """The coordinator's view: collect, dedupe, threshold-check, unmask.

    Each phase accepts messages until the matching ``close_*`` call;
    duplicates are first-message-wins, late or wrong-phase messages are
    rejected and counted (``duplicates_ignored`` / ``late_rejected``),
    unknown senders raise :class:`ProtocolError`.  Every ``close_*``
    enforces the survivor threshold and raises :class:`SecureRoundAbort`
    below it, and :meth:`finalize` aborts on a tampered reveal — the
    server never limps into an unreconstructable state.
    """

    def __init__(
        self,
        expected_ids: Sequence[int],
        vector_sizes: Mapping[int, int],
        round_id: int,
        config: SecureAggregationConfig,
    ) -> None:
        self.expected = sorted(int(u) for u in expected_ids)
        if len(set(self.expected)) != len(self.expected):
            raise ValueError("participant ids must be unique")
        if not self.expected:
            raise ValueError("a secure round needs at least one participant")
        # Public by construction: the server assigned every model size.
        self.vector_sizes = {uid: int(vector_sizes[uid]) for uid in self.expected}
        self.round_id = int(round_id)
        self.config = config
        self.threshold = max(1, int(np.ceil(THRESHOLD_FRACTION * len(self.expected))))
        self.phase = ADVERTISE
        self.duplicates_ignored = 0
        self.late_rejected = 0
        self.rejected_inputs = 0
        self._advertisements: Dict[int, KeyAdvertisement] = {}
        self._shares_by_sender: Dict[int, Dict[int, SeedShare]] = {}
        self._masked: Dict[int, MaskedInput] = {}
        self._unmask: Dict[int, UnmaskShares] = {}
        self.roster: List[int] = []
        self.share_roster: List[int] = []
        self.survivors: List[int] = []
        self.dropouts: List[int] = []
        self.responders: List[int] = []

    # -- generic receive plumbing --------------------------------------
    def _receive(self, phase: str, sender: int, store: Dict, message) -> bool:
        if sender not in self.expected:
            raise ProtocolError(f"message from unknown client {sender}")
        if self.phase != phase:
            self.late_rejected += 1
            return False
        if sender in store:
            self.duplicates_ignored += 1
            return False
        store[sender] = message
        return True

    # -- round 0 -------------------------------------------------------
    def receive_advertisement(self, message: KeyAdvertisement) -> bool:
        if message.round_id != self.round_id:
            self.late_rejected += 1
            return False
        return self._receive(
            ADVERTISE, int(message.client_id), self._advertisements, message
        )

    def close_advertise(self) -> List[int]:
        """Freeze the roster (U1); below-threshold rosters abort."""
        self._require_phase(ADVERTISE)
        self.roster = sorted(self._advertisements)
        if len(self.roster) < self.threshold:
            raise SecureRoundAbort(ADVERTISE, len(self.roster), self.threshold)
        self.phase = SHARES
        return list(self.roster)

    # -- round 1 -------------------------------------------------------
    def receive_shares(self, sender: int, shares: Sequence[SeedShare]) -> bool:
        if any(s.sender != sender for s in shares):
            raise ProtocolError(f"share bundle from {sender} spoofs its sender")
        if self.phase == SHARES and sender in self.expected:
            # Receivers and x-coordinates are public: one share for each
            # roster member, at its roster position + 1.  A bundle that
            # does not match could not be reconstructed at ``finalize``;
            # refused here, its sender leaves the share roster instead.
            addressed = {uid: i + 1 for i, uid in enumerate(self.roster)}
            if len(shares) != len(addressed) or {
                share.receiver: share.x for share in shares
            } != addressed:
                self.rejected_inputs += 1
                return False
        return self._receive(
            SHARES, int(sender), self._shares_by_sender,
            {share.receiver: share for share in shares},
        )

    def close_shares(self) -> Dict[int, int]:
        """Freeze the share roster (U2); relay targets become known.

        Returns the roster as relayed to its members: each id with the
        vector length expected of it, in id order.
        """
        self._require_phase(SHARES)
        self.share_roster = sorted(self._shares_by_sender)
        if len(self.share_roster) < self.threshold:
            raise SecureRoundAbort(SHARES, len(self.share_roster), self.threshold)
        self.phase = MASKED_INPUT
        return {uid: self.vector_sizes[uid] for uid in self.share_roster}

    def shares_for(self, receiver: int) -> List[SeedShare]:
        """The relayed (opaque) shares addressed to one client."""
        return [
            self._shares_by_sender[sender][receiver]
            for sender in self.share_roster
            if receiver in self._shares_by_sender[sender]
        ]

    # -- round 2 -------------------------------------------------------
    def receive_masked_input(self, message: MaskedInput) -> bool:
        sender = int(message.client_id)
        if message.round_id != self.round_id:
            self.late_rejected += 1
            return False
        if sender in self._advertisements and self.phase == MASKED_INPUT:
            advert = self._advertisements[sender]
            wrong_size = message.vector.size != self.vector_sizes[sender]
            if wrong_size or message.mac != _vector_mac(
                advert.mac_key, self.round_id, message.vector
            ):
                # Corrupted input, or one not of the sender's own length:
                # deterministically treat the client as a dropout.
                self.rejected_inputs += 1
                return False
        return self._receive(MASKED_INPUT, sender, self._masked, message)

    def close_masked_inputs(self) -> Tuple[List[int], List[int]]:
        """Freeze survivors (U3) and dropouts (U2 \\ U3)."""
        self._require_phase(MASKED_INPUT)
        self.survivors = sorted(u for u in self._masked if u in self.share_roster)
        self.dropouts = sorted(set(self.share_roster) - set(self.survivors))
        if len(self.survivors) < self.threshold:
            raise SecureRoundAbort(
                MASKED_INPUT, len(self.survivors), self.threshold
            )
        self.phase = UNMASK
        return list(self.survivors), list(self.dropouts)

    # -- round 3 -------------------------------------------------------
    def receive_unmask(self, message: UnmaskShares) -> bool:
        sender = int(message.client_id)
        if self.phase == UNMASK and sender in self._advertisements:
            advert = self._advertisements[sender]
            expected = _survivor_digest(
                advert.mac_key, self.round_id, self.survivors
            )
            if not hmac.compare_digest(message.survivor_signature, expected):
                # Consistency-check failure: the client signed a different
                # survivor set than the server announced.
                self.rejected_inputs += 1
                return False
            if set(message.self_shares) & set(message.key_shares):
                raise ProtocolError(
                    f"client {sender} revealed both share kinds for one id"
                )
            reveals = (*message.self_shares.values(), *message.key_shares.values())
            if not all(
                type(share) is tuple and len(share) == 2
                and all(type(value) is int for value in share)
                for share in reveals
            ):
                # Not an (x, y) pair of field integers: reconstruction
                # would fail untyped, so the reveal is refused here.
                self.rejected_inputs += 1
                return False
        return self._receive(UNMASK, sender, self._unmask, message)

    def finalize(self) -> np.ndarray:
        """Reconstruct, strip masks, decode — the protocol's payoff.

        A reconstructed secret that fails its advertised commitment (a
        tampered share) aborts the round with :class:`TamperedRevealAbort`.
        """
        self._require_phase(UNMASK)
        self.responders = sorted(self._unmask)
        if len(self.responders) < self.threshold:
            raise SecureRoundAbort(UNMASK, len(self.responders), self.threshold)

        sizes = self.vector_sizes
        prg = MaskPRG(self.round_id)
        total = np.zeros(max(sizes.values()), dtype=_FIELD_DTYPE)
        for survivor in self.survivors:
            own = total[: sizes[survivor]]
            np.add(
                own, np.asarray(self._masked[survivor].vector, _FIELD_DTYPE), out=own
            )

        # Survivors' self-masks: reconstruct b_u from the revealed shares
        # and verify against the advertised commitment before trusting it.
        for survivor in self.survivors:
            shares = self._collect_shares(survivor, kind="self")
            seed = shamir_reconstruct(shares)
            if _digest_int("commit", seed, bits=64) != self._advertisements[
                survivor
            ].self_commitment:
                raise TamperedRevealAbort(
                    f"reconstructed self-mask seed for {survivor} fails its "
                    "advertised commitment", len(self.responders), self.threshold,
                )
            own = total[: sizes[survivor]]
            mask = prg.expand(_prg_seed("selfmask", seed), own.size)
            np.subtract(own, mask, out=own)

        # Dropouts' dangling pairwise masks: reconstruct the DH secret,
        # verify against the advertised public key, re-derive every
        # surviving pair's seed and strip the mask with the right sign.
        for dropout in self.dropouts:
            shares = self._collect_shares(dropout, kind="key")
            secret = shamir_reconstruct(shares)
            advert = self._advertisements[dropout]
            if pow(DH_GENERATOR, secret, SHAMIR_PRIME) != advert.dh_public:
                raise TamperedRevealAbort(
                    f"reconstructed DH secret for {dropout} fails its "
                    "advertised public key", len(self.responders), self.threshold,
                )
            for survivor in self.survivors:
                shared = pow(
                    self._advertisements[survivor].dh_public, secret, SHAMIR_PRIME
                )
                span = total[: min(sizes[survivor], sizes[dropout])]
                mask = prg.expand(_prg_seed(shared), span.size)
                # The survivor added +mask when its id is the smaller of
                # the pair, −mask otherwise; subtract what was added.
                if survivor < dropout:
                    np.subtract(span, mask, out=span)
                else:
                    np.add(span, mask, out=span)

        codec = FixedPointCodec()
        return codec.decode(total)

    def _collect_shares(self, target: int, kind: str) -> Dict[int, int]:
        """Exactly ``threshold`` shares of one client's secret, or abort.

        Taking a fixed-size prefix (responders in id order) keeps
        reconstruction deterministic regardless of how many extra
        responses arrived.
        """
        collected: Dict[int, int] = {}
        for responder in self.responders:
            reveals = (
                self._unmask[responder].self_shares
                if kind == "self"
                else self._unmask[responder].key_shares
            )
            if target in reveals:
                x, y = reveals[target]
                collected[int(x)] = int(y)
            if len(collected) == self.threshold:
                break
        if len(collected) < self.threshold:
            raise SecureRoundAbort(UNMASK, len(collected), self.threshold)
        return collected

    def _require_phase(self, phase: str) -> None:
        if self.phase != phase:
            raise ProtocolError(
                f"server is in phase {self.phase!r}, cannot run {phase!r}"
            )


# ----------------------------------------------------------------------
# Fault injection and the round report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPlan:
    """Which clients misbehave at which phase (orchestrator-level).

    ``drops[phase]`` never send that phase's message (nor any later
    one); ``duplicates[phase]`` send it twice.  Phases not listed are
    clean.  The plan is data, not randomness — simulators draw it from
    their owned streams, tests write it down explicitly.
    """

    drops: Mapping[str, frozenset] = field(default_factory=dict)
    duplicates: Mapping[str, frozenset] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for mapping in (self.drops, self.duplicates):
            for phase in mapping:
                if phase not in PHASES:
                    raise ValueError(f"unknown protocol phase {phase!r}")

    def drops_at(self, phase: str) -> Set[int]:
        return set(self.drops.get(phase, ()))

    def duplicates_at(self, phase: str) -> Set[int]:
        return set(self.duplicates.get(phase, ()))

    def dropped_by(self, phase: str) -> Set[int]:
        """Everyone already gone when ``phase`` runs (drops are sticky)."""
        gone: Set[int] = set()
        for candidate in PHASES:
            gone |= self.drops_at(candidate)
            if candidate == phase:
                break
        return gone


@dataclass
class SecureRoundReport:
    """Deterministic accounting for one secure round."""

    round_id: int
    expected: int
    threshold: int
    roster: List[int] = field(default_factory=list)
    share_roster: List[int] = field(default_factory=list)
    survivors: List[int] = field(default_factory=list)
    responders: List[int] = field(default_factory=list)
    dropouts_by_phase: Dict[str, List[int]] = field(default_factory=dict)
    duplicates_ignored: int = 0
    late_rejected: int = 0
    aborted: bool = False
    abort_phase: Optional[str] = None
    saturated_scalars: int = 0
    #: The round's full-layout length (the widest model's vector).
    masked_vector_scalars: int = 0
    #: ``{client_id: scalars}`` — each invited client's own masked length.
    masked_lengths: Dict[int, int] = field(default_factory=dict)
    phase_wire: Dict[str, float] = field(default_factory=dict)

    @property
    def protocol_overhead(self) -> float:
        """Key/share/MAC traffic beyond the masked vectors themselves."""
        return float(sum(self.phase_wire.values()))

    def as_dict(self) -> Dict[str, object]:
        return {
            "round_id": self.round_id,
            "expected": self.expected,
            "threshold": self.threshold,
            "survivors": list(self.survivors),
            "dropouts_by_phase": {
                phase: list(ids) for phase, ids in self.dropouts_by_phase.items()
            },
            "aborted": self.aborted,
            "abort_phase": self.abort_phase,
            "saturated_scalars": int(self.saturated_scalars),
            "masked_vector_scalars": int(self.masked_vector_scalars),
            "masked_lengths": dict(self.masked_lengths),
            "phase_wire": {k: float(v) for k, v in self.phase_wire.items()},
        }


# ----------------------------------------------------------------------
# Orchestration: one full round over heterogeneous uploads
# ----------------------------------------------------------------------
def run_secure_round(
    updates: Sequence[ClientUpdate],
    dims: Mapping[str, int],
    config: SecureAggregationConfig,
    round_id: int,
    faults: Optional[FaultPlan] = None,
) -> Tuple[Dict[str, np.ndarray], Dict[str, Dict[str, np.ndarray]], SecureRoundReport]:
    """Drive every phase of the protocol over one round's uploads.

    Returns ``(embedding_sums, head_sums, report)``: the decoded sums
    cover exactly ``report.survivors`` (clients that delivered masked
    input, including any that later dropped at the unmask phase — their
    self-masks reconstruct from fellow survivors' shares).  On a
    below-threshold abort both dicts are empty and ``report.aborted``
    is set; the caller owns the fallback.

    No RNG stream is consumed anywhere in this function.
    """
    if not updates:
        raise ValueError("run_secure_round needs at least one update")
    faults = faults or FaultPlan()
    layout = _round_layout(updates, dims)
    by_id = {int(u.user_id): u for u in updates}
    if len(by_id) != len(updates):
        raise ValueError(
            "duplicate user ids in a secure round — merge uploads first "
            "(each participant holds exactly one masking slot)"
        )
    ids = sorted(by_id)

    lengths = {uid: layout.length_of(by_id[uid]) for uid in ids}
    server = SecureAggregationServer(ids, lengths, round_id, config)
    clients = {uid: SecureAggregationClient(uid, round_id, config) for uid in ids}
    report = SecureRoundReport(
        round_id=round_id,
        expected=len(ids),
        threshold=server.threshold,
        masked_vector_scalars=layout.total,
        masked_lengths=lengths,
        phase_wire={phase: 0.0 for phase in PHASES},
    )

    def deliver(phase: str, uid: int, send, wire: float) -> None:
        """One client's message for ``phase``, with duplicate injection."""
        send()
        report.phase_wire[phase] += wire
        if uid in faults.duplicates_at(phase):
            send()  # the server must dedupe, not double-count
            report.phase_wire[phase] += wire

    try:
        # -- round 0: key advertisement --------------------------------
        gone = faults.drops_at(ADVERTISE)
        for uid in ids:
            if uid in gone:
                continue
            message = clients[uid].advertise()
            deliver(
                ADVERTISE, uid,
                lambda m=message: server.receive_advertisement(m),
                _WIRE_PUBKEYS,
            )
        roster = server.close_advertise()
        report.roster = list(roster)
        report.dropouts_by_phase[ADVERTISE] = sorted(set(ids) - set(roster))
        # Roster broadcast: ids + threshold, to every roster member.
        report.phase_wire[ADVERTISE] += float(len(roster) * (len(roster) + 1))

        # -- round 1: Shamir seed shares -------------------------------
        advertisements = {uid: server._advertisements[uid] for uid in roster}
        gone = faults.dropped_by(SHARES)
        for uid in roster:
            if uid in gone:
                continue
            bundle = clients[uid].make_shares(
                roster, server.threshold, advertisements
            )
            deliver(
                SHARES, uid,
                lambda u=uid, b=bundle: server.receive_shares(u, b),
                _WIRE_SHARE_PAIR * max(len(roster) - 1, 0),
            )
        share_roster = server.close_shares()
        report.share_roster = list(share_roster)
        report.dropouts_by_phase[SHARES] = sorted(
            set(roster) - set(share_roster) - faults.drops_at(ADVERTISE)
        )
        # Relay: each member downloads its addressed shares + the roster
        # with every member's vector length (id + length per entry).
        ledger = PairMaskLedger(share_roster)
        for uid in share_roster:
            clients[uid].receive_shares(server.shares_for(uid), share_roster, ledger)
            report.phase_wire[SHARES] += (
                _WIRE_SHARE_PAIR * max(len(share_roster) - 1, 0)
                + 2 * len(share_roster)
            )

        # -- round 2: double-masked input ------------------------------
        gone = faults.dropped_by(MASKED_INPUT)
        for uid in share_roster:
            if uid in gone:
                continue
            client = clients[uid]
            message = client.masked_input(_flatten_update(by_id[uid], layout))
            report.saturated_scalars += client.codec.saturated_total
            deliver(
                MASKED_INPUT, uid,
                lambda m=message: server.receive_masked_input(m),
                _WIRE_MAC,  # the vector itself is metered as the upload
            )
        survivors, dropouts = server.close_masked_inputs()
        report.survivors = list(survivors)
        report.dropouts_by_phase[MASKED_INPUT] = sorted(
            set(share_roster) - set(survivors) - faults.dropped_by(SHARES)
        )

        # -- round 3: consistency check + unmasking --------------------
        gone = faults.dropped_by(UNMASK)
        for uid in survivors:
            if uid in gone:
                continue
            response = clients[uid].unmask_response(survivors, dropouts)
            deliver(
                UNMASK, uid,
                lambda m=response: server.receive_unmask(m),
                _WIRE_SIGNATURE + 3.0 * (len(survivors) + len(dropouts)),
            )
            # Survivor/dropout roster broadcast to this responder.
            report.phase_wire[UNMASK] += float(len(survivors) + len(dropouts))
        decoded = server.finalize()
        report.responders = list(server.responders)
        report.dropouts_by_phase[UNMASK] = sorted(
            set(survivors) - set(server.responders) - faults.dropped_by(MASKED_INPUT)
        )
    except SecureRoundAbort as abort:
        report.aborted = True
        report.abort_phase = abort.phase
        report.survivors = []
        report.duplicates_ignored = server.duplicates_ignored
        report.late_rejected = server.late_rejected
        # Masked vectors delivered before the abort are wasted wire.
        report.phase_wire[MASKED_INPUT] += float(
            sum(lengths[uid] for uid in server._masked)
        )
        return {}, {}, report

    report.duplicates_ignored = server.duplicates_ignored
    report.late_rejected = server.late_rejected
    embeddings, heads = _unflatten_sum(decoded, layout, dims)
    return embeddings, heads, report
