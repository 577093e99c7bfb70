"""Client availability: offline devices and stragglers.

The paper's motivation (footnote 5) names "disparities in computational
power, energy constraints, bandwidth" as the resource diversity that
model heterogeneity addresses.  Real deployments see that diversity as
*availability*: a selected device may be offline (never trains this
round) or a straggler (its update arrives after the round closed).
This module simulates both behaviours on top of any trainer:

* **offline** — the client drops out of the round before training;
  the server simply aggregates fewer updates (and, under secure
  aggregation, runs dropout recovery);
* **straggler** — the client trains, but its update misses the round's
  aggregation and is applied *stale* in the next round (the buffered /
  asynchronous aggregation model of FedBuff), optionally down-weighted.

Enable by setting ``FederatedConfig.availability``; determinism comes
from hashing (seed, epoch, round, user), so runs are reproducible and
availability is independent of client iteration order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple


from repro.federated.payload import ClientUpdate

#: Per-round client fates.
OK, OFFLINE, STRAGGLER = "ok", "offline", "straggler"


@dataclass
class AvailabilityConfig:
    """Probabilities of the three per-round client fates.

    ``offline_rate`` + ``straggler_rate`` must stay below 1; whatever
    remains is the on-time probability.  Stragglers wait in a
    :class:`StragglerBuffer` at its defaults: discounted by 0.5 when
    finally applied, and kept until then.
    """

    offline_rate: float = 0.1
    straggler_rate: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        for name, rate in (("offline_rate", self.offline_rate),
                           ("straggler_rate", self.straggler_rate)):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if self.offline_rate + self.straggler_rate >= 1.0:
            raise ValueError(
                "offline_rate + straggler_rate must leave room for on-time "
                f"clients, got {self.offline_rate} + {self.straggler_rate}"
            )

    @property
    def enabled(self) -> bool:
        return self.offline_rate > 0 or self.straggler_rate > 0


def client_fate(
    config: AvailabilityConfig, epoch: int, round_index: int, user_id: int
) -> str:
    """This client's fate this round — deterministic in all arguments."""
    digest = hashlib.sha256(
        f"{config.seed}:{epoch}:{round_index}:{user_id}".encode()
    ).digest()
    draw = int.from_bytes(digest[:8], "little") / float(2**64)
    if draw < config.offline_rate:
        return OFFLINE
    if draw < config.offline_rate + config.straggler_rate:
        return STRAGGLER
    return OK


def split_round(
    config: AvailabilityConfig,
    epoch: int,
    round_index: int,
    user_ids: Sequence[int],
) -> Tuple[List[int], List[int], List[int]]:
    """Partition a round's selected users into (on_time, stragglers, offline)."""
    on_time: List[int] = []
    stragglers: List[int] = []
    offline: List[int] = []
    for user_id in user_ids:
        fate = client_fate(config, epoch, round_index, int(user_id))
        if fate == OK:
            on_time.append(int(user_id))
        elif fate == STRAGGLER:
            stragglers.append(int(user_id))
        else:
            offline.append(int(user_id))
    return on_time, stragglers, offline


def merge_duplicate_users(updates: Sequence[ClientUpdate]) -> List[ClientUpdate]:
    """Combine multiple uploads from the same user into one (summed) upload.

    A user can legitimately appear twice in one aggregation: a buffered
    straggler update from the previous round plus a fresh on-time one.
    Aggregation is additive, so summing the deltas first is equivalent —
    and required under secure aggregation, where each participant may
    hold exactly one masking slot per round.

    Accounting survives the merge: both uploads really crossed the wire,
    so the merged ``upload_size`` is the *sum* of the constituents' wire
    costs (recomputing it from the merged union would under-count Table
    III whenever the two uploads' touched rows overlap, or when either
    carried a compressed-size override), and the merged ``train_loss``
    is the example-weighted mean of the constituents'.
    """
    merged: dict = {}
    order: List[int] = []
    for update in updates:
        existing = merged.get(update.user_id)
        if existing is None:
            merged[update.user_id] = update
            order.append(update.user_id)
            continue
        heads = {
            group: dict(state) for group, state in existing.head_deltas.items()
        }
        for group, state in update.head_deltas.items():
            bucket = heads.setdefault(group, {})
            for name, values in state.items():
                bucket[name] = bucket[name] + values if name in bucket else values.copy()
        num_examples = existing.num_examples + update.num_examples
        if num_examples > 0:
            train_loss = (
                existing.num_examples * existing.train_loss
                + update.num_examples * update.train_loss
            ) / num_examples
        else:
            train_loss = update.train_loss
        merged[update.user_id] = ClientUpdate(
            user_id=existing.user_id,
            group=existing.group,
            embedding_delta=existing.embedding_delta + update.embedding_delta,
            head_deltas=heads,
            num_examples=num_examples,
            train_loss=float(train_loss),
            upload_size_override=float(existing.upload_size + update.upload_size),
        )
    return [merged[user_id] for user_id in order]


class StragglerBuffer:
    """Holds late updates until a later round applies them, down-weighted.

    The buffer is the asynchronous-aggregation primitive of this repo:
    the synchronous trainer uses it for one-round-late stragglers, the
    event-driven simulator (:mod:`repro.sim.async_server`) generalises it
    into FedBuff-style buffered aggregation via the per-add ``weight``
    override (staleness-dependent discounts) and the max-age eviction
    policy (``tick`` advances one aggregation round and expels updates
    that waited longer than ``max_age_rounds``, counting them in
    ``dropped_updates`` instead of letting them vanish silently).
    """

    def __init__(
        self,
        staleness_weight: float = 0.5,
        max_age_rounds: Optional[int] = None,
    ) -> None:
        self.staleness_weight = staleness_weight
        self.max_age_rounds = max_age_rounds
        #: ``[age_in_rounds, update]`` pairs; age 0 = added this round.
        self._pending: List[List] = []
        self.dropped_updates = 0

    def add(
        self, updates: Iterable[ClientUpdate], weight: Optional[float] = None
    ) -> None:
        """Buffer ``updates``, scaled once on entry.

        ``weight`` overrides the default staleness discount (the async
        server computes it per update from the observed staleness);
        ``weight == 1.0`` stores the update object untouched, keeping
        zero-staleness paths bitwise-identical to direct application.
        """
        factor = self.staleness_weight if weight is None else weight
        for update in updates:
            scaled = update if factor == 1.0 else update.scaled(factor)
            self._pending.append([0, scaled])

    def tick(self) -> List[ClientUpdate]:
        """Advance one aggregation round; return the updates that expired.

        Every buffered update ages by one round; those now older than
        ``max_age_rounds`` are evicted and returned (callers account them
        — they are dropped *data*, not dropped *bytes*: their upload cost
        already happened).  With ``max_age_rounds=None`` nothing ever
        expires and this only ages entries.
        """
        evicted: List[ClientUpdate] = []
        kept: List[List] = []
        for entry in self._pending:
            entry[0] += 1
            if self.max_age_rounds is not None and entry[0] > self.max_age_rounds:
                evicted.append(entry[1])
            else:
                kept.append(entry)
        self._pending = kept
        self.dropped_updates += len(evicted)
        return evicted

    def drain(self) -> List[ClientUpdate]:
        """Pop everything buffered (applied together with the next round)."""
        drained, self._pending = [update for _, update in self._pending], []
        return drained

    def export_pending(self) -> List[ClientUpdate]:
        """Buffered updates as stored (already staleness-scaled) — used by
        checkpointing, which must persist them without re-weighting."""
        return [update for _, update in self._pending]

    def export_ages(self) -> List[int]:
        """Per-entry ages, aligned with :meth:`export_pending`."""
        return [int(age) for age, _ in self._pending]

    def restore_pending(
        self, updates: Iterable[ClientUpdate], ages: Sequence[int]
    ) -> None:
        """Replace the buffer with checkpointed updates, verbatim (no
        re-scaling: they were scaled once when originally added).  ``ages``
        restores their eviction clocks."""
        updates = list(updates)
        if len(ages) != len(updates):
            raise ValueError(
                f"{len(ages)} ages for {len(updates)} buffered updates"
            )
        self._pending = [[int(age), update] for age, update in zip(ages, updates)]

    def discard_user(self, user_id: int) -> None:
        """Drop any buffered update from ``user_id`` (client retirement)."""
        self._pending = [e for e in self._pending if e[1].user_id != user_id]

    def __len__(self) -> int:
        return len(self._pending)
