"""FedBuff-style asynchronous server over the discrete-event engine.

:class:`AsyncFedServer` generalises the synchronous trainer's
:class:`~repro.federated.availability.StragglerBuffer` into real
buffered aggregation: uploads arrive whenever the network delivers
them, land in the buffer scaled by a *per-update* staleness discount
(``staleness_weight ** (server_version - version_trained_at)``), and an
aggregation window closes when ``clients_per_round`` uploads (its
quorum) are buffered — or
when its deadline expires, at which point an explicit policy decides
between applying short (``apply``), extending the deadline once or more
(``extend``), and carrying the buffer into the next window (``skip``,
with max-age eviction so stale updates are dropped *accountably*).

Synchronous-mirror contract
---------------------------
With ``arrival.kind="rounds"``, zero latency and no dropout, the event
order degenerates to the
synchronous schedule: every cohort trains as one batch against the same
snapshot, uploads arrive in dispatch order with staleness 0 (weight
exactly 1.0 — updates are buffered untouched), and each window closes
exactly at its cohort boundary.  Driving a real
:class:`~repro.federated.trainer.FederatedTrainer` through
:class:`TrainerBackend` then reproduces ``fit()``'s history and final
parameters bitwise — the equivalence test the determinism contract
hangs off.
"""

from __future__ import annotations

import hashlib
import time
from typing import List, Optional, Sequence

import numpy as np

from repro.federated.availability import StragglerBuffer, merge_duplicate_users
from repro.federated.communication import head_parameter_count
from repro.sim.config import APPLY, EXTEND, ScenarioResult, SimulationConfig
from repro.sim.engine import DEADLINE, DISPATCH, UPLOAD, EventQueue, build_models

#: A failed upload's *n*-th retry waits ``RETRY_BACKOFF ** n`` sim-seconds
#: on top of its latency (exponential backoff).
RETRY_BACKOFF = 1.5


class TrainerBackend:
    """Drive a real federated trainer from the simulator.

    Participation comes from the trainer's own
    :meth:`~repro.federated.trainer.FederatedTrainer.participation_rounds`
    (consuming the same permutation RNG the synchronous loop would), so
    the zero-fault configuration replays the paper's schedule exactly.
    """

    def __init__(self, trainer) -> None:
        self.trainer = trainer

    @property
    def num_clients(self) -> int:
        return len(self.trainer.clients)

    def participation_rounds(self, epoch: int) -> List[List[int]]:
        return self.trainer.participation_rounds(epoch)

    def train(self, users: Sequence[int], version: int) -> list:
        return self.trainer._train_clients(list(users))

    def apply(self, updates: Sequence) -> None:
        self.trainer.apply_updates(list(updates))

    def end_epoch(self, epoch: int, losses: Sequence[float]) -> None:
        trainer = self.trainer
        trainer.post_aggregate(epoch)
        epsilon = delta = None
        spent = trainer.privacy_spent()
        if spent is not None:
            epsilon, delta = spent.epsilon, spent.delta
        trainer.history.log(
            epoch, float(np.mean(losses)) if len(losses) else 0.0,
            epsilon=epsilon, delta=delta,
        )
        trainer._epochs_done = epoch

    def download_size(self, user_id: int) -> float:
        trainer = self.trainer
        group = trainer.group_of[user_id]
        size = trainer.num_items * trainer.config.dims[group]
        for head_group in trainer.trained_head_groups(group):
            size += head_parameter_count(
                trainer.config.dims[head_group], trainer.config.hidden
            )
        return float(size)

    def digest(self) -> str:
        """SHA-256 over every public parameter and private embedding."""
        trainer = self.trainer
        digest = hashlib.sha256()
        for group in trainer.groups:
            model = trainer.models[group]
            digest.update(f"V:{group}".encode())
            digest.update(np.ascontiguousarray(model.item_embedding.weight.data).tobytes())
            for name, values in sorted(model.head.state_dict().items()):
                digest.update(f"Theta:{group}:{name}".encode())
                digest.update(np.ascontiguousarray(values).tobytes())
            users = trainer.user_tables[group]
            digest.update(f"U:{group}".encode())
            digest.update(users.ids.tobytes())
            digest.update(users.values.tobytes())
        return digest.hexdigest()


class AsyncFedServer:
    """Event-driven buffered-aggregation server over any backend."""

    def __init__(
        self,
        backend,
        config: SimulationConfig,
        name: str = "scenario",
        streams=None,
    ) -> None:
        self.backend = backend
        self.config = config
        self.streams, self._arrival, self._latency, self._dropout = build_models(
            config, streams
        )
        # staleness_weight is applied per add (computed from observed
        # staleness); the buffer's own default never fires.
        self._buffer = StragglerBuffer(
            staleness_weight=1.0, max_age_rounds=config.buffer_max_age_rounds
        )
        self.version = 0
        self.now = 0.0
        self._window_id = 0
        self._window_extensions = 0
        self._inflight = 0
        self.result = ScenarioResult(name=name)
        self._epoch_losses: List[float] = []

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def run(self) -> ScenarioResult:
        started = time.perf_counter()
        for epoch in range(1, self.config.epochs + 1):
            self._run_epoch(epoch)
        result = self.result
        result.sim_time = self.now
        result.mean_final_loss = (
            float(np.mean(self._epoch_losses)) if self._epoch_losses else 0.0
        )
        result.param_digest = self.backend.digest()
        result.wall_seconds = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------
    # Epoch loop
    # ------------------------------------------------------------------
    def _run_epoch(self, epoch: int) -> None:
        queue = EventQueue()
        cohorts = self.backend.participation_rounds(epoch)
        for when, cohort in self._arrival.schedule(self.now, cohorts):
            queue.push(when, DISPATCH, users=cohort)
            self._inflight += 1
        self._open_window(queue)
        self._epoch_losses = []

        while queue:
            event = queue.pop()
            self.now = max(self.now, event.time)
            if event.kind == DISPATCH:
                self._inflight -= 1
                self._handle_dispatch(queue, event)
            elif event.kind == UPLOAD:
                self._inflight -= 1
                self._handle_upload(queue, event)
            else:
                self._handle_deadline(queue, event)

        # Epoch drained: every upload resolved one way or the other.  A
        # non-empty buffer is a window that could not reach quorum —
        # apply it short rather than lose trained work silently.
        if len(self._buffer):
            self._close_round(queue, short=True)
        self.result.events_processed += queue.events_processed
        self.backend.end_epoch(epoch, self._epoch_losses)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _handle_dispatch(self, queue: EventQueue, event) -> None:
        available: List[int] = []
        for user in event.payload["users"]:
            if self._dropout.check_available(user):
                available.append(user)
            else:
                self.result.clients_unavailable += 1
        if not available:
            return
        updates = self.backend.train(available, self.version)
        self.result.clients_simulated += len(available)
        self._epoch_losses.extend(float(u.train_loss) for u in updates)
        for update in updates:
            self.result.network.record_download(
                self.backend.download_size(update.user_id)
            )
            self._schedule_upload(queue, update, attempt=0)

    def _schedule_upload(self, queue: EventQueue, update, attempt: int,
                         extra_delay: float = 0.0) -> None:
        cfg = self.config
        latency = self._latency.sample()
        if latency > cfg.upload_timeout:
            # The server gives up at the timeout; whatever the client
            # sent is wasted and the client retries after backoff.
            queue.push(
                self.now + extra_delay + cfg.upload_timeout, UPLOAD,
                update=update, version=self.version, attempt=attempt,
                failed="timeout", latency=latency,
            )
        elif self._dropout.upload_drops():
            fraction = cfg.dropout.drop_mid_upload_fraction
            queue.push(
                self.now + extra_delay + latency * fraction, UPLOAD,
                update=update, version=self.version, attempt=attempt,
                failed="drop", latency=latency,
            )
        else:
            queue.push(
                self.now + extra_delay + latency, UPLOAD,
                update=update, version=self.version, attempt=attempt,
                failed=None, latency=latency,
            )
        self._inflight += 1

    def _handle_upload(self, queue: EventQueue, event) -> None:
        cfg = self.config
        payload = event.payload
        update = payload["update"]
        attempt = payload["attempt"]
        failed = payload["failed"]
        is_retry = attempt > 0

        if failed is not None:
            wasted = float(update.upload_size)
            if failed == "drop":
                wasted *= cfg.dropout.drop_mid_upload_fraction
            self.result.network.record_drop(wasted, retry=is_retry)
            if attempt < cfg.max_retries:
                # Bounded retry with exponential backoff; the update was
                # already trained, only the transfer repeats.
                self._schedule_upload(
                    queue, update, attempt + 1,
                    extra_delay=RETRY_BACKOFF ** attempt,
                )
            else:
                self.result.dropped_updates += 1
            return

        duplicate = payload.get("duplicate", False)
        self.result.network.record_delivery(
            float(update.upload_size), float(payload["latency"]),
            duplicate=duplicate, retry=is_retry,
        )
        staleness = self.version - payload["version"]
        weight = cfg.staleness_weight ** staleness if staleness > 0 else 1.0
        self._buffer.add([update], weight=weight)

        if (
            not duplicate
            and cfg.duplicate_rate > 0.0
            and self.streams.duplicate.random() < cfg.duplicate_rate
        ):
            # A retry raced its original: the same payload arrives
            # again shortly — the aggregation path must merge it.
            queue.push(
                self.now + cfg.duplicate_delay, UPLOAD,
                update=update, version=payload["version"],
                attempt=attempt, failed=None,
                latency=float(payload["latency"]) + cfg.duplicate_delay,
                duplicate=True,
            )
            self._inflight += 1

        if len(self._buffer) >= cfg.clients_per_round:
            self._close_round(queue, short=False)

    def _handle_deadline(self, queue: EventQueue, event) -> None:
        if event.payload["window"] != self._window_id:
            return  # a window that already closed; stale timer
        if self._inflight == 0:
            return  # nothing can arrive anymore; the epoch flush decides
        cfg = self.config
        if len(self._buffer) == 0:
            self._arm_deadline(queue)  # empty window: just re-arm
            return
        if cfg.deadline_policy == APPLY:
            self._close_round(queue, short=True)
        elif cfg.deadline_policy == EXTEND:
            if self._window_extensions < cfg.max_extensions:
                self._window_extensions += 1
                self.result.rounds_extended += 1
                self._arm_deadline(queue)
            else:
                self._close_round(queue, short=True)
        else:  # SKIP: carry the buffer, age it, open a fresh window
            evicted = self._buffer.tick()
            self.result.dropped_updates += len(evicted)
            self.result.rounds_skipped += 1
            self._open_window(queue)

    # ------------------------------------------------------------------
    # Aggregation-window management
    # ------------------------------------------------------------------
    def _open_window(self, queue: EventQueue) -> None:
        self._window_id += 1
        self._window_extensions = 0
        self._arm_deadline(queue)

    def _arm_deadline(self, queue: EventQueue) -> None:
        deadline = self.config.round_deadline
        if deadline != float("inf"):
            queue.push(self.now + deadline, DEADLINE, window=self._window_id)

    def _close_round(self, queue: Optional[EventQueue], short: bool) -> None:
        buffered = self._buffer.drain()
        merged = merge_duplicate_users(buffered)
        self.result.duplicates_merged += len(buffered) - len(merged)
        self.backend.apply(merged)
        self.version += 1
        self.result.rounds_applied += 1
        self.result.updates_aggregated += len(merged)
        if short:
            self.result.short_rounds += 1
        if queue is not None:
            self._open_window(queue)
