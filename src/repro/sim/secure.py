"""Secure-aggregation adapter for the event-driven simulator.

:class:`SecureAggregatingBackend` wraps any simulator backend (the
surrogate fleet, or a :class:`~repro.sim.async_server.TrainerBackend`'s
inner fleet shape) and routes every aggregation through the full phased
masking protocol (:mod:`repro.federated.secure_protocol`), injecting
faults drawn from the simulation's owned ``secure`` stream:

* each round targets one protocol phase (cycling advertise → shares →
  masked_input → unmask), dropping each participant there with
  ``dropout_rate`` and duplicating its message with ``duplicate_rate``;
* every ``storm_every``-th round escalates the drop probability to
  ``storm_rate`` so the below-threshold abort path runs deterministically
  under a fixed seed;
* aborted rounds conserve work: their updates carry into the next
  ``apply`` (the simulator's analogue of the trainer's straggler
  fallback) and are merged with the fresh cohort;
* every applied round is *conservation-checked*: the decoded masked sum
  must match the surviving clients' plain sum within the fixed-point
  quantisation bound × survivor count, or the adapter raises — a
  protocol regression can never hide inside a passing scenario.

The adapter owns exactly one RNG stream and consumes two draws per
participant per round (drop, duplicate), so scenario fingerprints remain
a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.federated.availability import merge_duplicate_users
from repro.federated.payload import ClientUpdate
from repro.federated.secure_agg import FixedPointCodec, SecureAggregationConfig
from repro.federated.secure_protocol import PHASES, FaultPlan, run_secure_round


@dataclass
class SecureScenarioConfig:
    """Fault-injection knobs for a secure-aggregation scenario."""

    #: Per-participant probability of dropping at the round's target phase.
    dropout_rate: float = 0.15
    #: Per-participant probability of duplicating its target-phase message.
    duplicate_rate: float = 0.1
    #: Every Nth round is a storm: drop probability jumps to ``storm_rate``
    #: (0 disables storms).
    storm_every: int = 0
    storm_rate: float = 0.75

    def __post_init__(self) -> None:
        for name in ("dropout_rate", "duplicate_rate", "storm_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.storm_every < 0:
            raise ValueError(f"storm_every must be >= 0, got {self.storm_every}")


class SecureAggregatingBackend:
    """Wrap a simulator backend so every ``apply`` is a secure round."""

    def __init__(
        self,
        inner,
        dims: Dict[str, int],
        config: SecureScenarioConfig,
        rng: np.random.Generator,
    ) -> None:
        self.inner = inner
        self.dims = dict(dims)
        self.config = config
        self._rng = rng
        self._round = 0
        self._carried: List[ClientUpdate] = []
        codec = FixedPointCodec()
        self._quant_bound = codec.quantisation_error_bound()
        # Scenario-facing counters (copied into ScenarioResult by _run).
        self.rounds_applied = 0
        self.rounds_aborted = 0
        self.dropouts_injected: Dict[str, int] = {phase: 0 for phase in PHASES}
        self.phase_wire: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        self.max_sum_error = 0.0
        self.saturated_scalars = 0

    # -- backend protocol: everything but apply() delegates -------------
    @property
    def num_clients(self) -> int:
        return self.inner.num_clients

    def participation_rounds(self, epoch: int):
        return self.inner.participation_rounds(epoch)

    def train(self, users, version):
        return self.inner.train(users, version)

    def end_epoch(self, epoch: int, losses) -> None:
        self.inner.end_epoch(epoch, losses)

    def download_size(self, user_id: int) -> float:
        return self.inner.download_size(user_id)

    def digest(self) -> str:
        return self.inner.digest()

    @property
    def carried_unapplied(self) -> int:
        """Updates still waiting on a successful round (end-of-run loss)."""
        return len(self._carried)

    # -- the secure aggregation path ------------------------------------
    def apply(self, updates: Sequence[ClientUpdate]) -> None:
        merged = merge_duplicate_users(list(self._carried) + list(updates))
        self._carried = []
        if not merged:
            return
        self._round += 1
        faults = self._draw_faults(merged)
        embeddings, heads, report = run_secure_round(
            merged, self.dims, SecureAggregationConfig(), self._round, faults
        )
        for phase in PHASES:
            self.dropouts_injected[phase] += len(
                report.dropouts_by_phase.get(phase, [])
            )
            self.phase_wire[phase] += report.phase_wire.get(phase, 0.0)
        self.saturated_scalars += int(report.saturated_scalars)

        if report.aborted:
            self.rounds_aborted += 1
            self._carried = list(merged)
            return
        self.rounds_applied += 1

        survivor_ids = set(report.survivors)
        surviving = [u for u in merged if int(u.user_id) in survivor_ids]
        self._check_conservation(embeddings, surviving)

        # Hand the inner backend the decoded sums as one synthetic
        # update per group (the constructor encodes the dense sum) —
        # additive application is what every backend's apply() implements.
        synthetic = [
            ClientUpdate(
                user_id=-1,
                group=group,
                embedding_delta=embeddings[group],
                head_deltas={group: heads[group]} if group in heads else {},
                num_examples=0,
                train_loss=0.0,
            )
            for group in sorted(embeddings)
        ]
        self.inner.apply(synthetic)

    def _draw_faults(self, updates: Sequence[ClientUpdate]) -> FaultPlan:
        """Two draws per participant, in sorted-id order (determinism)."""
        cfg = self.config
        target = PHASES[(self._round - 1) % len(PHASES)]
        storm = cfg.storm_every > 0 and self._round % cfg.storm_every == 0
        drop_rate = cfg.storm_rate if storm else cfg.dropout_rate
        drops, duplicates = set(), set()
        for uid in sorted(int(u.user_id) for u in updates):
            if self._rng.random() < drop_rate:
                drops.add(uid)
            if self._rng.random() < cfg.duplicate_rate:
                duplicates.add(uid)
        return FaultPlan(
            drops={target: frozenset(drops)},
            duplicates={target: frozenset(duplicates - drops)},
        )

    def _check_conservation(
        self,
        embeddings: Dict[str, np.ndarray],
        surviving: Sequence[ClientUpdate],
    ) -> None:
        """Decoded masked sum == survivors' plain sum, within quantisation."""
        bound = self._quant_bound * max(len(surviving), 1) + 1e-12
        for group, decoded in embeddings.items():
            plain = np.zeros_like(decoded)
            for update in surviving:
                delta = update.embedding_delta
                width = min(delta.width, plain.shape[1])
                np.add.at(plain, delta.rows, delta.values[:, :width])
            error = float(np.max(np.abs(decoded - plain))) if decoded.size else 0.0
            self.max_sum_error = max(self.max_sum_error, error)
            if error > bound:
                raise RuntimeError(
                    f"secure round {self._round} broke conservation for group "
                    f"{group!r}: max error {error:.3e} exceeds quantisation "
                    f"bound {bound:.3e} over {len(surviving)} survivors"
                )
