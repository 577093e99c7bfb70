"""Population-scale surrogate client fleet.

Driving real :class:`~repro.federated.client.ClientRuntime` training for
:math:`10^5` clients is neither feasible nor necessary for studying the
*protocol* (scheduling, buffering, retries, accounting): the server-side
machinery only sees :class:`~repro.federated.payload.ClientUpdate`
objects.  :class:`SurrogateFleet` produces structurally faithful updates
— row-sparse embedding deltas over a handful of touched items, example
counts, decaying losses — from cheap vectorised draws.  Each client's
private vector lives in one in-memory
:class:`~repro.federated.user_table.UserTable`, the same form the
trainer, checkpoint and serving use: at :math:`10^5` clients × dim 8
in float32 the whole table is 3.2 MB.

Every training draw comes from the fleet's owned ``population`` stream
(and the ``attack`` stream for poisoning), so a scenario's updates are
a pure function of its seed.  The initial user rows are one draw from a
generator keyed on the seed alone, never from a
:class:`~repro.sim.engine.SimStreams` stream, so no owned stream
shifts.  Malicious clients run the real
:mod:`repro.robustness.attacks` transformations over their honest
surrogate updates — spam/poisoning at population scale exercises the
identical code path a trainer under ``config.attack`` runs.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence, Set

import numpy as np

from repro.federated.payload import ClientUpdate, SparseRowDelta
from repro.federated.user_table import UserTable
from repro.robustness.attacks import AttackConfig, poison_update
from repro.sim.config import SimulationConfig

#: The single pseudo-group surrogate updates belong to.
SURROGATE_GROUP = "s"


class SurrogateFleet:
    """Backend protocol implementation over synthetic clients."""

    def __init__(
        self,
        config: SimulationConfig,
        rng: np.random.Generator,
        attack: Optional[AttackConfig] = None,
        attack_rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.config = config
        self._rng = rng
        self.item_table = np.zeros(
            (config.num_items, config.dim), dtype=np.float64
        )
        initial = np.random.default_rng(config.seed).normal(
            0.0, 0.01, size=(config.num_clients, config.dim)
        )
        self.users = UserTable(
            np.arange(config.num_clients),
            initial.astype(np.float32),
            config.dim,
            np.float32,
        )
        self.attack = attack
        self._attack_rng = attack_rng
        self.malicious: Set[int] = set()
        if attack is not None and attack.fraction > 0.0:
            if attack_rng is None:
                raise ValueError("an attack needs its owned attack stream")
            count = int(round(config.num_clients * attack.fraction))
            if count:
                chosen = attack_rng.choice(
                    config.num_clients, size=count, replace=False
                )
                self.malicious = {int(u) for u in chosen}
        self.poisoned_updates = 0
        self._version_decay = 0.05

    @property
    def num_clients(self) -> int:
        return self.config.num_clients

    # ------------------------------------------------------------------
    # Backend protocol
    # ------------------------------------------------------------------
    def participation_rounds(self, epoch: int) -> List[List[int]]:
        queue = self._rng.permutation(self.config.num_clients)
        step = self.config.clients_per_round
        return [
            [int(u) for u in queue[start:start + step]]
            for start in range(0, len(queue), step)
        ]

    def train(self, users: Sequence[int], version: int) -> List[ClientUpdate]:
        cfg = self.config
        ids = np.asarray(list(users), dtype=np.int64)
        count = ids.size
        k, dim = cfg.items_per_client, cfg.dim
        decay = 1.0 / (1.0 + self._version_decay * version)

        # One vectorised draw per quantity — per-user loops below only
        # reshape, never touch the stream, so the draw count (and thus
        # determinism) depends only on cohort sizes.
        items = self._rng.integers(0, cfg.num_items, size=(count, k))
        item_moves = self._rng.normal(0.0, 0.01 * decay, size=(count, k, dim))
        user_moves = self._rng.normal(0.0, 0.005 * decay, size=(count, dim))
        loss_noise = self._rng.normal(0.0, 0.01, size=count)

        self.users.put(ids, self.users.take(ids) + user_moves)

        updates: List[ClientUpdate] = []
        for i in range(count):
            rows, inverse = np.unique(items[i], return_inverse=True)
            values = np.zeros((rows.size, dim), dtype=np.float64)
            np.add.at(values, inverse, item_moves[i])
            update = ClientUpdate(
                user_id=int(ids[i]),
                group=SURROGATE_GROUP,
                embedding_delta=SparseRowDelta(cfg.num_items, rows, values),
                head_deltas={},
                num_examples=k,
                train_loss=float(0.6931 * decay + loss_noise[i]),
            )
            if update.user_id in self.malicious:
                update = poison_update(update, self.attack, self._attack_rng)
                self.poisoned_updates += 1
            updates.append(update)
        return updates

    def apply(self, updates: Sequence[ClientUpdate]) -> None:
        for update in updates:
            delta = update.embedding_delta
            self.item_table[delta.rows] += delta.values

    def end_epoch(self, epoch: int, losses: Sequence[float]) -> None:
        pass

    def download_size(self, user_id: int) -> float:
        return float(self.config.num_items * self.config.dim)

    def digest(self) -> str:
        digest = hashlib.sha256(b"item_table")
        digest.update(np.ascontiguousarray(self.item_table).tobytes())
        digest.update(b"users")
        digest.update(self.users.values.tobytes())
        return digest.hexdigest()
