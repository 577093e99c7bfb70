"""Adversarial training harness: HeteFedRec with a malicious sub-population.

:class:`AdversarialHeteFedRec` is a drop-in HeteFedRec trainer where a
configured fraction of clients poisons its uploads and the server may
run a robust aggregation rule.  Both knobs are independent, giving the
four quadrants the robustness bench sweeps: clean/undefended,
clean/defended (the defence's utility cost), attacked/undefended (the
damage), attacked/defended (the recovery).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.config import HeteFedRecConfig
from repro.core.hetefedrec import HeteFedRec
from repro.data.dataset import ClientData
from repro.federated.payload import ClientUpdate
from repro.robustness.attacks import AttackConfig, choose_malicious, poison_update
from repro.robustness.defenses import (
    RobustAggregationConfig,
    krum_select,
    robust_embedding_aggregate,
    server_clip_updates,
)


class AdversarialHeteFedRec(HeteFedRec):
    """HeteFedRec under attack, optionally behind a robust aggregator."""

    method_name = "hetefedrec_adversarial"

    def __init__(
        self,
        num_items: int,
        clients: Sequence[ClientData],
        config: HeteFedRecConfig,
        attack: Optional[AttackConfig] = None,
        defense: Optional[RobustAggregationConfig] = None,
        group_of: Optional[Mapping[int, str]] = None,
    ) -> None:
        if config.secure_aggregation is not None and defense is not None:
            raise ValueError(
                "robust aggregation needs plaintext uploads; it cannot run "
                "under secure aggregation (the server only sees sums there)"
            )
        self.attack = attack
        self.defense = defense
        super().__init__(num_items, clients, config, group_of=group_of)
        self.malicious = (
            choose_malicious(clients, attack.fraction, seed=attack.seed)
            if attack is not None
            else set()
        )
        self._attack_rng = np.random.default_rng(
            attack.seed + 101 if attack is not None else 0
        )

    def _checkpoint_rngs(self) -> Dict[str, np.random.Generator]:
        rngs = super()._checkpoint_rngs()
        # The poison stream advances once per malicious client per round;
        # without registration a resumed attack run replays fresh noise
        # and silently diverges from the uninterrupted one.
        rngs["attack"] = self._attack_rng
        return rngs

    # ------------------------------------------------------------------
    # Client side: the malicious population swaps its upload
    # ------------------------------------------------------------------
    def _train_clients(self, users: Sequence[int]) -> List[ClientUpdate]:
        # Poisoning is a pure post-transform of the finished upload, so it
        # sits on the round hook and local training stays on the round
        # engine.  List order fixes the ``_attack_rng`` draw order.
        return [
            poison_update(update, self.attack, self._attack_rng)
            if update.user_id in self.malicious
            else update
            for update in super()._train_clients(users)
        ]

    # ------------------------------------------------------------------
    # Server side: defence before aggregation
    # ------------------------------------------------------------------
    def apply_updates(self, updates: Sequence[ClientUpdate]) -> None:
        if self.defense is not None and self.defense.kind == "clip":
            updates = server_clip_updates(updates, self.defense.clip_headroom)
        elif self.defense is not None and self.defense.kind == "krum":
            dims = {g: self.config.dims[g] for g in self.groups}
            updates = krum_select(updates, dims)
        super().apply_updates(updates)

    def aggregate_embeddings(
        self, updates: Sequence[ClientUpdate]
    ) -> Dict[str, np.ndarray]:
        if self.defense is not None and self.defense.kind in ("median", "trimmed_mean"):
            dims = {g: self.config.dims[g] for g in self.groups}
            return robust_embedding_aggregate(updates, dims, kind=self.defense.kind)
        return super().aggregate_embeddings(updates)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def honest_clients(self) -> List[int]:
        return [c.user_id for c in self.clients if c.user_id not in self.malicious]

    def summary(self) -> Dict[str, object]:
        return {
            "attack": self.attack.kind if self.attack else "none",
            "malicious_clients": len(self.malicious),
            "defense": self.defense.kind if self.defense else "none",
        }
