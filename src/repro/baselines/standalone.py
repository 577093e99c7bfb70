"""Standalone baseline: heterogeneous sizes, zero collaboration.

Every client keeps a private copy of the full model (item table + head,
sized for its group) and trains it locally each epoch.  Nothing is ever
uploaded or aggregated — the paper's lower bound demonstrating that
collaborative signal, not model capacity, is what FedRecs live on.  The
round engine trains the personal copies (``_client_states``) the same
way it trains downloaded global models, and returns empty updates.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.core.grouping import divide_clients
from repro.data.dataset import ClientData
from repro.federated.checkpoint import CheckpointMismatchError
from repro.federated.trainer import FederatedConfig, FederatedTrainer


class StandaloneTrainer(FederatedTrainer):
    """Per-client local training with no parameter exchange."""

    method_name = "standalone"

    def __init__(
        self,
        num_items: int,
        clients: Sequence[ClientData],
        config: FederatedConfig,
        ratios: Sequence[float] = (5, 3, 2),
    ) -> None:
        super().__init__(num_items, clients, divide_clients(clients, ratios), config)
        # Each client's personal copy of the public parameters, seeded from
        # the (shared-prefix) global initialisation so standalone and
        # federated runs start from identical points.
        self._client_states: Dict[int, Dict[str, np.ndarray]] = {}
        for client in self.clients:
            group = self.group_of[client.user_id]
            self._client_states[client.user_id] = self.models[group].state_dict()

    def apply_updates(self, updates) -> None:
        """No server, no aggregation."""

    # ------------------------------------------------------------------
    # Checkpointing: the personal models ARE the training state here
    # ------------------------------------------------------------------
    def _checkpoint_extra_state(self):
        arrays, meta = super()._checkpoint_extra_state()
        for user_id, state in self._client_states.items():
            for name, values in state.items():
                arrays[f"standalone/{user_id}/{name}"] = values
        return arrays, meta

    def _restore_checkpoint_extra_state(self, archive, meta) -> None:
        states: Dict[int, Dict[str, np.ndarray]] = {}
        prefix = "standalone/"
        for key in archive:
            if key.startswith(prefix):
                user_str, _, name = key[len(prefix):].partition("/")
                states.setdefault(int(user_str), {})[name] = archive[key]
        if set(states) != set(self._client_states):
            raise CheckpointMismatchError(
                "checkpoint's standalone client models do not cover this "
                "trainer's client population"
            )
        super()._restore_checkpoint_extra_state(archive, meta)
        self._client_states = states

    # ------------------------------------------------------------------
    # Inference against the personal model
    # ------------------------------------------------------------------
    def score_item_matrix(self, clients: Sequence[ClientData]) -> np.ndarray:
        """One row per client, each scored by that client's personal model.

        Each personal table and head is loaded into its group's model in
        turn and scored through ``score_matrix``; the global models are
        restored before returning.
        """
        scores = np.empty((len(clients), self.num_items))
        global_states: Dict[str, Dict[str, np.ndarray]] = {}
        try:
            for row, client in enumerate(clients):
                group = self.group_of[client.user_id]
                model = self.models[group]
                if group not in global_states:
                    global_states[group] = model.state_dict()
                model.load_state_dict(self._client_states[client.user_id])
                scores[row] = model.score_matrix(
                    self.user_tables[group].take([client.user_id]),
                    train_items=[client.train_items],
                )[0]
        finally:
            for group, state in global_states.items():
                self.models[group].load_state_dict(state)
        return scores
